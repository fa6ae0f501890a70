"""The CLI and the library run on numpy alone: a fresh interpreter that
imports ``eulerexact`` and ``eulerexact.cli`` and runs every mode once has
loaded no ``scipy`` module.  (scipy stays a test dependency: the oracles in
``tests/_oracles.py`` use it, so that they share no code with the library.)"""

import json
import os
import subprocess
import sys

SCRIPT = """
import json, sys
import eulerexact
from eulerexact import cli
out, runs = sys.argv[1], json.loads(sys.argv[2])
codes = [cli.main([*argv, "--out", f"{out}/{i}"]) for i, argv in enumerate(runs)]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""

RUNS = [
    ["integrate", "--gamma", "1.5", "--lambda", "1", "--t-end", "1"],
    ["sample", "--gamma", "1.5", "--lambda", "1", "--grid-x=-1:1:3", "--grid-y=-1:1:3",
     "--grid-z=-1:1:3", "--times", "0,0.5"],
    ["verify", "--gamma", "1.4", "--lambda", "-0.5", "--verify-time", "0.5",
     "--verify-points", "3"],
    # 3D classify: a table cell, and an open cell integrated to its collapse
    ["classify", "--lambda", "0", "--b0", "1", "--b1", "-1"],
    ["classify", "--gamma", "1.4", "--lambda=-1", "--b1", "0.2", "--t-end", "30"],
    # 2D classify: a period (section crossings), and a collapse
    ["classify", "--dim", "2", "--gamma", "1.5", "--lambda=-1", "--xi", "1", "--a0", "1.1",
     "--t-end", "50"],
    ["classify", "--dim", "2", "--gamma", "2", "--lambda=-3", "--t-end", "5"],
    ["sweep", "--sweep", "lambda=-1,0", "--sweep", "b1=-0.5,0.5", "--sweep-t-end", "5"],
]


def test_every_mode_runs_without_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path), json.dumps(RUNS)],
                          env=env, capture_output=True, text=True, timeout=60.0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * len(RUNS)
    assert result["scipy"] == []
