"""What a fresh interpreter imports.

The CLI and the library run on numpy alone: no module of the package imports
``scipy``, and a fresh interpreter that imports ``eulerexact`` and
``eulerexact.cli``, runs every mode once and computes a total mass by each
scheme has loaded no ``scipy`` module.  (scipy is a test dependency only: the
oracles in ``tests/_oracles.py`` use it, so that they share no code with the
library.)

The dynamics modes, ``integrate``, ``classify`` (2D and 3D) and ``sweep``, run
on the standard library.  numpy is imported only by ``sample`` and ``verify``,
by the package's ``fields`` and ``verify`` names on first access, by
``DensityProfile.value_many``, and by ``emden._ieee``, the overflow fallback of
the right-hand side.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

SCRIPT = """
import json, sys
import eulerexact
from eulerexact import cli
out, runs, schemes = sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])
codes = [cli.main([*argv, "--out", f"{out}/{i}"]) for i, argv in enumerate(runs)]
masses = []
if schemes:
    # total_mass of one compact-support field by each scheme
    from eulerexact import EmdenState3D, Field3D, PhysParams, total_mass
    fld = Field3D.from_params(PhysParams(K=1.0, gamma=1.5, lam=1.0, alpha=1.0, xi=1.0),
                              EmdenState3D(0.0, 1.3, 0.0, 0.8, 0.0))
    masses = [total_mass(fld, scheme=scheme).total_mass for scheme in schemes]
print(json.dumps({"codes": codes, "masses": masses, "modules": {
    top: sorted(m for m in sys.modules if m.split(".")[0] == top)
    for top in ("scipy", "numpy")}}))
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

# (argv, exit code): every dynamics mode, on runs that reach their end and on
# runs that collapse
DYNAMICS_RUNS = [
    (["integrate", "--gamma", "1.5", "--lambda", "1", "--t-end", "1"], 0),
    (["integrate", "--gamma", "1.5", "--lambda", "1", "--t-end", "1",
      "--times", "0.25,0.5,1"], 0),
    (["integrate", "--gamma", "1.4", "--lambda=-1", "--b1", "0.2", "--t-end", "30"], 3),
    (["classify", "--lambda", "0", "--b0", "1", "--b1", "-1"], 0),
    (["classify", "--gamma", "1.4", "--lambda=-1", "--b1", "0.2", "--t-end", "30"], 0),
    (["classify", "--dim", "2", "--gamma", "1.5", "--lambda=-1", "--xi", "1", "--a0", "1.1",
      "--t-end", "50"], 0),
    (["classify", "--dim", "2", "--gamma", "2", "--lambda=-3", "--t-end", "5"], 0),
    (["sweep", "--sweep", "lambda=-1,0", "--sweep", "b1=-0.5,0.5", "--sweep-t-end", "5"], 0),
]

# a start so far out that a**3 overflows: the right-hand side falls back to
# emden._ieee on every attempt
IEEE_FALLBACK_RUN = ["integrate", "--gamma", "3", "--lambda", "1", "--a0", "1e100",
                     "--a1", "1", "--t-end", "1e-3"]


def _fresh(script: str, *args: str) -> dict:
    """The JSON a fresh interpreter running ``script`` prints last."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          env=env, capture_output=True, text=True, timeout=60.0)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _run_modes(tmp_path, runs, schemes=()) -> dict:
    return _fresh(SCRIPT, str(tmp_path), json.dumps(runs), json.dumps(list(schemes)))


SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "eulerexact"


def test_no_module_of_the_package_imports_scipy():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), (path.name, node.lineno)


# imported but not called: bench/tracer.py wraps these names where the
# modules look them up, so they stay importable from these modules
TRACED_IMPORTS = {("cli", "classify_3d"), ("cli", "detect_period_2d"), ("classify", "integrate")}


def test_every_imported_name_is_used_or_exported():
    unused = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        # ``import a.b`` binds ``a``
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets):
                exported = set(ast.literal_eval(node.value))
        unused |= {(path.stem, name) for name in imported - used - exported}
    assert unused == TRACED_IMPORTS


def test_every_mode_runs_without_scipy(tmp_path):
    result = _run_modes(tmp_path, RUNS, schemes=("ellipsoid", "box"))
    assert result["codes"] == [0] * len(RUNS)
    ellipsoid, box = result["masses"]
    assert box == pytest.approx(ellipsoid, rel=2e-7)
    assert result["modules"]["scipy"] == []


def test_dynamics_modes_run_without_numpy(tmp_path):
    result = _run_modes(tmp_path, [argv for argv, _ in DYNAMICS_RUNS])
    assert result["codes"] == [code for _, code in DYNAMICS_RUNS]
    assert result["modules"]["numpy"] == []


def test_overflow_fallback_imports_numpy_on_first_use(tmp_path):
    from eulerexact import cli

    (tmp_path / "fresh").mkdir()
    result = _run_modes(tmp_path / "fresh", [IEEE_FALLBACK_RUN])
    code = cli.main([*IEEE_FALLBACK_RUN, "--out", str(tmp_path / "here")])
    assert result["codes"] == [code] == [0]
    # nothing else in integrate imports numpy
    assert "numpy" in result["modules"]["numpy"]
    assert (tmp_path / "fresh" / "0").read_bytes() == (tmp_path / "here").read_bytes()


API_SCRIPT = """
import json, sys
import eulerexact
loaded_on_import = "numpy" in sys.modules
namespace = {}
exec("from eulerexact import *", namespace)
import eulerexact.classify, eulerexact.config, eulerexact.emden, eulerexact.fields
import eulerexact.profiles, eulerexact.verify
owners = {}
for sub in ("classify", "config", "emden", "fields", "profiles", "verify"):
    module = getattr(eulerexact, sub)
    for name in set(module.__all__) & set(eulerexact.__all__):
        owners[name] = [sub, getattr(eulerexact, name) is getattr(module, name)]
try:
    eulerexact.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({"loaded_on_import": loaded_on_import,
                  "unbound": sorted(set(eulerexact.__all__) - namespace.keys()),
                  "owners": owners, "unknown": unknown}))
"""


def test_public_names_resolve_to_their_submodules_objects():
    import eulerexact

    result = _fresh(API_SCRIPT)
    assert not result["loaded_on_import"]
    assert result["unbound"] == []
    names = sorted(set(eulerexact.__all__) - {"__version__"})
    assert sorted(result["owners"]) == names
    assert all(same for _, same in result["owners"].values())
    assert result["owners"]["Field3D"] == ["fields", True]
    assert result["owners"]["refined_residual"] == ["verify", True]
    assert result["unknown"] == "module 'eulerexact' has no attribute 'no_such_name'"
