import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from eulerexact.cli import FIELD_CSV_HEADER, main


def run(tmp_path, *argv):
    import contextlib
    import io
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestClassifyCommand:
    def test_linear_collapse_verdict(self, tmp_path):
        out = tmp_path / "c.json"
        code, _, _ = run(tmp_path, "classify", "--lambda", "0", "--b0", "1",
                         "--b1", "-1", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "finite_time_blowup"
        assert doc["T"] == 1.0
        assert doc["basis"] == "analytic"

    def test_dim2_long_horizon_stops_at_second_crossing(self, tmp_path):
        # the period is fixed after about 13 time units; t_end only bounds
        # the search, so a 1e7 horizon must neither hang nor change it
        periods = []
        for t_end in ("1e7", "100"):
            out = tmp_path / f"c{t_end}.json"
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                [os.path.join(os.path.dirname(__file__), "..", "src"),
                 os.environ.get("PYTHONPATH", "")]))
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from eulerexact.cli import main; sys.exit(main())",
                 "classify", "--dim", "2",
                 "--gamma", "1.5", "--lambda=-1", "--xi", "1", "--a0", "1.1",
                 "--t-end", t_end, "--out", str(out)],
                env=env, capture_output=True, timeout=5.0)
            assert proc.returncode == 0, proc.stderr
            periods.append(json.loads(out.read_text())["period"]["period"])
        assert periods == [6.361888521466641, 6.361888521466641]

    def test_dim2_reports_period(self, tmp_path):
        out = tmp_path / "c.json"
        code, _, _ = run(tmp_path, "classify", "--dim", "2", "--gamma", "1.5",
                         "--lambda", "-1", "--xi", "1", "--a0", "1.1",
                         "--t-end", "50", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["period"]["method"] == "pericenter-section"
        assert doc["period"]["period"] == pytest.approx(2 * math.pi, rel=0.05)
        assert "b0" not in doc["ic"]

    def test_dim2_ignores_b0(self, tmp_path):
        out = tmp_path / "c.json"
        code, _, err = run(tmp_path, "classify", "--dim", "2", "--b0", "0",
                           "--out", str(out))
        assert code == 0, err
        assert "b0" not in json.loads(out.read_text())["ic"]


class TestSampleCommand:
    def test_vacuum_grid(self, tmp_path):
        out = tmp_path / "f.csv"
        code, _, _ = run(tmp_path, "sample", "--alpha", "0",
                         "--grid-x=-1:1:2", "--grid-y=-1:1:2",
                         "--grid-z=-1:1:2", "--times", "0.5",
                         "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == FIELD_CSV_HEADER
        assert len(lines) == 1 + 8
        for line in lines[1:]:
            cols = line.split(",")
            assert len(cols) == 10
            assert float(cols[4]) == 0.0  # rho
            assert float(cols[9]) == 0.0  # p

    def test_row_ordering_x_fastest(self, tmp_path):
        out = tmp_path / "f.csv"
        code, _, _ = run(tmp_path, "sample",
                         "--grid-x", "0:2:3", "--grid-y", "0:1:2",
                         "--grid-z", "0:1:2", "--times", "0,1",
                         "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()[1:]
        nx, ny, nz, nt = 3, 2, 2, 2
        assert len(lines) == nx * ny * nz * nt
        xs = np.linspace(0, 2, nx)
        ys = np.linspace(0, 1, ny)
        zs = np.linspace(0, 1, nz)
        ts = [0.0, 1.0]
        for it in range(nt):
            for iz in range(nz):
                for iy in range(ny):
                    for ix in range(nx):
                        row = ix + nx * (iy + ny * (iz + nz * it))
                        cols = lines[row].split(",")
                        assert float(cols[0]) == xs[ix]
                        assert float(cols[1]) == ys[iy]
                        assert float(cols[2]) == zs[iz]
                        assert float(cols[3]) == ts[it]

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sample", "--gamma", "1.5", "--lambda", "1", "--xi", "1.3",
                "--grid-x=-1:1:4", "--grid-y=-1:1:4", "--grid-z=-1:1:3",
                "--times", "0,0.7,1.9"]
        assert run(tmp_path, *args, "--out", str(a))[0] == 0
        assert run(tmp_path, *args, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_blowup_truncates_with_exit_3(self, tmp_path):
        out = tmp_path / "f.csv"
        code, _, err = run(tmp_path, "sample", "--lambda", "0", "--b1", "-1",
                           "--grid-x=-1:1:2", "--grid-y=-1:1:2",
                           "--grid-z=-1:1:2", "--times", "0.5,1.5",
                           "--out", str(out))
        assert code == 3
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 8  # only t = 0.5 made it
        record = json.loads(err.strip().splitlines()[-1])
        assert record["termination"]["kind"] == "blowup"
        assert record["termination"]["t_est"] == pytest.approx(1.0, rel=1e-8)

    def test_dim2_writes_universal_schema(self, tmp_path):
        out = tmp_path / "f.csv"
        code, _, _ = run(tmp_path, "sample", "--dim", "2", "--gamma", "2",
                         "--lambda", "2", "--a0", "1",
                         "--grid-x", "0:1:2", "--grid-y", "0:1:2",
                         "--times", "0", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == FIELD_CSV_HEADER
        assert len(lines) == 1 + 4
        row = lines[2].split(",")  # x=1, y=0
        assert float(row[2]) == 0.0   # z pinned to 0
        assert float(row[7]) == 0.0   # u3 pinned to 0
        assert float(row[4]) == pytest.approx(0.5)  # rho = max(1-0.5*eta,0)/a^2

    def test_missing_grid_is_config_error(self, tmp_path):
        code, _, err = run(tmp_path, "sample", "--times", "0")
        assert code == 2
        assert "grid.x" in err


# sha256 of the `sample` output bytes; nx != ny != nz so a transposed or
# reordered writer changes the digest
GOLDEN_SAMPLES = {
    # 278 of its 420 rows lie outside the compact support (rho = 0)
    "compact_3d_with_vacuum": (
        ["--gamma", "1.5", "--lambda", "1", "--xi", "1.3", "--a1", "0.2", "--b1", "-0.3",
         "--grid-x=-3:3:7", "--grid-y=-2.5:2.5:6", "--grid-z=-2:2:5", "--times", "0,0.3"],
        1 + 7 * 6 * 5 * 2,
        "096c8958419b1ae5ad8229771cc37e1589cdb338b13165f4f5a8a3eb31288468"),
    "gaussian_3d": (
        ["--gamma", "1", "--lambda", "0.7", "--xi", "0.9", "--a1", "-0.1", "--b1", "0.4",
         "--grid-x=-2:2:7", "--grid-y=-1.5:1.5:6", "--grid-z=-1:1.5:5",
         "--times", "0,0.25,1.1"],
        1 + 7 * 6 * 5 * 3,
        "1e51ed29b3fa26a9c83473cee80bdf8d3863de22eec52972701d29bcf582c390"),
    "planar_2d_lambda_negative": (
        ["--dim", "2", "--gamma", "1.5", "--lambda=-1", "--xi", "1", "--a0", "1.1",
         "--a1", "0.3", "--grid-x=-2:2:7", "--grid-y=-1.5:1.5:6", "--times", "0,0.4,2.5"],
        1 + 7 * 6 * 3,
        "d16cbfd48ba349f6b96184fd546e1f861ae16e4224d4d0ab5fa45ba4755d9e7e"),
}


class TestSampleWriter:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SAMPLES))
    def test_output_bytes_pinned(self, tmp_path, name):
        argv, lines, digest = GOLDEN_SAMPLES[name]
        out = tmp_path / "f.csv"
        code, _, _ = run(tmp_path, "sample", *argv, "--out", str(out))
        assert code == 0
        data = out.read_bytes()
        assert data.count(b"\n") == lines
        assert hashlib.sha256(data).hexdigest() == digest

    def test_memory_does_not_grow_with_nz(self, tmp_path):
        def peak_bytes(nz):
            tracemalloc.start()
            try:
                code, _, _ = run(tmp_path, "sample", "--grid-x=-1:1:40", "--grid-y=-1:1:40",
                                 f"--grid-z=-1:1:{nz}", "--times", "0",
                                 "--out", str(tmp_path / "f.csv"))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            return peak

        assert peak_bytes(32) < 2 * peak_bytes(4)


class TestIntegrateCommand:
    def test_trajectory_jsonl(self, tmp_path):
        out = tmp_path / "t.jsonl"
        code, _, _ = run(tmp_path, "integrate", "--gamma", "1", "--lambda", "1",
                         "--t-end", "2", "--times", "0,1,2", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        rec = json.loads(lines[1])
        assert set(rec) == {"t", "a", "a_dot", "b", "b_dot", "energy"}
        term = json.loads(lines[-1])["termination"]
        assert term["kind"] == "reached_t_end"

    def test_blowup_exit_code(self, tmp_path):
        out = tmp_path / "t.jsonl"
        code, _, err = run(tmp_path, "integrate", "--lambda", "0", "--b1", "-1",
                           "--t-end", "2", "--out", str(out))
        assert code == 3
        assert json.loads(err.strip().splitlines()[-1])["termination"]["which"] == "b"

    def test_blowup_time_matches_library_floor(self, tmp_path):
        # an unset eps_blow is the library's per-component floor, so the CLI
        # and integrate() locate the same collapse (a0 < b0 used to lower b's
        # floor to 1e-10 * a0 on the command line only)
        from eulerexact import EmdenState3D, PhysParams, integrate
        out = tmp_path / "t.jsonl"
        code, _, err = run(tmp_path, "integrate", "--lambda", "0", "--a0", "0.5",
                           "--b1", "-1", "--t-end", "2", "--out", str(out))
        assert code == 3
        term = json.loads(err.strip().splitlines()[-1])["termination"]
        lib = integrate(PhysParams(K=1.0, gamma=1.4, lam=0.0, alpha=1.0, xi=1.0),
                        EmdenState3D(0.0, 0.5, 0.0, 1.0, -1.0), 2.0).termination
        assert term["t_est"] == lib.t_est

    def test_step_failure_exit_code(self, tmp_path):
        out = tmp_path / "t.jsonl"
        code, _, _ = run(tmp_path, "integrate", "--lambda", "1", "--t-end", "5",
                         "--max-steps", "3", "--out", str(out))
        assert code == 4

    def test_dim2(self, tmp_path):
        out = tmp_path / "t.jsonl"
        code, _, _ = run(tmp_path, "integrate", "--dim", "2", "--gamma", "1.5",
                         "--lambda", "-1", "--a0", "1.1", "--t-end", "3",
                         "--times", "0,3", "--out", str(out))
        assert code == 0
        rec = json.loads(out.read_text().splitlines()[0])
        assert set(rec) == {"t", "a", "a_dot", "energy"}


class TestVerifyCommand:
    def test_report_shows_second_order(self, tmp_path):
        out = tmp_path / "v.json"
        code, _, _ = run(tmp_path, "verify", "--gamma", "1.5", "--lambda", "1",
                         "--xi", "1.2", "--a1", "0.2", "--b1", "-0.1",
                         "--verify-points", "8", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["observed_order"]["p50"] == pytest.approx(2.0, abs=0.4)
        assert len(doc["points"]) == 8
        assert doc["points"][0]["stencil_h"] == 1e-3

    def test_verify_at_later_time(self, tmp_path):
        out = tmp_path / "v.json"
        code, _, _ = run(tmp_path, "verify", "--gamma", "1", "--lambda", "2",
                         "--verify-time", "0.8", "--verify-points", "4",
                         "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["observed_order"]["p50"] == pytest.approx(2.0, abs=0.4)
        assert doc["state"]["a"] > 1.0

    def test_dim2_rejected(self, tmp_path):
        code, _, err = run(tmp_path, "verify", "--dim", "2")
        assert code == 2
        assert "dim" in err


class TestSweepCommand:
    def test_summary_table(self, tmp_path):
        out = tmp_path / "s.csv"
        code, _, _ = run(tmp_path, "sweep", "--gamma", "1.5",
                         "--sweep", "lambda=-1,0,1", "--sweep", "b1=-0.5,0.5",
                         "--sweep-t-end", "20", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "gamma,K,lambda,alpha,xi,mu,a0,a1,b0,b1,verdict,basis,T_est"
        assert len(lines) == 1 + 6
        table = {}
        for line in lines[1:]:
            cols = line.split(",")
            table[(float(cols[2]), float(cols[9]))] = (cols[10], cols[12])
        assert table[(1.0, -0.5)] == ("global", "")
        assert table[(0.0, 0.5)] == ("global", "")
        verdict, t_est = table[(0.0, -0.5)]
        assert verdict == "finite_time_blowup"
        assert float(t_est) == 2.0
        verdict, t_est = table[(-1.0, -0.5)]
        assert verdict == "finite_time_blowup"
        assert float(t_est) > 0.0

    def test_open_case_collapse_is_numerical_evidence(self, tmp_path):
        out = tmp_path / "s.csv"
        code, _, _ = run(tmp_path, "sweep", "--gamma", "1.5", "--lambda=-1",
                         "--sweep", "b1=0.5,3", "--sweep-t-end", "3", "--out", str(out))
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        # b1 = 0.5 collapses before the horizon, b1 = 3 does not
        assert [(r[9], r[10], r[11], bool(r[12])) for r in rows] == [
            ("0.5", "unknown_open_case", "numerical_evidence", True),
            ("3.0", "unknown_open_case", "analytic", False),
        ]

    def test_requires_axis(self, tmp_path):
        code, _, err = run(tmp_path, "sweep")
        assert code == 2
        assert "sweep" in err

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--sweep", "lambda=-0.5,0.5", "--sweep", "gamma=1,2"]
        assert run(tmp_path, *args, "--out", str(a))[0] == 0
        assert run(tmp_path, *args, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()


class TestConfigHandling:
    def test_file_plus_flag_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("gamma = 1.5\nlambda = 1\nb1 = -1\n")
        out = tmp_path / "c.json"
        code, _, _ = run(tmp_path, "classify", "--config", str(cfgfile),
                         "--lambda", "0", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        # flag overrode lambda; file's b1 survived
        assert doc["params"]["lambda"] == 0.0
        assert doc["verdict"] == "finite_time_blowup"
        assert doc["T"] == 1.0

    def test_bad_config_file_exit_2(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("gamma = 0.5\n")
        code, _, err = run(tmp_path, "classify", "--config", str(cfgfile))
        assert code == 2
        assert "gamma" in err

    def test_missing_config_file_exit_2(self, tmp_path):
        code, _, err = run(tmp_path, "classify", "--config",
                           str(tmp_path / "nope.cfg"))
        assert code == 2

    def test_bad_flag_value_exit_2(self, tmp_path):
        code, _, err = run(tmp_path, "classify", "--gamma", "fast")
        assert code == 2
        assert "gamma" in err

    def test_unwritable_out_exit_2(self, tmp_path):
        code, _, err = run(tmp_path, "classify",
                           "--out", str(tmp_path / "nodir" / "c.json"))
        assert code == 2


class TestNonFiniteInputs:
    @pytest.mark.parametrize("argv, key", [
        (["classify", "--lambda", "nan"], "lambda"),
        (["classify", "--gamma", "inf", "--lambda", "1"], "gamma"),
        (["classify", "--xi=-inf"], "xi"),
        (["integrate", "--lambda", "nan", "--t-end", "1"], "lambda"),
        (["integrate", "--t-end", "inf"], "t_end"),
        (["sample", "--times", "nan", "--grid-x", "0:1:2", "--grid-y", "0:1:2",
          "--grid-z", "0:1:2"], "times"),
        (["sweep", "--sweep", "lambda=nan"], "sweep.lambda"),
    ])
    def test_rejected_promptly_naming_the_key(self, tmp_path, argv, key):
        out = tmp_path / "out"
        start = time.perf_counter()
        code, _, err = run(tmp_path, *argv, "--out", str(out))
        assert time.perf_counter() - start < 5.0
        assert code == 2
        assert f"key '{key}'" in err
        assert not out.exists()

    def test_sweep_value_reported_like_a_file_key(self, tmp_path):
        code, _, err = run(tmp_path, "sweep", "--sweep", "lambda=abc",
                           "--out", str(tmp_path / "s.csv"))
        assert code == 2
        assert "key 'sweep.lambda': malformed number 'abc'" in err
