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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulerexact.cli import FIELD_CSV_HEADER, MODES, _csv_lines, _load_config, build_parser, main

from _oracles import isothermal_fall_time, verify_document


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
        assert periods == [6.361888521466634, 6.361888521466634]

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

    def test_dim2_period_search_keeps_the_step_budget(self, tmp_path):
        # with the default budget this orbit has period 6.36189
        out = tmp_path / "c.json"
        code, _, _ = run(tmp_path, "classify", "--dim", "2", "--gamma", "1.5",
                         "--lambda=-1", "--xi", "1", "--a0", "1.1", "--t-end", "100",
                         "--max-steps", "3", "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["period"] is None

    ORBIT = ["--dim", "2", "--gamma", "1.5", "--lambda=-1", "--xi", "1", "--a0", "1.1",
             "--t-end", "100"]

    def test_dim2_period_search_keeps_the_collapse_floor(self, tmp_path):
        # the orbit dips below a = 1.05, where integrate reports a collapse
        c_out, i_out = tmp_path / "c.json", tmp_path / "i.jsonl"
        assert run(tmp_path, "classify", *self.ORBIT, "--eps-blow", "1.05",
                   "--out", str(c_out))[0] == 0
        assert json.loads(c_out.read_text())["period"] is None
        code, _, err = run(tmp_path, "integrate", *self.ORBIT, "--eps-blow", "1.05",
                           "--out", str(i_out))
        assert code == 3
        assert json.loads(err.strip().splitlines()[-1])["termination"]["t_est"] == (
            1.194688908244276)

    def test_dim2_without_a_period_reports_how_the_run_ended(self, tmp_path):
        # the collapse below the floor, the step budget, and the horizon each
        # end the search differently; the report names the termination
        c_out, i_out = tmp_path / "c.json", tmp_path / "i.jsonl"
        assert run(tmp_path, "classify", *self.ORBIT, "--eps-blow", "1.05",
                   "--out", str(c_out))[0] == 0
        doc = json.loads(c_out.read_text())
        assert run(tmp_path, "integrate", *self.ORBIT, "--eps-blow", "1.05",
                   "--out", str(i_out))[0] == 3
        last = json.loads(i_out.read_text().splitlines()[-1])["termination"]
        assert doc["period"] is None
        assert (doc["termination"]["kind"], doc["termination"]["t_est"]) == (
            "blowup", last["t_est"])
        for extra, kind in ((["--max-steps", "3"], "step_failure"),
                            (["--lambda", "1"], "reached_t_end")):
            assert run(tmp_path, "classify", *self.ORBIT, *extra, "--out", str(c_out))[0] == 0
            doc = json.loads(c_out.read_text())
            assert (doc["period"], doc["termination"]["kind"]) == (None, kind)

    @pytest.mark.parametrize("option", [["--abs-tol", "1e-6"], ["--method", "DOP853"]])
    def test_dim2_period_search_takes_the_run_options(self, tmp_path, option):
        outs = [tmp_path / "default.json", tmp_path / "option.json"]
        for extra, out in zip([[], option], outs):
            assert run(tmp_path, "classify", *self.ORBIT, *extra, "--out", str(out))[0] == 0
        default, changed = (json.loads(out.read_text())["period"] for out in outs)
        assert default["period"] == 6.361888521466634
        assert changed["period"] != default["period"]
        assert changed["period"] == pytest.approx(default["period"], rel=1e-5)

    def test_dim2_horizon_is_checked_at_an_equilibrium(self, tmp_path):
        # a0 = 1 is a fixed point, whose period needs no run
        out = tmp_path / "c.json"
        code, _, err = run(tmp_path, "classify", "--dim", "2", "--gamma", "1.5",
                           "--lambda=-1", "--xi", "1", "--a0", "1", "--t-end", "0",
                           "--out", str(out))
        assert code == 2
        assert "t_end" in err
        assert not out.exists()

    def test_dim2_ignores_b0(self, tmp_path):
        out = tmp_path / "c.json"
        code, _, err = run(tmp_path, "classify", "--dim", "2", "--b0", "0",
                           "--out", str(out))
        assert code == 0, err
        assert "b0" not in json.loads(out.read_text())["ic"]

    def test_3d_run_that_stops_short_exits_4_with_its_termination(self, tmp_path):
        # a generated open cell whose run spends its steps on the xi^2 barrier of
        # a; with 50 steps it stops long before the horizon, in milliseconds
        out = tmp_path / "c.json"
        code, _, err = run(tmp_path, "classify", "--gamma", "1.8641336260446142",
                           "--lambda=-0.9397816851774112", "--xi", "0.32717873014713794",
                           "--a0", "1.2887742179428374", "--a1", "0.015415315682622",
                           "--b0", "1.6683944051603645", "--b1", "0.4435381031118337",
                           "--t-end", "13.6", "--max-steps", "50", "--out", str(out))
        assert code == 4
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "unknown_open_case"
        assert doc["t_horizon"] < 13.6
        assert doc["termination"] == {"kind": "step_failure",
                                      "detail": "max_steps=50 exhausted"}
        assert json.loads(err.strip().splitlines()[-1]) == {"termination": doc["termination"]}


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
        "68373c4df7654b48583b02ca1067dacf0aa1c3d9d0e48e1129fd588cfde9e0f7"),
    "gaussian_3d": (
        ["--gamma", "1", "--lambda", "0.7", "--xi", "0.9", "--a1", "-0.1", "--b1", "0.4",
         "--grid-x=-2:2:7", "--grid-y=-1.5:1.5:6", "--grid-z=-1:1.5:5",
         "--times", "0,0.25,1.1"],
        1 + 7 * 6 * 5 * 3,
        "fd1ac19e622493e98e9d358770fc99d1539f909e6a021e435c46f53c3bc3f1c2"),
    "planar_2d_lambda_negative": (
        ["--dim", "2", "--gamma", "1.5", "--lambda=-1", "--xi", "1", "--a0", "1.1",
         "--a1", "0.3", "--grid-x=-2:2:7", "--grid-y=-1.5:1.5:6", "--times", "0,0.4,2.5"],
        1 + 7 * 6 * 3,
        "8195884a5eae973c1a08ba0007a898ee78f90e785eb2feb9cc9d18b8791ef203"),
    # odd counts on ranges symmetric about 0: most values of s, rho and p recur
    # at mirrored points, and 692 of the 1386 rows are vacuum
    "mirrored_odd_3d": (
        ["--gamma", "1.5", "--lambda", "1", "--xi", "0.8", "--a1", "0.1", "--b1", "-0.2",
         "--grid-x=-2.5:2.5:9", "--grid-y=-2.5:2.5:11", "--grid-z=-2:2:7", "--times", "0,0.4"],
        1 + 9 * 11 * 7 * 2,
        "45c5b7d8932e1059aa25439c377fb5b404035da9db9e7fcc15700b04b8383213"),
    # gamma = 2: the profile's exponent 1 / (gamma - 1) is 1
    "gamma_2_3d": (
        ["--gamma", "2", "--lambda", "1.5", "--xi", "0.6", "--a1", "-0.2", "--b1", "0.3",
         "--grid-x=-2:2:9", "--grid-y=-1.5:1.5:8", "--grid-z=-1.5:1.5:5", "--times", "0,0.6"],
        1 + 9 * 8 * 5 * 2,
        "096ac81ce5479e3270c1648ea1540c1df9f7adc58f62c28d1b9d9772cafdf014"),
    "planar_2d_41x43": (
        ["--dim", "2", "--gamma", "1.4", "--lambda", "1", "--xi", "0.7", "--a1", "0.2",
         "--grid-x=-2:2:41", "--grid-y=-2:2:43", "--times", "0,0.5"],
        1 + 41 * 43 * 2,
        "5ae1212e2cbe661ea12db5e42fd2f6055885ee70c9eb536e073114bc787b3b99"),
}


# sha256 of the JSON reports; together they reach every to_dict behind a CLI
# mode: residual points with and without a viscosity, both 3D classify forms
# (a table cell and an integrated open cell) and a 2D period and collapse
GOLDEN_JSON = {
    "verify_t0": (
        ["verify", "--gamma", "1.5", "--lambda", "1", "--xi", "1.2", "--a1", "0.2",
         "--b1", "-0.1", "--verify-points", "8"],
        "4cb3af2469a402f408c4e7478e196a54388dfb88c690911002b970c71987bd46"),
    "verify_later_mu": (
        ["verify", "--gamma", "1", "--lambda", "2", "--verify-time", "0.8", "--mu", "0.05",
         "--verify-points", "6"],
        "1febf9796329be8c28e7f00ec3564941bb8e5831ce58fb9b945cc385b9f286d3"),
    "classify_3d_table": (
        ["classify", "--lambda", "0", "--b0", "1", "--b1", "-1"],
        "f1abf113149995a360b5ca632492253b14f23ca1678846b3bf2121d61e93cc00"),
    "classify_3d_open_cell": (
        ["classify", "--gamma", "1.4", "--lambda=-1", "--b1", "0.2", "--t-end", "30"],
        "c86276abd3899b1dedee8151f4c545db91b839ec610710c30e523ad5285dcd44"),
    "classify_2d_period": (
        ["classify", "--dim", "2", "--gamma", "1.5", "--lambda=-1", "--xi", "1", "--a0", "1.1",
         "--t-end", "50"],
        "704e9fc30f812429565d4d5222617fb794385fbd9ac7db96e93cfc6457ac39a3"),
    "classify_2d_collapse": (
        ["classify", "--dim", "2", "--gamma", "2", "--lambda=-3", "--t-end", "5"],
        "4d53ee3cde8057c9670e66de19e1fc7e7abcb5567d80ea11617b9bb18484a0ed"),
}


class TestJsonWriter:
    @pytest.mark.parametrize("name", sorted(GOLDEN_JSON))
    def test_output_bytes_pinned(self, tmp_path, name):
        argv, digest = GOLDEN_JSON[name]
        out = tmp_path / "r.json"
        code, _, _ = run(tmp_path, *argv, "--out", str(out))
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def assert_help_names_every_mode(capsys):
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    # the help column wraps lines, also at hyphens
    text = "".join(capsys.readouterr().out.split())
    for mode, (_, _, help_line) in MODES.items():
        assert "".join(f"{mode}: {help_line}".split()) in text


class TestParser:
    def test_help_names_every_mode_with_its_help_line(self, capsys):
        assert_help_names_every_mode(capsys)

    @pytest.mark.parametrize("argv, message", [
        (["integrat", "--gamma", "1"], "argument mode: invalid choice: 'integrat'"),
        (["--gamma", "1"], "the following arguments are required: mode"),
    ])
    def test_bad_or_missing_mode_exits_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        # argparse copies the --sweep default before appending to it, so a
        # call's axes do not leak into the next call on the shared parser
        first = ["sweep", "--gamma", "1.5", "--sweep", "lambda=-1,0", "--sweep", "b1=0.1,-0.3"]
        second = ["sweep", "--sweep", "gamma=1,2", "--sweep-t-end", "20"]
        assert build_parser() is build_parser()
        shared = [tmp_path / "shared1.csv", tmp_path / "shared2.csv"]
        assert main([*first, "--out", str(shared[0])]) == 0
        assert main([*second, "--out", str(shared[1])]) == 0
        alone = []
        for argv in (first, second):
            build_parser.cache_clear()
            alone.append(tmp_path / f"alone{len(alone)}.csv")
            assert main([*argv, "--out", str(alone[-1])]) == 0
        assert [p.read_bytes() for p in shared] == [p.read_bytes() for p in alone]
        assert shared[0].read_bytes() != shared[1].read_bytes()
        assert build_parser().get_default("sweep") == []
        assert_help_names_every_mode(capsys)

    @pytest.mark.parametrize("flags", [
        ["--gamma", "1.5"],
        ["--lambda=-1", "--sweep", "b1=0.1,0.2", "--sweep-t-end", "20"],
        ["--verify-points", "7", "--mu", "0.01"],
    ])
    def test_flag_before_the_mode_is_the_same_flag(self, flags):
        def cfg(argv):
            return _load_config(build_parser().parse_args(argv))

        assert cfg([*flags, "sweep"]) == cfg(["sweep", *flags]) != cfg(["sweep"])


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


def per_cell_repr(values: np.ndarray) -> list[list[str]]:
    """The reference formatter: ``repr`` of every cell, one y-line at a time."""
    return [list(map(repr, line)) for line in values.T.tolist()]


TINY = 5e-324  # the smallest subnormal
SMALLEST_NORMAL = 2.2250738585072014e-308


@st.composite
def slabs(draw):
    """(nx, ny) slabs drawn from a small pool of values, so that values recur;
    the pool holds +-0.0, subnormals and the ulp neighbours of a drawn value.
    Some slabs are Fortran-ordered or strided views, not C-contiguous."""
    base = draw(st.floats(width=64))
    pool = [base, float(np.nextafter(base, math.inf)), float(np.nextafter(base, -math.inf)),
            0.0, -0.0, TINY, -TINY, SMALLEST_NORMAL, float(np.nextafter(SMALLEST_NORMAL, 0.0)),
            *draw(st.lists(st.floats(width=64), max_size=4))]
    nx, ny = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=nx * ny, max_size=nx * ny))
    values = np.array(pool)[picks].reshape(nx, ny)
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        values = np.asfortranarray(values)
    elif layout == "strided":
        wide = np.zeros((nx, 2 * ny))
        wide[:, ::2] = values
        values = wide[:, ::2]
    return values


class TestCsvLines:
    # the examples: +-0.0 side by side, a 1 x n and an n x 1 slab, a strided view
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(slabs())
    @example(np.array([[0.0, -0.0], [-0.0, 0.0]]))
    @example(np.array([[1.5, TINY, -TINY, 0.0, -0.0, 1.5]]))
    @example(np.array([[1.5], [TINY], [-TINY], [0.0], [-0.0], [1.5]]))
    @example(np.arange(12.0).reshape(3, 4)[:, ::2])
    def test_equals_a_repr_of_every_cell(self, values):
        assert _csv_lines(values) == per_cell_repr(values)


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

    def test_rel_tol_below_the_stepper_floor_exits_2(self, tmp_path):
        # scipy would clamp it to 100 eps with a warning and run on
        out = tmp_path / "t.jsonl"
        code, _, err = run(tmp_path, "integrate", "--rel-tol", "1e-15", "--out", str(out))
        assert code == 2
        assert err.startswith("error: rel_tol must lie in [2.220446049250313e-14, 1)")
        assert not out.exists()

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

    def test_cell_whose_run_stopped_short_exits_4_with_its_termination(self, tmp_path):
        # both cells run out of steps on the xi^2 barrier of a before the
        # horizon; the rows cannot say so, so each gets a stderr record
        out = tmp_path / "s.csv"
        code, _, err = run(
            tmp_path, "sweep", "--gamma", "1.8641336260446142", "--lambda=-0.9397816851774112",
            "--xi", "0.32717873014713794", "--a0", "1.2887742179428374",
            "--a1", "0.015415315682622", "--b0", "1.6683944051603645",
            "--sweep", "b1=0.4435381031118337,0.2", "--t-end", "13.6", "--max-steps", "50",
            "--out", str(out))
        assert code == 4
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(r[9], r[10:]) for r in rows] == [
            ("0.4435381031118337", ["unknown_open_case", "analytic", ""]),
            ("0.2", ["unknown_open_case", "analytic", ""]),
        ]
        assert [json.loads(line) for line in err.splitlines()] == [
            {"termination": {"kind": "step_failure", "detail": "max_steps=50 exhausted"},
             "cell": {"b1": b1}} for b1 in (0.4435381031118337, 0.2)]

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


class TestOneLifespanPath:
    def test_open_cell_gets_one_time_everywhere(self, tmp_path):
        from eulerexact import EmdenState3D, PhysParams, probe_open_case

        cell = ["--gamma", "1.4", "--lambda=-1", "--b1", "0.2"]
        c_out, s_out = tmp_path / "c.json", tmp_path / "s.csv"
        assert run(tmp_path, "classify", *cell, "--t-end", "30", "--out", str(c_out))[0] == 0
        assert run(tmp_path, "sweep", *cell, "--sweep", "b1=0.2", "--sweep-t-end", "30",
                   "--out", str(s_out))[0] == 0
        doc = json.loads(c_out.read_text())
        row = s_out.read_text().splitlines()[1].split(",")
        probe = probe_open_case(PhysParams(K=1.0, gamma=1.4, lam=-1.0, alpha=1.0, xi=1.0),
                                EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.2), 30.0)
        assert doc["T"] == float(row[12]) == probe.T == 1.4240267193753302
        assert (doc["verdict"], doc["basis"]) == tuple(row[10:12]) == (
            "unknown_open_case", "numerical_evidence")
        assert (probe.verdict, probe.basis) == ("finite_time_blowup", "numerical_evidence")

    def test_collapse_floor_applies_everywhere(self, tmp_path):
        cell = ["--gamma", "1.4", "--lambda=-1", "--b1", "0.2", "--eps-blow", "0.5"]
        c_out, s_out, i_out = tmp_path / "c.json", tmp_path / "s.csv", tmp_path / "i.jsonl"
        assert run(tmp_path, "classify", *cell, "--t-end", "30", "--out", str(c_out))[0] == 0
        assert run(tmp_path, "sweep", *cell, "--sweep", "b1=0.2", "--sweep-t-end", "30",
                   "--out", str(s_out))[0] == 0
        assert run(tmp_path, "integrate", *cell, "--t-end", "30", "--out", str(i_out))[0] == 3
        T = json.loads(c_out.read_text())["T"]
        row = s_out.read_text().splitlines()[1].split(",")
        last = json.loads(i_out.read_text().splitlines()[-1])["termination"]
        # without the floor the run stops at the concavity bound 1.4240267193753302;
        # the floor at 0.5 is crossed first, and located to rel_tol
        assert T == float(row[12]) == last["t_est"] == 1.1701510518576843
        assert last["bracket_width"] == 1e-10 * T

    def test_classify_times_an_analytic_blowup_cell(self, tmp_path):
        docs = []
        for horizon in ("30", "0.5"):
            out = tmp_path / f"c{horizon}.json"
            code, _, _ = run(tmp_path, "classify", "--gamma", "1", "--lambda=-1",
                             "--sweep-t-end", horizon, "--out", str(out))
            assert code == 0
            docs.append(json.loads(out.read_text()))
        doc = docs[0]
        assert (doc["verdict"], doc["basis"]) == ("finite_time_blowup", "analytic")
        assert doc["case"] == "lam_negative_isothermal"
        # the closed-form zero, not a run's: no t_horizon, the same T past a
        # horizon that ends before it
        assert "t_horizon" not in doc and "termination" not in doc
        assert 0.0 < doc["T"] < 30.0
        assert doc["T"] == pytest.approx(isothermal_fall_time(1.0, 0.0, 1.0), rel=1e-12, abs=0.0)
        assert docs[1] == doc


class TestFloorAboveTheStart:
    """A collapse floor at or above a factor's start is an error (exit 2, no
    file), not a collapse at t = 0, in every mode: the config checks it."""

    @pytest.mark.parametrize("argv, name, start", [
        (["integrate", "--lambda=-1", "--gamma=1.5", "--b1=0.3", "--eps-blow=1.5",
          "--t-end", "3"], "a", "1.0"),
        # b0 alone is below the floor; an equal floor is not below either
        (["integrate", "--lambda=-1", "--gamma=1.5", "--a0=2", "--b0=0.5", "--eps-blow=0.5"],
         "b", "0.5"),
        (["classify", "--lambda=-1", "--gamma=1.5", "--b1=0.3", "--eps-blow=1.0"], "a", "1.0"),
        (["classify", "--lambda=-1", "--gamma=1.5", "--a0=2", "--b0=0.3", "--eps-blow=1.0"],
         "b", "0.3"),
        # the table needs no run for a global cell, yet the floor is checked
        (["classify", "--lambda=1", "--a0=2", "--b0=0.3", "--eps-blow=1.0"], "b", "0.3"),
        # planar: an equilibrium start needs no run either
        (["classify", "--dim=2", "--lambda=-1", "--gamma=1.5", "--eps-blow=1.0"], "a", "1.0"),
        (["classify", "--dim=2", "--lambda=-1", "--gamma=1.5", "--a0=1.1", "--eps-blow=2"],
         "a", "1.1"),
        # no row is written before the cell that raises
        (["sweep", "--lambda=-1", "--gamma=1.5", "--a0=2", "--eps-blow=0.5",
          "--sweep", "b0=1,0.4"], "b", "0.4"),
        # modes that run nothing at t = 0 check the floor all the same
        (["sample", "--eps-blow", "5", "--times", "0", "--grid-x=-1:1:2", "--grid-y=-1:1:2",
          "--grid-z=-1:1:2"], "a", "1.0"),
        (["verify", "--eps-blow", "5", "--verify-points", "3"], "a", "1.0"),
    ])
    def test_exits_2_naming_eps_blow_and_the_factor(self, tmp_path, argv, name, start):
        out = tmp_path / "out"
        code, _, err = run(tmp_path, *argv, "--out", str(out))
        assert code == 2
        assert err.startswith(f"error: eps_blow must lie below the initial value {start} "
                              f"of {name}, got ")
        assert not out.exists()

    def test_a_floor_just_below_the_start_collapses_at_once(self, tmp_path):
        out = tmp_path / "i.jsonl"
        code, _, _ = run(tmp_path, "integrate", "--lambda=-1", "--gamma=1.5", "--b1=-0.3",
                         "--b0=0.5", "--eps-blow=0.4999", "--out", str(out))
        assert code == 3
        last = json.loads(out.read_text().splitlines()[-1])["termination"]
        assert (last["kind"], last["which"]) == ("blowup", "b")
        assert 0.0 < last["t_est"] < 1e-3


class TestLifespanHorizon:
    @pytest.mark.parametrize("argv, key", [
        (["sweep", "--sweep", "lambda=-1", "--sweep-t-end=-1"], "sweep.t_end"),
        (["sweep", "--sweep", "lambda=-1", "--sweep-t-end=0"], "sweep.t_end"),
        # global cells need no run, but the horizon is checked all the same
        (["sweep", "--sweep", "lambda=1", "--sweep-t-end=-1"], "sweep.t_end"),
        (["sweep", "--sweep", "lambda=1", "--sweep-t-end=0"], "sweep.t_end"),
        (["sweep", "--sweep", "lambda=1", "--t-end=0"], "t_end"),
        (["classify", "--t-end=-1"], "t_end"),
        (["classify", "--lambda=-1", "--t-end=0"], "t_end"),
        (["classify", "--t-end=-1", "--sweep-t-end=0"], "sweep.t_end"),
    ])
    def test_non_positive_horizon_exits_2_naming_its_key(self, tmp_path, argv, key):
        out = tmp_path / "out"
        code, _, err = run(tmp_path, *argv, "--out", str(out))
        assert code == 2
        assert err.startswith(f"error: {key} (the lifespan horizon) must be > 0")
        assert not out.exists()

    def test_sweep_horizon_overrides_t_end(self, tmp_path):
        out = tmp_path / "c.json"
        code, _, _ = run(tmp_path, "classify", "--t-end=-1", "--sweep-t-end", "5",
                         "--out", str(out))
        assert code == 0

    def test_sample_at_time_zero_still_allows_t_end_zero(self, tmp_path):
        out = tmp_path / "f.csv"
        code, _, _ = run(tmp_path, "sample", "--times", "0", "--t-end", "0",
                         "--grid-x=-1:1:2", "--grid-y=-1:1:2", "--grid-z=-1:1:2",
                         "--out", str(out))
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 8


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


def run_subprocess(*argv, timeout=5.0):
    """``eulerexact`` in a fresh interpreter, killed after ``timeout`` seconds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", "import sys; from eulerexact.cli import main; sys.exit(main())",
         *argv], env=env, capture_output=True, text=True, timeout=timeout)


def finite_points(doc) -> int:
    """The number of verify points whose residual values are all finite."""
    return sum(all(math.isfinite(v) for v in (p["mass_residual"], *p["momentum_residual"]))
               for p in doc["points"])


class TestVerifyStencilStep:
    def test_huge_step_finishes_promptly(self, tmp_path):
        # the adaptive run's steps grow with the expanding scale factors, so
        # even a shift by 1e10 takes few of them
        out = tmp_path / "v.json"
        proc = run_subprocess("verify", "--verify-h", "1e10", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert finite_points(json.loads(out.read_text())) == 20

    def test_large_step_finishes_promptly(self, tmp_path):
        # a shift costs adaptive steps, not substeps of a fixed size
        out = tmp_path / "v.json"
        proc = run_subprocess("verify", "--verify-h", "5", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert finite_points(json.loads(out.read_text())) == 20

    def test_shift_into_a_collapse_names_the_blowup(self, tmp_path):
        # b collapses at t ~ 0.88, inside the shift to t + h = 3
        out = tmp_path / "v.json"
        code, _, err = run(tmp_path, "verify", "--gamma", "1", "--lambda=-1", "--b1=-0.5",
                           "--verify-h", "3", "--out", str(out))
        assert code == 2
        assert "time shift dt=3.0" in err
        assert "blowup" in err
        assert not out.exists()

    def test_underflowing_step_is_a_named_error(self, tmp_path):
        # h*h underflowed to 0 in the Laplacian: an uncaught ZeroDivisionError
        out = tmp_path / "v.json"
        code, _, err = run(tmp_path, "verify", "--verify-h", "1e-300", "--out", str(out))
        assert code == 2
        assert "stencil step 1e-300" in err
        assert not out.exists()


class TestVerifySummary:
    def test_one_residual_call_and_six_evaluations_per_request(self, tmp_path, monkeypatch):
        import eulerexact.cli
        from eulerexact.fields import Field3D

        calls = {"refined": 0, "eval": 0}
        refined, evaluate = eulerexact.cli.refined_residual, Field3D.eval

        def counted_refined(*args, **kwargs):
            calls["refined"] += 1
            return refined(*args, **kwargs)

        def counted_eval(*args, **kwargs):
            calls["eval"] += 1
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(eulerexact.cli, "refined_residual", counted_refined)
        monkeypatch.setattr(Field3D, "eval", counted_eval)
        out = tmp_path / "v.json"
        code, _, _ = run(tmp_path, "verify", "--mu", "0.3", "--verify-points", "25",
                         "--out", str(out))
        assert code == 0
        assert len(json.loads(out.read_text())["points"]) == 25
        assert calls == {"refined": 1, "eval": 6}

    def test_kink_points_count_straddling_stencils(self, tmp_path):
        # compact support (gamma > 1, lam > 0) with cutoff_s = 0.6: points lie
        # at s <= 0.7 cutoff_s, so a step of 0.2 takes some stencils past it
        counts = {}
        for h in ("1e-3", "0.2"):
            out = tmp_path / f"v{h}.json"
            code, _, _ = run(tmp_path, "verify", "--gamma", "1.5", "--lambda", "1",
                             "--alpha", "0.1", "--verify-points", "40", "--verify-h", h,
                             "--out", str(out))
            assert code == 0
            doc = json.loads(out.read_text())
            flags = [pt["kink_crossing"] for pt in doc["points"]]
            assert doc["summary"]["kink_points"] == sum(flags)
            counts[h] = sum(flags)
        assert counts["1e-3"] == 0
        assert 0 < counts["0.2"] < 40


class TestStrictJson:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_energy_leaves_no_file(self, tmp_path):
        # the energy overflows to inf; it was written as "energy": Infinity
        out = tmp_path / "t.jsonl"
        code, _, err = run(tmp_path, "integrate", "--xi", "1e200", "--t-end", "1",
                           "--out", str(out))
        assert code == 2
        assert "non-finite" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_verify_summary_leaves_no_file(self, tmp_path):
        # alpha^m overflows the density, so every residual is NaN
        out = tmp_path / "v.json"
        code, _, err = run(tmp_path, "verify", "--alpha", "1e300", "--verify-points", "3",
                           "--out", str(out))
        assert code == 2
        assert err.startswith("error: non-finite number in an output record (strict JSON "
                              "has no NaN or Infinity) at summary.mass_abs.p50: {'time': 0.0, ")
        assert not out.exists()

    def test_residuals_past_the_range_of_a_square_are_written(self, tmp_path):
        # alpha = 1e200 puts every residual above 1.3e154, where its square
        # overflows a float; the observed order still reads their RMS
        out = tmp_path / "v.json"
        code, _, err = run(tmp_path, "verify", "--gamma", "1", "--lambda", "1",
                           "--alpha", "1e200", "--verify-points", "3", "--out", str(out))
        assert (code, err) == (0, "")
        doc = json.loads(out.read_text())
        assert doc["summary"]["mass_abs"]["max"] > 1e154
        assert doc["summary"]["observed_order"]["p50"] == pytest.approx(2.0, abs=1e-4)

    def test_non_finite_verify_point_is_named_as_in_the_dict_form(self, tmp_path, monkeypatch):
        # Python's max passes over a NaN in a point's second momentum row, so
        # the summary stays finite; no summary reads the viscous rows, so the
        # first non-finite value of the document is point 1's viscous one
        import eulerexact.verify

        refined = eulerexact.verify._refined_table

        def poisoned(*args, **kwargs):
            table = refined(*args, **kwargs)
            table.momentum_residual[1, 2] = math.nan
            table.ns_momentum_residual[2, 1] = math.inf
            return table

        monkeypatch.setattr(eulerexact.verify, "_refined_table", poisoned)
        argv = ["verify", "--mu", "0.3", "--verify-points", "6"]
        with pytest.raises(ValueError) as want:
            verify_document(_load_config(build_parser().parse_args(argv)))
        out = tmp_path / "v.json"
        code, _, err = run(tmp_path, *argv, "--out", str(out))
        assert code == 2
        assert not out.exists()
        assert " at points[1].ns_momentum_residual[2]: {'time': 0.0, " in err
        assert err == f"error: {want.value}\n"

    def test_unrepresentable_start_ends_promptly_with_a_named_error(self, tmp_path):
        # at a0 = 1e-200 the accelerations are inf - inf = nan and the energy
        # is inf: a NaN first step size must end the run, not loop, and the
        # energy's float division by zero must give inf, not raise
        out = tmp_path / "t.jsonl"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"),
             os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from eulerexact.cli import main; sys.exit(main())",
             "integrate", "--a0", "1e-200", "--lambda=-1", "--t-end", "1", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=20.0)
        assert proc.returncode == 2, proc.stderr
        assert "non-finite" in proc.stderr
        assert not out.exists()
