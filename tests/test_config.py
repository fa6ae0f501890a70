import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerexact import ConfigError, RunConfig, cli, emden, parse_config, serialize_config
from eulerexact.config import _SCHEMA, SWEEPABLE, build_config


class TestParse:
    def test_minimal_file_fills_defaults(self):
        cfg = parse_config("gamma = 1.4\nlambda = 1\n")
        assert cfg.gamma == 1.4
        assert cfg.lam == 1.0
        assert cfg.K == 1.0
        assert cfg.rel_tol == 1e-10
        assert cfg.abs_tol == 1e-12
        assert cfg.eps_blow is None

    def test_comments_and_blank_lines(self):
        cfg = parse_config("""
# full-line comment
gamma = 2.0   # trailing comment

xi = 0.5
""")
        assert cfg.gamma == 2.0
        assert cfg.xi == 0.5

    def test_grid_and_times(self):
        cfg = parse_config("grid.x = -1:1:5\ngrid.y = 0:2:3\ntimes = 0,0.5,1\n")
        assert cfg.grid_x == (-1.0, 1.0, 5)
        assert cfg.grid_y == (0.0, 2.0, 3)
        assert cfg.times == [0.0, 0.5, 1.0]

    def test_sweep_axes(self):
        cfg = parse_config("sweep.lambda = -1,0,1\nsweep.b1 = -0.5,0.5\n")
        assert cfg.sweep == {"lambda": [-1.0, 0.0, 1.0], "b1": [-0.5, 0.5]}

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key 'omega'"):
            parse_config("omega = 3\n")

    def test_malformed_number_names_key_and_line(self):
        with pytest.raises(ConfigError, match="line 2.*gamma"):
            parse_config("K = 1\ngamma = fast\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just words\n")

    def test_bad_grid_syntax(self):
        with pytest.raises(ConfigError, match="grid.x"):
            parse_config("grid.x = 0:1\n")

    def test_unsweepable_param(self):
        with pytest.raises(ConfigError, match="not sweepable"):
            parse_config("sweep.method = 1,2\n")


class TestValidation:
    def test_gamma_below_one(self):
        with pytest.raises(ConfigError, match="gamma must be >= 1"):
            parse_config("gamma = 0.5\n")

    def test_negative_a0(self):
        with pytest.raises(ConfigError, match="a0 must be > 0"):
            parse_config("a0 = -1\n")

    def test_nonpositive_K(self):
        with pytest.raises(ConfigError, match="K must be > 0"):
            parse_config("K = 0\n")

    def test_grid_count_too_small(self):
        with pytest.raises(ConfigError, match="count must be >= 2"):
            parse_config("grid.x = 0:1:1\n")

    def test_times_beyond_explicit_t_end(self):
        with pytest.raises(ConfigError, match="times must lie within"):
            parse_config("t_end = 1\ntimes = 0,2\n")

    def test_t_end_autoextends_to_times(self):
        cfg = parse_config("times = 0,15\n")
        assert cfg.t_end == 15.0

    def test_times_must_increase(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            parse_config("times = 1,1\n")

    def test_bad_method(self):
        with pytest.raises(ConfigError, match="method"):
            parse_config("method = EULER\n")

    def test_bad_dim(self):
        with pytest.raises(ConfigError, match="dim"):
            parse_config("dim = 4\n")

    def test_explicit_eps_blow_must_be_positive(self):
        with pytest.raises(ConfigError, match="eps_blow"):
            parse_config("eps_blow = 0\n")

    @pytest.mark.parametrize("key, raw, value", [
        ("rel_tol", "1e-15", 1e-15), ("rel_tol", "1", 1.0),
        ("abs_tol", "0", 0.0), ("abs_tol", "1", 1.0),
        ("max_steps", "0", 0), ("max_steps", "-3", -3),
        ("eps_blow", "0", 0.0), ("eps_blow", "-1", -1.0),
        ("method", "EULER", "EULER"),
    ])
    def test_run_option_message_is_the_librarys(self, key, raw, value):
        # one check of the run options, so one message for each bad value
        with pytest.raises(ConfigError) as from_config:
            parse_config(f"{key} = {raw}\n")
        with pytest.raises(ValueError) as from_library:
            emden.integrate(RunConfig().params(), RunConfig().initial_state(), 1.0,
                            **{key: value})
        assert str(from_config.value) == str(from_library.value)
        assert str(from_config.value).startswith(f"{key} must")

    def test_step_budget_default_is_the_library_default(self):
        # one constant, not two literals that can drift apart
        default = inspect.signature(emden.integrate).parameters["max_steps"].default
        assert default is emden.MAX_STEPS
        assert RunConfig().max_steps is emden.MAX_STEPS

    def test_sweep_value_validated(self):
        with pytest.raises(ConfigError, match="sweep.gamma"):
            parse_config("sweep.gamma = 0.5,1.5\n")

    @pytest.mark.parametrize("argv, message", [
        (["sample", "--grid-y=0:1:2", "--grid-z=0:1:2", "--times=0"],
         "missing required key: grid.x"),
        (["sample", "--grid-x=0:1:2", "--grid-z=0:1:2", "--times=0"],
         "missing required key: grid.y"),
        (["sample", "--grid-x=0:1:2", "--grid-y=0:1:2", "--times=0"],
         "missing required key: grid.z"),
        (["sample", "--grid-x=0:1:2", "--grid-y=0:1:2", "--grid-z=0:1:2"],
         "missing required key: times"),
        (["verify", "--dim=2"], "verify supports dim = 3 only"),
        (["sweep", "--dim=2", "--sweep=lambda=0,1"], "sweep supports dim = 3 only"),
        (["sweep"], "missing required key: sweep.<param> (at least one axis)"),
    ])
    def test_mode_needs(self, argv, message, tmp_path, capsys):
        # checked with the rest of the config and after every other check, so
        # no mode starts, and a request with another fault is told of that one
        args = cli.build_parser().parse_args(argv)
        with pytest.raises(ConfigError) as exc:
            cli._load_config(args)
        assert str(exc.value) == message
        out = f"--out={tmp_path / 'out'}"
        assert cli.main([*argv, out]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert cli.main([*argv, out, "--gamma=0.5"]) == cli.EXIT_CONFIG
        assert "gamma must be >= 1" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_planar_sample_needs_no_grid_z(self):
        cfg = parse_config("mode = sample\ndim = 2\ngrid.x = 0:1:2\ngrid.y = 0:1:2\ntimes = 0\n")
        assert cfg.grid_z is None

    def test_b0_is_ignored_in_2d(self):
        cfg = parse_config("dim = 2\na0 = 0.5\nb0 = 0\n")
        assert cfg.eps_blow is None
        assert parse_config("dim = 2\na0 = 2\nb0 = 0.1\n").eps_blow is None
        with pytest.raises(ConfigError, match="b0"):
            parse_config("dim = 3\nb0 = 0\n")


def random_config_text(rng) -> str:
    entries = {
        "mode": str(rng.choice(["integrate", "sample", "verify", "classify", "sweep"])),
        "dim": int(rng.choice([2, 3])),
        "K": float(rng.uniform(0.1, 5.0)),
        "gamma": float(rng.uniform(1.0, 3.0)),
        "lambda": float(rng.uniform(-2.0, 2.0)),
        "alpha": float(rng.uniform(0.0, 3.0)),
        "xi": float(rng.uniform(-2.0, 2.0)),
        "mu": float(rng.uniform(0.0, 2.0)),
        "a0": float(rng.uniform(0.1, 2.0)),
        "a1": float(rng.uniform(-1.0, 1.0)),
        "b0": float(rng.uniform(0.1, 2.0)),
        "b1": float(rng.uniform(-1.0, 1.0)),
        "t_end": float(rng.uniform(1.0, 20.0)),
        "rel_tol": float(10.0 ** rng.uniform(-12, -6)),
        "abs_tol": float(10.0 ** rng.uniform(-14, -8)),
        "max_steps": int(rng.integers(100, 10_000_000)),
        "eps_blow": float(10.0 ** rng.uniform(-12, -8)),
        "method": str(rng.choice(["RK45", "DOP853"])),
    }
    # what the mode needs: dim 3 for verify and sweep, a grid for sample
    # (times are always drawn) and an axis for sweep
    mode = entries["mode"]
    if mode in ("verify", "sweep"):
        entries["dim"] = 3
    lines = [f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}"
             for k, v in entries.items()]
    t_end = entries["t_end"]
    times = sorted(set(float(t) for t in rng.uniform(0.0, t_end, size=3)))
    lines.append("times = " + ",".join(repr(t) for t in times))
    if rng.random() < 0.7 or mode == "sample":
        lines.append(f"grid.x = {rng.uniform(-2, 0)!r}:{rng.uniform(0.5, 2)!r}:{rng.integers(2, 50)}")
        lines.append(f"grid.y = {rng.uniform(-2, 0)!r}:{rng.uniform(0.5, 2)!r}:{rng.integers(2, 50)}")
        lines.append(f"grid.z = {rng.uniform(-2, 0)!r}:{rng.uniform(0.5, 2)!r}:{rng.integers(2, 50)}")
    if rng.random() < 0.5 or mode == "sweep":
        lines.append("sweep.lambda = -1,0,1")
        lines.append(f"sweep.xi = {rng.uniform(0.1, 2)!r}")
    if rng.random() < 0.5:
        lines.append("out = somewhere.csv")
    return "\n".join(lines) + "\n"


def random_config(rng) -> RunConfig:
    return parse_config(random_config_text(rng))


def real(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def positive(hi):
    return st.floats(0.0, hi, exclude_min=True)


# a valid value of each family parameter, by config key
FAMILY = {
    "gamma": st.one_of(st.just(1.0), real(1.0, 3.0)), "K": positive(5.0),
    "lambda": real(-2.0, 2.0), "alpha": real(0.0, 3.0), "xi": real(-2.0, 2.0),
    "mu": real(0.0, 2.0), "a0": positive(3.0), "a1": real(-2.0, 2.0),
    "b0": positive(3.0), "b1": real(-2.0, 2.0),
}
grid = st.builds(lambda lo, width, count: (lo, lo + width, count),
                 real(-10.0, 10.0), real(1e-3, 10.0), st.integers(2, 10_000))
grids = st.one_of(st.none(), grid)


@st.composite
def run_configs(draw) -> RunConfig:
    """A valid configuration: every key drawn from its valid range, and the
    keys its mode needs present (dim 3 for verify and sweep, the grid and
    times for sample, an axis for sweep)."""
    entries = {attr: draw(FAMILY[key]) for key, (attr, _) in _SCHEMA.items() if key in FAMILY}
    t_end = draw(real(1e-3, 1e3))
    mode = draw(st.sampled_from(["", *cli.MODES]))
    axis = grid if mode == "sample" else grids
    entries.update(
        mode=mode,
        dim=draw(st.sampled_from([3] if mode in ("verify", "sweep") else [2, 3])),
        t_end=t_end,
        times=sorted(draw(st.lists(real(0.0, t_end), min_size=1 if mode == "sample" else 0,
                                   max_size=4, unique=True))),
        grid_x=draw(axis), grid_y=draw(axis), grid_z=draw(axis),
        rel_tol=draw(st.one_of(st.just(emden.MIN_REL_TOL),
                               st.floats(emden.MIN_REL_TOL, 1.0, exclude_max=True))),
        abs_tol=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        max_steps=draw(st.integers(1, 10**9)),
        method=draw(st.sampled_from(["RK45", "DOP853"])),
        out=draw(st.one_of(st.none(), st.text("abc_-./0123456789", min_size=1, max_size=12))),
        verify_points=draw(st.integers(1, 10**6)),
        verify_seed=draw(st.integers(0, 2**32)),
        verify_h=draw(positive(10.0)),
        verify_time=draw(real(0.0, 100.0)),
        sweep_t_end=draw(st.one_of(st.none(), real(1e-3, 1e3))),
    )
    axes = draw(st.lists(st.sampled_from(SWEEPABLE), unique=True,
                         min_size=1 if mode == "sweep" else 0, max_size=3))
    entries["sweep"] = {param: draw(st.lists(FAMILY[param], min_size=1, max_size=4))
                        for param in axes}
    # a collapse floor below every start a run may begin from
    starts = [entries["a0"], entries["b0"], *entries["sweep"].get("a0", ()),
              *entries["sweep"].get("b0", ())]
    entries["eps_blow"] = draw(st.one_of(
        st.none(), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(
            lambda share: share * min(starts)).filter(lambda floor: 0.0 < floor < min(starts))))
    return build_config(entries)


class TestRoundTrip:
    def test_parse_serialize_parse_is_identity(self):
        rng = np.random.default_rng(12345)
        for _ in range(200):
            cfg = random_config(rng)
            again = parse_config(serialize_config(cfg))
            assert again == cfg

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(run_configs())
    def test_generated_configs_round_trip(self, cfg):
        text = serialize_config(cfg)
        again = parse_config(text)
        assert again == cfg
        # the text is a fixed point too, which also pins the sign of every zero
        assert serialize_config(again) == text


def flag(key):
    return "--" + key.replace(".", "-").replace("_", "-")


def argv_for(text):
    """The command line that sets the same entries as config ``text``."""
    argv = []
    for line in text.splitlines():
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "mode":
            argv.insert(0, value)
        elif key.startswith("sweep.") and key != "sweep.t_end":
            argv.append(f"--sweep={key[len('sweep.'):]}={value}")
        else:
            argv.append(f"{flag(key)}={value}")
    return argv


class TestFlagsMatchFileKeys:
    def test_flags_give_the_file_config(self):
        rng = np.random.default_rng(12345)
        for _ in range(100):
            text = random_config_text(rng)
            args = cli.build_parser().parse_args(argv_for(text))
            assert cli._load_config(args) == parse_config(text)

    def test_one_flag_per_key_except_mode(self):
        flags = [opt for a in cli.build_parser()._actions for opt in a.option_strings
                 if opt not in ("-h", "--help", "--config", "--sweep")]
        assert flags == [flag(key) for key in _SCHEMA if key != "mode"]
