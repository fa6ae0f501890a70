"""Batch front end.

Modes: ``integrate`` (trajectory JSONL), ``sample`` (field CSV),
``verify`` (residual report JSON), ``classify`` (verdict JSON; in 2D the
periodicity report), ``sweep`` (classification summary CSV over a Cartesian
parameter grid).  Configuration comes from an optional ``--config`` file with
per-key flag overrides.  Exit codes: 0 success, 2 configuration error,
3 blowup-truncated output, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
from typing import TYPE_CHECKING

# classify_3d and detect_period_2d are not called here: they stay importable
# for bench/tracer.py
from .classify import (classify_3d, classify_cell, detect_period_2d,  # noqa: F401
                       search_period_2d)
from .config import (SWEEPABLE, ConfigError, RunConfig, _SCHEMA, build_config,
                     parse_entries, parse_entry, parse_sweep_axis)
from .emden import integrate, strict_json

# numpy, fields and verify are imported inside the modes that use them, sample
# and verify, so that integrate, classify and sweep start without numpy
if TYPE_CHECKING:
    import numpy as np

    from .fields import Field3D

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_NUMERIC = 4

FIELD_CSV_HEADER = "x,y,z,t,rho,u1,u2,u3,s,p"

# every config key except mode is a flag; values are taken as raw strings and
# run through the config file's parser so diagnostics and semantics match
_FLAG_KEYS = [key for key in _SCHEMA if key != "mode"]


def _flag(key: str) -> str:
    """Config key ``k`` is flag ``--k`` with ``.`` and ``_`` written as ``-``."""
    return "--" + key.replace(".", "-").replace("_", "-")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One parser for every mode: all modes take the same flags, before or
    after the mode.  It is built once per process: parsing leaves it, and
    the ``--sweep`` default, which argparse copies before appending,
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="eulerexact",
        description="Exact rotational reference solutions of the compressible "
                    "Euler equations: integrate, sample, verify, classify, sweep.")
    parser.add_argument("mode", choices=list(MODES), help="; ".join(
        f"{mode}: {help_line}" for mode, (_, _, help_line) in MODES.items()))
    parser.add_argument("--config", metavar="PATH", help="key=value config file")
    for key in _FLAG_KEYS:
        parser.add_argument(_flag(key), dest=key, metavar="VALUE", default=None)
    parser.add_argument("--sweep", action="append", default=[], metavar="PARAM=V1,V2,...",
                        help="sweep axis (repeatable)")
    return parser


def _load_config(args) -> RunConfig:
    entries: dict[str, object] = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as f:
                text = f.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from None
        entries.update(parse_entries(text))
    flags = vars(args)
    for key in _FLAG_KEYS:
        if flags[key] is not None:
            parse_entry(entries, key, flags[key])
    for item in args.sweep:
        param, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"--sweep expects PARAM=V1,V2,..., got {item!r}")
        parse_sweep_axis(entries, param.strip(), raw)
    entries["mode"] = args.mode
    return build_config(entries)


def _integrate(cfg: RunConfig, t_end: float, dense_times=None):
    return integrate(cfg.params(), cfg.initial_state(), t_end, dense_times=dense_times,
                     **cfg.run_options())


def _exit_code(termination, **context) -> int:
    """EXIT_OK for a run that reached its end; otherwise the termination
    record, with the ``context`` keys beside it, goes to stderr and its exit
    code is returned."""
    if termination.kind == "reached_t_end":
        return EXIT_OK
    print(strict_json({"termination": termination.to_dict(), **context}), file=sys.stderr)
    return EXIT_BLOWUP if termination.kind == "blowup" else EXIT_NUMERIC


def _write_json(out: str, doc: dict) -> None:
    """Strict, indented JSON, serialized before the file is opened."""
    _write_text(out, strict_json(doc, indent=2))


def _write_text(out: str, text: str) -> None:
    with open(out, "w", encoding="utf-8") as f:
        f.write(text + "\n")


def run_integrate(cfg: RunConfig, out: str) -> int:
    traj = _integrate(cfg, cfg.t_end, dense_times=cfg.times or None)
    traj.write_jsonl(out)
    print(f"wrote {out} ({len(traj.states)} samples, {traj.termination.kind})")
    return _exit_code(traj.termination)


def _csv_float(v) -> str:
    return repr(float(v))


def _csv_lines(values: np.ndarray) -> list[list[str]]:
    """``repr`` of the floats of an (nx, ny) slab as ny y-lines of nx strings.

    Each distinct value is formatted once.  Values are keyed by their IEEE
    bit pattern, which keeps -0.0 and 0.0 apart, and the strings are gathered
    back to the cells through the inverse index.  Grids symmetric about the
    origin repeat ``s`` (and ``rho`` and ``p``, which are functions of it) at
    mirrored points, and vacuum cells are all 0.0.
    """
    import numpy as np

    lines = np.ascontiguousarray(values.T, dtype=np.float64)
    keys, cell_key = np.unique(lines.view(np.int64).ravel(), return_inverse=True)
    strs = np.array(list(map(repr, keys.view(np.float64).tolist())), dtype=object)
    return strs[cell_key].reshape(lines.shape).tolist()


def run_sample(cfg: RunConfig, out: str) -> int:
    import numpy as np

    from .fields import Field2D, Field3D

    for name, axis in (("grid.x", cfg.grid_x), ("grid.y", cfg.grid_y)):
        if axis is None:
            raise ConfigError(f"missing required key: {name}")
    if cfg.dim == 3 and cfg.grid_z is None:
        raise ConfigError("missing required key: grid.z")
    if not cfg.times:
        raise ConfigError("missing required key: times")

    params = cfg.params()
    ic = cfg.initial_state()
    t_max = cfg.times[-1]
    termination = None
    if t_max > 0.0:
        traj = _integrate(cfg, t_max, dense_times=cfg.times)
        states = {st.t: st for st in traj.states}
        if 0.0 in cfg.times:
            states[0.0] = ic
        termination = traj.termination
    else:
        states = {0.0: ic}

    # each axis is (min, max, count)
    xs = np.linspace(*cfg.grid_x)
    ys = np.linspace(*cfg.grid_y)
    zs = np.linspace(*cfg.grid_z) if cfg.dim == 3 else np.array([0.0])
    x_strs = list(map(repr, xs.tolist()))
    y_strs = list(map(repr, ys.tolist()))
    X, Y = np.meshgrid(xs, ys, indexing="ij", sparse=True)

    rows = 0
    truncated = False
    with open(out, "w", encoding="utf-8", newline="\n") as f:
        f.write(FIELD_CSV_HEADER + "\n")
        for t in cfg.times:
            state = states.get(t)
            if state is None:
                truncated = True
                continue
            field = (Field3D if cfg.dim == 3 else Field2D).from_params(params, state)
            t_str = _csv_float(t)
            # one (nx, ny) slab per z keeps memory O(nx*ny); the velocity is
            # linear in space, so u1 and u2 are the same on every slab and u3
            # is constant on each
            for iz, z in enumerate(zs.tolist()):
                if cfg.dim == 3:
                    g = field.eval_grid(X, Y, z)
                    u3, sim = _csv_float(g["u3"].flat[0]), g["s"]
                else:
                    g = field.eval_grid(X, Y)
                    u3, sim = "0.0", g["eta"]
                if iz == 0:
                    u1, u2 = _csv_lines(g["u1"]), _csv_lines(g["u2"])
                z_str = repr(z)
                for iy, (rho, sim_y, p) in enumerate(zip(
                        _csv_lines(g["rho"]), _csv_lines(sim), _csv_lines(g["p"]))):
                    yzt = f"{y_strs[iy]},{z_str},{t_str}"
                    f.write("\n".join(map(",".join, zip(
                        x_strs, itertools.repeat(yzt), rho, u1[iy], u2[iy],
                        itertools.repeat(u3), sim_y, p))) + "\n")
                rows += xs.size * ys.size
    print(f"wrote {out} ({rows} rows)")
    # a run that reached t_max sampled every requested time
    return _exit_code(termination) if truncated else EXIT_OK


def _interior_points(field: Field3D, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` random points inside (and away from) the density support, as
    a (count, 3) array: one normal draw of ``count`` directions, then one
    uniform draw of their similarity variables s."""
    import numpy as np

    st = field.state
    sstar = field.profile.cutoff_s
    s_hi = 0.7 * sstar if sstar is not None else 2.0
    v = rng.normal(size=(count, 3))
    v /= np.sqrt((v * v).sum(axis=1))[:, None]
    s_target = rng.uniform(0.05, 1.0, size=count) * s_hi
    vx, vy, vz = v.T
    denom = (vx * vx + vy * vy) / (st.a * st.a) + vz * vz / (st.b * st.b)
    return np.sqrt(s_target / denom)[:, None] * v


def refined_residual(*args, **kwargs):
    """``verify._refined_table``, with ``verify`` (and numpy) imported on the
    first call: the residual columns ``run_verify`` summarizes and writes.
    ``run_verify`` calls it through this module, where it can be wrapped."""
    from . import verify

    return verify._refined_table(*args, **kwargs)


def run_verify(cfg: RunConfig, out: str) -> int:
    import numpy as np

    from .fields import Field3D
    from .verify import SnapshotFieldSource

    if cfg.dim != 3:
        raise ConfigError("verify supports dim = 3 only")
    t = cfg.verify_time
    if t > 0.0:
        traj = _integrate(cfg, t)
        if traj.termination.kind != "reached_t_end":
            return _exit_code(traj.termination)
        state = traj.state_at(t)
    else:
        state = cfg.initial_state()
    field = Field3D.from_params(cfg.params(), state)
    source = SnapshotFieldSource(field)
    rng = np.random.default_rng(cfg.verify_seed)
    x, y, z = _interior_points(field, rng, cfg.verify_points).T
    table = refined_residual(source, t, x, y, z, cfg.verify_h, mu=cfg.mu)

    mass = np.abs(table.mass_residual)
    # each point's max(abs(m) for m in momentum_residual) as Python's max
    # takes it: a later row replaces the kept value only where it is greater,
    # so a NaN past the first row is passed over, and the document names it
    # under points[...] rather than in the summary
    rows = np.abs(table.momentum_residual)
    mom = rows[0]
    for row in rows[1:]:
        mom = np.where(row > mom, row, mom)
    orders = np.array([o for o in table.observed_order if o is not None])
    summary = {
        "points": mass.size,
        "kink_points": int(table.kink_crossing.sum()),
        "mass_abs": {"p50": float(np.percentile(mass, 50)),
                     "p90": float(np.percentile(mass, 90)),
                     "max": float(mass.max())},
        "momentum_abs": {"p50": float(np.percentile(mom, 50)),
                         "p90": float(np.percentile(mom, 90)),
                         "max": float(mom.max())},
        "observed_order": {"p50": float(np.percentile(orders, 50)) if orders.size else None,
                           "min": float(orders.min()) if orders.size else None,
                           "max": float(orders.max()) if orders.size else None},
    }
    # the document is this head with "points" last, written from the columns
    head = {
        "time": t,
        "stencil_h": cfg.verify_h,
        "mu": cfg.mu,
        "state": {"a": state.a, "a_dot": state.a_dot, "b": state.b, "b_dot": state.b_dot},
        "summary": summary,
    }
    try:
        text = strict_json(head, indent=2)[:-2] + ',\n  "points": ' + table.to_json() + "\n}"
    except ValueError:
        # a NaN or infinity: strict_json of the whole document raises, naming
        # the first one in document order
        text = strict_json({**head, "points": [r.to_dict() for r in table.reports()]}, indent=2)
    _write_text(out, text)
    print(f"wrote {out} ({mass.size} points, "
          f"median order {summary['observed_order']['p50']})")
    return EXIT_OK


def _params_dict(cfg: RunConfig) -> dict:
    return {"K": cfg.K, "gamma": cfg.gamma, "lambda": cfg.lam, "alpha": cfg.alpha,
            "xi": cfg.xi, "mu": cfg.mu}


def _ic_dict(cfg: RunConfig) -> dict:
    d = {"a0": cfg.a0, "a1": cfg.a1}
    if cfg.dim == 3:
        d.update({"b0": cfg.b0, "b1": cfg.b1})
    return d


def _classify_cell(cfg: RunConfig):
    """The lifespan verdict of one cell, as a sweep row or 3D ``classify``."""
    return classify_cell(cfg.params(), cfg.initial_state(), cfg.horizon,
                         **cfg.run_options())


def run_classify(cfg: RunConfig, out: str) -> int:
    doc = {"params": _params_dict(cfg), "ic": _ic_dict(cfg)}
    stopped_short = None
    if cfg.dim == 3:
        result = _classify_cell(cfg)
        doc.update(result.to_dict())
        summary = result.verdict
        # a run that stopped short of the horizon decided nothing past t_horizon
        stopped_short = result.termination
    else:
        estimate, termination = search_period_2d(cfg.params(), cfg.initial_state(), cfg.t_end,
                                                 **cfg.run_options())
        doc["period"] = estimate.to_dict() if estimate is not None else None
        # how the search run ended; an equilibrium start needs no run
        doc["termination"] = termination.to_dict() if termination is not None else None
        if estimate is not None:
            summary = "period {:.6g}".format(estimate.period)
        else:
            summary = "no period detected ({})".format(
                termination.kind if termination is not None else "equilibrium")
    _write_json(out, doc)
    print(f"wrote {out} ({summary})")
    return EXIT_OK if stopped_short is None else _exit_code(stopped_short)


def run_sweep(cfg: RunConfig, out: str) -> int:
    if cfg.dim != 3:
        raise ConfigError("sweep supports dim = 3 only")
    if not cfg.sweep:
        raise ConfigError("missing required key: sweep.<param> (at least one axis)")
    names = list(cfg.sweep)
    columns = [_SCHEMA[key][0] for key in SWEEPABLE]
    code = EXIT_OK
    # every row is made before the file is opened, so a cell that raises
    # (say, a collapse floor above its b0) leaves no file behind
    lines = [",".join(SWEEPABLE) + ",verdict,basis,T_est\n"]
    for combo in itertools.product(*(cfg.sweep[n] for n in names)):
        swept = dict(zip(names, combo))
        cell = cfg.with_keys(swept)
        result = _classify_cell(cell)
        lines.append(",".join([
            *(_csv_float(getattr(cell, attr)) for attr in columns),
            result.verdict, result.basis,
            "" if result.T is None else _csv_float(result.T),
        ]) + "\n")
        # the row cannot say that its run stopped short of the horizon
        if result.termination is not None:
            code = _exit_code(result.termination, cell=swept)
    with open(out, "w", encoding="utf-8", newline="\n") as f:
        f.write("".join(lines))
    print(f"wrote {out} ({len(lines) - 1} parameter points)")
    return code


# subcommand -> (runner, default output file, help line)
MODES = {
    "integrate": (run_integrate, "trajectory.jsonl",
                  "integrate the scale-factor system and write a JSONL trajectory"),
    "sample": (run_sample, "field.csv",
               "evaluate the exact field on a grid and write a CSV field file"),
    "verify": (run_verify, "verify.json",
               "finite-difference residual report on the exact field (JSON)"),
    "classify": (run_classify, "classify.json",
                 "lifespan verdict (3D) or periodicity report (2D) as JSON"),
    "sweep": (run_sweep, "sweep.csv",
              "classification summary CSV over a Cartesian parameter grid"),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        runner, default_out, _ = MODES[cfg.mode]
        return runner(cfg, cfg.out or default_out)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
