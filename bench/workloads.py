"""Seeded request decks for the benchmark workloads, and the output checks.

A deck is one pass of requests over a fixed list of templates.  The request
kinds, grid sizes, point counts and time lists are the same in every pass
and for every seed, so latency percentiles compare across seeds.  The seed
and the pass number draw the continuous inputs (family constants, initial
scale factors) and the order, so that a run averages over many draws.

Each check returns ``None`` for a correct artifact or a one-line reason.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

import oracles

WORKLOADS = ("field_export", "dynamics", "certify")

FIELD_CSV_HEADER = "x,y,z,t,rho,u1,u2,u3,s,p"
SWEEP_CSV_HEADER = "gamma,K,lambda,alpha,xi,mu,a0,a1,b0,b1,verdict,basis,T_est"

# tolerances of the output checks
FIELD_REL_TOL = 1e-13
COLLAPSE_REL_TOL = 1e-8
ENERGY_DRIFT_TOL = 1e-8
PERIOD_REL_TOL = 1e-6
MASS_REL_TOL = 1e-6
ORDER_BAND = (1.6, 2.4)
CHECKED_ROWS = 32


@dataclass
class Request:
    """One closed-loop request: a CLI invocation, or the library mass check.

    ``items`` is the work the workload's throughput counts (CSV rows, sweep
    cells or verify points); requests with ``items == 0`` are left out of it.
    """

    key: str
    kind: str
    argv: list[str]
    spec: dict
    items: int = 0
    expect_rc: tuple[int, ...] = (0,)
    once: bool = False  # only in the first pass of an untraced run


def _f(v: float) -> str:
    return repr(float(v))


def _family(rng, family: str) -> dict:
    """Family constants; ``family`` picks the branch of the density shape."""
    p = {"K": rng.uniform(0.8, 1.2), "alpha": rng.uniform(0.8, 1.3),
         "xi": rng.choice([-1.0, 1.0]) * rng.uniform(0.6, 1.4), "mu": 0.0}
    if family == "gauss":
        p.update(gamma=1.0, lam=rng.uniform(0.6, 1.6))
    elif family == "compact":
        p.update(gamma=rng.uniform(1.25, 1.75), lam=rng.uniform(0.6, 1.6))
    elif family == "gamma2":
        p.update(gamma=2.0, lam=rng.uniform(0.6, 1.6))
    elif family == "stiff":
        p.update(gamma=rng.uniform(2.2, 2.8), lam=rng.uniform(0.6, 1.6))
    elif family == "negative":
        p.update(gamma=rng.uniform(1.2, 1.8), lam=-rng.uniform(0.4, 1.0))
    else:
        raise ValueError(family)
    return {k: float(v) for k, v in p.items()}


def _ic(rng, b1=(0.0, 0.25)) -> dict:
    return {"a0": float(rng.uniform(0.9, 1.1)), "a1": float(rng.uniform(-0.15, 0.15)),
            "b0": float(rng.uniform(0.9, 1.1)), "b1": float(rng.uniform(*b1))}


def _flags(params: dict, ic: dict, dim: int = 3) -> list[str]:
    out = [f"--dim={dim}", f"--K={_f(params['K'])}", f"--gamma={_f(params['gamma'])}",
           f"--lambda={_f(params['lam'])}", f"--alpha={_f(params['alpha'])}",
           f"--xi={_f(params['xi'])}", f"--mu={_f(params['mu'])}",
           f"--a0={_f(ic['a0'])}", f"--a1={_f(ic['a1'])}"]
    if dim == 3:
        out += [f"--b0={_f(ic['b0'])}", f"--b1={_f(ic['b1'])}"]
    return out


def _times_flag(times) -> str:
    return "--times=" + ",".join(_f(t) for t in times)


# ---------------------------------------------------------------- field_export

# (family, grid counts, output times) in three blocks.  Within a block the
# requests cost about the same (grids are smaller for the families whose
# rows are dearer to write); each block costs about 2.2 times the one below
# and holds 3, 4 and 3 of the 10 requests of a pass.  The 50th latency
# percentile thus falls in the middle of the middle block and the 90th
# inside the top block, away from the gaps between blocks, on any host.
_FIELD_BLOCKS = (
    [("gauss", (20, 19, 18), (0.0,)),
     ("compact", (100, 92), (0.3,)),
     ("negative", (16, 16, 16), (0.0, 0.3))],
    [("gamma2", (26, 26, 25), (0.25,)),
     ("stiff", (143, 140), (0.2,)),
     ("compact", (20, 20, 19), (0.0, 0.5)),
     ("gauss", (88, 86), (0.1, 0.4))],
    [("gauss", (22, 21, 21), (0.0, 0.25, 0.5)),
     ("compact", (24, 22, 22), (0.0, 0.2, 0.45)),
     ("negative", (144, 140), (0.2, 0.5))],
)
# the largest grid, once per run: about 1e5 rows from one full 3D meshgrid
_FIELD_LARGE = ("compact", (46, 46, 46), (0.4,))


def _half_width(params: dict) -> float:
    """Grid half-width: a fixed multiple of the support (or Gaussian) radius,
    so that the share of cells outside the support is the same for every
    seed; the CSV writer is faster on the zeros there."""
    if params["lam"] <= 0.0:
        return 1.25
    if params["gamma"] == 1.0:
        # three standard deviations of the Gaussian exp(-lam s / 2K)
        r = 3.0 * math.sqrt(params["K"] / params["lam"])
    else:
        r = oracles.support_radius(params["K"], params["gamma"], params["lam"],
                                   params["alpha"])
    return 1.15 * r


def _sample_request(key, rng, family, counts, times, tiny) -> Request:
    params = _family(rng, family)
    ic = _ic(rng)
    if tiny:
        counts = tuple(max(3, round(n / (10 if len(counts) == 2 else 5))) for n in counts)
    dim = len(counts)
    L = _half_width(params)
    axes = [(-L, L, n) for n in counts]
    argv = ["sample", *_flags(params, ic, dim), _times_flag(times)]
    for name, (lo, hi, n) in zip("xyz", axes):
        argv.append(f"--grid-{name}={_f(lo)}:{_f(hi)}:{n}")
    rows = math.prod(counts) * len(times)
    spec = {"params": params, "ic": ic, "dim": dim, "times": list(times),
            "axes": [(float(lo), float(hi), n) for lo, hi, n in axes],
            "rows": rows, "check_seed": int(rng.integers(2**31))}
    return Request(key, "sample", argv, spec, items=rows)


def field_export_deck(seed: int, pass_index: int, tiny: bool = False) -> list[Request]:
    rng = np.random.default_rng([seed, 1, pass_index])
    reqs = [_sample_request(f"f{b}{i}", rng, fam, counts, times, tiny)
            for b, block in enumerate(_FIELD_BLOCKS)
            for i, (fam, counts, times) in enumerate(block)]
    rng.shuffle(reqs)
    if pass_index == 0:
        large = _sample_request("f_large", rng, *_FIELD_LARGE, tiny)
        large.once = True
        reqs.insert(int(rng.integers(len(reqs) + 1)), large)
    return reqs


def _state_at_times(spec: dict) -> dict:
    """Scale-factor states at the requested times, as the CLI computes them."""
    from eulerexact import emden

    p, ic = _params(spec), _initial_state(spec)
    times = spec["times"]
    states = {0.0: ic}
    if times[-1] > 0.0:
        eps = 1e-10 * min(spec["ic"]["a0"], spec["ic"]["b0"] if spec["dim"] == 3 else 1.0)
        traj = emden.integrate(p, ic, times[-1], dense_times=times, eps_blow=eps)
        states.update({st.t: st for st in traj.states if st.t > 0.0})
    return states


def _params(spec):
    from eulerexact.profiles import PhysParams

    q = spec["params"]
    return PhysParams(K=q["K"], gamma=q["gamma"], lam=q["lam"], alpha=q["alpha"],
                      xi=q["xi"], mu=q["mu"])


def _initial_state(spec):
    from eulerexact.emden import EmdenState2D, EmdenState3D

    ic = spec["ic"]
    if spec.get("dim", 3) == 3:
        return EmdenState3D(0.0, ic["a0"], ic["a1"], ic["b0"], ic["b1"])
    return EmdenState2D(0.0, ic["a0"], ic["a1"])


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want)


def check_sample(req: Request, rc: int, path: str) -> str | None:
    from eulerexact.fields import Field2D, Field3D

    spec = req.spec
    want_rows = spec["rows"]
    rng = np.random.default_rng(spec["check_seed"])
    picks = {0, want_rows - 1, *(int(k) for k in rng.integers(want_rows, size=CHECKED_ROWS))}
    # streamed, so that the check adds no memory of the artifact's size to
    # the peak resident memory of the run
    picked = {}
    n_rows, last = 0, "\n"
    with open(path, encoding="utf-8") as f:
        if f.readline() != FIELD_CSV_HEADER + "\n":
            return "bad header"
        for n_rows, last in enumerate(f, 1):
            if n_rows - 1 in picks:
                picked[n_rows - 1] = last
    if not last.endswith("\n"):
        return "unterminated last row"
    if n_rows != want_rows:
        return f"{n_rows} rows, want {want_rows}"
    axes = [np.linspace(lo, hi, n) for lo, hi, n in spec["axes"]]
    counts = [n for _, _, n in spec["axes"]] + ([1] if spec["dim"] == 2 else [])
    per_time = math.prod(counts)
    states = _state_at_times(spec)
    p = _params(spec)
    for k in sorted(picks):
        vals = [float(v) for v in picked[k].split(",")]
        it, cell = divmod(k, per_time)
        ix = cell % counts[0]
        iy = (cell // counts[0]) % counts[1]
        iz = cell // (counts[0] * counts[1])
        t = spec["times"][it]
        want_xyz = (axes[0][ix], axes[1][iy], axes[2][iz] if spec["dim"] == 3 else 0.0)
        if tuple(vals[:4]) != (*want_xyz, t):
            return f"row {k}: coordinates {vals[:4]}, want {(*want_xyz, t)}"
        if spec["dim"] == 3:
            smp = Field3D.from_params(p, states[t]).eval(*want_xyz)
            want = (smp.rho, smp.u1, smp.u2, smp.u3, smp.s, smp.pressure)
        else:
            smp = Field2D.from_params(p, states[t]).eval(want_xyz[0], want_xyz[1])
            want = (smp.rho, smp.u1, smp.u2, 0.0, smp.eta, smp.pressure)
        for name, got, w in zip(("rho", "u1", "u2", "u3", "s", "p"), vals[4:], want):
            if not _close(got, w, FIELD_REL_TOL):
                return f"row {k}: {name}={got!r}, scalar eval gives {w!r}"
    return None


# ---------------------------------------------------------------- dynamics

def _sweep_request(key, rng, tiny) -> Request:
    base = _family(rng, "compact")
    ic = _ic(rng)
    lam = (-rng.uniform(0.6, 1.2), 0.0, rng.uniform(0.5, 1.5))
    # b1 < 0; small b1 > 0 that collapses in the open cell; large b1 > 0 that
    # escapes, so the open cell runs to the horizon
    b1 = (-rng.uniform(0.3, 0.8), rng.uniform(0.2, 0.5), rng.uniform(1.8, 2.4))
    gamma = (1.0, rng.uniform(1.3, 1.7))
    argv = ["sweep", *_flags(base, ic), f"--sweep-t-end={5 if tiny else 30}",
            "--sweep=lambda=" + ",".join(_f(v) for v in lam),
            "--sweep=b1=" + ",".join(_f(v) for v in b1),
            "--sweep=gamma=" + ",".join(_f(v) for v in gamma)]
    cells = len(lam) * len(b1) * len(gamma)
    return Request(key, "sweep", argv, {"cells": cells}, items=cells)


def _bound_orbit(rng, gamma):
    """Constants and start of a bound planar orbit.  |a1| >= 0.1 keeps it
    away from the circular orbit, where the turning points merge and both
    the pericenter section and the quadrature oracle lose accuracy."""
    while True:
        lam = -rng.uniform(0.6, 1.3)
        xi = rng.choice([-1.0, 1.0]) * rng.uniform(0.7, 1.1)
        a0, a1 = rng.uniform(0.8, 1.3), rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.3)
        if oracles.planar_energy_margin(gamma, lam, xi, a0, a1) > 0.1:
            return float(lam), float(xi), float(a0), float(a1)


def _classify_request(key, rng, tiny: bool, bound_gamma: float | None) -> Request:
    """2D classify on a bound orbit of the given gamma, or, for None, on an
    orbit that escapes (lam > 0)."""
    params = _family(rng, "compact")
    if bound_gamma is not None:
        gamma = bound_gamma
        lam, xi, a0, a1 = _bound_orbit(rng, gamma)
        params.update(gamma=gamma, lam=lam, xi=xi)
        period = oracles.planar_period(gamma, lam, xi, a0, a1)
        t_end = (2.2 if tiny else 3.2) * period
    else:
        params["gamma"] = float(rng.uniform(1.0, 1.8))
        a0, a1 = float(rng.uniform(0.8, 1.3)), float(rng.uniform(-0.3, 0.3))
        period, t_end = None, 20.0
    ic = {"a0": a0, "a1": a1}
    argv = ["classify", *_flags(params, ic, dim=2), f"--t-end={_f(t_end)}"]
    return Request(key, "classify", argv, {"period": period})


_ORBIT_PERIODS = 8.0


def _integrate_request(key, rng, case: str, tiny: bool) -> Request:
    n_times = 20 if tiny else 300
    dim, expect = 3, (0,)
    if case == "escape":
        params, ic, t_end = _family(rng, "compact"), _ic(rng), 40.0
    elif case == "orbit":
        params = _family(rng, "compact")
        lam, xi, a0, a1 = _bound_orbit(rng, params["gamma"])
        params.update(lam=lam, xi=xi)
        # a fixed number of periods, so that the step count (the cost) is
        # about the same for every draw
        t_end = _ORBIT_PERIODS * oracles.planar_period(params["gamma"], lam, xi, a0, a1)
        ic, dim = {"a0": a0, "a1": a1}, 2
    elif case == "linear":
        params = _family(rng, "compact")
        params["lam"] = 0.0
        ic = _ic(rng, b1=(-0.8, -0.4))
        t_end, expect = 2.0 * oracles.linear_collapse_time(ic["b0"], ic["b1"]), (3,)
    elif case == "isothermal":
        params = _family(rng, "gauss")
        params["lam"] = -params["lam"]
        ic = _ic(rng, b1=(-0.3, 0.0))
        t_end, expect = 10.0, (3,)
    else:
        raise ValueError(case)
    times = [t_end * (i + 1) / n_times for i in range(n_times)]
    argv = ["integrate", *_flags(params, ic, dim), _times_flag(times)]
    spec = {"params": params, "ic": ic, "dim": dim, "times": times, "case": case}
    return Request(key, "integrate", argv, spec, expect_rc=expect)


def dynamics_deck(seed: int, pass_index: int, tiny: bool = False) -> list[Request]:
    rng = np.random.default_rng([seed, 2, pass_index])
    reqs = [_sweep_request(f"s{i}", rng, tiny) for i in range(3)]
    reqs += [_classify_request(f"c_bound_{i}", rng, tiny,
                               1.0 if i < 2 else float(rng.uniform(1.2, 1.8)))
             for i in range(4)]
    reqs.append(_classify_request("c_escape", rng, tiny, None))
    reqs += [_integrate_request(f"i_{case}", rng, case, tiny)
             for case in ("escape", "orbit", "linear", "isothermal")]
    rng.shuffle(reqs)
    return reqs


def _sweep_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    if lines[0] != SWEEP_CSV_HEADER or lines[-1] != "":
        raise ValueError("bad sweep header or unterminated last row")
    names = SWEEP_CSV_HEADER.split(",")
    return [dict(zip(names, line.split(","))) for line in lines[1:-1]]


def check_sweep(req: Request, rc: int, path: str) -> str | None:
    try:
        rows = _sweep_rows(path)
    except ValueError as exc:
        return str(exc)
    if len(rows) != req.spec["cells"]:
        return f"{len(rows)} sweep rows, want {req.spec['cells']}"
    for row in rows:
        gamma, lam = float(row["gamma"]), float(row["lambda"])
        b0, b1 = float(row["b0"]), float(row["b1"])
        want = oracles.table_verdict(gamma, lam, b1)
        if row["verdict"] != want:
            return f"cell lam={lam} gamma={gamma} b1={b1}: {row['verdict']}, want {want}"
        if lam == 0.0 and b1 < 0.0:
            T = oracles.linear_collapse_time(b0, b1)
            if not row["T_est"] or not _close(float(row["T_est"]), T, COLLAPSE_REL_TOL):
                return f"cell lam=0 b1={b1}: T_est={row['T_est']!r}, want {T!r}"
    return None


def count_mislabeled(path: str) -> int:
    """Open-cell rows that carry a detected collapse time but keep the
    analytic open verdict (they should read numerical_evidence)."""
    count = 0
    for row in _sweep_rows(path):
        open_cell = (float(row["gamma"]) > 1.0 and float(row["lambda"]) < 0.0
                     and float(row["b1"]) > 0.0)
        if (open_cell and row["T_est"] and row["verdict"] == oracles.OPEN_CASE
                and row["basis"] == "analytic"):
            count += 1
    return count


def check_classify(req: Request, rc: int, path: str) -> str | None:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    want = req.spec["period"]
    got = doc.get("period")
    if want is None:
        return None if got is None else f"escaping orbit reported period {got}"
    if got is None:
        return f"no period detected, quadrature gives {want!r}"
    if not _close(got["period"], want, PERIOD_REL_TOL):
        return f"period {got['period']!r}, quadrature gives {want!r}"
    return None


def check_integrate(req: Request, rc: int, path: str) -> str | None:
    spec = req.spec
    with open(path, encoding="utf-8") as f:
        records = [json.loads(line) for line in f.read().splitlines()]
    term = records[-1].get("termination", {})
    samples = records[:-1]
    times = spec["times"]
    q, ic = spec["params"], spec["ic"]
    if rc == 3:
        if term.get("kind") != "blowup":
            return f"exit 3 with termination {term}"
        t_est = term["t_est"]
        if [s["t"] for s in samples] != [t for t in times if t <= t_est]:
            return "blowup trajectory samples do not match the requested times"
        if spec["case"] == "linear":
            T = oracles.linear_collapse_time(ic["b0"], ic["b1"])
            if not _close(t_est, T, COLLAPSE_REL_TOL):
                return f"collapse at {t_est!r}, want -b0/b1 = {T!r}"
        if spec["case"] == "isothermal":
            bound = oracles.isothermal_collapse_bound(ic["b0"], ic["b1"], q["lam"])
            if not 0.0 < t_est <= bound:
                return f"collapse at {t_est!r}, outside (0, {bound!r}]"
        return None
    if term.get("kind") != "reached_t_end":
        return f"exit {rc} with termination {term}"
    if [s["t"] for s in samples] != times:
        return "trajectory samples do not match the requested times"
    planar = spec["dim"] == 2
    e0 = oracles.energy(q["gamma"], q["lam"], q["xi"], ic["a0"], ic["a1"],
                        None if planar else ic["b0"], None if planar else ic["b1"])
    drift = max(abs(oracles.energy(q["gamma"], q["lam"], q["xi"], s["a"], s["a_dot"],
                                   s.get("b"), s.get("b_dot")) - e0) for s in samples)
    if drift > ENERGY_DRIFT_TOL * max(1.0, abs(e0)):
        return f"energy drift {drift:.3e} over the trajectory"
    return None


# ---------------------------------------------------------------- certify

# verify point counts by template index: with the six fast mass checks, the
# median request falls inside the 60-point class and the 90th percentile
# inside the 250-point class
_VERIFY_POINTS = (60, 250, 60, 30, 60, 250, 60, 60, 250, 60, 250, 60)
# box quadrature resolution for the Gaussian: the midpoint rule converges
# spectrally there, to about 1e-15 at n = 32
_BOX_N = 32


def _verify_requests(key, rng, index, gamma_kind, lam_sign, timed, tiny):
    family = {"one": "gauss", "mid": "compact", "two": "gamma2"}[gamma_kind]
    params = _family(rng, family)
    if lam_sign < 0:
        params["lam"] = -rng.uniform(0.4, 1.2)
    if index % 2:
        params["mu"] = float(rng.uniform(0.1, 1.0))
    ic = _ic(rng, b1=(0.0, 0.3))
    t = float(rng.uniform(0.2, 0.4)) if timed else 0.0
    points = max(3, _VERIFY_POINTS[index] // 10) if tiny else _VERIFY_POINTS[index]
    argv = ["verify", *_flags(params, ic), f"--verify-time={_f(t)}",
            f"--verify-points={points}", f"--verify-seed={int(rng.integers(2**31))}"]
    reqs = [Request(key, "verify", argv, {"points": points}, items=points)]
    if params["lam"] > 0.0:
        schemes = {"one": "box", "mid": "ellipsoid", "two": "ellipsoid"}
        spec = {"params": params, "ic": ic, "t1": t if timed else float(rng.uniform(0.3, 0.6)),
                "scheme": schemes[gamma_kind]}
        reqs.append(Request(key + "_mass", "mass", [], spec))
    return reqs


def certify_deck(seed: int, pass_index: int, tiny: bool = False) -> list[Request]:
    rng = np.random.default_rng([seed, 3, pass_index])
    combos = [(g, s, timed) for g in ("one", "mid", "two") for s in (1, -1)
              for timed in (False, True)]
    groups = [_verify_requests(f"v{i:02d}", rng, i, *combo, tiny)
              for i, combo in enumerate(combos)]
    rng.shuffle(groups)
    return [r for group in groups for r in group]


def run_mass_check(spec: dict, path: str) -> int:
    """Library request: total mass at t = 0 and t = t1.

    The box scheme (used on the Gaussian) integrates over one fixed physical
    box that holds the density at both times, so agreement between the two
    times is conservation in fixed coordinates.  The ellipsoid scheme (used
    on compact support) maps the support to the unit ball at each time.
    """
    from eulerexact import emden, fields, verify

    q = spec["params"]
    p, ic = _params(spec), _initial_state(spec)
    traj = emden.integrate(p, ic, spec["t1"])
    states = (ic, traj.state_at(spec["t1"]))
    r = oracles.support_radius(q["K"], q["gamma"], q["lam"], q["alpha"])
    radius = tuple(max(r * getattr(st, axis) for st in states) for axis in ("a", "a", "b"))
    doc = {"t": [0.0, spec["t1"]], "scheme": spec["scheme"],
           "mass": [verify.total_mass(fields.Field3D.from_params(p, st), scheme=spec["scheme"],
                                      radius=radius, n=_BOX_N).total_mass for st in states]}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    return 0


def check_mass(req: Request, rc: int, path: str) -> str | None:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    q = req.spec["params"]
    want = oracles.total_mass(q["K"], q["gamma"], q["lam"], q["alpha"])
    m0, m1 = doc["mass"]
    if not (_close(m0, want, MASS_REL_TOL) and _close(m1, want, MASS_REL_TOL)):
        return f"{doc['scheme']} mass {m0!r} -> {m1!r}, closed form {want!r}"
    if abs(m1 - m0) > MASS_REL_TOL * want:
        return f"{doc['scheme']} mass not conserved: {m0!r} -> {m1!r}"
    return None


def check_verify(req: Request, rc: int, path: str) -> str | None:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    points = doc["points"]
    if len(points) != req.spec["points"]:
        return f"{len(points)} residual points, want {req.spec['points']}"
    orders = [pt["observed_order"] for pt in points
              if not pt["kink_crossing"] and pt["observed_order"] is not None]
    if not orders:
        return "no point away from a kink has an observed order"
    median = float(np.median(orders))
    if not ORDER_BAND[0] <= median <= ORDER_BAND[1]:
        return f"median observed order {median:.3f} outside {ORDER_BAND}"
    return None


# ---------------------------------------------------------------- dispatch

DECKS = {"field_export": field_export_deck, "dynamics": dynamics_deck,
         "certify": certify_deck}

_EXTENSIONS = {"sample": "csv", "sweep": "csv", "classify": "json",
               "integrate": "jsonl", "verify": "json", "mass": "json"}


_CHECKS = {"sample": check_sample, "sweep": check_sweep, "classify": check_classify,
           "integrate": check_integrate, "verify": check_verify, "mass": check_mass}


def artifact_name(req: Request) -> str:
    return f"{req.key}.{_EXTENSIONS[req.kind]}"


def check(req: Request, rc: int, path: str, stderr: str) -> str | None:
    """Decide one request: ``None`` when exit code and artifact are right."""
    if rc not in req.expect_rc:
        return f"exit code {rc}, want {req.expect_rc}: {stderr.strip()[-200:]}"
    return _CHECKS[req.kind](req, rc, path)
