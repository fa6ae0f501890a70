"""Independent oracles shared by the test modules.

Everything here is deliberately written against the raw equations, not
against the library code paths it checks: a fixed-step classic RK4 stepper
(on plain floats, or vectorized over parameter batches), scipy's own
RK45/DOP853 stepping with the library's event rule, the Dormand-Prince 5(4)
trial step and dense rows as component loops over scipy's tableau, the
Ermakov-Pinney closed forms, plain finite-difference helpers, the planar
period and the isothermal fall time from the first integral by quadrature,
and the residual stencil written point by point over scalar samples.  The one
exception is ``verify_document``, a serialization reference: it takes the
library's residual reports and writes the ``verify`` document from per-point
dicts.
"""

from __future__ import annotations

import json
import math
import warnings

import mpmath
import numpy as np
from scipy.integrate import DOP853, RK45, quad
from scipy.optimize import brentq


def rhs_3d_arrays(y, K, gamma, lam, xi):
    """Vectorized RHS of the 3D scale-factor system; y has shape (4,) or (4, m)."""
    a, ad, b, bd = y
    add = xi * xi / a**3 + lam / (a ** (2.0 * gamma - 1.0) * b ** (gamma - 1.0))
    bdd = lam / (a ** (2.0 * gamma - 2.0) * b**gamma)
    return np.stack([ad, add, bd, bdd])


def rhs_2d_arrays(y, K, gamma, lam, xi):
    a, ad = y
    return np.stack([ad, xi * xi / a**3 + lam / a ** (2.0 * gamma - 1.0)])


def rhs_3d_floats(y, K, gamma, lam, xi):
    """``rhs_3d_arrays`` on a sequence of plain floats, returning a tuple."""
    a, ad, b, bd = y
    return (ad, xi * xi / a**3 + lam / (a ** (2.0 * gamma - 1.0) * b ** (gamma - 1.0)),
            bd, lam / (a ** (2.0 * gamma - 2.0) * b**gamma))


def rhs_2d_floats(y, K, gamma, lam, xi):
    a, ad = y
    return ad, xi * xi / a**3 + lam / a ** (2.0 * gamma - 1.0)


def rk4_fixed(rhs, y0, t_span, dt, params):
    """Classic RK4 with fixed step; returns the final state vector.

    With a tuple ``y0`` and a float RHS (``rhs_3d_floats``) it steps plain
    floats, several times faster than numpy on one state; otherwise ``y0``
    is an array of shape (n,) or (n, m) for an array RHS (``rhs_3d_arrays``).
    Each component takes the same operations either way.
    """
    t0, t1 = t_span
    n = int(round((t1 - t0) / dt))
    h = (t1 - t0) / n
    if isinstance(y0, tuple):
        y = [float(v) for v in y0]
        for _ in range(n):
            k1 = rhs(y, *params)
            k2 = rhs([v + 0.5 * h * k for v, k in zip(y, k1)], *params)
            k3 = rhs([v + 0.5 * h * k for v, k in zip(y, k2)], *params)
            k4 = rhs([v + h * k for v, k in zip(y, k3)], *params)
            y = [v + (h / 6.0) * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
                 for v, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)]
        return np.array(y)
    y = np.array(y0, dtype=float)
    for _ in range(n):
        k1 = rhs(y, *params)
        k2 = rhs(y + 0.5 * h * k1, *params)
        k3 = rhs(y + 0.5 * h * k2, *params)
        k4 = rhs(y + h * k3, *params)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def scipy_run(rhs, y0, t_end, params, *, method, rel_tol, abs_tol, floors):
    """scipy's RK45 or DOP853 stepped from t = 0 towards ``t_end``, with the
    library's collapse rule: each step's dense output is sampled at 9 evenly
    spaced times, and the first sample at or below a component's floor is
    refined by brentq to ``rel_tol``.  ``floors`` is [(component, floor)].

    Returns ("blowup", t_est, None), ("reached_t_end", t_end, y(t_end)) or
    ("step_failure", t, None).
    """
    def fun(t, y):
        if y[0] <= 0.0 or (len(y) == 4 and y[2] <= 0.0):
            return np.full(len(y), np.nan)
        with np.errstate(all="ignore"):
            return rhs(y, *params)

    solver = {"RK45": RK45, "DOP853": DOP853}[method](
        fun, 0.0, np.array(y0, dtype=float), t_end, rtol=rel_tol, atol=abs_tol)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        while solver.status == "running":
            t_lo = solver.t
            solver.step()
            if solver.status == "failed":
                return "step_failure", solver.t, None
            dense = solver.dense_output()
            tt = np.linspace(t_lo, solver.t, 9)
            yy = dense(tt)
            hits = []
            for comp, floor in floors:
                below = np.nonzero(yy[comp] <= floor)[0]
                if below.size:
                    i = below[0]
                    hits.append(t_lo if i == 0 else brentq(
                        lambda q: float(dense(q)[comp]) - floor, tt[i - 1], tt[i],
                        xtol=1e-300, rtol=rel_tol))
            if hits:
                return "blowup", min(hits), None
    return "reached_t_end", t_end, dense(t_end)


# scipy's Dormand-Prince 5(4) tableau (RK45) as Python floats
_DP5_A, _DP5_B, _DP5_E, _DP5_P = (RK45.A.tolist(), RK45.B.tolist(), RK45.E.tolist(),
                                  RK45.P.tolist())


def dp5_step(f, y, k1, h, rtol, atol):
    """One Dormand-Prince 5(4) trial step from y with first stage k1, as
    loops over the components: (y_new, f(y_new), error norm, the stages
    (k1, k3, k4, k5, k6, k7)).  Each stage adds (sum of a_j k_j) * h as
    scipy's ``rk_step`` does; the second stage, which has zero weight in B,
    E and P, is left out of those sums.  The error terms are divided by
    their scales, squared and summed from 0.0 in component order."""
    A, B, E = _DP5_A, _DP5_B, _DP5_E
    k2 = f([v + (p1 * A[1][0]) * h for v, p1 in zip(y, k1)])
    k3 = f([v + (p1 * A[2][0] + p2 * A[2][1]) * h for v, p1, p2 in zip(y, k1, k2)])
    k4 = f([v + (p1 * A[3][0] + p2 * A[3][1] + p3 * A[3][2]) * h
            for v, p1, p2, p3 in zip(y, k1, k2, k3)])
    k5 = f([v + (p1 * A[4][0] + p2 * A[4][1] + p3 * A[4][2] + p4 * A[4][3]) * h
            for v, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)])
    k6 = f([v + (p1 * A[5][0] + p2 * A[5][1] + p3 * A[5][2] + p4 * A[5][3]
                 + p5 * A[5][4]) * h
            for v, p1, p2, p3, p4, p5 in zip(y, k1, k2, k3, k4, k5)])
    y_new = [v + h * (p1 * B[0] + p3 * B[2] + p4 * B[3] + p5 * B[4] + p6 * B[5])
             for v, p1, p3, p4, p5, p6 in zip(y, k1, k3, k4, k5, k6)]
    k7 = f(y_new)
    sq = 0.0
    for v, w, p1, p3, p4, p5, p6, p7 in zip(y, y_new, k1, k3, k4, k5, k6, k7):
        e = ((p1 * E[0] + p3 * E[2] + p4 * E[3] + p5 * E[4] + p6 * E[5] + p7 * E[6]) * h
             / (atol + max(abs(v), abs(w)) * rtol))
        sq += e * e
    return y_new, k7, math.sqrt(sq) / len(y) ** 0.5, (k1, k3, k4, k5, k6, k7)


def dp5_dense_rows(stages, h):
    """Per component, h times scipy's ``K.T @ P`` row for the stages
    ``dp5_step`` returns: the coefficients of x, x^2, x^3, x^4 of the step's
    quartic."""
    P = _DP5_P
    return [tuple((p1 * P[0][j] + p3 * P[2][j] + p4 * P[3][j] + p5 * P[4][j]
                   + p6 * P[5][j] + p7 * P[6][j]) * h for j in range(4))
            for p1, p3, p4, p5, p6, p7 in zip(*stages)]


def ermakov_pinney(a0, a1, c, t):
    """(a, a') at t of a'' = c / a^3 from (a0, a1) at t = 0:
    a(t)^2 = (a0 + a1 t)^2 + c t^2 / a0^2."""
    u = a0 + a1 * t
    a = math.sqrt(u * u + c * t * t / (a0 * a0))
    return a, (a1 * u + c * t / (a0 * a0)) / a


def ermakov_pinney_collapse(a0, a1, c, floor):
    """The first t > 0 with a(t) = floor (0 < floor < a0) on the
    Ermakov-Pinney solution, or None: the smallest positive root of
    (a1^2 + c/a0^2) t^2 + 2 a0 a1 t + a0^2 - floor^2 = 0."""
    qa = a1 * a1 + c / (a0 * a0)
    qb = 2.0 * a0 * a1
    qc = a0 * a0 - floor * floor
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        return None
    # the product of the roots is qc / qa; the cancellation-free one first
    q = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))
    roots = [r for r in (q / qa if qa else math.inf, qc / q if q else math.inf)
             if 0.0 < r < math.inf]
    return min(roots, default=None)


def isothermal_fall_time(x0, x1, k):
    """Time for x'' = -k / x (k > 0) to reach zero from (x0, x1), by mpmath
    quadrature of dt = dx / sqrt(2k ln(x_max / x)) along the first integral
    x'^2 / 2 + k ln x, whose top is x_max = x0 exp(x1^2 / (2k)).  A rising
    start climbs from x0 to x_max before it falls from x_max to zero.  The
    integral is taken in the depth y = x_max - x below the top, so that nodes
    near the top's inverse square-root singularity keep their precision."""
    with mpmath.workdps(30):
        x0, x1, k = mpmath.mpf(x0), mpmath.mpf(x1), mpmath.mpf(k)
        depth = x0 * mpmath.expm1(x1 * x1 / (2 * k))
        x_max = x0 + depth
        speed = lambda y: 1 / mpmath.sqrt(-2 * k * mpmath.log1p(-y / x_max))  # noqa: E731
        time = mpmath.quad(speed, [depth, x_max])
        if x1 >= 0:
            time += 2 * mpmath.quad(speed, [0, depth])
        return float(time)


def central_diff(fun, x, h):
    return (fun(x + h) - fun(x - h)) / (2.0 * h)


def second_diff(fun, x, h):
    return (fun(x + h) - 2.0 * fun(x) + fun(x - h)) / (h * h)


def planar_potential(a, gamma, lam, xi):
    """V(a) = xi^2/(2a^2) + lam a^(2-2gamma)/(2gamma-2); -lam log a at gamma = 1."""
    if gamma == 1.0:
        return xi * xi / (2.0 * a * a) - lam * math.log(a)
    return xi * xi / (2.0 * a * a) + lam * a ** (2.0 - 2.0 * gamma) / (2.0 * gamma - 2.0)


def first_integral_period(gamma, lam, xi, a0, a1):
    """Period T = 2 int da / sqrt(2 (E - V(a))) between the turning points.

    Needs lam < 0 and 1 <= gamma < 2 (V has one minimum, at
    a_eq = (xi^2/|lam|)^(1/(4-2gamma))) and a bound orbit, E below V's limit
    at infinity.  The substitution a = c + h sin(theta) removes the inverse
    square-root singularities at the turning points c -/+ h.
    """
    V = lambda a: planar_potential(a, gamma, lam, xi)  # noqa: E731
    E = 0.5 * a1 * a1 + V(a0)
    a_eq = (xi * xi / -lam) ** (1.0 / (4.0 - 2.0 * gamma))
    lo = a_eq
    while V(lo) < E:
        lo *= 0.5
    hi = a_eq
    while V(hi) < E:
        hi *= 2.0
    a_min = brentq(lambda a: V(a) - E, lo, a_eq, xtol=1e-15, rtol=1e-15)
    a_max = brentq(lambda a: V(a) - E, a_eq, hi, xtol=1e-15, rtol=1e-15)
    c, h = 0.5 * (a_min + a_max), 0.5 * (a_max - a_min)

    def integrand(theta):
        gap = E - V(c + h * math.sin(theta))
        return h * math.cos(theta) / math.sqrt(2.0 * max(gap, 1e-300))

    value, _ = quad(integrand, -0.5 * math.pi, 0.5 * math.pi,
                    epsabs=0.0, epsrel=1e-12, limit=200)
    return 2.0 * value


def pointwise_stencil_residuals(source, t, x, y, z, h):
    """Mass, momentum and velocity-Laplacian residuals at one point from nine
    scalar ``sample`` calls, in the same operation order as the library's
    batched stencil: (mass, (m1, m2, m3), (l1, l2, l3))."""
    c = source.sample(t, x, y, z)
    tp, tm = source.sample(t + h, x, y, z), source.sample(t - h, x, y, z)
    shifts = [(source.sample(t, x + h, y, z), source.sample(t, x - h, y, z)),
              (source.sample(t, x, y + h, z), source.sample(t, x, y - h, z)),
              (source.sample(t, x, y, z + h), source.sample(t, x, y, z - h))]
    comps = ("u1", "u2", "u3")
    mass = (tp.rho - tm.rho) / (2.0 * h)
    for k, (pl, mi) in enumerate(shifts):
        mass += (pl.rho * getattr(pl, comps[k]) - mi.rho * getattr(mi, comps[k])) / (2.0 * h)
    momentum, laplacian = [], []
    for i, comp in enumerate(comps):
        dt = (getattr(tp, comp) - getattr(tm, comp)) / (2.0 * h)
        adv = sum((getattr(c, comps[k]) * (getattr(pl, comp) - getattr(mi, comp))
                   for k, (pl, mi) in enumerate(shifts)), start=-0.0) / (2.0 * h)
        dp = (shifts[i][0].pressure - shifts[i][1].pressure) / (2.0 * h)
        momentum.append(c.rho * (dt + adv) + dp)
        laplacian.append(sum(((getattr(pl, comp) - 2.0 * getattr(c, comp) + getattr(mi, comp))
                              / (h * h) for pl, mi in shifts), start=-0.0))
    return mass, tuple(momentum), tuple(laplacian)


def verify_document(cfg) -> str:
    """The ``verify`` mode's JSON text for the config ``cfg``, built as a
    document of dicts: the reports of ``refined_residual``, their ``to_dict``
    forms, a summary read report by report, and ``json.dumps(indent=2)``.

    A non-finite value raises ``strict_json``'s ValueError, which names its
    path in the dict form.
    """
    from eulerexact.cli import _integrate, _interior_points
    from eulerexact.emden import strict_json
    from eulerexact.fields import Field3D
    from eulerexact.verify import SnapshotFieldSource, refined_residual

    t = cfg.verify_time
    state = _integrate(cfg, t).state_at(t) if t > 0.0 else cfg.initial_state()
    field = Field3D.from_params(cfg.params(), state)
    rng = np.random.default_rng(cfg.verify_seed)
    x, y, z = _interior_points(field, rng, cfg.verify_points).T
    reports = refined_residual(SnapshotFieldSource(field), t, x, y, z, cfg.verify_h, mu=cfg.mu)

    mass = np.array([abs(r.mass_residual) for r in reports])
    mom = np.array([max(abs(m) for m in r.momentum_residual) for r in reports])
    orders = np.array([r.observed_order for r in reports if r.observed_order is not None])
    doc = {
        "time": t,
        "stencil_h": cfg.verify_h,
        "mu": cfg.mu,
        "state": {"a": state.a, "a_dot": state.a_dot, "b": state.b, "b_dot": state.b_dot},
        "summary": {
            "points": len(reports),
            "kink_points": sum(r.kink_crossing for r in reports),
            "mass_abs": {"p50": float(np.percentile(mass, 50)),
                         "p90": float(np.percentile(mass, 90)), "max": float(mass.max())},
            "momentum_abs": {"p50": float(np.percentile(mom, 50)),
                             "p90": float(np.percentile(mom, 90)), "max": float(mom.max())},
            "observed_order": {
                "p50": float(np.percentile(orders, 50)) if orders.size else None,
                "min": float(orders.min()) if orders.size else None,
                "max": float(orders.max()) if orders.size else None},
        },
        "points": [r.to_dict() for r in reports],
    }
    try:
        return json.dumps(doc, allow_nan=False, indent=2) + "\n"
    except ValueError:
        strict_json(doc, indent=2)
        raise
