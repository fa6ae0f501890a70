"""Independent oracles shared by the test modules.

Everything here is deliberately written against the raw equations, not
against the library code paths it checks: a fixed-step classic RK4 stepper
(scalar and vectorized over parameter batches), scipy's own RK45/DOP853
stepping with the library's event rule, the Ermakov-Pinney closed forms,
plain finite-difference helpers, the planar period from the first integral
by quadrature, and the residual stencil written point by point over scalar
samples.
"""

from __future__ import annotations

import math
import warnings

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


def rk4_fixed(rhs, y0, t_span, dt, params):
    """Classic RK4 with fixed step; returns the final state vector."""
    t0, t1 = t_span
    n = int(round((t1 - t0) / dt))
    y = np.array(y0, dtype=float)
    h = (t1 - t0) / n
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
