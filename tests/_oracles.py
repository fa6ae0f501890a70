"""Independent oracles shared by the test modules.

Everything here is deliberately written against the raw equations, not
against the library code paths it checks: a fixed-step classic RK4 stepper
(on plain floats, or vectorized over parameter batches), scipy's own
RK45/DOP853 stepping with the library's event rule, the Dormand-Prince 5(4)
and DOP853 trial steps and dense rows as component loops over scipy's
tableaux, their dense output as a loop over the nested polynomial, a
sampler that holds each step's samples until the run's end is known, a
step table that keeps every step and looks one up, the
Ermakov-Pinney closed forms, plain finite-difference helpers, the planar
period and the isothermal fall time from the first integral by quadrature
and by its erfc closed form in 40-digit arithmetic,
bounds on the 3D fall time of b from its energy by quadrature and the
range of a over that fall by scipy's DOP853,
the residual stencil written point by point over scalar samples, and a
continuity-only residual source.  The one
exception is ``verify_document``, a serialization reference: it takes the
library's residual reports and writes the ``verify`` document from per-point
dicts.
"""

from __future__ import annotations

import json
import math
import types
import warnings
from array import array
from bisect import bisect_left

import mpmath
import numpy as np
from scipy.integrate import DOP853, RK45
from scipy.integrate._ivp import dop853_coefficients
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


# scipy's DOP853 tableau as Python floats: the rows of the stage matrix below
# its diagonal (the 12 trial stages, then B, the row of f(y_new)'s state, and
# the dense output's 3 extra stages), the error weights and the interpolant's
# weights
_DOP8_A = [row[:i] for i, row in enumerate(dop853_coefficients.A.tolist())]
_DOP8_E5, _DOP8_E3, _DOP8_D = (dop853_coefficients.E5.tolist(),
                               dop853_coefficients.E3.tolist(), dop853_coefficients.D.tolist())
_DOP8_STAGES = dop853_coefficients.N_STAGES


def _combine(y, weights, stages, h):
    """y + (sum of w_j k_j) * h per component, summed from 0.0 in stage order."""
    out = []
    for i, v in enumerate(y):
        acc = 0.0
        for w, k in zip(weights, stages):
            acc += k[i] * w
        out.append(v + acc * h)
    return out


def dop853_step(f, y, k1, h, rtol, atol):
    """One DOP853 trial step from y with first stage k1, as loops over the
    components: (y_new, f(y_new), error norm, the 13 stages, f(y_new)
    last).  Every sum starts at 0.0 and adds each stage in order, zero
    weights included; the error norm is scipy's ``_estimate_error_norm``,
    with each term divided by its scale max(|y|, |y_new|) and the squares
    summed from 0.0 in component order."""
    stages = [k1]
    for row in _DOP8_A[1:_DOP8_STAGES]:
        stages.append(f(_combine(y, row, stages, h)))
    y_new = _combine(y, _DOP8_A[_DOP8_STAGES], stages, h)
    stages.append(f(y_new))
    sq5 = sq3 = 0.0
    for i, (v, w) in enumerate(zip(y, y_new)):
        e5 = e3 = 0.0
        for c5, c3, k in zip(_DOP8_E5, _DOP8_E3, stages):
            e5 += k[i] * c5
            e3 += k[i] * c3
        scale = atol + max(abs(v), abs(w)) * rtol
        e5, e3 = e5 / scale, e3 / scale
        sq5 += e5 * e5
        sq3 += e3 * e3
    if sq5 == 0.0 and sq3 == 0.0:
        err = 0.0
    else:
        err = abs(h) * sq5 / math.sqrt((sq5 + 0.01 * sq3) * len(y))
    return y_new, stages[-1], err, stages


def dop853_dense_rows(f, y, y_new, stages, h):
    """Per component, scipy's seven ``F`` rows of the DOP853 interpolant of
    the step from y to y_new with the stages ``dop853_step`` returns; the
    three extra stages are evaluated here."""
    stages = list(stages)
    for row in _DOP8_A[_DOP8_STAGES + 1:]:
        stages.append(f(_combine(y, row, stages, h)))
    out = []
    for i, v in enumerate(y):
        dy = y_new[i] - v
        f_old, f_new = stages[0][i], stages[_DOP8_STAGES][i]
        coeffs = [dy, h * f_old - dy, 2.0 * dy - h * (f_new + f_old)]
        for d in _DOP8_D:
            acc = 0.0
            for w, k in zip(d, stages):
                acc += k[i] * w
            coeffs.append(h * acc)
        out.append(tuple(coeffs))
    return out


# the factors of each pair's nested dense polynomial, every one in [0, 1] on
# the step: x for RK45's quartic, x alternating with 1 - x for DOP853 (scipy's
# Dop853DenseOutput)
DENSE_FACTORS = {"RK45": lambda x: (x, x, x, x),
                 "DOP853": lambda x: (x, 1.0 - x, x, 1.0 - x, x, 1.0 - x, x)}


def nest(coeffs, factors):
    """The nested polynomial of a dense-output row as a loop: v = 0.0, then
    v = (v + c_k) * w_k over the reversed coefficients and the factors."""
    v = 0.0
    for c, w in zip(reversed(coeffs), factors):
        v = (v + c) * w
    return v


def dense_value(t_lo, t_hi, y, row, factors, t):
    """At time t, a component that starts the step [t_lo, t_hi] at y: y plus
    the nested polynomial of its coefficient row."""
    return y + nest(row, factors((t - t_lo) / (t_hi - t_lo)))


def held_sampler(dense, t0, y0, times, emit):
    """The samples of a run from (t0, y0) as a hold-back step sink: (sink,
    finish).  Each step's samples wait for the next step, since only the
    run's end fixes where it stopped; ``finish(t_stop)`` emits the last
    step's samples up to t_stop and, without ``times``, the collapse point
    when t_stop lies inside the last step.  ``sink(t, t_new, y, y_new,
    rows)`` evaluates a requested time in (t, t_new] by ``dense(y, rows(),
    x)`` at the step's fraction x, and without ``times`` takes the step
    point (t_new, y_new)."""
    if times is None:
        held, todo = [(t0, y0)], iter(())
    elif times and times[0] == t0:
        held, todo = [(t0, y0)], iter(times[1:])
    else:
        held, todo = [], iter(times)
    upcoming = next(todo, None)
    last = None

    def state(t, t_new, y, rows, time):
        return dense(y, rows(), (time - t) / (t_new - t))

    def sink(t, t_new, y, y_new, rows):
        nonlocal upcoming, last
        for sample in held:
            emit(*sample)
        held.clear()
        if times is None:
            held.append((t_new, y_new))
            last = (t, t_new, y, rows)
        while upcoming is not None and upcoming <= t_new:
            held.append((upcoming, state(t, t_new, y, rows, upcoming)))
            upcoming = next(todo, None)

    def finish(t_stop):
        for sample in held:
            if sample[0] <= t_stop:
                emit(*sample)
        if times is None and last is not None and last[0] < t_stop < last[1]:
            emit(t_stop, state(*last, t_stop))

    return sink, finish


class StepTable:
    """The step table of a run from (t0, y0) of the pair ``method``, in flat
    float arrays, as a step sink: ``append(t, t_new, y, y_new, rows,
    t_stop)`` keeps every step whole, past a floor event's t_stop too, and
    builds every step's rows.  Step k spans [ts[k], ts[k+1]], starts at the
    state ``ys[k * n:(k + 1) * n]`` and has one row of m coefficients per
    component in ``coeffs``.  ``table(t)`` is the state at t in
    [ts[0], ts[-1]]: ``dense_value`` on the step that holds t, where a step
    boundary belongs to the step it ends.  As an observer, ``append``
    returns None: it needs no time settled."""

    def __init__(self, method, t0, y0):
        self.factors, self.n = DENSE_FACTORS[method], len(y0)
        self.ts, self.ys, self.coeffs = array("d", [t0]), array("d", y0), array("d")

    @property
    def steps(self):
        return len(self.ts) - 1

    def append(self, t, t_new, y, y_new, rows, t_stop):
        self.ts.append(t_new)
        self.ys.extend(y_new)
        for row in rows():
            self.coeffs.extend(row)

    def __call__(self, t):
        k = min(max(bisect_left(self.ts, t) - 1, 0), self.steps - 1)
        n = self.n
        m = len(self.coeffs) // (self.steps * n)
        return tuple(dense_value(self.ts[k], self.ts[k + 1], self.ys[k * n + c],
                                 self.coeffs[(k * n + c) * m:(k * n + c + 1) * m],
                                 self.factors, t)
                     for c in range(n))


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


def isothermal_closed_form(x0, x1, k, floor=0.0):
    """(time to zero, time to ``floor``) for x'' = -k / x (k > 0) from
    (x0, x1), as mpmath numbers: the erfc closed form of the first integral
    x'^2 / 2 + k ln x, evaluated in 40-digit arithmetic from the exact
    inputs.  A start with w0 = x1^2 / (2k) falls from the top
    x_max = x0 e^w0 for C erfc(sqrt(ln(x_max / x))) from x,
    C = x_max sqrt(pi / (2k)), after a climb of C erf(sqrt(w0)) when x1 >= 0;
    without a floor the second time is the first."""
    with mpmath.workdps(40):
        x0, x1, k = mpmath.mpf(x0), mpmath.mpf(x1), mpmath.mpf(k)
        w0 = x1 * x1 / (2 * k)
        c = x0 * mpmath.exp(w0) * mpmath.sqrt(mpmath.pi / (2 * k))
        root = mpmath.sqrt(w0)
        zero = c * (mpmath.erfc(root) if x1 < 0 else 1 + mpmath.erf(root))
        if not floor:
            return zero, zero
        return zero, zero - c * mpmath.erfc(mpmath.sqrt(w0 + mpmath.log(x0 / mpmath.mpf(floor))))


def fall_time_bounds(gamma, lam, a, b, bd, s):
    """(lo, hi) with the time b of the 3D system takes to fall from (a, b, b')
    to 0 in between, for lam < 0, 1 < gamma < 2 and b' < 0, as long as a
    stays within [a - s, a + s] (0 < s < a), by 30-digit mpmath quadrature
    of the fall along b'(x)^2 = b'^2 + (2 K / p) (x^(-p) - b^(-p)),
    p = gamma - 1, with K = |lam| a^(2 - 2 gamma) held at each end of its
    range over [a - s, a + s]."""
    with mpmath.workdps(30):
        g, k, a, b, bd, s = map(mpmath.mpf, (gamma, -lam, a, b, bd, s))
        p = g - 1

        def fall(a_held):
            c = 2 * k * a_held ** (2 - 2 * g) / p
            return mpmath.quad(lambda x: 1 / mpmath.sqrt(bd * bd + c * (x**-p - b**-p)), [0, b])

        return float(fall(a - s)), float(fall(a + s))


def fall_range_of_a(gamma, lam, xi, y):
    """(least, greatest) a of the 3D system on its fall from y = (a, a', b,
    b') until b is 1e-6 of its start, with scipy's DOP853 at rtol 1e-10
    and each step's dense output sampled at 9 evenly spaced times.  The
    rest of the fall, to b's zero, takes under 1e-6 of w = b / |b'|."""
    def fun(t, z):
        with np.errstate(all="ignore"):
            return rhs_3d_arrays(z, 1.0, gamma, lam, xi)

    floor = 1e-6 * y[2]
    solver = DOP853(fun, 0.0, np.array(y, dtype=float), 10.0 * y[2] / -y[3],
                    rtol=1e-10, atol=1e-12 * floor)
    least = greatest = y[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        while solver.status == "running":
            t_lo = solver.t
            solver.step()
            if solver.status == "failed":
                raise RuntimeError(f"the fall stopped at t={solver.t}: {solver.message}")
            zs = solver.dense_output()(np.linspace(t_lo, solver.t, 9))
            least, greatest = min(least, zs[0].min()), max(greatest, zs[0].max())
            if solver.y[2] <= floor:
                return float(least), float(greatest)
    raise RuntimeError("b did not fall to 1e-6 of its start by 10 w")


def central_diff(fun, x, h):
    return (fun(x + h) - fun(x - h)) / (2.0 * h)


def second_diff(fun, x, h):
    return (fun(x + h) - 2.0 * fun(x) + fun(x - h)) / (h * h)


def planar_potential(a, gamma, lam, xi):
    """V(a) = xi^2/(2a^2) + lam a^(2-2gamma)/(2gamma-2); -lam log a at gamma = 1."""
    if gamma == 1.0:
        return xi * xi / (2.0 * a * a) - lam * math.log(a)
    return xi * xi / (2.0 * a * a) + lam * a ** (2.0 - 2.0 * gamma) / (2.0 * gamma - 2.0)


def first_integral_period(gamma, lam, xi, a0, a1, dps=40):
    """Period T = 2 int da / sqrt(2 (E - V(a))) between the turning points,
    by ``dps``-digit mpmath quadrature of E - V as written, which is
    evaluated with 25 digits more (next to a_eq it cancels that many).

    Needs lam < 0, xi != 0, 1 <= gamma < 2 and a bound orbit (E below V's
    limit at infinity).  The turning points are bisected to the working
    precision on each side of V's minimum a_eq = (xi^2/|lam|)^(1/(4-2gamma)).
    The substitution a = c - d cos(theta) removes the inverse-square-root
    singularities; a is written as a step from the nearer turning point
    (a_i + 2 d sin^2(theta/2), or a_o - 2 d cos^2(theta/2)), and where E - V
    falls to its rounding there, its linear part |V'| |step| stands in.
    """
    mp = mpmath.mp
    with mpmath.workdps(dps + 25):
        g, lam, xi, a0, a1 = map(mpmath.mpf, (gamma, lam, xi, a0, a1))

        def V(a):
            if g == 1:
                return xi**2 / (2 * a * a) - lam * mpmath.log(a)
            return xi**2 / (2 * a * a) + lam * a ** (2 - 2 * g) / (2 * g - 2)

        def dV(a):
            return -xi**2 / a**3 - lam * a ** (1 - 2 * g)

        E = a1 * a1 / 2 + V(a0)
        a_eq = (xi**2 / -lam) ** (1 / (4 - 2 * g))

        def turning(x, step):
            # x walks away from a_eq until V(x) >= E; then bisect
            inside = a_eq
            while V(x) < E:
                inside, x = x, x * step
            for _ in range(int(3.5 * (dps + 25))):
                mid = (inside + x) / 2
                if V(mid) < E:
                    inside = mid
                else:
                    x = mid
            return (inside + x) / 2

        a_i, a_o = turning(a_eq / 2, mpmath.mpf(0.5)), turning(a_eq * 2, mpmath.mpf(2))
        c, d = (a_i + a_o) / 2, (a_o - a_i) / 2

        def integrand(theta):
            # quad works at dps digits, and this at dps + 25
            with mpmath.extradps(25):
                if theta < mp.pi / 2:
                    end, step = a_i, 2 * d * mpmath.sin(theta / 2) ** 2
                else:
                    end, step = a_o, -2 * d * mpmath.cos(theta / 2) ** 2
                a = end + step
                gap = E - V(a)
                if gap <= abs(V(a)) * mpmath.mpf(10) ** (-20 - dps):
                    gap = abs(dV(end) * step)
                value = d * mpmath.sin(theta) / mpmath.sqrt(2 * gap)
            return +value

        with mpmath.workdps(dps):
            return float(2 * mpmath.quad(integrand, [0, mp.pi / 2, mp.pi]))


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


class ContinuitySource:
    """A residual source, written against the README's source protocol alone,
    over a family that solves the continuity equation and generally no
    momentum equation: rho = f(s) / (a^2 b) carried by the velocity
    (a'/a x - G y, G x + a'/a y, b'/b z), s = (x^2 + y^2)/a^2 + z^2/b^2, for
    arbitrary C1 handles of t (a, b > 0, with their exact derivatives) and a
    profile f of s called on one value at a time.  Its pressure is NaN."""

    cutoff_s = None

    def __init__(self, f, G, a, a_dot, b, b_dot):
        self.f, self.G, self.a, self.a_dot, self.b, self.b_dot = f, G, a, a_dot, b, b_dot

    def sample(self, t, x, y, z):
        x, y, z = (np.asarray(c, dtype=float) for c in (x, y, z))
        a, b, swirl = self.a(t), self.b(t), self.G(t)
        stretch, b_stretch = self.a_dot(t) / a, self.b_dot(t) / b
        s = (x * x + y * y) / (a * a) + z * z / (b * b)
        rho = np.vectorize(self.f, otypes=[float])(s) / (a * a * b)
        return types.SimpleNamespace(rho=rho, u1=stretch * x - swirl * y,
                                     u2=swirl * x + stretch * y, u3=b_stretch * z,
                                     s=s, pressure=math.nan)


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
