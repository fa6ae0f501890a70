"""Lifespan classification and periodicity detection.

The 3D decision table is a pure function of (sign of lam, gamma = 1 or > 1,
sign of b1, and for lam = 0 whether xi = 0 with a1 < 0): positive lam forces
both scale factors outward (global); lam = 0 leaves b exactly linear, and a
too when xi = 0, so the verdict follows the signs of the slopes; negative lam
with gamma = 1, or with gamma > 1 and nonexpanding b, collapses b in finite
time.  At gamma = 1 exactly the system decouples (b'' = lam / b), and the
first integral b'^2 / 2 - lam ln b gives b's collapse time through erf
(:func:`classify_3d`, by ``emden._isothermal_zero``, which the stop of b
in a gamma = 1 run applies to its last state).  The remaining cell
(gamma > 1, lam < 0, b1 > 0) is undecided analytically and can only be
probed numerically (:func:`classify_cell`), which never upgrades to
"global": surviving a horizon does not prove global existence.

Planar dynamics with lam < 0, xi != 0 and 1 <= gamma < 2 has periodic
orbits about the minimum of its potential V, and a bound orbit's period is a
quadrature of the first integral, with no run (:func:`search_period_2d`).  In
3D no periodic solution exists when lam < 0 because b'' < 0 makes b' strictly
decreasing; :func:`check_no_period_3d` verifies that monotonicity on a
trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

# integrate is not called here: it stays importable for bench/tracer.py
from .emden import (_BRENTQ_RTOL, EmdenState2D, EmdenState3D, RunOptions,  # noqa: F401
                    Termination, Trajectory, _brentq, _check_span, _components, _energy,
                    _isothermal_zero, _run, emden_rhs_2d, integrate)
from .profiles import PhysParams

__all__ = [
    "GLOBAL",
    "BLOWUP",
    "OPEN_CASE",
    "Classification",
    "PeriodEstimate",
    "classify_3d",
    "classify_cell",
    "probe_open_case",
    "detect_period_2d",
    "search_period_2d",
    "check_no_period_3d",
]

GLOBAL = "global"
BLOWUP = "finite_time_blowup"
OPEN_CASE = "unknown_open_case"

_NUMERIC_NOTE = "numerical evidence, not proof"

# the relative tolerance of the period search's equilibrium test (``_at_rest``)
FIXED_POINT_TOL = 1e-9


@dataclass(frozen=True)
class Classification:
    """Verdict plus its basis.

    Table verdicts cite the decision-table cell (``case``).  ``T`` is an
    absolute time, the exact zero from the table or the collapse a run
    located.  ``t_horizon`` is set when the cell was integrated: how far past
    ``ic.t`` the run reached (the horizon; ``T - ic.t`` for a floor crossing;
    for the stop of b the last step, before ``T`` and up to about b / |b'|
    there short of ``T - ic.t``; or less if the step budget or step size
    gave out).  After the stop of b, b's zero of the exact solution through
    the run's last state lies in a bracket under ``T`` at most ``rel_tol``
    max(1, T) wide (the run's :class:`~eulerexact.emden.Termination`); that
    state carries the run's integration error.
    A run that stopped short in that way keeps its ``termination`` record;
    runs that reached the horizon or collapsed leave it None.
    ``numerical_evidence`` verdicts carry the evidence disclaimer in ``note``.
    """

    verdict: str
    basis: str  # "analytic" | "numerical_evidence"
    case: str | None = None
    T: float | None = None
    t_horizon: float | None = None
    note: str = ""
    termination: Termination | None = None

    def to_dict(self) -> dict:
        d = {k: v for k, v in vars(self).items() if v not in (None, "")}
        if self.termination is not None:
            d["termination"] = self.termination.to_dict()
        return d


def classify_3d(p: PhysParams, ic: EmdenState3D) -> Classification:
    """Analytic lifespan verdict for the 3D system from the decision table.

    ``T`` is set where the table has the exact collapse time in closed form,
    as an absolute time (``ic.t`` plus the time to the first zero):
    - lam = 0: b'' = 0, so b = b0 + b1 t, and with xi = 0 also a'' = 0 and
      a = a0 + a1 t; the cell collapses iff a slope is negative, at the
      smallest -x0/x1 among those;
    - lam < 0 at gamma == 1.0 exactly: b'' = lam / b, whose zero time comes
      from its first integral (``emden._isothermal_zero``, the closed form
      the stop of b in an integrated gamma = 1 run takes from its last
      state); with xi = 0, a'' = lam / a collapses too and ``T`` is the
      earlier zero, while xi != 0 keeps a > 0 behind the xi^2 / a^3
      barrier.  ``T`` is None where e^w0 would overflow and for a
      near-isothermal gamma != 1, which do not decouple exactly: those
      cells are run.
    """
    if p.lam > 0.0:
        return Classification(GLOBAL, "analytic", case="lam_positive")
    # the factors that feel no xi^2 / a^3 barrier
    free = [(ic.b, ic.b_dot)] + ([(ic.a, ic.a_dot)] if p.xi == 0.0 else [])
    if p.lam == 0.0:
        falls = [-x0 / x1 for x0, x1 in free if x1 < 0.0]
        if not falls:
            return Classification(GLOBAL, "analytic", case="lam_zero_b1_nonnegative")
        case = ("lam_zero_xi_zero_a1_negative" if p.xi == 0.0 and ic.a_dot < 0.0
                else "lam_zero_b1_negative")
        return Classification(BLOWUP, "analytic", case=case, T=ic.t + min(falls))
    if p.is_isothermal:
        T = None
        if p.gamma == 1.0:
            zeros = [_isothermal_zero(x0, x1, -p.lam) for x0, x1 in free]
            if None not in zeros:
                T = ic.t + min(zeros)
        return Classification(BLOWUP, "analytic", case="lam_negative_isothermal", T=T)
    if ic.b_dot <= 0.0:
        return Classification(BLOWUP, "analytic", case="lam_negative_b1_nonpositive")
    return Classification(OPEN_CASE, "analytic", case="lam_negative_b1_positive_open")


def classify_cell(p: PhysParams, ic: EmdenState3D, horizon: float,
                  **run_options) -> Classification:
    """Lifespan verdict of one 3D cell: the table's verdict and case, and ``T``.

    A closed-form ``T`` (:func:`classify_3d`) is the exact zero, whatever the
    horizon and the collapse floor.  A cell that is not global and has none is
    integrated once, ``horizon`` time units past ``ic.t``, by the step loop
    with ``run_options`` (``rel_tol``, ``abs_tol``, ``max_steps``, ``method``,
    ``eps_blow``) and no sink: a collapse gives ``T``, and an open cell
    whose ``T`` was found this way has basis ``numerical_evidence``.  A floor
    crossing ends the run at ``T``; the stop of b (lam < 0) ends it at its
    last step, ``t_horizon`` past ``ic.t``, with b's zero in a bracket at
    most ``rel_tol`` max(1, T) wide whose top is ``T``: the ``T`` that
    :func:`~eulerexact.emden.integrate` of the cell reports, bit for bit.  A run
    that ran out of steps or step size before the horizon leaves its
    ``termination`` in the result.  Bad options, a collapse floor at or above
    ``ic.a`` or ``ic.b`` included, and a planar state raise even when the
    table needs no run."""
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    run = RunOptions(**run_options)
    y0 = _components(ic, 3, "lifespan classification")
    run.floors(y0)
    table = classify_3d(p, ic)
    if table.T is not None or table.verdict == GLOBAL:
        return table
    termination, t_stop, _, _ = _run(p, 3, y0, ic.t, ic.t + horizon, run)
    T = termination.t_est if termination.kind == "blowup" else None
    # the table leaves an open cell undecided; only the run saw its collapse
    evidence = T is not None and table.verdict == OPEN_CASE
    stopped_short = termination.kind not in ("reached_t_end", "blowup")
    return replace(table, T=T, t_horizon=t_stop - ic.t,
                   basis="numerical_evidence" if evidence else table.basis,
                   note=_NUMERIC_NOTE if evidence else "",
                   termination=termination if stopped_short else None)


def probe_open_case(p: PhysParams, ic: EmdenState3D, t_horizon: float,
                    **run_options) -> Classification:
    """Numerically probe the undecided cell (gamma > 1, lam < 0, b1 > 0).

    A view of :func:`classify_cell`: a collapse before the horizon is reported
    as a blowup verdict with its time, otherwise the open verdict stays; the
    basis is always numerical evidence.  Never returns "global".
    """
    _components(ic, 3, "open-case probe")
    if classify_3d(p, ic).verdict != OPEN_CASE:
        raise ValueError("open-case probe requires lam < 0, gamma > 1 and b1 > 0; "
                         f"got lam={p.lam}, gamma={p.gamma}, b1={ic.b_dot}")
    cell = classify_cell(p, ic, t_horizon, **run_options)
    return replace(cell, verdict=OPEN_CASE if cell.T is None else BLOWUP,
                   basis="numerical_evidence", note=_NUMERIC_NOTE)


@dataclass(frozen=True)
class PeriodEstimate:
    """Orbital period of the planar dynamics; ``method`` is ``first-integral``,
    or ``fixed-point`` for an equilibrium start (2 pi / sqrt(V''(a)))."""

    period: float
    method: str

    def to_dict(self) -> dict:
        return dict(vars(self))


def _bound_period(p: PhysParams, a0: float, a1: float, floor: float) -> float | None:
    """The period of the planar orbit from (a, a') = (a0, a1) from its first
    integral; None if it is not bound (lam < 0, xi != 0, gamma < 2, and
    E < 0 unless ``is_isothermal``), its pericenter is not above ``floor``,
    or the sum leaves the float range or has not settled at 2^16 intervals."""
    xi2, lam, g = p.xi * p.xi, p.lam, p.gamma
    if not (lam < 0.0 and xi2 > 0.0 and g < 2.0
            and (p.is_isothermal or _energy(p, (a0, a1, 1.0, 0.0)) < 0.0)):
        return None
    # V(a) = xi^2 / (2 a^2) + lam w(a), w = -a^k / k (-ln a at k = 0)
    k = 0.0 if p.is_isothermal else 2.0 - 2.0 * g

    def slope(x, y):
        # V[x, y], V'(x) at x = y; w's with expm1 and log1p
        m, h = min(x, y), abs(y - x)
        u = math.log1p(h / m)
        w = -m ** (k - 1.0) if h == 0.0 else -m ** k * (math.expm1(k * u) / k if k else u) / h
        return lam * w - 0.5 * xi2 * (x + y) / (x * x * y * y)

    def gap(a):
        # E - V(a), without E's rounding
        return 0.5 * a1 * a1 - (a - a0) * slope(a0, a)

    def q(a):
        if d > 0.1 * c:
            # V[a_i, a_o] = 0: Q is V[a, a_o] / (a - a_i) = -V[a_i, a] / (a_o - a),
            # each taken away from where its xi^2 and lam parts cancel
            return (slope(a, a_o) / (a - a_i) if a > min(c, 2.0 * a_i)
                    else -slope(a_i, a) / (a_o - a))
        # near a circle: xi^2's part exactly, and lam w[a_i, a, a_o] as
        # c^(k-2) sum_{n>=2} b_n h_{n-2}(-r, s, r), b_n = -binomial(k, n) / k,
        # h_m the complete homogeneous polynomials: h_m = s h_{m-1}
        # + r^2 h_{m-2} - r^2 s h_{m-3}; the next term is below (n+1)^3 r^(n-1)
        r, s, h, h1, h2, n = d / c, (a - c) / c, 1.0, 0.0, 0.0, 2
        b = total = 0.5 * (1.0 - k)
        while (n + 1) ** 3 * r ** (n - 1) > 1e-17:
            n += 1
            h, h1, h2 = s * h + r * r * (h1 - s * h2), h, h1
            b *= (k - n + 1) / n
            total += b * h
        return (0.5 * xi2 * (a_i * a + a * a_o + a_o * a_i) / (a_i * a * a_o) ** 2
                + lam * c ** (k - 2.0) * total)

    # an arithmetic error is the float range, and a math domain error a Q
    # not > 0 from rounding (gamma next to 2)
    try:
        a_i = a_o = a0
        a_eq = (xi2 / -lam) ** (1.0 / (4.0 - 2.0 * g))
        # a start within rounding of the equilibrium has E - V(a_eq) <= 0,
        # and d = 0
        if gap(a_eq) > 0.0:
            ends = []
            # from a_eq out by factors of 2 to where E < V, then _brentq
            for step, stop in ((0.5, floor), (2.0, math.inf)):
                inner, outer = a_eq, max(step * a_eq, floor)
                while not gap(outer) < 0.0:
                    if outer == stop:
                        return None
                    inner, outer = outer, max(step * outer, floor)
                ends.append(_brentq(gap, outer, inner, 1e-300, _BRENTQ_RTOL))
            a_i, a_o = ends
        # E - V(a) = (a - a_i)(a_o - a) Q(a), Q = V[a_i, a, a_o], and with
        # a = c - d cos(theta), T = 2 int_0^pi dtheta / sqrt(2 Q(a)): the
        # trapezoid rule on a smooth periodic integrand, doubled from 8
        # intervals until T changes by at most 1e-14; 2 pi / sqrt(V''(c)) at d = 0
        c, d = 0.5 * (a_i + a_o), 0.5 * (a_o - a_i)

        def f(theta):
            return 1.0 / math.sqrt(2.0 * q(c - d * math.cos(theta)))

        total, period, n = 0.5 * (f(0.0) + f(math.pi)), None, 1
        while n < 2 ** 16:
            total += math.fsum(f((2 * j + 1) * math.pi / (2 * n)) for j in range(n))
            n *= 2
            period, last = 2.0 * math.pi / n * total, period
            if n > 8 and abs(period - last) <= 1e-14 * period:
                return period
    except (ArithmeticError, ValueError):
        pass
    return None


def _at_rest(p: PhysParams, ic: EmdenState2D) -> bool:
    """Whether the planar state is an equilibrium to ``FIXED_POINT_TOL`` on
    the orbit's own time scale (:func:`search_period_2d`)."""
    a = ic.a
    try:
        rate2 = p.xi * p.xi / a**4 + abs(p.lam) * a ** (-2.0 * p.gamma)
    except ArithmeticError:
        return False
    # the right-hand side is (a', a'')
    ad, add = emden_rhs_2d(ic, p)
    return (math.isfinite(rate2) and abs(ad) <= FIXED_POINT_TOL * a * math.sqrt(rate2)
            and abs(add) <= FIXED_POINT_TOL * a * rate2)


def search_period_2d(p: PhysParams, ic: EmdenState2D, t_max: float,
                     **run_options) -> tuple[PeriodEstimate | None, Termination | None]:
    """The period of the planar orbit from ``ic``, or how a run from it
    ended.  ``t_max`` and the ``run_options`` of :func:`classify_cell` (a
    floor below ``ic.a`` included) are checked first; a 3D state raises
    ValueError.  An equilibrium start is a ``fixed-point``, or (None, None)
    if not stable: |a'| <= ``FIXED_POINT_TOL`` a w and |a''| <=
    ``FIXED_POINT_TOL`` a w^2, with w^2 = xi^2 / a^4 + |lam| a^(-2 gamma)
    the orbit's own rate (the sum of the magnitudes of a''/a's terms), so
    the test does not depend on the time unit; a w out of float range is no
    equilibrium.  A bound orbit whose pericenter lies above the floor has
    its ``first-integral`` period and no termination, whatever ``t_max`` and
    the step budget.  Any other orbit is run once, ``t_max`` past ``ic.t``, and
    gives None with that run's termination."""
    run = RunOptions(**run_options)
    _check_span(ic.t, ic.t + t_max)
    y0 = _components(ic, 2, "period search")
    ((_, floor),) = run.floors(y0)
    fixed = _at_rest(p, ic)
    period = _bound_period(p, ic.a, ic.a_dot, floor)
    if period is None:
        return None, (None if fixed else _run(p, 2, y0, ic.t, ic.t + t_max, run)[0])
    return PeriodEstimate(period, "fixed-point" if fixed else "first-integral"), None


def detect_period_2d(p: PhysParams, ic: EmdenState2D, t_max: float,
                     **run_options) -> PeriodEstimate | None:
    """The period found by :func:`search_period_2d`, or None."""
    return search_period_2d(p, ic, t_max, **run_options)[0]


def check_no_period_3d(p: PhysParams, traj: Trajectory) -> bool:
    """Verify that b' is strictly decreasing along a lam < 0 trajectory.

    Strict monotonicity of b' (forced by b'' < 0) rules out time-periodic 3D
    solutions.  Returns False when any sample breaks it (the negative-control
    path for tampered trajectories).
    """
    if not p.lam < 0.0:
        raise ValueError(f"monotonicity check applies to lam < 0 only, got lam={p.lam}")
    if traj.dim != 3:
        raise ValueError("monotonicity check requires a 3D trajectory")
    b_dots = [st.b_dot for st in traj.states]
    return all(b2 < b1 for b1, b2 in zip(b_dots, b_dots[1:]))
