"""Lifespan classification and periodicity detection.

The 3D decision table is a pure function of (sign of lam, gamma = 1 or > 1,
sign of b1, and for lam = 0 whether xi = 0 with a1 < 0): positive lam forces
both scale factors outward (global); lam = 0 leaves b exactly linear, and a
too when xi = 0, so the verdict follows the signs of the slopes; negative lam
with gamma = 1, or with gamma > 1 and nonexpanding b, collapses b in finite
time.  At gamma = 1 exactly the system decouples (b'' = lam / b), and the
first integral b'^2 / 2 - lam ln b gives b's collapse time through erf
(:func:`classify_3d`).  The remaining cell (gamma > 1, lam < 0, b1 > 0) is
undecided analytically and can only be probed numerically
(:func:`classify_cell`), which never upgrades to "global": surviving a horizon
does not prove global existence.

Planar dynamics with lam < 0 and 1 <= gamma < 2 admits periodic orbits; they
are detected by the first two upward crossings of the pericenter section
{a' = 0, a'' > 0}, found by a step sink of the integrator's step loop,
which stops the run at the second one (a start exactly at a pericenter counts
as the first).  In 3D no periodic solution exists when lam < 0 because
b'' < 0 makes b' strictly decreasing; :func:`check_no_period_3d` verifies that
monotonicity on a trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

# integrate is not called here: it stays importable for bench/tracer.py
from .emden import (EmdenState2D, EmdenState3D, RunOptions, Termination,  # noqa: F401
                    Trajectory, _check_span, _run, _section, _vec_from_state, emden_rhs_2d,
                    integrate)
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


@dataclass(frozen=True)
class Classification:
    """Verdict plus its basis.

    Table verdicts cite the decision-table cell (``case``).  ``T`` is an
    absolute time, the exact zero from the table or the collapse a run
    located.  ``t_horizon`` is set when the cell was integrated: how far past
    ``ic.t`` the run reached (the horizon; ``T - ic.t`` for a floor crossing;
    for a concavity stop the last step, at most ``rel_tol`` max(1, T) short
    of ``T - ic.t``; or less if the step budget or step size gave out).
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


# above this w0 = x1^2 / (2k), e^w0 is near float overflow: the cell is run instead
_MAX_EXP_ARG = 700.0


def _isothermal_zero(x0: float, x1: float, k: float) -> float | None:
    """Time for x'' = -k / x (k > 0) to reach 0 from x = x0, x' = x1, or None
    when e^w0 is out of reach (see ``_MAX_EXP_ARG``) or the time overflows.

    The first integral x'^2 / 2 + k ln x puts the top of the orbit at
    x_max = x0 e^w0 with w0 = x1^2 / (2k); below it x' = -sqrt(2k ln(x_max / x))
    on the way down, so from any x the fall takes C erfc(sqrt(ln(x_max / x)))
    with C = x_max sqrt(pi / (2k)).  A rising start first climbs to x_max in
    C erf(sqrt(w0)).
    """
    w0 = x1 * x1 / (2.0 * k)
    if not w0 <= _MAX_EXP_ARG:
        return None
    root = math.sqrt(w0)
    c = x0 * math.exp(w0) * math.sqrt(math.pi / (2.0 * k))
    tau = c * (math.erfc(root) if x1 < 0.0 else 1.0 + math.erf(root))
    return tau if math.isfinite(tau) else None


def classify_3d(p: PhysParams, ic: EmdenState3D) -> Classification:
    """Analytic lifespan verdict for the 3D system from the decision table.

    ``T`` is set where the table has the exact collapse time in closed form,
    as an absolute time (``ic.t`` plus the time to the first zero):
    - lam = 0: b'' = 0, so b = b0 + b1 t, and with xi = 0 also a'' = 0 and
      a = a0 + a1 t; the cell collapses iff a slope is negative, at the
      smallest -x0/x1 among those;
    - lam < 0 at gamma == 1.0 exactly: b'' = lam / b, whose zero time comes
      from its first integral (``_isothermal_zero``); with xi = 0, a'' = lam / a
      collapses too and ``T`` is the earlier zero, while xi != 0 keeps a > 0
      behind the xi^2 / a^3 barrier.  ``T`` is None where e^w0 would
      overflow and for a near-isothermal gamma != 1, which do not decouple
      exactly: those cells are run.
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
    ``eps_blow``) and no step table: a collapse gives ``T``, and an open cell
    whose ``T`` was found this way has basis ``numerical_evidence``.  A floor
    crossing ends the run at ``T``; the concavity stop of b (lam < 0) ends it
    at its last step, ``t_horizon`` past ``ic.t``, with ``T`` the bound one
    bracket width later.  A run
    that ran out of steps or step size before the horizon leaves its
    ``termination`` in the result.  Bad options, a collapse floor at or above
    ``ic.a`` or ``ic.b`` included, raise even when the table needs no run."""
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    run = RunOptions(**run_options)
    dim, y0 = _vec_from_state(ic)
    run.floors(y0)
    table = classify_3d(p, ic)
    if table.T is not None or table.verdict == GLOBAL:
        return table
    termination, t_stop, _, _ = _run(p, dim, y0, ic.t, ic.t + horizon, run)
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
    if classify_3d(p, ic).verdict != OPEN_CASE:
        raise ValueError("open-case probe requires lam < 0, gamma > 1 and b1 > 0; "
                         f"got lam={p.lam}, gamma={p.gamma}, b1={ic.b_dot}")
    cell = classify_cell(p, ic, t_horizon, **run_options)
    return replace(cell, verdict=OPEN_CASE if cell.T is None else BLOWUP,
                   basis="numerical_evidence", note=_NUMERIC_NOTE)


@dataclass(frozen=True)
class PeriodEstimate:
    """Detected orbital period of the planar dynamics.

    ``return_error`` is the phase-space distance of (a, a') after one period
    from its value at the first section crossing.  ``method`` is
    ``pericenter-section`` for genuine orbits or ``fixed-point`` for an
    equilibrium start, in which case the period is the linearized
    small-oscillation limit and the return error is zero.
    """

    period: float
    return_error: float
    method: str

    def to_dict(self) -> dict:
        return dict(vars(self))


def search_period_2d(p: PhysParams, ic: EmdenState2D, t_max: float, *,
                     fixed_point_tol: float = 1e-9,
                     **run_options) -> tuple[PeriodEstimate | None, Termination | None]:
    """Search a period of the planar dynamics via the pericenter section.

    Integrates for at most ``t_max`` time units past ``ic.t`` with the
    ``run_options`` of :func:`classify_cell` until the second upward crossing
    of a' = 0 (where a'' > 0).  Returns the crossing-to-crossing time with its
    return error, or None if fewer than two crossings occur (e.g. escape for
    lam > 0, a collapse, or ``max_steps`` steps taken), and the run's
    termination, which says how the search ended (kind ``section`` when it
    found the second crossing).  An equilibrium start is reported, once the
    horizon and options (a floor below ``ic.a`` included) pass, as a fixed
    point with the linearized period and no termination, since it needs no
    run.
    """
    run = RunOptions(**run_options)
    _check_span(ic.t, ic.t + t_max)
    run.floors((ic.a, ic.a_dot))
    accel0 = emden_rhs_2d(ic, p)[1]
    scale = max(1.0, abs(ic.a))
    if abs(ic.a_dot) <= fixed_point_tol * scale and abs(accel0) <= fixed_point_tol * scale:
        # d(a'')/da at the equilibrium; oscillatory only if negative
        g = p.gamma
        daccel = (-3.0 * p.xi * p.xi / ic.a**4
                  + (1.0 - 2.0 * g) * p.lam / ic.a ** (2.0 * g))
        if daccel >= 0.0:
            return None, None
        return PeriodEstimate(period=2.0 * math.pi / math.sqrt(-daccel),
                              return_error=0.0, method="fixed-point"), None

    section, crossings = _section(run.method)
    termination, _, _, _ = _run(p, 2, (ic.a, ic.a_dot), ic.t, ic.t + t_max, run, section)
    if termination.kind != "section":
        return None, termination
    (t1, y1), (t2, y2) = crossings
    return PeriodEstimate(period=t2 - t1, return_error=math.hypot(y2[0] - y1[0], y2[1] - y1[1]),
                          method="pericenter-section"), termination


def detect_period_2d(p: PhysParams, ic: EmdenState2D, t_max: float, *,
                     fixed_point_tol: float = 1e-9, **run_options) -> PeriodEstimate | None:
    """The period found by :func:`search_period_2d`, or None."""
    return search_period_2d(p, ic, t_max, fixed_point_tol=fixed_point_tol, **run_options)[0]


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
