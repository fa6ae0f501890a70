"""Lifespan classification and periodicity detection.

The 3D decision table is a pure function of (sign of lam, gamma = 1 or > 1,
sign of b1): positive lam forces both scale factors outward (global); lam = 0
leaves b exactly linear so the verdict follows the sign of b1; negative lam
with gamma = 1, or with gamma > 1 and nonexpanding b, collapses b in finite
time.  The remaining cell (gamma > 1, lam < 0, b1 > 0) is undecided
analytically and can only be probed numerically (:func:`classify_cell`), which
never upgrades to "global": surviving a horizon does not prove global existence.

Planar dynamics with lam < 0 and 1 <= gamma < 2 admits periodic orbits; they
are detected by the first two upward crossings of the pericenter section
{a' = 0, a'' > 0}, found as events of the integrator's step loop, which
stops at the second one (a start exactly at a pericenter counts as the
first).  In 3D no periodic solution exists when lam < 0 because
b'' < 0 makes b' strictly decreasing; :func:`check_no_period_3d` verifies that
monotonicity on a trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

# integrate is not called here: it stays importable for bench/tracer.py
from .emden import (EmdenState2D, EmdenState3D, RunOptions, Termination,  # noqa: F401
                    Trajectory, _check_span, _run, _vec_from_state, emden_rhs_2d, integrate)
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

    Table verdicts cite the decision-table cell (``case``).  ``t_horizon`` is
    set when the cell was integrated: the time the run reached (the horizon,
    the collapse time ``T``, or less if the step budget or step size gave out).
    ``numerical_evidence`` verdicts carry the evidence disclaimer in ``note``.
    """

    verdict: str
    basis: str  # "analytic" | "numerical_evidence"
    case: str | None = None
    T: float | None = None
    t_horizon: float | None = None
    note: str = ""

    def to_dict(self) -> dict:
        return {k: v for k, v in vars(self).items() if v not in (None, "")}


def classify_3d(p: PhysParams, ic: EmdenState3D) -> Classification:
    """Analytic lifespan verdict for the 3D system from the decision table."""
    if p.lam > 0.0:
        return Classification(GLOBAL, "analytic", case="lam_positive")
    if p.lam == 0.0:
        if ic.b_dot >= 0.0:
            return Classification(GLOBAL, "analytic", case="lam_zero_b1_nonnegative")
        # b'' = 0, so b = b0 + b1 t hits zero exactly at -b0/b1
        return Classification(BLOWUP, "analytic", case="lam_zero_b1_negative",
                              T=-ic.b / ic.b_dot)
    if p.is_isothermal:
        return Classification(BLOWUP, "analytic", case="lam_negative_isothermal")
    if ic.b_dot <= 0.0:
        return Classification(BLOWUP, "analytic", case="lam_negative_b1_nonpositive")
    return Classification(OPEN_CASE, "analytic", case="lam_negative_b1_positive_open")


def classify_cell(p: PhysParams, ic: EmdenState3D, horizon: float,
                  **run_options) -> Classification:
    """Lifespan verdict of one 3D cell: the table's verdict and case, and ``T``.

    A cell that is not global and has no closed-form ``T`` is integrated once,
    ``horizon`` time units past ``ic.t``, by the step loop with
    ``run_options`` (``rel_tol``, ``abs_tol``, ``max_steps``, ``method``,
    ``eps_blow``) and no step table: a collapse gives ``T``, and an open cell
    whose ``T`` was found this way has basis ``numerical_evidence``.  Bad
    options raise even when the table needs no run."""
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    run = RunOptions(**run_options)
    table = classify_3d(p, ic)
    if table.T is not None or table.verdict == GLOBAL:
        return table
    dim, y0 = _vec_from_state(ic)
    termination, t_stop, _, _, _ = _run(p, dim, y0, ic.t, ic.t + horizon, run)
    T = termination.t_est if termination.kind == "blowup" else None
    # the table leaves an open cell undecided; only the run saw its collapse
    evidence = T is not None and table.verdict == OPEN_CASE
    return replace(table, T=T, t_horizon=t_stop - ic.t,
                   basis="numerical_evidence" if evidence else table.basis,
                   note=_NUMERIC_NOTE if evidence else "")


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
    horizon and options pass, as a fixed point with the linearized period and
    no termination, since it needs no run.
    """
    run = RunOptions(**run_options)
    _check_span(ic.t, ic.t + t_max)
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

    termination, _, _, crossings, _ = _run(p, 2, (ic.a, ic.a_dot), ic.t, ic.t + t_max, run,
                                           section=True)
    if len(crossings) < 2:
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
