"""Lifespan classification and periodicity detection.

The 3D decision table is a pure function of (sign of lam, gamma = 1 or > 1,
sign of b1): positive lam forces both scale factors outward (global); lam = 0
leaves b exactly linear so the verdict follows the sign of b1; negative lam
with gamma = 1, or with gamma > 1 and nonexpanding b, collapses b in finite
time.  The remaining cell (gamma > 1, lam < 0, b1 > 0) is undecided
analytically and can only be probed numerically, which never upgrades to
"global": surviving a finite horizon is not evidence of global existence.

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
from dataclasses import asdict, dataclass

import numpy as np

from .emden import EmdenState2D, EmdenState3D, Trajectory, _run, emden_rhs_2d, integrate
from .profiles import PhysParams

__all__ = [
    "GLOBAL",
    "BLOWUP",
    "OPEN_CASE",
    "Classification",
    "PeriodEstimate",
    "classify_3d",
    "probe_open_case",
    "detect_period_2d",
    "check_no_period_3d",
]

GLOBAL = "global"
BLOWUP = "finite_time_blowup"
OPEN_CASE = "unknown_open_case"

_NUMERIC_NOTE = "numerical evidence, not proof"


@dataclass(frozen=True)
class Classification:
    """Verdict plus its basis.

    Analytic verdicts cite the decision-table cell (``case``); numeric
    verdicts record the probed horizon and carry the evidence disclaimer in
    ``note``.
    """

    verdict: str
    basis: str  # "analytic" | "numerical_evidence"
    case: str | None = None
    T: float | None = None
    t_horizon: float | None = None
    note: str = ""

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v not in (None, "")}


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


def probe_open_case(p: PhysParams, ic: EmdenState3D, t_horizon: float,
                    tol: float = 1e-10) -> Classification:
    """Numerically probe the undecided cell (gamma > 1, lam < 0, b1 > 0).

    Returns a blowup verdict with the detected collapse time if the floor
    event fires before the horizon, otherwise the open verdict with the
    horizon recorded.  Never returns "global".
    """
    if not (p.lam < 0.0 and not p.is_isothermal and ic.b_dot > 0.0):
        raise ValueError(
            "open-case probe requires lam < 0, gamma > 1 and b1 > 0; "
            f"got lam={p.lam}, gamma={p.gamma}, b1={ic.b_dot}")
    traj = integrate(p, ic, ic.t + t_horizon, rel_tol=tol, abs_tol=tol * 1e-2)
    if traj.termination.kind == "blowup":
        return Classification(BLOWUP, "numerical_evidence",
                              T=traj.termination.t_est, t_horizon=t_horizon,
                              note=_NUMERIC_NOTE)
    return Classification(OPEN_CASE, "numerical_evidence",
                          t_horizon=t_horizon, note=_NUMERIC_NOTE)


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
        return asdict(self)


def detect_period_2d(p: PhysParams, ic: EmdenState2D, t_max: float,
                     tol: float = 1e-10, *,
                     fixed_point_tol: float = 1e-9) -> PeriodEstimate | None:
    """Detect a period of the planar dynamics via the pericenter section.

    Integrates for at most ``t_max`` time units past ``ic.t`` until the
    second upward crossing of a' = 0 (where a'' > 0).  Returns the
    crossing-to-crossing time with its return error, or None if fewer than
    two crossings occur (e.g. monotone escape for lam > 0, a collapse, or an
    exhausted step budget).  An initial condition at an equilibrium is
    reported as a fixed point with the linearized period.
    """
    accel0 = emden_rhs_2d(ic, p)[1]
    scale = max(1.0, abs(ic.a))
    if abs(ic.a_dot) <= fixed_point_tol * scale and abs(accel0) <= fixed_point_tol * scale:
        # d(a'')/da at the equilibrium; oscillatory only if negative
        g = p.gamma
        daccel = (-3.0 * p.xi * p.xi / ic.a**4
                  + (1.0 - 2.0 * g) * p.lam / ic.a ** (2.0 * g))
        if daccel >= 0.0:
            return None
        return PeriodEstimate(period=2.0 * math.pi / math.sqrt(-daccel),
                              return_error=0.0, method="fixed-point")

    crossings = _run(p, 2, np.array([ic.a, ic.a_dot]), ic.t, ic.t + t_max,
                     rel_tol=tol, abs_tol=tol * 1e-2, section=True)[-1]
    if len(crossings) < 2:
        return None
    (t1, y1), (t2, y2) = crossings
    return PeriodEstimate(period=float(t2 - t1),
                          return_error=float(math.hypot(y2[0] - y1[0], y2[1] - y1[1])),
                          method="pericenter-section")


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
