"""Scale-factor dynamics.

The scale factors obey a coupled second-order system (an Emden-type system):

    a'' = xi^2 / a^3 + lam / (a^(2 gamma - 1) b^(gamma - 1))
    b'' =              lam / (a^(2 gamma - 2) b^gamma)

and in the planar case the single equation

    a'' = xi^2 / a^3 + lam / a^(2 gamma - 1).

Both conserve a first integral (see :func:`energy_3d` / :func:`energy_2d`;
the formulas are verified symbolically in the test suite).  The equations are
written once, in ``_rhs_vec``.  Integration is done with an adaptive embedded
Runge-Kutta pair driven step by step by one loop, ``_run``, so that events are
located by root bracketing on each step's dense output: collapse of a scale
factor (a or b reaching a small positive floor) and, for the planar period
search, upward crossings of the pericenter section a' = 0.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np
from scipy.integrate import DOP853, RK45, OdeSolution
from scipy.optimize import brentq

from .profiles import PhysParams

__all__ = [
    "EmdenState3D",
    "EmdenState2D",
    "Termination",
    "Trajectory",
    "emden_rhs_3d",
    "emden_rhs_2d",
    "energy_3d",
    "energy_2d",
    "integrate",
    "advance",
]

_METHODS = {"RK45": RK45, "DOP853": DOP853}

# default adaptive step budget of integrate and of a run configuration
MAX_STEPS = 100_000

# On solver failure, a component this far below its initial value with inward
# velocity is treated as a collapse rather than a generic step failure.
_COLLAPSE_RATIO = 1e-3


def _check_state(**components: float) -> None:
    """Reject a non-finite component or a scale factor (a, b) that is not > 0.

    The message begins with the component's name.
    """
    for name, value in components.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        if name in ("a", "b") and not value > 0.0:
            raise ValueError(f"{name} must be > 0, got {value}")


@dataclass(frozen=True)
class EmdenState3D:
    """Snapshot (t, a, a', b, b') with a > 0 and b > 0."""

    t: float
    a: float
    a_dot: float
    b: float
    b_dot: float

    def __post_init__(self) -> None:
        _check_state(t=self.t, a=self.a, a_dot=self.a_dot, b=self.b, b_dot=self.b_dot)


@dataclass(frozen=True)
class EmdenState2D:
    """Snapshot (t, a, a') with a > 0."""

    t: float
    a: float
    a_dot: float

    def __post_init__(self) -> None:
        _check_state(t=self.t, a=self.a, a_dot=self.a_dot)


def emden_rhs_3d(state: EmdenState3D, p: PhysParams) -> tuple[float, float, float, float]:
    """Right-hand side (a', a'', b', b'') of the 3D scale-factor system."""
    return tuple(_rhs_vec(p, 3)(state.t, (state.a, state.a_dot, state.b, state.b_dot)).tolist())


def emden_rhs_2d(state: EmdenState2D, p: PhysParams) -> tuple[float, float]:
    """Right-hand side (a', a'') of the planar scale-factor equation."""
    return tuple(_rhs_vec(p, 2)(state.t, (state.a, state.a_dot)).tolist())


def energy_3d(state: EmdenState3D, p: PhysParams) -> float:
    """Conserved first integral of the 3D system.

    The b-kinetic term carries weight 1/4 (not 1/2) because the b equation
    sources the lam potential at half the strength of the a equation; with
    that weight d/dt of the value below vanishes along exact solutions.
    """
    a, ad, b, bd = state.a, state.a_dot, state.b, state.b_dot
    kinetic = 0.5 * ad * ad + 0.25 * bd * bd + p.xi * p.xi / (2.0 * a * a)
    if p.is_isothermal:
        return kinetic - p.lam * math.log(a) - 0.5 * p.lam * math.log(b)
    g = p.gamma
    return kinetic + p.lam / (2.0 * g - 2.0) * a ** (2.0 - 2.0 * g) * b ** (1.0 - g)


def energy_2d(state: EmdenState2D, p: PhysParams) -> float:
    """Conserved first integral of the planar equation."""
    a, ad = state.a, state.a_dot
    kinetic = 0.5 * ad * ad + p.xi * p.xi / (2.0 * a * a)
    if p.is_isothermal:
        return kinetic - p.lam * math.log(a)
    g = p.gamma
    return kinetic + p.lam / (2.0 * g - 2.0) * a ** (2.0 - 2.0 * g)


@dataclass(frozen=True)
class Termination:
    """How an integration ended.

    kind is one of ``reached_t_end``, ``blowup``, ``step_failure``.  For
    ``blowup``, ``t_est`` locates the floor crossing, ``which`` names the
    collapsing factor and ``bracket_width`` is the width of the bracketing
    interval used to locate it (not a rigorous error bound).
    """

    kind: str
    t_est: float | None = None
    which: str | None = None
    bracket_width: float | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v not in (None, "")}


@dataclass
class Trajectory:
    """Integration output: ordered state samples plus a termination record.

    ``states`` holds samples at the caller-requested times (or at the accepted
    step points when no times were requested); :meth:`state_at` evaluates the
    dense interpolant anywhere inside the integrated span.
    """

    params: PhysParams
    dim: int
    initial_state: EmdenState3D | EmdenState2D
    states: list
    termination: Termination
    t_span: tuple[float, float]
    _dense: OdeSolution | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        ts = [st.t for st in self.states]
        if any(t1 >= t2 for t1, t2 in zip(ts, ts[1:])):
            raise ValueError("trajectory sample times must be strictly increasing")

    def state_at(self, t: float):
        """Dense-output state at time t within the integrated span."""
        t0, t1 = self.t_span
        if not t0 <= t <= t1:
            raise ValueError(f"t={t} outside integrated span [{t0}, {t1}]")
        if t == t0:
            return self.initial_state
        if self._dense is None:
            raise ValueError("no dense output available (no step was accepted)")
        y = self._dense(t)
        return _state_from_vec(self.dim, t, y)

    def energies(self) -> list[float]:
        e = energy_3d if self.dim == 3 else energy_2d
        return [e(st, self.params) for st in self.states]

    def jsonl_lines(self) -> list[str]:
        lines = []
        for st, energy in zip(self.states, self.energies()):
            rec = {"t": st.t, "a": st.a, "a_dot": st.a_dot}
            if self.dim == 3:
                rec["b"] = st.b
                rec["b_dot"] = st.b_dot
            rec["energy"] = energy
            lines.append(json.dumps(rec))
        lines.append(json.dumps({"termination": self.termination.to_dict()}))
        return lines

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(self.jsonl_lines()) + "\n")


def _state_from_vec(dim: int, t: float, y) -> EmdenState3D | EmdenState2D:
    if dim == 3:
        return EmdenState3D(t, float(y[0]), float(y[1]), float(y[2]), float(y[3]))
    return EmdenState2D(t, float(y[0]), float(y[1]))


def _vec_from_state(state: EmdenState3D | EmdenState2D) -> tuple[int, np.ndarray]:
    if isinstance(state, EmdenState3D):
        return 3, np.array([state.a, state.a_dot, state.b, state.b_dot])
    if isinstance(state, EmdenState2D):
        return 2, np.array([state.a, state.a_dot])
    raise TypeError(f"unsupported state type: {type(state)!r}")


def _rhs_vec(p: PhysParams, dim: int):
    """The equations of motion as ``rhs(t, y)`` on (a, a'[, b, b'])."""
    g = p.gamma
    xi2 = p.xi * p.xi
    lam = p.lam
    if dim == 3:
        nan = np.full(4, np.nan)

        def rhs(t, y):
            a, ad, b, bd = y
            # Trial evaluations outside the domain poison the step so the
            # error controller rejects it and shrinks the step size.
            if a <= 0.0 or b <= 0.0:
                return nan
            return np.array([
                ad,
                xi2 / a**3 + lam / (a ** (2.0 * g - 1.0) * b ** (g - 1.0)),
                bd,
                lam / (a ** (2.0 * g - 2.0) * b**g),
            ])
    else:
        nan = np.full(2, np.nan)

        def rhs(t, y):
            a, ad = y
            if a <= 0.0:
                return nan
            return np.array([ad, xi2 / a**3 + lam / a ** (2.0 * g - 1.0)])

    return rhs


# the pericenter section watches a' (component 1); its crossing time is
# refined to the tolerance scipy's solve_ivp uses for events
_SECTION = 1
_SECTION_TOL = 4.0 * np.finfo(float).eps


def _locate(dense, t_lo, t_hi, floors, rel_tol, section_after):
    """Locate the earliest event in the step [t_lo, t_hi].

    Returns (t_est, component_index, bracket_width) or None.  Floor events
    are a component of ``floors`` falling to its floor; the step is scanned
    at interior samples so a dip below the floor inside the step is not
    missed.  Unless ``section_after`` is None, a section event is a' rising
    through 0 over the step (``a'(t_lo) <= 0 <= a'(t_hi)``, the rule of
    solve_ivp); it counts only later than ``section_after``, so a crossing on
    a step boundary is not counted twice.
    """
    tt = np.linspace(t_lo, t_hi, 9)
    yy = dense(tt)
    best = None
    for comp, floor in floors:
        below = np.nonzero(yy[comp] <= floor)[0]
        if below.size == 0:
            continue
        i = below[0]
        if i == 0:
            # crossing happened exactly at the step start; accepted states are
            # above the floor, so treat the start as the estimate
            t_est, width = t_lo, 0.0
        else:
            rt = max(rel_tol, 8.9e-16)
            t_est = brentq(lambda q: float(dense(q)[comp]) - floor, tt[i - 1], tt[i],
                           xtol=1e-300, rtol=rt)
            width = rt * abs(t_est)
        if best is None or t_est < best[0]:
            best = (t_est, comp, width)
    if section_after is not None and yy[_SECTION, 0] <= 0.0 <= yy[_SECTION, -1]:
        t_est = brentq(lambda q: float(dense(q)[_SECTION]), t_lo, t_hi,
                       xtol=_SECTION_TOL, rtol=_SECTION_TOL)
        if t_est > section_after and (best is None or t_est < best[0]):
            best = (t_est, _SECTION, 0.0)
    return best


def _run(p: PhysParams, dim: int, y0: np.ndarray, t0: float, t_end: float, *,
         rel_tol: float, abs_tol: float, max_steps: int = MAX_STEPS,
         eps_blow: float | None = None, method: str = "RK45",
         section: bool = False):
    """The adaptive step loop: step from (t0, y0) towards ``t_end``.

    The run ends at ``t_end``, at the first floor event, after ``max_steps``
    steps, on a step failure, or (with ``section``) at the second section
    crossing, whose termination kind is ``section``.  Returns (termination,
    t_stop, step times, step interpolants, section crossings as (t, y)).
    """
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if not t_end > t0:
        raise ValueError(f"t_end={t_end} must exceed the initial time {t0}")
    if not (0.0 < rel_tol < 1.0 and 0.0 < abs_tol < 1.0):
        raise ValueError("tolerances must lie in (0, 1)")
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {sorted(_METHODS)}")

    comp_names = {0: "a", 2: "b"} if dim == 3 else {0: "a"}
    floors = [(comp, eps_blow if eps_blow is not None else 1e-10 * y0[comp])
              for comp in comp_names]
    solver = _METHODS[method](_rhs_vec(p, dim), t0, y0, t_end,
                              rtol=rel_tol, atol=abs_tol)
    ts, interpolants, crossings = [t0], [], []
    section_after = -math.inf if section else None
    termination = None

    with warnings.catch_warnings():
        # scipy warns when shrinking steps hit the representable minimum;
        # that situation is diagnosed explicitly below
        warnings.simplefilter("ignore")
        while solver.status == "running":
            if len(interpolants) >= max_steps:
                termination = Termination("step_failure",
                                          detail=f"max_steps={max_steps} exhausted")
                break
            t_prev = solver.t
            solver.step()
            if solver.status == "failed":
                termination = _diagnose_failure(solver, y0, comp_names)
                break
            dense = solver.dense_output()
            interpolants.append(dense)
            ts.append(solver.t)
            hit = _locate(dense, t_prev, solver.t, floors, rel_tol, section_after)
            if hit is None:
                continue
            t_est, comp, width = hit
            if comp == _SECTION:
                crossings.append((t_est, dense(t_est)))
                section_after = t_est
                if len(crossings) < 2:
                    continue
                termination = Termination("section", t_est=t_est)
            else:
                termination = Termination("blowup", t_est=t_est,
                                          which=comp_names[comp],
                                          bracket_width=width)
            break

    if termination is None:
        termination = Termination("reached_t_end")
    t_stop = termination.t_est if termination.kind == "blowup" else solver.t
    return termination, t_stop, ts, interpolants, crossings


def integrate(
    p: PhysParams,
    initial_state: EmdenState3D | EmdenState2D,
    t_end: float,
    *,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-12,
    max_steps: int = MAX_STEPS,
    dense_times: Sequence[float] | None = None,
    eps_blow: float | None = None,
    method: str = "RK45",
) -> Trajectory:
    """Integrate the scale-factor system from ``initial_state`` to ``t_end``.

    Terminates early with a ``blowup`` record when a scale factor crosses the
    collapse floor (``eps_blow`` absolute, default ``1e-10`` times the
    component's initial value); the crossing time is located by root
    bracketing on the dense output to within ``rel_tol * |t|``.  A step-size
    underflow while a component is collapsing is also reported as blowup; any
    other failure (including ``max_steps`` exhaustion) is a ``step_failure``.
    """
    dim, y0 = _vec_from_state(initial_state)
    t0 = initial_state.t
    if dense_times is not None:
        dense_times = [float(t) for t in dense_times]
        if any(t1 >= t2 for t1, t2 in zip(dense_times, dense_times[1:])):
            raise ValueError("dense_times must be strictly increasing")
        if dense_times and (dense_times[0] < t0 or dense_times[-1] > t_end):
            raise ValueError("dense_times must lie within [t0, t_end]")

    termination, t_stop, ts, interpolants, _ = _run(
        p, dim, y0, t0, t_end, rel_tol=rel_tol, abs_tol=abs_tol,
        max_steps=max_steps, eps_blow=eps_blow, method=method)
    sol = OdeSolution(ts, interpolants) if interpolants else None

    if dense_times is not None:
        sample_times = [t for t in dense_times if t0 <= t <= t_stop]
    else:
        sample_times = [t for t in ts if t <= t_stop]
        if termination.kind == "blowup" and (not sample_times or sample_times[-1] < t_stop):
            sample_times.append(t_stop)

    states = []
    for t in sample_times:
        if t == t0:
            states.append(initial_state)
        else:
            states.append(_state_from_vec(dim, t, sol(t)))

    return Trajectory(params=p, dim=dim, initial_state=initial_state,
                      states=states, termination=termination,
                      t_span=(t0, t_stop), _dense=sol)


def _diagnose_failure(solver, y0, comp_names) -> Termination:
    y = solver.y
    for comp, name in comp_names.items():
        value, velocity = y[comp], y[comp + 1]
        if value < _COLLAPSE_RATIO * y0[comp] and velocity < 0.0:
            # time scale left before reaching zero bounds the location error
            return Termination("blowup", t_est=solver.t, which=name,
                               bracket_width=abs(value / velocity),
                               detail="step size underflow during collapse")
    return Termination("step_failure", t_est=solver.t,
                       detail="adaptive step size underflow")


def advance(
    p: PhysParams,
    state: EmdenState3D | EmdenState2D,
    dt: float,
    n_substeps: int | None = None,
) -> EmdenState3D | EmdenState2D:
    """Propagate a snapshot by dt with fixed-step classic RK4 substeps.

    The default substep count keeps the propagation error around 1e-20 for
    |dt| up to 1e-2, far below second-order stencil truncation; this is the
    time-shift engine for finite-difference residual checks.
    """
    if dt == 0.0:
        return state
    dim, y = _vec_from_state(state)
    if n_substeps is None:
        n_substeps = max(8, int(abs(dt) / 1e-4) + 1)
    rhs = _rhs_vec(p, dim)
    h = dt / n_substeps
    t = state.t
    for _ in range(n_substeps):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        if np.any(np.isnan(k1)) or np.any(np.isnan(k4)):
            raise ValueError("advance stepped at or past a collapsed state")
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return _state_from_vec(dim, state.t + dt, y)
