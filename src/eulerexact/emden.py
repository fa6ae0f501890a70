"""Scale-factor dynamics.

The scale factors obey a coupled second-order system (an Emden-type system):

    a'' = xi^2 / a^3 + lam / (a^(2 gamma - 1) b^(gamma - 1))
    b'' =              lam / (a^(2 gamma - 2) b^gamma)

and in the planar case the single equation

    a'' = xi^2 / a^3 + lam / a^(2 gamma - 1).

Both conserve a first integral (see :func:`energy_3d` / :func:`energy_2d`;
the formulas are verified symbolically in the test suite).  The equations are
written once, in ``_rhs``.  Integration, the time shifts of :func:`advance`
included, is done by one step loop, ``_run``: an embedded Runge-Kutta pair
(Dormand-Prince 5(4), or DOP853) on plain Python floats, with scipy's
tableaux written out as literals in ``_tableaux`` and scipy's step-size
controller.  Collapse of a scale factor (a or b reaching a small positive
floor) is located by root bracketing on each step's dense output, with a port
of scipy's ``brentq``; a 3D run with lam < 0, where b is concave, also ends
once b's zero is bracketed to ``rel_tol`` from the state alone.  A caller
reads a run through one step sink, which sees
each step's dense output and may end the run: the step table of
:func:`integrate`, or the pericenter section of the planar period search
(``_section``), whose upward crossings of a' = 0 are located the same way.
The module runs on the standard library; only ``_ieee``, the overflow
fallback of the right-hand side, imports numpy.
"""

from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

from ._tableaux import (DOP853_A, DOP853_B, DOP853_D, DOP853_E3, DOP853_E5,
                        DOP853_STAGES, DOP853_STAGES_EXTENDED, RK45_A, RK45_B, RK45_E, RK45_P,
                        RK45_P_BOUND)
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
    "RunOptions",
    "RunStats",
    "integrate",
    "advance",
]

# default adaptive step budget of integrate and of a run configuration
MAX_STEPS = 100_000
# the smallest rel_tol a run accepts: scipy's steppers, whose controller the
# engine follows, clamp anything below it
MIN_REL_TOL = 100 * math.ulp(1.0)

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
    return _rhs(p, 3)((state.a, state.a_dot, state.b, state.b_dot))


def emden_rhs_2d(state: EmdenState2D, p: PhysParams) -> tuple[float, float]:
    """Right-hand side (a', a'') of the planar scale-factor equation."""
    return _rhs(p, 2)((state.a, state.a_dot))


def _energy(p: PhysParams, a: float, ad: float, b: float, bd: float) -> float:
    """The first integral, written once.  The b-kinetic term carries weight
    1/4 (not 1/2) because the b equation sources the lam potential at half
    the strength of the a equation; with that weight d/dt of the value below
    vanishes along exact solutions.  A value out of float range is IEEE's inf
    or nan, as in ``_rhs``."""
    def terms(y):
        a, ad, b, bd = y
        kinetic = 0.5 * ad * ad + 0.25 * bd * bd + p.xi * p.xi / (2.0 * a * a)
        if p.is_isothermal:
            return (kinetic - p.lam * math.log(a) - 0.5 * p.lam * math.log(b),)
        g = p.gamma
        return (kinetic + p.lam / (2.0 * g - 2.0) * a ** (2.0 - 2.0 * g) * b ** (1.0 - g),)

    try:
        (value,) = terms((a, ad, b, bd))
    except ArithmeticError:
        (value,) = _ieee(terms, (a, ad, b, bd))
    return value


def energy_3d(state: EmdenState3D, p: PhysParams) -> float:
    """Conserved first integral of the 3D system."""
    return _energy(p, state.a, state.a_dot, state.b, state.b_dot)


def energy_2d(state: EmdenState2D, p: PhysParams) -> float:
    """Conserved first integral of the planar equation: the 3D one at b = 1,
    b' = 0, which leave every bit of the planar value unchanged."""
    return _energy(p, state.a, state.a_dot, 1.0, 0.0)


@dataclass(frozen=True)
class Termination:
    """How an integration ended.

    kind is one of ``reached_t_end``, ``blowup``, ``step_failure``, or, for
    the planar period search, ``section`` at the second pericenter crossing
    (``t_est``).  For ``blowup``, ``which`` names the collapsing factor, and
    ``t_est`` and ``bracket_width`` depend on how the run saw the collapse:
    - a floor crossing located on a step's dense output: ``t_est`` is the
      crossing and ``bracket_width`` is ``rel_tol * |t_est|``, the root
      finder's tolerance (not a rigorous error bound);
    - the concavity stop of a 3D run with lam < 0 (b'' < 0): the run's last
      step ends at ``t_est - bracket_width``, where ``bracket_width`` is
      b / |b'|, so the zero of b through that state lies in
      [t_est - bracket_width, t_est]; the exact solution from the start
      differs from that state by the run's integration error;
    - a step-size underflow during a collapse: ``t_est`` is where the run
      stopped and ``bracket_width`` the time scale value / |velocity| there.
    """

    kind: str
    t_est: float | None = None
    which: str | None = None
    bracket_width: float | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {k: v for k, v in vars(self).items() if v not in (None, "")}


@dataclass(frozen=True)
class RunStats:
    """What one run of the step loop did: accepted and rejected step
    attempts, right-hand-side evaluations (two to start, the stages of every
    attempt, and DOP853's three dense-output stages per accepted step), and
    the smallest and largest accepted step (None when no step was accepted).
    """

    accepted: int
    rejected: int
    rhs_evals: int
    h_min: float | None
    h_max: float | None


@dataclass
class Trajectory:
    """Integration output: ordered state samples plus a termination record.

    ``states`` holds samples at the caller-requested times (or at the accepted
    step points when no times were requested); :meth:`state_at` evaluates the
    dense output anywhere inside the integrated span, from the step table
    that :func:`integrate` keeps for it.  ``stats`` counts the run's steps; a
    hand-built trajectory has none.
    """

    params: PhysParams
    dim: int
    initial_state: EmdenState3D | EmdenState2D
    states: list
    termination: Termination
    t_span: tuple[float, float]
    _dense: _DenseOutput | None = field(default=None, repr=False)
    stats: RunStats | None = None

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
        """One strict JSON record per state, then the termination record."""
        lines = []
        for st, energy in zip(self.states, self.energies()):
            rec = {"t": st.t, "a": st.a, "a_dot": st.a_dot}
            if self.dim == 3:
                rec.update(b=st.b, b_dot=st.b_dot)
            rec["energy"] = energy
            lines.append(strict_json(rec))
        lines.append(strict_json({"termination": self.termination.to_dict()}))
        return lines

    def write_jsonl(self, path) -> None:
        """Serialize first, so a non-finite record leaves no file behind."""
        text = "\n".join(self.jsonl_lines()) + "\n"
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


def strict_json(obj, indent: int | None = None) -> str:
    """``json.dumps(obj, allow_nan=False, indent=indent)`` of an output record.

    A non-finite number raises a ValueError that names its path in the record
    (``points[17].mass_residual``) and shows the record.
    """
    try:
        return json.dumps(obj, allow_nan=False, indent=indent)
    except ValueError:
        path = _nonfinite_path(obj)
        where = path.removeprefix(".") if path else "the top level"
        raise ValueError("non-finite number in an output record (strict JSON has "
                         f"no NaN or Infinity) at {where}: {str(obj)[:300]}") from None


def _nonfinite_path(obj) -> str | None:
    """Where the first NaN or infinity in ``obj`` sits: ``.key`` and ``[index]``
    steps, "" for ``obj`` itself, or None when there is none."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else ""
    if isinstance(obj, dict):
        items = ((f".{k}", v) for k, v in obj.items())
    elif isinstance(obj, (list, tuple)):
        items = ((f"[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    for step, value in items:
        rest = _nonfinite_path(value)
        if rest is not None:
            return step + rest
    return None


def _state_from_vec(dim: int, t: float, y) -> EmdenState3D | EmdenState2D:
    if dim == 3:
        return EmdenState3D(t, float(y[0]), float(y[1]), float(y[2]), float(y[3]))
    return EmdenState2D(t, float(y[0]), float(y[1]))


def _vec_from_state(state: EmdenState3D | EmdenState2D) -> tuple[int, tuple]:
    if isinstance(state, EmdenState3D):
        return 3, (state.a, state.a_dot, state.b, state.b_dot)
    if isinstance(state, EmdenState2D):
        return 2, (state.a, state.a_dot)
    raise TypeError(f"unsupported state type: {type(state)!r}")


@dataclass(frozen=True)
class RunOptions:
    """The options of a run, checked here only; a message begins with the
    option's name.  An unset ``eps_blow`` is the library's floor."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = MAX_STEPS
    eps_blow: float | None = None
    method: str = "RK45"

    def __post_init__(self) -> None:
        if not MIN_REL_TOL <= self.rel_tol < 1.0:
            # below MIN_REL_TOL the stepper would silently use MIN_REL_TOL instead
            raise ValueError(f"rel_tol must lie in [{MIN_REL_TOL!r}, 1), got {self.rel_tol}")
        if not 0.0 < self.abs_tol < 1.0:
            raise ValueError(f"abs_tol must lie in (0, 1), got {self.abs_tol}")
        if not self.max_steps >= 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.eps_blow is not None and not 0.0 < self.eps_blow < math.inf:
            raise ValueError(f"eps_blow must be finite and > 0, got {self.eps_blow}")
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {', '.join(_METHODS)}; got {self.method!r}")

    def floors(self, y0) -> list[tuple[int, float]]:
        """(component, collapse floor) of each scale factor of a run from
        y0 = (a, a'[, b, b']): ``eps_blow``, or 1e-10 times the factor's
        value in y0 when it is unset.  A floor at or above that value would
        report a collapse at the start, so it raises ValueError."""
        floors = []
        for comp, name in ((0, "a"), (2, "b"))[:len(y0) // 2]:
            # eps_blow is None or > 0, so ``or`` picks the library's floor for None only
            floor = self.eps_blow or 1e-10 * y0[comp]
            if not floor < y0[comp]:
                raise ValueError(f"eps_blow must lie below the initial value {y0[comp]!r} "
                                 f"of {name}, got {self.eps_blow!r}")
            floors.append((comp, floor))
        return floors


def _check_span(t0: float, t_end: float) -> None:
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if not t_end > t0:
        raise ValueError(f"t_end={t_end} must exceed the initial time {t0}")


def _rhs(p: PhysParams, dim: int):
    """The equations of motion as ``rhs(y)`` on a sequence of plain floats
    (a, a'[, b, b']), returning a tuple.

    Outside the domain (a or b not > 0) every component is NaN, so the
    controller rejects a trial step that leaves it.  Where a float power
    overflows or a divisor underflows to zero, Python raises; ``rhs`` is then
    evaluated again on numpy scalars, which give IEEE's inf or nan instead.
    """
    g = p.gamma
    xi2 = p.xi * p.xi
    lam = p.lam
    e1, e2, e3 = 2.0 * g - 1.0, g - 1.0, 2.0 * g - 2.0
    if dim == 3:
        nan = (math.nan,) * 4

        def rhs(y):
            a, ad, b, bd = y
            if a <= 0.0 or b <= 0.0:
                return nan
            try:
                return ad, xi2 / a**3 + lam / (a**e1 * b**e2), bd, lam / (a**e3 * b**g)
            except ArithmeticError:
                return _ieee(rhs, y)
    else:
        nan = (math.nan,) * 2

        def rhs(y):
            a, ad = y
            if a <= 0.0:
                return nan
            try:
                return ad, xi2 / a**3 + lam / a**e1
            except ArithmeticError:
                return _ieee(rhs, y)

    return rhs


def _ieee(fn, y) -> tuple:
    """The floats of the tuple ``fn`` returns for the components of y taken
    as numpy scalars, which overflow and divide by zero without raising."""
    import numpy as np

    with np.errstate(all="ignore"):
        return tuple(map(float, fn(tuple(map(np.float64, y)))))


# scipy's step-size controller constants
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0

# Dormand-Prince 5(4) (scipy's RK45), with its stages written out below, one
# kernel per dimension.  The autonomous system needs no stage times (C); the
# second stage has zero weight in B, E and P, so those sums leave it out.
if RK45_B[1] or RK45_E[1] or any(RK45_P[1]):
    raise ImportError("the RK45 tableau gives its second stage a weight")
(_, (_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54),
 (_A61, _A62, _A63, _A64, _A65)) = RK45_A
_B1, _, _B3, _B4, _B5, _B6 = RK45_B
_E1, _, _E3, _E4, _E5, _E6, _E7 = RK45_E
((_P10, _P11, _P12, _P13), _, (_P30, _P31, _P32, _P33), (_P40, _P41, _P42, _P43),
 (_P50, _P51, _P52, _P53), (_P60, _P61, _P62, _P63), (_P70, _P71, _P72, _P73)) = RK45_P


def _dp5_attempt_3d(f, y, k1, h, rtol, atol):
    """One trial step of the 3D system from y = (a, u, b, v), u = a' and
    v = b': (y_new, f(y_new), error norm, the stages the dense output needs).
    Stage j is k_j, and kc_j its component c.  Each stage adds
    (sum of a_j k_j) * h, as scipy's ``rk_step`` does, and each error term is
    divided by its own scale before the root mean square."""
    a, u, b, v = y
    ka1, ku1, kb1, kv1 = k1
    ka2, ku2, kb2, kv2 = f((a + (ka1 * _A21) * h, u + (ku1 * _A21) * h,
                            b + (kb1 * _A21) * h, v + (kv1 * _A21) * h))
    k3 = ka3, ku3, kb3, kv3 = f((
        a + (ka1 * _A31 + ka2 * _A32) * h, u + (ku1 * _A31 + ku2 * _A32) * h,
        b + (kb1 * _A31 + kb2 * _A32) * h, v + (kv1 * _A31 + kv2 * _A32) * h))
    k4 = ka4, ku4, kb4, kv4 = f((
        a + (ka1 * _A41 + ka2 * _A42 + ka3 * _A43) * h,
        u + (ku1 * _A41 + ku2 * _A42 + ku3 * _A43) * h,
        b + (kb1 * _A41 + kb2 * _A42 + kb3 * _A43) * h,
        v + (kv1 * _A41 + kv2 * _A42 + kv3 * _A43) * h))
    k5 = ka5, ku5, kb5, kv5 = f((
        a + (ka1 * _A51 + ka2 * _A52 + ka3 * _A53 + ka4 * _A54) * h,
        u + (ku1 * _A51 + ku2 * _A52 + ku3 * _A53 + ku4 * _A54) * h,
        b + (kb1 * _A51 + kb2 * _A52 + kb3 * _A53 + kb4 * _A54) * h,
        v + (kv1 * _A51 + kv2 * _A52 + kv3 * _A53 + kv4 * _A54) * h))
    k6 = ka6, ku6, kb6, kv6 = f((
        a + (ka1 * _A61 + ka2 * _A62 + ka3 * _A63 + ka4 * _A64 + ka5 * _A65) * h,
        u + (ku1 * _A61 + ku2 * _A62 + ku3 * _A63 + ku4 * _A64 + ku5 * _A65) * h,
        b + (kb1 * _A61 + kb2 * _A62 + kb3 * _A63 + kb4 * _A64 + kb5 * _A65) * h,
        v + (kv1 * _A61 + kv2 * _A62 + kv3 * _A63 + kv4 * _A64 + kv5 * _A65) * h))
    y_new = (a + h * (ka1 * _B1 + ka3 * _B3 + ka4 * _B4 + ka5 * _B5 + ka6 * _B6),
             u + h * (ku1 * _B1 + ku3 * _B3 + ku4 * _B4 + ku5 * _B5 + ku6 * _B6),
             b + h * (kb1 * _B1 + kb3 * _B3 + kb4 * _B4 + kb5 * _B5 + kb6 * _B6),
             v + h * (kv1 * _B1 + kv3 * _B3 + kv4 * _B4 + kv5 * _B5 + kv6 * _B6))
    na, nu, nb, nv = y_new
    k7 = ka7, ku7, kb7, kv7 = f(y_new)
    # each scale is max(abs(old), abs(new)), written ``n if n > o else o``:
    # max's result, NaN included, without the call
    o, n = abs(a), abs(na)
    ea = ((ka1 * _E1 + ka3 * _E3 + ka4 * _E4 + ka5 * _E5 + ka6 * _E6 + ka7 * _E7) * h
          / (atol + (n if n > o else o) * rtol))
    o, n = abs(u), abs(nu)
    eu = ((ku1 * _E1 + ku3 * _E3 + ku4 * _E4 + ku5 * _E5 + ku6 * _E6 + ku7 * _E7) * h
          / (atol + (n if n > o else o) * rtol))
    o, n = abs(b), abs(nb)
    eb = ((kb1 * _E1 + kb3 * _E3 + kb4 * _E4 + kb5 * _E5 + kb6 * _E6 + kb7 * _E7) * h
          / (atol + (n if n > o else o) * rtol))
    o, n = abs(v), abs(nv)
    ev = ((kv1 * _E1 + kv3 * _E3 + kv4 * _E4 + kv5 * _E5 + kv6 * _E6 + kv7 * _E7) * h
          / (atol + (n if n > o else o) * rtol))
    # 0.0 + e * e is e * e, so the sum starts at the first term
    sq = ea * ea + eu * eu + eb * eb + ev * ev
    return y_new, k7, math.sqrt(sq) / 4 ** 0.5, (k1, k3, k4, k5, k6, k7)


def _dp5_dense_3d(f, y, y_new, stages, h):
    """The step's dense-output rows, one per component of the 3D state."""
    (ka1, ku1, kb1, kv1), (ka3, ku3, kb3, kv3), (ka4, ku4, kb4, kv4), \
        (ka5, ku5, kb5, kv5), (ka6, ku6, kb6, kv6), (ka7, ku7, kb7, kv7) = stages
    return (_dp5_row(ka1, ka3, ka4, ka5, ka6, ka7, h), _dp5_row(ku1, ku3, ku4, ku5, ku6, ku7, h),
            _dp5_row(kb1, kb3, kb4, kb5, kb6, kb7, h), _dp5_row(kv1, kv3, kv4, kv5, kv6, kv7, h))


def _dp5_attempt_2d(f, y, k1, h, rtol, atol):
    """``_dp5_attempt_3d`` for the planar state y = (a, u), u = a'."""
    a, u = y
    ka1, ku1 = k1
    ka2, ku2 = f((a + (ka1 * _A21) * h, u + (ku1 * _A21) * h))
    k3 = ka3, ku3 = f((a + (ka1 * _A31 + ka2 * _A32) * h, u + (ku1 * _A31 + ku2 * _A32) * h))
    k4 = ka4, ku4 = f((a + (ka1 * _A41 + ka2 * _A42 + ka3 * _A43) * h,
                       u + (ku1 * _A41 + ku2 * _A42 + ku3 * _A43) * h))
    k5 = ka5, ku5 = f((a + (ka1 * _A51 + ka2 * _A52 + ka3 * _A53 + ka4 * _A54) * h,
                       u + (ku1 * _A51 + ku2 * _A52 + ku3 * _A53 + ku4 * _A54) * h))
    k6 = ka6, ku6 = f((
        a + (ka1 * _A61 + ka2 * _A62 + ka3 * _A63 + ka4 * _A64 + ka5 * _A65) * h,
        u + (ku1 * _A61 + ku2 * _A62 + ku3 * _A63 + ku4 * _A64 + ku5 * _A65) * h))
    y_new = na, nu = (a + h * (ka1 * _B1 + ka3 * _B3 + ka4 * _B4 + ka5 * _B5 + ka6 * _B6),
                      u + h * (ku1 * _B1 + ku3 * _B3 + ku4 * _B4 + ku5 * _B5 + ku6 * _B6))
    k7 = ka7, ku7 = f(y_new)
    o, n = abs(a), abs(na)
    ea = ((ka1 * _E1 + ka3 * _E3 + ka4 * _E4 + ka5 * _E5 + ka6 * _E6 + ka7 * _E7) * h
          / (atol + (n if n > o else o) * rtol))
    o, n = abs(u), abs(nu)
    eu = ((ku1 * _E1 + ku3 * _E3 + ku4 * _E4 + ku5 * _E5 + ku6 * _E6 + ku7 * _E7) * h
          / (atol + (n if n > o else o) * rtol))
    return y_new, k7, math.sqrt(ea * ea + eu * eu) / 2 ** 0.5, (k1, k3, k4, k5, k6, k7)


def _dp5_dense_2d(f, y, y_new, stages, h):
    """``_dp5_dense_3d`` for the planar state."""
    (ka1, ku1), (ka3, ku3), (ka4, ku4), (ka5, ku5), (ka6, ku6), (ka7, ku7) = stages
    return (_dp5_row(ka1, ka3, ka4, ka5, ka6, ka7, h), _dp5_row(ku1, ku3, ku4, ku5, ku6, ku7, h))


def _dp5_row(p1, p3, p4, p5, p6, p7, h):
    """One component's dense-output row: h times scipy's ``K.T @ P`` row, the
    quartic's coefficients of x, x^2, x^3, x^4."""
    return ((p1 * _P10 + p3 * _P30 + p4 * _P40 + p5 * _P50 + p6 * _P60 + p7 * _P70) * h,
            (p1 * _P11 + p3 * _P31 + p4 * _P41 + p5 * _P51 + p6 * _P61 + p7 * _P71) * h,
            (p1 * _P12 + p3 * _P32 + p4 * _P42 + p5 * _P52 + p6 * _P62 + p7 * _P72) * h,
            (p1 * _P13 + p3 * _P33 + p4 * _P43 + p5 * _P53 + p6 * _P63 + p7 * _P73) * h)


_M1, _M3, _M4, _M5, _M6, _M7 = RK45_P_BOUND


def _dp5_far(y, stages, h, floors) -> bool:
    """Whether the step's dense output provably stays clear of every floor,
    so that ``_locate`` would find no floor event on it.  A component's
    output is y_c + h * sum_j k_j[c] * w_j(x) with each weight |w_j| <= M_j
    on the step (``RK45_P_BOUND``), so it moves at most
    reach_c = h * sum_j |k_j[c]| * M_j from y_c; a floor f is far when
    y_c - f > 2 reach_c + 1e-12 |y_c|, a margin that covers the rounding
    of the rows and of their evaluation.  A NaN reach is never far."""
    k1, k3, k4, k5, k6, k7 = stages
    for c, floor in floors:
        y_c = y[c]
        reach = h * (abs(k1[c]) * _M1 + abs(k3[c]) * _M3 + abs(k4[c]) * _M4
                     + abs(k5[c]) * _M5 + abs(k6[c]) * _M6 + abs(k7[c]) * _M7)
        if not y_c - floor > 2.0 * reach + 1e-12 * abs(y_c):
            return False
    return True


# DOP853: the 12 stages, the 3 extra stages of its dense output, and the
# error and dense-output weights, as scipy's DOP853 uses them
_A8 = DOP853_A[1:DOP853_STAGES]
_A8_EXTRA = DOP853_A[DOP853_STAGES + 1:]
_E8 = tuple(zip(DOP853_E5, DOP853_E3))


def _combine(y, weights, stages, h):
    """y + (sum of w_j k_j) * h per component, summed in stage order."""
    out = []
    for i, v in enumerate(y):
        acc = 0.0
        for w, k in zip(weights, stages):
            acc += k[i] * w
        out.append(v + acc * h)
    return out


def _dop853_attempt(f, y, k1, h, rtol, atol):
    stages = [k1]
    for row in _A8:
        stages.append(f(_combine(y, row, stages, h)))
    y_new = _combine(y, DOP853_B, stages, h)
    stages.append(f(y_new))
    sq5 = sq3 = 0.0
    for i, (v, w) in enumerate(zip(y, y_new)):
        e5 = e3 = 0.0
        for (c5, c3), k in zip(_E8, stages):
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


def _dop853_dense(f, y, y_new, stages, h):
    """Per component, scipy's seven ``F`` rows of the DOP853 interpolant; the
    three extra stages are evaluated here."""
    stages = list(stages)
    for row in _A8_EXTRA:
        stages.append(f(_combine(y, row, stages, h)))
    rows = []
    for i, v in enumerate(y):
        dy = y_new[i] - v
        f_old, f_new = stages[0][i], stages[DOP853_STAGES][i]
        coeffs = [dy, h * f_old - dy, 2.0 * dy - h * (f_new + f_old)]
        for d in DOP853_D:
            acc = 0.0
            for w, k in zip(d, stages):
                acc += k[i] * w
            coeffs.append(h * acc)
        rows.append(tuple(coeffs))
    return rows


class _Method(NamedTuple):
    """An embedded pair: its trial step and dense-output coefficients per
    dimension (``kernels[dim]``), the factors of its nested dense polynomial,
    the order of its error estimate, its right-hand-side evaluations per
    attempt and per dense output, and its test that an accepted step stays
    clear of the floors without its dense output (None: no such test)."""

    kernels: dict[int, tuple[Callable, Callable]]
    factors: Callable
    error_order: int
    stage_evals: int
    dense_evals: int
    far: Callable | None


# A step's dense output is y_old + nest(c, w) with nest(c, w) the value v of
# v = 0; for c_k, w_k in zip(reversed(c), w): v = (v + c_k) * w_k, and every
# factor w_k in [0, 1] on the step: Horner's rule in x for RK45, alternating
# x and 1 - x for DOP853 (scipy's Dop853DenseOutput).
_METHODS = {
    "RK45": _Method({2: (_dp5_attempt_2d, _dp5_dense_2d), 3: (_dp5_attempt_3d, _dp5_dense_3d)},
                    lambda x: (x, x, x, x), 4, 6, 0, _dp5_far),
    "DOP853": _Method(dict.fromkeys((2, 3), (_dop853_attempt, _dop853_dense)),
                      lambda x: (x, 1.0 - x, x, 1.0 - x, x, 1.0 - x, x),
                      7, DOP853_STAGES, DOP853_STAGES_EXTENDED - DOP853_STAGES - 1, None),
}


def _nest(coeffs, factors) -> float:
    v = 0.0
    for c, w in zip(reversed(coeffs), factors):
        v = (v + c) * w
    return v


def _floor_clear(y: float, coeffs, floor: float) -> bool:
    """Whether the step's dense output of a component that starts at y stays
    above ``floor`` everywhere on the step.  With every factor in [0, 1],
    ``nest`` is at least the lower bound b of b = min(0, b + c_k) over the
    reversed coefficients; the margin covers the rounding of evaluating it."""
    bound, size = 0.0, abs(y)
    for c in reversed(coeffs):
        bound += c
        if bound > 0.0:
            bound = 0.0
        size += abs(c)
    return y + bound - floor > 1e-12 * size


def _dense_value(t_lo: float, t_hi: float, y: float, row, factors, t: float) -> float:
    """At time t, a component that starts the step [t_lo, t_hi] at y: y plus
    the nested polynomial of its coefficient row."""
    return y + _nest(row, factors((t - t_lo) / (t_hi - t_lo)))


class _DenseOutput:
    """The step table of a run, in flat float arrays: step k spans
    [ts[k], ts[k+1]] and starts at ``state(k)``; its dense output adds to each
    component the nested polynomial of that component's coefficients.  Only
    :func:`integrate` keeps one, for :meth:`Trajectory.state_at` and its
    sample times: its :meth:`append` is the run's step sink."""

    __slots__ = ("factors", "n", "m", "ts", "ys", "coeffs")

    def __init__(self, factors, t0: float, y0):
        self.factors = factors
        self.n, self.m = len(y0), len(factors(0.0))
        self.ts, self.ys, self.coeffs = array("d", [t0]), array("d", y0), array("d")

    @property
    def steps(self) -> int:
        return len(self.ts) - 1

    def append(self, t: float, t_new: float, y, y_new, rows) -> None:
        """Add the step [t, t_new] from y to y_new, with one coefficient row
        per component: a step sink of ``_run``."""
        self.ts.append(t_new)
        self.ys.extend(y_new)
        for row in rows:
            self.coeffs.extend(row)

    def state(self, k: int):
        """The state at step point k."""
        return self.ys[k * self.n:(k + 1) * self.n]

    def value(self, k: int, comp: int, t: float) -> float:
        """Component ``comp`` at time t by the dense output of step k."""
        i = k * self.n + comp
        return _dense_value(self.ts[k], self.ts[k + 1], self.ys[i],
                            self.coeffs[i * self.m:(i + 1) * self.m], self.factors, t)

    def __call__(self, t: float) -> tuple:
        """The state at t; a step boundary belongs to the step it ends."""
        k = min(max(bisect_left(self.ts, t) - 1, 0), self.steps - 1)
        return tuple(self.value(k, comp, t) for comp in range(self.n))


# the smallest rtol brentq accepts; section crossings are refined to it as
# xtol and rtol, the tolerance scipy's solve_ivp uses for events
_BRENTQ_RTOL = 4.0 * math.ulp(1.0)


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """A root of f bracketed by [xa, xb]: a line-by-line port of scipy's
    ``brentq`` (its Python wrapper and the C loop of
    ``scipy/optimize/Zeros/brentq.c``), so it returns scipy's root bit for bit.

    As in scipy, ``xtol <= 0``, an ``rtol`` below 4 eps, a NaN value of f
    and ends where f has one sign raise ValueError; an end where f is exactly
    0 is returned at once, and ``maxiter`` iterations without convergence
    raise RuntimeError.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _BRENTQ_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_BRENTQ_RTOL:g})")

    def fx(x):
        value = f(x)
        if math.isnan(value):
            raise ValueError(f"the function value at x={x} is NaN; brentq cannot continue")
        return value

    # f's values are neither NaN nor, past the end checks, 0 where the C code
    # compares their sign bits, so ``v < 0.0`` is the sign bit
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C's quotient is then inf or nan, which fails the test below
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fx(xcur)
    raise RuntimeError(f"brentq failed to converge after {maxiter} iterations")


def _locate(t_lo: float, t_hi: float, y, rows, factors, floors, rel_tol):
    """Locate the earliest floor event in the step [t_lo, t_hi], which starts
    at state y and whose dense output has the coefficient rows ``rows`` and
    the method's ``factors``.

    Returns (t_est, component_index, bracket_width) or None.  A floor event
    is a component of ``floors`` falling to its floor; unless the step's
    polynomial provably stays above the floor (``_floor_clear`` on its
    coefficients), the step is scanned at 9 evenly spaced samples so a dip
    below the floor inside the step is not missed.  A lifespan run calls it
    only for a step that ``_dp5_far`` could not clear.
    """
    samples = None
    best = None
    for comp, floor in floors:
        y_c, row = y[comp], rows[comp]
        if _floor_clear(y_c, row, floor):
            continue
        if samples is None:
            # np.linspace(t_lo, t_hi, 9)
            step = (t_hi - t_lo) / 8
            samples = [t_lo + i * step for i in range(8)] + [t_hi]
        i = next((i for i, t in enumerate(samples)
                  if _dense_value(t_lo, t_hi, y_c, row, factors, t) <= floor), None)
        if i is None:
            continue
        if i == 0:
            # the step start is at or below the floor only by rounding: a run
            # starts above its floors and this start ended a step whose scan
            # stayed above them; treat the start as the estimate
            t_est, width = t_lo, 0.0
        else:
            t_est = _brentq(lambda q: _dense_value(t_lo, t_hi, y_c, row, factors, q) - floor,
                            samples[i - 1], samples[i], 1e-300, rel_tol)
            width = rel_tol * abs(t_est)
        if best is None or t_est < best[0]:
            best = (t_est, comp, width)
    return best


def _section(method: str):
    """The pericenter section of the planar period search, as a step sink of
    a ``method`` run: (sink, crossings).  A crossing is a' rising through 0
    over a step (``a'(t_lo) <= 0 <= a'(t_hi)``, the rule of solve_ivp),
    refined by ``_brentq`` to 4 eps; ``crossings`` gains its (t, state), and
    a crossing on a step boundary is counted once.  The second one ends the
    run as ``section``."""
    factors = _METHODS[method].factors
    crossings = []

    def sink(t_lo, t_hi, y, y_new, rows):
        u, row = y[1], rows[1]
        if not u <= 0.0 <= _dense_value(t_lo, t_hi, u, row, factors, t_hi):
            return None
        t_est = _brentq(lambda q: _dense_value(t_lo, t_hi, u, row, factors, q), t_lo, t_hi,
                        _BRENTQ_RTOL, _BRENTQ_RTOL)
        if crossings and not t_est > crossings[-1][0]:
            return None
        crossings.append((t_est, tuple(_dense_value(t_lo, t_hi, v, r, factors, t_est)
                                       for v, r in zip(y, rows))))
        return Termination("section", t_est=t_est) if len(crossings) == 2 else None

    return sink, crossings


def _rms(values) -> float:
    return math.hypot(*values) / len(values) ** 0.5


def _initial_step(f, y0, f0, interval, order, rtol, atol) -> float:
    """scipy's ``select_initial_step`` (Hairer, Norsett and Wanner II.4) on
    plain floats; a NaN or inf norm leaves the same step as numpy's."""
    scale = [atol + abs(v) * rtol for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = f([v + h0 * d for v, d in zip(y0, f0)])
    if h0 == 0.0:
        # d1 is inf, and the step is min(100 * h0, ...) = 0 whatever d2 is
        return 0.0
    d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        top = max(d1, d2)
        h1 = (0.01 / top) ** (1.0 / (order + 1)) if top > 0.0 else math.inf
    return min(100.0 * h0, h1, interval)


def _run(p: PhysParams, dim: int, y0: tuple, t0: float, t_end: float,
         run: RunOptions, sink: Callable | None = None):
    """The adaptive step loop: step from (t0, y0) towards ``t_end``.

    The run ends at ``t_end``, at the first floor event, at the concavity
    stop, after ``max_steps`` steps, on a step failure, or where ``sink`` ends
    it.  Returns (termination, t_stop, the last accepted state, run
    statistics); t_stop is the floor crossing of a floor event and otherwise
    the end of the last accepted step.

    The concavity stop holds in every 3D run with lam < 0, whatever its
    caller: there b'' < 0, so from a state with b' < 0 the exact b reaches 0
    by t + w, w = b / |b'|.  After an accepted step to (t_new, y_new) with
    b' < 0, w <= ``rel_tol`` max(1, t_new) and t_new + w <= ``t_end``, the run
    ends as a ``blowup`` of b with ``t_est`` t_new + w and ``bracket_width``
    w.  It reads only (t_new, y_new), so far steps stay skipped; a floor
    event or a sink's record in the same step comes first.

    A step sink is how a caller reads the run: ``sink(t, t_new, y, y_new,
    rows)`` is called once per accepted step [t, t_new] from y to y_new,
    with the step's dense-output rows, and may return the ``Termination``
    that ends the run there; when a floor event falls in the same step, the
    earlier ``t_est`` ends the run, and the floor wins a tie.  Events read
    only the current step, so a run keeps a step table only through a sink
    (``_DenseOutput.append``).  Without a sink, a run of RK45 (a lifespan
    run) builds a step's rows and calls ``_locate`` only when ``_dp5_far``
    cannot show from the step's stages that no floor is within reach; every
    floor time is the one a run that builds every step's rows finds.  A
    floor (``RunOptions.floors``) at or above its start raises ValueError.

    The controller is scipy's: the initial step of ``select_initial_step``, a
    step never below 10 ulp of t, growth by 0.9 err^(-1/(order+1)) within
    [0.2, 10], and no growth right after a rejection.  A trial step whose
    error norm is not below 1 (NaN included) is rejected.
    """
    _check_span(t0, t_end)
    method = _METHODS[run.method]
    attempt, dense_rows = method.kernels[dim]
    factors = method.factors
    # with no sink, only floors read a step's rows: a step whose floors the
    # method shows to be out of reach needs none
    far = method.far if sink is None else None
    rtol, atol = run.rel_tol, run.abs_tol
    exponent = -1.0 / (method.error_order + 1)
    comp_names = {0: "a", 2: "b"} if dim == 3 else {0: "a"}
    # b'' = lam a^(2 - 2 gamma) b^(-gamma) < 0 for lam < 0
    concave = dim == 3 and p.lam < 0.0
    floors = run.floors(y0)
    f = _rhs(p, dim)
    t, y, fy = t0, y0, f(y0)
    h_abs = _initial_step(f, y, fy, t_end - t0, method.error_order, rtol, atol)
    accepted = rejected = 0
    h_min, h_max = math.inf, -math.inf
    termination = None

    while t < t_end:
        if accepted >= run.max_steps:
            termination = Termination("step_failure",
                                      detail=f"max_steps={run.max_steps} exhausted")
            break
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        step_rejected = False
        while True:
            if not h_abs >= min_step:  # a NaN step size too
                termination = _diagnose_failure(t, y, y0, comp_names)
                break
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            y_new, f_new, err, stages = attempt(f, y, fy, h, rtol, atol)
            if err < 1.0:
                factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err**exponent)
                h_abs = h * (min(1.0, factor) if step_rejected else factor)
                break
            h_abs = h * max(_MIN_FACTOR, _SAFETY * err**exponent)
            step_rejected = True
            rejected += 1
        if termination is not None:
            break
        accepted += 1
        if h < h_min:
            h_min = h
        if h > h_max:
            h_max = h
        if far is None or not far(y, stages, h, floors):
            rows = dense_rows(f, y, y_new, stages, h)
            hit = _locate(t, t_new, y, rows, factors, floors, rtol)
            if sink is not None:
                termination = sink(t, t_new, y, y_new, rows)
            # a sink's record without a time ends the run at the step's end
            if hit is not None and (termination is None or termination.t_est is None
                                    or hit[0] <= termination.t_est):
                t_est, comp, width = hit
                termination = Termination("blowup", t_est=t_est, which=comp_names[comp],
                                          bracket_width=width)
        if concave and termination is None and y_new[3] < 0.0:
            # b is concave, so it reaches 0 by t_new + w
            w = y_new[2] / -y_new[3]
            if w <= rtol * max(1.0, t_new) and t_new + w <= t_end:
                termination = Termination("blowup", t_est=t_new + w, which="b",
                                          bracket_width=w)
        t, y, fy = t_new, y_new, f_new
        if termination is not None:
            break

    if termination is None:
        termination = Termination("reached_t_end")
    # a floor event ends the run at its crossing, and a concavity stop, whose
    # t_est lies past the last step, at that step
    t_stop = min(t, termination.t_est) if termination.kind == "blowup" else t
    stats = RunStats(accepted=accepted, rejected=rejected,
                     rhs_evals=2 + method.stage_evals * (accepted + rejected)
                     + method.dense_evals * accepted,
                     h_min=h_min if accepted else None, h_max=h_max if accepted else None)
    return termination, t_stop, y, stats


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
    bracketing on the dense output to within ``rel_tol * |t|``.  A 3D run with
    lam < 0 also ends as a blowup of b at its concavity stop (see ``_run``):
    the record brackets b's zero in [t_est - bracket_width, t_est], and the
    trajectory ends at the last accepted step, t_est - bracket_width, so no
    sample lies past it.  A step-size underflow while a component is
    collapsing is also reported as blowup; any other failure (including
    ``max_steps`` exhaustion) is a ``step_failure``.
    """
    dim, y0 = _vec_from_state(initial_state)
    t0 = initial_state.t
    if dense_times is not None:
        dense_times = [float(t) for t in dense_times]
        if any(t1 >= t2 for t1, t2 in zip(dense_times, dense_times[1:])):
            raise ValueError("dense_times must be strictly increasing")
        if dense_times and (dense_times[0] < t0 or dense_times[-1] > t_end):
            raise ValueError("dense_times must lie within [t0, t_end]")

    run = RunOptions(rel_tol, abs_tol, max_steps, eps_blow, method)
    dense = _DenseOutput(_METHODS[method].factors, t0, y0)
    termination, t_stop, _, stats = _run(p, dim, y0, t0, t_end, run, dense.append)

    if dense_times is not None:
        states = [initial_state if t == t0 else _state_from_vec(dim, t, dense(t))
                  for t in dense_times if t <= t_stop]
    else:
        # the accepted step points, then the collapse point on blowup
        states = [initial_state] + [_state_from_vec(dim, dense.ts[k], dense.state(k))
                                    for k in range(1, dense.steps + 1) if dense.ts[k] <= t_stop]
        if termination.kind == "blowup" and states[-1].t < t_stop:
            states.append(_state_from_vec(dim, t_stop, dense(t_stop)))

    return Trajectory(params=p, dim=dim, initial_state=initial_state,
                      states=states, termination=termination, t_span=(t0, t_stop),
                      _dense=dense if dense.steps else None, stats=stats)


def _diagnose_failure(t: float, y, y0, comp_names) -> Termination:
    """The termination of a run whose step size fell below 10 ulp of t at
    state y."""
    for comp, name in comp_names.items():
        value, velocity = y[comp], y[comp + 1]
        if value < _COLLAPSE_RATIO * y0[comp] and velocity < 0.0:
            # the width is value / |velocity|, the time left before zero at the
            # current speed: a scale, not a bound on the error of t_est (near a
            # collapse the speed diverges, and the error can be far larger)
            return Termination("blowup", t_est=t, which=name,
                               bracket_width=abs(value / velocity),
                               detail="step size underflow during collapse")
    return Termination("step_failure", t_est=t, detail="adaptive step size underflow")


# advance's run: tight enough that a shift's error stays far below the
# residual stencil's O(h^2) truncation
_ADVANCE_RUN = RunOptions(rel_tol=1e-13, abs_tol=1e-15, method="DOP853")


def advance(
    p: PhysParams,
    state: EmdenState3D | EmdenState2D,
    dt: float,
) -> EmdenState3D | EmdenState2D:
    """Propagate a snapshot by dt: one run of the adaptive loop (DOP853 at
    rel_tol 1e-13, abs_tol 1e-15).

    This is the time-shift engine for finite-difference residual checks.  The
    system has no velocity terms, so a backward shift is a forward one with
    a' and b' reversed.  A non-finite dt, or a run that does not reach the
    shifted time (a collapse, the ``MAX_STEPS`` budget, a step failure),
    raises ValueError.
    """
    if not math.isfinite(dt):
        raise ValueError(f"time shift dt must be finite, got {dt}")
    if dt == 0.0:
        return state
    dim, y = _vec_from_state(state)
    sign = math.copysign(1.0, dt)
    termination, t_stop, y_end, _ = _run(p, dim, _turn(y, sign), 0.0, abs(dt), _ADVANCE_RUN)
    if termination.kind != "reached_t_end":
        raise ValueError(f"time shift dt={dt} from t={state.t} stopped after |dt|={t_stop!r} "
                         f"in {termination.kind}: {termination.to_dict()}")
    return _state_from_vec(dim, state.t + dt, _turn(y_end, sign))


def _turn(y, sign: float) -> tuple:
    """y with the velocities (a', b') multiplied by ``sign``."""
    return tuple(v * sign if i % 2 else v for i, v in enumerate(y))
