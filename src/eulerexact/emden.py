"""Scale-factor dynamics.

The scale factors obey a coupled second-order system (an Emden-type system):

    a'' = xi^2 / a^3 + lam / (a^(2 gamma - 1) b^(gamma - 1))
    b'' =              lam / (a^(2 gamma - 2) b^gamma)

and in the planar case the single equation

    a'' = xi^2 / a^3 + lam / a^(2 gamma - 1).

Both conserve a first integral (see :func:`energy_3d` / :func:`energy_2d`;
the formulas are verified symbolically in the test suite).  Each
dimension's system is one entry of ``_FAMILIES``: its state, equations,
scale factors, concave factor and planar padding.  The right-hand side
``_rhs`` and the kernels of both pairs are generated from the entry and
compiled once per dimension and pair, at the first run that needs them.
Integration, the time shifts of :func:`advance` included, is done by one
step loop, ``_run``: an embedded Runge-Kutta pair (Dormand-Prince 5(4), or
DOP853) on plain Python floats, with scipy's tableaux (``_tableaux``) and
step-size controller.  A scale factor's collapse to a small positive floor
is located by root bracketing on each step's dense output, with a port of
scipy's ``brentq``; a run with lam < 0 whose family has a concave factor
(b, in 3D) also ends once that factor's zero is bracketed to ``rel_tol``,
by one stop rule whose bracket comes from its concavity or, in 3D, from its
closed form at gamma = 1 (``_isothermal_bracket``) or its energy for
1 < gamma < 2 (``_fall_bracket``).  Step sinks see each step once it is
settled and read its dense output, built on demand and evaluated by the
pair's generated evaluator; they never end a run, and only say which time
they still need.
The sampler (``_sampler``) is the only sink of :func:`integrate`,
:func:`stream_trajectory` and :meth:`Trajectory.state_at`.  The module runs
on the standard library; only ``_ieee``, the overflow fallback of the
right-hand side, imports numpy.
"""

from __future__ import annotations

import functools
import json
import math
import re
from collections import namedtuple
from operator import itemgetter
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple, Sequence

from ._tableaux import (DOP853_A, DOP853_D, DOP853_E3, DOP853_E5, DOP853_STAGES,
                        DOP853_STAGES_EXTENDED, RK45_A, RK45_B, RK45_E, RK45_P, RK45_P_BOUND)
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
    "stream_trajectory",
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


def _check_state(state) -> None:
    """Reject a state with a non-finite field or a scale factor (a, b) that
    is not > 0.  The message begins with the field's name."""
    for name, value in vars(state).items():
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

    __post_init__ = _check_state


@dataclass(frozen=True)
class EmdenState2D:
    """Snapshot (t, a, a') with a > 0."""

    t: float
    a: float
    a_dot: float

    __post_init__ = _check_state


# The Emden system of each dimension, written once: the step loop, the
# kernels, the floors, the records and the planar padding read its entry.
# - state: the state class, whose fields after t are the components;
# - names: the components' names in the generated source, and derivs: each
#   one's derivative, an expression of those names and of the family's
#   constants (``_CONSTANTS``, as ``_constants`` gives them);
# - scale_factors: the factors, which must stay > 0, as {component: name};
# - concave: the component of the factor that is concave for lam < 0
#   (b'' < 0), or None;
# - padding: the (b, b') that pad a state to the 3D one with the same first
#   integral and, at z = 0, the same field.
_Family = namedtuple("_Family", "state names derivs scale_factors concave padding")
_FAMILIES = {
    3: _Family(EmdenState3D, ("a", "ad", "b", "bd"),
               ("ad", "xi2 / a**3 + lam / (a**e1 * b**e2)", "bd", "lam / (a**e3 * b**g)"),
               {0: "a", 2: "b"}, 2, ()),
    2: _Family(EmdenState2D, ("a", "ad"), ("ad", "xi2 / a**3 + lam / a**e1"),
               {0: "a"}, None, (1.0, 0.0)),
}
# the entries by state size, for the floors of a run, which see its start only
_BY_SIZE = {len(family.names): family for family in _FAMILIES.values()}


def emden_rhs_3d(state: EmdenState3D, p: PhysParams) -> tuple[float, float, float, float]:
    """Right-hand side (a', a'', b', b'') of the 3D scale-factor system."""
    return _rhs(p, 3)(_components(state, 3, "emden_rhs_3d"))


def emden_rhs_2d(state: EmdenState2D, p: PhysParams) -> tuple[float, float]:
    """Right-hand side (a', a'') of the planar scale-factor equation."""
    return _rhs(p, 2)(_components(state, 2, "emden_rhs_2d"))


def _energy(p: PhysParams, y) -> float:
    """The first integral of the 3D state y = (a, a', b, b'), written once.  The b-kinetic term carries weight
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
        (value,) = terms(y)
    except ArithmeticError:
        (value,) = _ieee(terms, y)
    return value


def energy_3d(state: EmdenState3D, p: PhysParams) -> float:
    """Conserved first integral of the 3D system."""
    return _energy(p, _components(state, 3, "energy_3d"))


def energy_2d(state: EmdenState2D, p: PhysParams) -> float:
    """Conserved first integral of the planar equation: the 3D one at the
    padding b = 1, b' = 0, which leaves every bit of the planar value as is."""
    return _energy(p, _components(state, 2, "energy_2d") + _FAMILIES[2].padding)


@dataclass(frozen=True)
class Termination:
    """How an integration ended.

    kind is one of ``reached_t_end``, ``blowup`` or ``step_failure``.  For
    ``blowup``, ``which`` names the collapsing factor, and ``t_est`` and
    ``bracket_width`` depend on how the run saw the collapse:
    - a floor crossing located on a step's dense output: ``t_est`` is the
      crossing and ``bracket_width`` is ``rel_tol * |t_est|``, the root
      finder's tolerance (not a rigorous error bound);
    - the stop of b in a 3D run with lam < 0 (see ``_run``): ``t_est`` and
      ``t_est - bracket_width`` are the ends of a bracket of b's zero from
      the run's last state, rounded outward, and ``bracket_width`` is at
      most ``rel_tol`` max(1, t);
    - a step-size underflow during a collapse: ``t_est`` is where the run
      stopped and ``bracket_width`` the time scale value / |velocity| there.

    After the stop of b, b's zero of the exact solution through the run's
    last state lies in [t_est - bracket_width, t_est], of the floats.  That
    state differs from the exact solution from the start by the run's
    integration error, which the width does not cover.
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
    dense output anywhere inside the integrated span, by running the loop
    again.  ``stats`` counts the run's steps; a hand-built trajectory has
    none.
    """

    params: PhysParams
    dim: int
    initial_state: EmdenState3D | EmdenState2D
    states: list
    termination: Termination
    t_span: tuple[float, float]
    _sample_at: Callable[[float], tuple] | None = field(default=None, repr=False)
    stats: RunStats | None = None

    def __post_init__(self) -> None:
        ts = [st.t for st in self.states]
        if any(t1 >= t2 for t1, t2 in zip(ts, ts[1:])):
            raise ValueError("trajectory sample times must be strictly increasing")

    def state_at(self, t: float):
        """Dense-output state at time t within the integrated span.

        Each call is one more run of :func:`integrate`'s loop, from the
        initial state to the run's ``t_end`` with its options, whose sampler
        takes the one time t: the state that ``dense_times=[..., t, ...]``
        gives, bit for bit.  To sample many times, pass them to
        :func:`integrate` as ``dense_times``, which costs one run for all.
        """
        t0, t1 = self.t_span
        if not t0 <= t <= t1:
            raise ValueError(f"t={t} outside integrated span [{t0}, {t1}]")
        if t == t0:
            return self.initial_state
        if self._sample_at is None:
            raise ValueError("no dense output available (a hand-built trajectory)")
        return _state_from_vec(self.dim, t, self._sample_at(t))

    def energies(self) -> list[float]:
        return [energy_3d(_padded(st), self.params) for st in self.states]

    def jsonl_lines(self) -> list[str]:
        """One strict JSON record per state (``_recorder``), then the
        termination record: the lines :func:`stream_trajectory` writes."""
        record = _recorder(self.params, self.dim)
        lines = [record(st.t, _vec_from_state(st)[1]) for st in self.states]
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


def _recorder(p: PhysParams, dim: int):
    """``record(t, y)``: the JSONL record of the sample (t, y), y a tuple,
    with the first integral at the padded state, as ``strict_json`` writes
    the dict of the state's fields and ``energy``: one template, a float
    (numpy's included) written by ``float.__repr__``, any other number by
    ``json.dumps``.  A sample that is no state raises the state class's
    ValueError, and a non-finite energy ``strict_json``'s, which names it."""
    family = _FAMILIES[dim]
    keys = (*(f.name for f in fields(family.state)), "energy")
    template = "{" + ", ".join(f'"{key}": %s' for key in keys) + "}"
    isfinite, float_repr, padding = math.isfinite, float.__repr__, family.padding
    # every factor twice, so that a single factor's value also comes as a tuple
    factor_values = itemgetter(*family.scale_factors, *family.scale_factors)

    def record(t, y) -> str:
        values = (t, *y)
        if not (all(map(isfinite, values)) and min(factor_values(y)) > 0.0):
            family.state(*values)  # raises the state's ValueError
        energy = _energy(p, y + padding)
        values += (energy,)
        if not isfinite(energy):
            strict_json(dict(zip(keys, values)))
        try:
            return template % tuple(map(float_repr, values))
        except TypeError:
            # a caller's int
            return template % tuple(float_repr(v) if isinstance(v, float) else json.dumps(v)
                                    for v in values)

    return record


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
    return _FAMILIES[dim].state(t, *map(float, y))


def _vec_from_state(state: EmdenState3D | EmdenState2D) -> tuple[int, tuple]:
    for dim, family in _FAMILIES.items():
        if isinstance(state, family.state):
            return dim, tuple(vars(state).values())[1:]
    raise TypeError(f"unsupported state type: {type(state)!r}")


def _components(state, dim: int, what: str) -> tuple:
    """The components of ``state``, a state of the ``dim``-dimensional
    family; a state of another dimension raises ValueError."""
    got, y = _vec_from_state(state)
    if got != dim:
        raise ValueError(f"{what} requires a {dim}D state, got a {got}D one")
    return y


def _padded(state: EmdenState3D | EmdenState2D) -> EmdenState3D:
    """The 3D state with the same first integral and, at z = 0, the same field."""
    dim, y = _vec_from_state(state)
    return EmdenState3D(state.t, *y, *_FAMILIES[dim].padding)


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
        """(component, collapse floor) of each scale factor of a run from y0,
        a state's components: ``eps_blow``, or 1e-10 times the factor's
        value in y0 when it is unset.  A floor at or above that value would
        report a collapse at the start, so it raises ValueError."""
        floors = []
        for comp, name in _BY_SIZE[len(y0)].scale_factors.items():
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


# the constants of the equations of motion (``_Family.derivs``)
_CONSTANTS = "g, xi2, lam, e1, e2, e3"


def _constants(p: PhysParams) -> tuple:
    g = p.gamma
    return g, p.xi * p.xi, p.lam, 2.0 * g - 1.0, g - 1.0, 2.0 * g - 2.0


def _rhs(p: PhysParams, dim: int):
    """The equations of motion (``_FAMILIES[dim]``) as ``rhs(y)`` on a
    sequence of plain floats (a, a'[, b, b']), returning a tuple.

    Outside the domain (a or b not > 0) every component is NaN, so the
    controller rejects a trial step that leaves it.  Where a float power
    overflows or a divisor underflows to zero, Python raises; ``rhs`` is then
    evaluated again on numpy scalars, which give IEEE's inf or nan instead.
    """
    return _generated(dim, "RK45")["equations"](*_constants(p))[0]


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


def _source(dim: int, method: str) -> str:
    """The source of the right-hand side and of one pair's kernels for one
    family, from ``_FAMILIES[dim]`` and the pair's tableau:
    ``equations(constants)`` makes (rhs, kernels), ``kernels(rtol, atol)``
    (attempt, rows), ``dense(y, rows, x)`` is the pair's dense evaluator and,
    for RK45, ``far_test(floors)`` makes a run's far test (``_rk45_far``).

    ``attempt(y, k1, h)`` gives (y_new, f(y_new), error norm, the flat stages
    that ``rows(y, y_new, stages, h)`` turns into one dense-output row per
    component): h times scipy's ``K.T @ P`` row for RK45, and scipy's seven
    ``F`` rows for DOP853, whose three extra stages ``rows`` evaluates.
    ``dense`` gives the state at the fraction x of the step that starts at y
    and has those rows: each component y_c plus its row's polynomial by
    Horner's rule, v = (v + c_k) * w_k over the reversed coefficients from
    v = 0.0, with every factor w_k x for RK45 and x alternating with 1 - x
    for DOP853 (scipy's ``Dop853DenseOutput``), so every w_k lies in [0, 1]
    on the step.
    Stage j's state is ``{name}{j}``; ``rhs``'s expressions set its
    derivatives ``k{j}{name}`` in place, NaN or ``_ieee``'s values where
    ``rhs`` gives those.  An error term's scale max(|old|, |new|) is
    ``new if new > old else old`` (max's result, NaN included).

    RK45's sums are in the order of scipy's ``rk_step``, and its sum of
    squares starts at its first term; the autonomous system needs no stage
    times (C), and the second stage, with no weight in B, E and P, is left
    out of their sums.  DOP853's sums are those of a loop over the
    components: each starts at 0.0 and adds every stage in order, zero
    weights included.
    """
    family = _FAMILIES[dim]
    names, derivs, size = family.names, family.derivs, len(family.names)
    factors = [names[comp] for comp in family.scale_factors]
    word = re.compile(r"\b(%s)\b" % "|".join(names))

    def at(j, expr):
        """``expr`` in stage j's state."""
        return word.sub(rf"\g<1>{j}", expr)

    def terms(weights, name, stages):
        return " + ".join(f"k{j}{name} * {weights[j - 1]!r}" for j in stages)

    def total(weights, name):
        """0.0 plus each stage's weighted term, in stage order."""
        return f"0.0 + {terms(weights, name, range(1, len(weights) + 1))}"

    def ks(j):
        return ", ".join(f"k{j}{n}" for n in names)

    def stage(j, states):
        """Stage j from one state expression per component."""
        state = ", ".join(f"{n}{j}" for n in names)
        return [*(f"            {n}{j} = {s}" for n, s in zip(names, states)),
                f"            if {' or '.join(f'{n}{j} <= 0.0' for n in factors)}:",
                f"                {ks(j).replace(',', ' =')} = math.nan",
                "            else:",
                "                try:",
                *(f"                    k{j}{n} = {at(j, d)}" for n, d in zip(names, derivs)),
                "                except ArithmeticError:",
                f"                    {ks(j)} = _ieee(rhs, ({state}))"]

    lines = [f"def equations({_CONSTANTS}):",
             f"    nan = (math.nan,) * {size}",
             "    def rhs(y):",
             f"        {', '.join(names)} = y",
             f"        if {' or '.join(f'{n} <= 0.0' for n in factors)}:",
             "            return nan",
             "        try:",
             f"            return {', '.join(derivs)}",
             "        except ArithmeticError:",
             "            return _ieee(rhs, y)",
             "    def kernels(rtol, atol):",
             "        def attempt(y, k1, h):",
             f"            {', '.join(names)} = y",
             f"            {ks(1)} = k1"]
    if method == "RK45":
        used = [j for j, (b, e, p) in enumerate(zip(RK45_B + (0.0,), RK45_E, RK45_P), 1)
                if b or e or any(p)]
        flat = ", ".join(ks(j) for j in used)
        for j in range(2, 7):
            lines += stage(j, [f"{n} + ({terms(RK45_A[j - 1], n, range(1, j))}) * h"
                               for n in names])
        # stage 7 is f(y_new)
        lines += stage(7, [f"{n} + h * ({terms(RK45_B, n, used[:-1])})" for n in names])
        for n in names:
            lines += [f"            old, new = abs({n}), abs({n}7)",
                      f"            e{n} = (({terms(RK45_E, n, used)}) * h",
                      "                  / (atol + (new if new > old else old) * rtol))"]
        lines += [f"            return (({', '.join(f'{n}7' for n in names)}), ({ks(7)}),",
                  f"                    math.sqrt({' + '.join(f'e{n} * e{n}' for n in names)})"
                  f" / {size ** 0.5!r}, ({flat}))",
                  "        def rows(y, y_new, stages, h):",
                  f"            {flat} = stages",
                  "            return (" + ", ".join(
                      "(" + ", ".join(f"({terms([row[c] for row in RK45_P], n, used)}) * h"
                                      for c in range(4)) + ")" for n in names) + ")"]
        far = [f"def far_test({', '.join(f'floor_{n}' for n in factors)}):",
               "    def far(y, stages, h):"]
        for c in family.scale_factors:
            reach = " + ".join(f"abs(stages[{i * size + c}]) * {m!r}"
                               for i, m in enumerate(RK45_P_BOUND))
            far += [f"        y_c = y[{c}]",
                    f"        reach = h * ({reach})",
                    f"        if not y_c - floor_{names[c]} > 2.0 * reach + 1e-12 * abs(y_c):",
                    "            return False"]
        far += ["        return True", "    return far"]
    else:
        # stages 1 to 12 of the trial step, stage 13 f(y_new) (its state is
        # y_new, the row of weights B), and the dense output's stages 14 to 16
        trial, last = DOP853_STAGES + 1, DOP853_STAGES_EXTENDED
        flat = ", ".join(ks(j) for j in range(1, trial + 1))
        new_state = ", ".join(f"{n}{trial}" for n in names)
        for j in range(2, trial + 1):
            lines += stage(j, [f"{n} + ({total(DOP853_A[j - 1], n)}) * h" for n in names])
        for n in names:
            lines += [f"            old, new = abs({n}), abs({n}{trial})",
                      "            scale = atol + (new if new > old else old) * rtol",
                      f"            e5_{n} = ({total(DOP853_E5, n)}) / scale",
                      f"            e3_{n} = ({total(DOP853_E3, n)}) / scale"]
        lines += [f"            sq{o} = 0.0 + {' + '.join(f'e{o}_{n} * e{o}_{n}' for n in names)}"
                  for o in (5, 3)]
        lines += ["            if sq5 == 0.0 and sq3 == 0.0:",
                  "                err = 0.0",
                  "            else:",
                  f"                err = abs(h) * sq5 / math.sqrt((sq5 + 0.01 * sq3) * {size})",
                  f"            return ({new_state}), ({ks(trial)}), err, ({flat})",
                  "        def rows(y, y_new, stages, h):",
                  f"            {', '.join(names)} = y",
                  f"            {new_state} = y_new",
                  f"            {flat} = stages"]
        for j in range(trial + 1, last + 1):
            lines += stage(j, [f"{n} + ({total(DOP853_A[j - 1], n)}) * h" for n in names])
        lines += [f"            dy_{n} = {n}{trial} - {n}" for n in names]
        lines += ["            return (" + ", ".join(
            f"(dy_{n}, h * k1{n} - dy_{n}, 2.0 * dy_{n} - h * (k{trial}{n} + k1{n}), "
            + ", ".join(f"h * ({total(d, n)})" for d in DOP853_D) + ")" for n in names) + ")"]
        far = []
    # Horner's rule from 0.0 plus the last coefficient, over the pair's
    # factors of x: x for RK45, x alternating with u = 1 - x for DOP853
    count = len(RK45_P[0]) if method == "RK45" else 3 + len(DOP853_D)
    horner_factors = ["x"] * count if method == "RK45" else ["x", "u"] * (count // 2) + ["x"]

    def horner(n):
        expr = "0.0"
        for j, w in zip(range(count, 0, -1), horner_factors):
            expr = f"({expr} + c{j}{n}) * {w}"
        return f"{n} + {expr}"
    dense = ["def dense(y, rows, x):",
             f"    {', '.join(names)} = y",
             "    " + ", ".join("(" + ", ".join(f"c{j}{n}" for j in range(1, count + 1)) + ")"
                            for n in names) + " = rows",
             *(["    u = 1.0 - x"] if "u" in horner_factors else []),
             f"    return ({', '.join(horner(n) for n in names)})"]
    lines += ["        return attempt, rows", "    return rhs, kernels", *far, *dense]
    return "\n".join(lines) + "\n"


@functools.cache
def _generated(dim: int, method: str) -> dict:
    """The factories ``_source(dim, method)`` defines, compiled once per
    process at the first run that needs them; they read ``math`` and
    ``_ieee`` from this module."""
    namespace, size = {}, len(_FAMILIES[dim].names)
    exec(compile(_source(dim, method), f"<{method} kernels of state size {size}>", "exec"),
         globals(), namespace)
    return namespace


def _kernels(method: str, p: PhysParams, dim: int, rtol: float, atol: float):
    """A run's right-hand side and ``method``'s kernels (``_source``)."""
    rhs, kernels = _generated(dim, method)["equations"](*_constants(p))
    return (rhs, *kernels(rtol, atol))


def _rk45_far(dim: int, floors):
    """A run's test ``far(y, stages, h)`` of whether an accepted step's
    dense output provably stays clear of every floor, so that ``_locate``
    would find no floor event on it.  A component's output is
    y_c + h * sum_j k_j[c] * w_j(x) with each weight |w_j| <= M_j on the step
    (``RK45_P_BOUND``), so it moves at most reach_c = h * sum_j |k_j[c]| * M_j
    from y_c; a floor f is far when y_c - f > 2 reach_c + 1e-12 |y_c|, a
    margin that covers the rounding of the rows and of their evaluation.  A
    NaN reach is never far."""
    return _generated(dim, "RK45")["far_test"](*(floor for _, floor in floors))


def _dense(method: str, dim: int):
    """``method``'s dense evaluator ``dense(y, rows, x)`` for the family
    (``_source``)."""
    return _generated(dim, method)["dense"]


class _Method(NamedTuple):
    """An embedded pair: ``kernels(p, dim, rtol, atol)``, which makes a run's
    right-hand side, trial step ``attempt(y, k1, h)`` and dense-output rows
    ``rows(y, y_new, stages, h)``; ``dense(dim)``, its dense evaluator
    ``dense(y, rows, x)``; the order of its error estimate; its
    right-hand-side evaluations per attempt and per dense output; and
    ``far(dim, floors)``, which makes a run's test ``far(y, stages, h)``
    that an accepted step stays clear of the floors without its dense output
    (None: no such test)."""

    kernels: Callable
    dense: Callable
    error_order: int
    stage_evals: int
    dense_evals: int
    far: Callable | None


_METHODS = {
    "RK45": _Method(functools.partial(_kernels, "RK45"), functools.partial(_dense, "RK45"),
                    4, 6, 0, _rk45_far),
    "DOP853": _Method(functools.partial(_kernels, "DOP853"), functools.partial(_dense, "DOP853"),
                      7, DOP853_STAGES, DOP853_STAGES_EXTENDED - DOP853_STAGES - 1, None),
}


def _floor_clear(y: float, coeffs, floor: float) -> bool:
    """Whether the step's dense output of a component that starts at y stays
    above ``floor`` everywhere on the step.  With every factor of the
    evaluator's Horner's rule in [0, 1] (``_source``), its polynomial is at
    least the lower bound b of b = min(0, b + c_k) over the reversed
    coefficients; the margin covers the rounding of evaluating it."""
    bound, size = 0.0, abs(y)
    for c in reversed(coeffs):
        bound += c
        if bound > 0.0:
            bound = 0.0
        size += abs(c)
    return y + bound - floor > 1e-12 * size


def _dense_state(t_lo: float, t_hi: float, y, rows, dense, t: float) -> tuple:
    """The state at time t on the step [t_lo, t_hi] that starts at y and has
    the dense-output rows ``rows``: the pair's evaluator ``dense`` at the
    step's fraction x = (t - t_lo) / (t_hi - t_lo)."""
    return dense(y, rows, (t - t_lo) / (t_hi - t_lo))


def _once(dense_rows, y, y_new, stages, h):
    """The dense-output rows of one step as a callable that builds them,
    ``dense_rows(y, y_new, stages, h)``, at its first call only."""
    built = None

    def rows():
        nonlocal built
        if built is None:
            built = dense_rows(y, y_new, stages, h)
        return built
    return rows


# the smallest rtol brentq accepts
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


def _locate(t_lo: float, t_hi: float, y, rows, dense, floors, rel_tol):
    """Locate the earliest floor event in the step [t_lo, t_hi], which starts
    at state y and whose dense output has the coefficient rows ``rows`` and
    the pair's evaluator ``dense``, read at the floor's component.

    Returns (t_est, component_index, bracket_width) or None.  A floor event
    is a component of ``floors`` falling to its floor; unless the step's
    polynomial provably stays above the floor (``_floor_clear`` on its
    coefficients), the step is scanned at 9 evenly spaced samples so a dip
    below the floor inside the step is not missed.  An RK45 run calls it only
    for a step that its far test (``_rk45_far``) could not clear.
    """
    samples = None
    best = None
    for comp, floor in floors:
        if _floor_clear(y[comp], rows[comp], floor):
            continue
        if samples is None:
            # np.linspace(t_lo, t_hi, 9)
            step = (t_hi - t_lo) / 8
            samples = [t_lo + i * step for i in range(8)] + [t_hi]
        i = next((i for i, t in enumerate(samples)
                  if _dense_state(t_lo, t_hi, y, rows, dense, t)[comp] <= floor), None)
        if i is None:
            continue
        if i == 0:
            # the step start is at or below the floor only by rounding: a run
            # starts above its floors and this start ended a step whose scan
            # stayed above them; treat the start as the estimate
            t_est, width = t_lo, 0.0
        else:
            t_est = _brentq(lambda q: _dense_state(t_lo, t_hi, y, rows, dense, q)[comp] - floor,
                            samples[i - 1], samples[i], 1e-300, rel_tol)
            width = rel_tol * abs(t_est)
        if best is None or t_est < best[0]:
            best = (t_est, comp, width)
    return best


def _sampler(dense, t0: float, y0, times: list[float] | None, emit, rel_tol: float):
    """The samples of a run from (t0, y0), as a step sink: ``emit(t, y)``
    gets each one in time order as soon as its step is settled, and the
    initial state at once, when it is a sample.

    With ``times`` (strictly increasing, in [t0, t_end]) a sample is the
    state at each time: a time equal to t0 is the initial state, and any
    other one in (t, t_stop] of the step [t, t_new] is evaluated by the
    step's dense output, through the pair's evaluator ``dense`` (a boundary
    belongs to the step it ends, whose polynomial is taken at x = 1).
    Without ``times`` the samples are the initial state and each step's
    (t_new, y_new) when its t_stop is t_new, or its collapse point (t_stop,
    state) when a floor event ends the run inside the step.  A collapse
    point or a sample in a floor event's step with a scale factor not > 0 is
    no state: the run's ``rel_tol`` is too loose for its dense output to
    hold the crossing, and the sink raises a ValueError that names
    ``rel_tol``, its value and the factor.
    The sink asks for a step's rows (``rows()``, which ``_run`` builds at
    most once per step) only on a step that holds a requested time or a
    collapse point (whose rows ``_locate`` has built).

    The sink returns the earliest time it still needs settled: the next
    requested time it has not sampled, which the stop of b in ``_run``
    does not cut off when it proves the solution gets there.  It returns
    None once every time is sampled, and always without ``times``, so a run
    that samples its steps stops where a run without a sink does.
    """
    factors = _BY_SIZE[len(y0)].scale_factors
    todo = iter(times or ())
    if times is None or times[:1] == [t0]:
        emit(t0, y0)
        next(todo, None)
    upcoming = next(todo, None)

    def collapsing(t_stop, time, point):
        """``point``, the dense output at ``time`` in the step whose floor
        crossing is at t_stop, once its scale factors are > 0."""
        for comp, name in factors.items():
            if not point[comp] > 0.0:
                raise ValueError(
                    f"rel_tol={rel_tol!r} is too loose to locate the collapse: in the step of "
                    f"the floor crossing at t={t_stop!r}, the dense output at t={time!r} "
                    f"gives {name}={point[comp]!r}, not > 0; use a smaller rel_tol")
        return point

    def sink(t, t_new, y, y_new, rows, t_stop):
        nonlocal upcoming
        if times is None:
            if t_stop == t_new:
                emit(t_new, y_new)
            elif t < t_stop:
                emit(t_stop, collapsing(t_stop, t_stop,
                                        _dense_state(t, t_new, y, rows(), dense, t_stop)))
            return None
        while upcoming is not None and upcoming <= t_stop:
            point = _dense_state(t, t_new, y, rows(), dense, upcoming)
            emit(upcoming, point if t_stop == t_new else collapsing(t_stop, upcoming, point))
            upcoming = next(todo, None)
        return upcoming

    return sink


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


# a run's bracket source (``_isothermal_bracket``, ``_fall_bracket``) is
# tried once w = b / |b'| is at most this share of max(1, t), and again each
# time w has halved since
_BRACKET_START = 1e-3
# the rounding margin of each end of the bracket, relative to F
_BRACKET_MARGIN = 1e-13


def _fall_spread(k: float, xi2: float, g: float, y) -> float:
    """s = 2 w (|a'| + D(a / 2)) for the 3D state y = (a, a', b, b') with
    b' < 0, lam = -k < 0 and gamma < 2: a stays within [a - s, a + s] until
    b's zero when a - s >= a / 2 (the argument is ``_fall_bracket``'s).  An
    arithmetic error (a power out of float range) propagates."""
    a, ad, b, bd = y
    speed = -bd
    w = b / speed
    x = 0.5 * a
    fall = b ** (2.0 - g) / ((2.0 - g) * speed)
    return 2.0 * w * (abs(ad) + xi2 * w / x**3 + k * x ** (1.0 - 2.0 * g) * fall)


def _fall_bracket(k: float, xi2: float, g: float, floor_a: float, floor_b: float,
                  y) -> tuple[float, float] | None:
    """Bounds (lo, hi) on the time from the 3D state y = (a, a', b, b') to
    b's zero of the exact solution through it, and to b's crossing of its
    floor ``floor_b`` (both lie in [lo, hi]), for lam = -k < 0 and
    1 < gamma < 2, with b' < 0; None where the argument below gives none or
    a may reach its floor ``floor_a`` first.

    Write w = b / |b'| and p = gamma - 1.  Then b'' = -K b^(-gamma) with
    K = k a^(2 - 2 gamma), so along the fall d(b'^2)/db = -2 K b^(-gamma).
    If K stays in [K_lo, K_hi] until b's zero, then at each position x < b,
    b'(x)^2 lies between b'^2 + c (x^(-p) - b^(-p)) at c = c_lo and at
    c = c_hi, with c = 2 K / p.  The time left, the integral of dx / |b'(x)|
    over (0, b), then lies in [w F(r_hi), w F(r_lo)] (x = b u), where
    r = c b^(-p) / b'^2 and F(r) = int_0^1 du / sqrt(1 - r + r u^(-p)), a
    decreasing function of r.

    The range of K.  b'' < 0, so until b's zero b only falls, |b'| only
    grows, and the time left is at most w.  Hence the integral of
    b^(1 - gamma) over the fall is at most int_0^b x^(1 - gamma) dx / |b'|
    = B = b^(2 - gamma) / ((2 - gamma) |b'|), finite as gamma < 2.  While
    a >= x, |a''| <= xi^2 / x^3 + k x^(1 - 2 gamma) b^(1 - gamma), so the
    integral of |a''| over the fall is at most
    D(x) = xi^2 w / x^3 + k x^(1 - 2 gamma) B.  Let
    s = 2 w (|a'| + D(a / 2)) (``_fall_spread``).  If a - s >= a / 2, then
    as long as a stays above a / 2 it moves by at most s / 2 before b's
    zero, so by continuity it stays within [a - s, a + s] all the way, and
    K_lo = k (a + s)^(2 - 2 gamma), K_hi = k (a - s)^(2 - 2 gamma).
    Otherwise (a falls too, or bounces on the xi^2 barrier) there is no
    bracket.

    The floors.  A run ends at its first floor crossing.  a stays at or
    above a - s, so where a - s > ``floor_a`` a does not reach its floor
    before b's zero; otherwise there is no bracket.  |b'| only grows, so b
    takes at most ``floor_b`` / |b'| to fall from its floor to 0: lo is
    lowered by that, though not below 0 (b is above its floor in y), and
    [lo, hi] holds b's floor crossing as well.

    F by its series.  With q = (1 - r) / r, 1 - r + r u^(-p) is
    r u^(-p) (1 + q u^p), so F(r) = r^(-1/2) sum_k C(-1/2, k) q^k
    / (1 + p (k + 1/2)), summed only for |q| <= 1/2 (else None).  Each
    |C(-1/2, k)| <= 1, so the sum from term n on is at most
    |q|^n / ((1 - |q|) (1 + p (n + 1/2))); the sum stops once that tail is
    below 1e-17, and each end is widened outward by the tail and by a
    rounding margin of 1e-13 F, far above the rounding of r and of the sum.
    An arithmetic error (a power out of float range) gives None.
    """
    a, ad, b, bd = y
    p = g - 1.0

    def fraction(r) -> tuple[float, float] | None:
        """(lower, upper) bounds on F(r)."""
        q = (1.0 - r) / r
        size = abs(q)
        if not size <= 0.5:
            return None
        total, coeff, n = 0.0, 1.0, 0
        while True:
            total += coeff / (1.0 + p * (n + 0.5))
            coeff *= q * (-0.5 - n) / (n + 1)
            n += 1
            tail = size ** n / ((1.0 - size) * (1.0 + p * (n + 0.5)))
            if tail <= 1e-17:
                break
        scale = r ** -0.5
        spread = scale * (tail + _BRACKET_MARGIN * total)
        return scale * total - spread, scale * total + spread

    try:
        s = _fall_spread(k, xi2, g, y)
        if not (a - s >= 0.5 * a and a - s > floor_a):
            return None
        speed = -bd
        # r = c b^(-p) / b'^2 at c = 2 K / p, K = k (a -+ s)^(2 - 2 gamma)
        r_of = 2.0 * k / p * b ** -p / (speed * speed)
        slow, fast = fraction(r_of * (a + s) ** (-2.0 * p)), fraction(r_of * (a - s) ** (-2.0 * p))
    except ArithmeticError:
        return None
    if slow is None or fast is None:
        return None
    w = b / speed
    return max(0.0, w * fast[0] - floor_b / speed), w * slow[1]


# above this w0 = x1^2 / (2k), e^w0 is near float overflow: the isothermal
# closed form gives no time (the table runs such a cell, and the stop of b
# takes no bracket from it)
_MAX_EXP_ARG = 700.0


def _isothermal_zero(x0: float, x1: float, k: float, floor: float = 0.0) -> float | None:
    """Time for x'' = -k / x (k > 0) to reach 0 from x = x0, x' = x1, or,
    given a ``floor`` in (0, x0), to fall to that floor; None when e^w0 is
    out of reach (see ``_MAX_EXP_ARG``) or the time overflows.

    The first integral x'^2 / 2 + k ln x puts the top of the orbit at
    x_max = x0 e^w0 with w0 = x1^2 / (2k); below it x' = -sqrt(2k ln(x_max / x))
    on the way down, so from any x the fall takes C erfc(sqrt(ln(x_max / x)))
    with C = x_max sqrt(pi / (2k)).  A rising start first climbs to x_max in
    C erf(sqrt(w0)).  The floor lies C erfc(sqrt(w0 + ln(x0 / floor))) before
    the zero.  ``_isothermal_margin`` bounds the rounding of either time.
    """
    w0 = x1 * x1 / (2.0 * k)
    if not w0 <= _MAX_EXP_ARG:
        return None
    root = math.sqrt(w0)
    c = x0 * math.exp(w0) * math.sqrt(math.pi / (2.0 * k))
    tau = c * (math.erfc(root) if x1 < 0.0 else 1.0 + math.erf(root))
    if floor > 0.0:
        tau -= c * math.erfc(math.sqrt(w0 + math.log(x0 / floor)))
    return tau if math.isfinite(tau) else None


def _isothermal_margin(x1: float, k: float) -> float:
    """A bound on the rounding error of ``_isothermal_zero`` from (x0, x1),
    to the zero or to any floor, relative to the time to the zero:
    1e-15 (w0 + 2) with w0 = x1^2 / (2k).  e^w0 and erfc(sqrt(w0)) turn
    the rounding of w0 and of its root into relative errors of order
    w0 ulp: up to 3e-16 (w0 + 2) against 40-digit mpmath for w0 in
    [0, 700], so a flat margin that holds at small w0 is too thin near 700."""
    return 1e-15 * (x1 * x1 / (2.0 * k) + 2.0)


def _isothermal_bracket(k: float, xi2: float, floor_a: float, floor_b: float,
                        y) -> tuple[float, float] | None:
    """Bounds (lo, hi) on the time from the 3D state y = (a, a', b, b') to
    b's zero of the exact solution through it, and to b's crossing of its
    floor ``floor_b`` (both lie in [lo, hi]), for gamma = 1 and lam = -k < 0,
    with b' < 0; None where a closed form is out of reach or a may reach its
    floor ``floor_a`` first.

    At gamma = 1 the system decouples: b'' = -k / b and
    a'' = xi^2 / a^3 - k / a.  So b's zero is ``_isothermal_zero`` of
    (b, b'), and its floor crossing, which comes first, is that of (b, b')
    at ``floor_b``: hi is the zero and lo the crossing (not below 0), each
    widened outward by ``_isothermal_margin`` times the zero.

    a keeps its own first integral E = a'^2 / 2 + V(a),
    V(a) = xi^2 / (2 a^2) + k ln a, so it stays in the interval around
    xi / sqrt(k) where V <= E.  For xi != 0, V falls on (0, xi / sqrt(k)),
    so a floor below xi / sqrt(k) with V(floor) > E (by more than the
    rounding of either) lies below that interval, and a never reaches it;
    otherwise there is no bracket.  For xi = 0, a obeys b's law, and its
    floor crossing, less its margin, must lie past hi.  An arithmetic error
    gives None.
    """
    a, ad, b, bd = y
    zero = _isothermal_zero(b, bd, k)
    cross = _isothermal_zero(b, bd, k, floor_b)
    if zero is None or cross is None:
        return None
    spread = _isothermal_margin(bd, k) * zero
    hi = zero + spread
    if xi2:
        try:
            energy = (0.5 * ad * ad, 0.5 * xi2 / (a * a), k * math.log(a))
            barrier = (0.5 * xi2 / (floor_a * floor_a), k * math.log(floor_a))
        except (ArithmeticError, ValueError):
            return None
        rounding = 1e-12 * sum(map(abs, energy + barrier))
        if not (k * floor_a * floor_a < xi2 and sum(barrier) - sum(energy) > rounding):
            return None
    else:
        a_zero = _isothermal_zero(a, ad, k)
        a_cross = _isothermal_zero(a, ad, k, floor_a)
        if (a_zero is None or a_cross is None
                or not a_cross - _isothermal_margin(ad, k) * a_zero > hi):
            return None
    return max(0.0, cross - spread), hi


def _run(p: PhysParams, dim: int, y0: tuple, t0: float, t_end: float,
         run: RunOptions, *sinks: Callable):
    """The adaptive step loop: step from (t0, y0) towards ``t_end``, and end
    there, at the first floor event, at the stop of b, after ``max_steps``
    steps, or on a step failure.  Returns (termination, t_stop, the last
    accepted state, run statistics); t_stop, where the run stopped, is its
    last step's t_stop, or t0.

    The stop of b holds in every run with lam < 0 of a family with a
    concave factor (``_FAMILIES``; b in 3D).  After an accepted step to
    (t_new, y_new) with b' < 0 and no floor event, the run takes a bracket
    (lo, hi) of b's zero of the exact solution through y_new, as a time
    after t_new, with w = b / |b'|:
    - (0, w) where w <= ``rel_tol`` max(1, t_new): b'' < 0, so b is
      concave and reaches 0 by t_new + w;
    - otherwise, once w <= 1e-3 max(1, t_new) and then only once w has
      halved since the last try, the run's bracket source, which also holds
      b's floor crossing and gives none where a may reach its floor first:
      ``_isothermal_bracket`` (b's closed form) at gamma == 1.0,
      ``_fall_bracket`` (b's energy) for 1 < gamma < 2 and not
      ``is_isothermal``, and none for a near-isothermal gamma != 1 or
      gamma >= 2.
    Its ends are rounded outward, t_lo = t_new + lo down (t_new itself for
    lo = 0, which is exact) and t_est = t_new + hi up, and its width
    t_est - t_lo up.  The run ends as a ``blowup`` of b with that ``t_est``
    and ``bracket_width`` when the width is at most ``rel_tol``
    max(1, t_new), t_est <= ``t_end``, and no sink still needs a time
    before t_lo.  So the record's floats hold b's zero
    through the last state, and a floor event the stop skips lies in its
    bracket too.  The rule reads only (t_new, y_new), so far steps stay
    skipped.  lam >= 0 and planar runs never take it.

    Each of ``sinks`` gets ``sink(t, t_new, y, y_new, rows, t_stop)`` for
    every accepted step [t, t_new] from y to y_new, after its floor search:
    t_stop is the floor crossing ``_locate`` found in the step, which ends
    the run there, or else t_new (no other ending stops inside a step), so
    a sink sees a settled step.  It returns the earliest time it still
    needs settled, or None.  The run keeps the earliest of these on every
    step, and only the stop of b reads it: it waits while a need lies
    before its bracket.  What a sink returns never ends the run.
    ``rows()`` gives the step's dense-output rows, built at its first call
    (``_once``) and shared with ``_locate``, so no step's rows are built
    twice and a step whose rows nothing asks for builds none.
    Events read only the current step.  RK45 calls ``_locate`` only where
    its far test cannot clear the step's floors; every floor time is the one
    a run that scans every step finds.  A floor (``RunOptions.floors``) at
    or above its start raises ValueError.

    The run makes its functions once, before the first step: the method's
    right-hand side, trial step and dense rows for the family and the
    tolerances, its dense evaluator, and RK45's far test for its floors
    (``_Method``).  The controller is scipy's: the initial step of ``select_initial_step``, a
    step never below 10 ulp of t, growth by 0.9 err^(-1/(order+1)) within
    [0.2, 10], and no growth right after a rejection.  A trial step whose
    error norm is not below 1 (NaN included) is rejected.
    """
    _check_span(t0, t_end)
    method = _METHODS[run.method]
    rtol, atol, max_steps = run.rel_tol, run.abs_tol, run.max_steps
    floors = run.floors(y0)
    f, attempt, dense_rows = method.kernels(p, dim, rtol, atol)
    dense = method.dense(dim)
    # a step whose floors the method shows to be out of reach has no floor
    # event, and without a sink needs no rows
    far = method.far(dim, floors) if method.far is not None else None
    exponent = -1.0 / (method.error_order + 1)
    comp_names = _FAMILIES[dim].scale_factors
    # b'' = lam a^(2 - 2 gamma) b^(-gamma) < 0 for lam < 0: the concave factor,
    # at component cb, with its velocity at cv
    cb = _FAMILIES[dim].concave
    concave = cb is not None and p.lam < 0.0
    cv = cb + 1 if concave else None
    nextafter, inf = math.nextafter, math.inf
    # the run's bracket source: bounds on b's zero from a state, its
    # constants bound (the floors of a and b last), or None out of its reach;
    # and the w at which it is next tried
    bracket = None
    if dim == 3 and p.lam < 0.0:
        (_, floor_a), (_, floor_b) = floors
        if p.gamma == 1.0:
            bracket = functools.partial(_isothermal_bracket, -p.lam, p.xi * p.xi,
                                        floor_a, floor_b)
        elif p.gamma < 2.0 and not p.is_isothermal:
            bracket = functools.partial(_fall_bracket, -p.lam, p.xi * p.xi, p.gamma,
                                        floor_a, floor_b)
    w_next = inf
    t, y, fy = t0, y0, f(y0)
    h_abs = _initial_step(f, y, fy, t_end - t0, method.error_order, rtol, atol)
    accepted = rejected = 0
    h_min, h_max = math.inf, -math.inf
    termination, t_stop = None, t0

    # the builtins min and max are written as comparisons in their argument
    # order, which keeps their results, NaN included: min(u, v) is
    # v if v < u else u, and max(u, v) is v if v > u else u
    while t < t_end:
        if accepted >= max_steps:
            termination = Termination("step_failure",
                                      detail=f"max_steps={max_steps} exhausted")
            break
        min_step = 10.0 * (nextafter(t, inf) - t)
        if min_step > h_abs:
            h_abs = min_step
        step_rejected = False
        while True:
            if not h_abs >= min_step:  # a NaN step size too
                termination = _diagnose_failure(t, y, y0, comp_names)
                break
            t_new = t + h_abs
            if t_end < t_new:
                t_new = t_end
            h = t_new - t
            y_new, f_new, err, stages = attempt(y, fy, h)
            if err < 1.0:
                factor = _MAX_FACTOR if err == 0.0 else _SAFETY * err**exponent
                if not factor < _MAX_FACTOR:
                    factor = _MAX_FACTOR
                if step_rejected and not factor < 1.0:
                    factor = 1.0
                h_abs = h * factor
                break
            factor = _SAFETY * err**exponent
            h_abs = h * (factor if factor > _MIN_FACTOR else _MIN_FACTOR)
            step_rejected = True
            rejected += 1
        if termination is not None:
            break
        accepted += 1
        if h < h_min:
            h_min = h
        if h > h_max:
            h_max = h
        if sinks:
            rows = _once(dense_rows, y, y_new, stages, h)
        t_stop = t_new
        if far is None or not far(y, stages, h):
            hit = _locate(t, t_new, y, rows() if sinks else dense_rows(y, y_new, stages, h),
                          dense, floors, rtol)
            if hit is not None:
                t_stop, comp, width = hit
                termination = Termination("blowup", t_est=t_stop, which=comp_names[comp],
                                          bracket_width=width)
        # the earliest time a sink still needs, or None
        need = None
        for sink in sinks:
            asked = sink(t, t_new, y, y_new, rows, t_stop)
            if asked is not None and (need is None or asked < need):
                need = asked
        if concave and termination is None and y_new[cv] < 0.0:
            # b is concave, so its zero lies in (t_new, t_new + w]
            w = y_new[cb] / -y_new[cv]
            limit = rtol * max(1.0, t_new)
            ends = None
            if w <= limit:
                ends = 0.0, w
            elif bracket is not None and w <= w_next and w <= _BRACKET_START * max(1.0, t_new):
                w_next = 0.5 * w
                ends = bracket(y_new)
            if ends is not None:
                # the record's floats hold t_new + lo and t_new + hi of the
                # reals (t_new + 0 is exact, so it is not rounded)
                lo, hi = ends
                t_lo = nextafter(t_new + lo, -inf) if lo else t_new
                t_hi = nextafter(t_new + hi, inf)
                width = nextafter(t_hi - t_lo, inf)
                if width <= limit and t_hi <= t_end and (need is None or need >= t_lo):
                    termination = Termination("blowup", t_est=t_hi, which=comp_names[cb],
                                              bracket_width=width)
        t, y, fy = t_new, y_new, f_new
        if termination is not None:
            break

    if termination is None:
        termination = Termination("reached_t_end")
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
    rel_tol: float = RunOptions.rel_tol,
    abs_tol: float = RunOptions.abs_tol,
    max_steps: int = RunOptions.max_steps,
    dense_times: Sequence[float] | None = None,
    eps_blow: float | None = RunOptions.eps_blow,
    method: str = RunOptions.method,
) -> Trajectory:
    """Integrate the scale-factor system from ``initial_state`` to ``t_end``.

    Terminates early with a ``blowup`` record when a scale factor crosses the
    collapse floor (``eps_blow`` absolute, default ``1e-10`` times the
    component's initial value); the crossing time is located by root
    bracketing on the dense output to within ``rel_tol * |t|``.  A 3D run with
    lam < 0 also ends as a blowup of b at the stop of b (see ``_run``): the
    record brackets b's zero through the last state in
    [t_est - bracket_width, t_est], and the trajectory ends at the last
    accepted step, before t_est, so no sample lies past it.  At gamma = 1
    the bracket is the table's closed form (``classify_3d``) applied to the
    last state, so ``t_est`` agrees with the table's ``T`` within the run's
    state error.  The stop waits for a requested time that lies before its
    bracket; a requested time inside the bracket is not sampled.
    A collapse point or sample that is no state (a scale factor not > 0,
    from a ``rel_tol`` too loose for the crossing) raises ValueError.  A
    step-size underflow while a component is
    collapsing is also reported as blowup; any other failure (including
    ``max_steps`` exhaustion) is a ``step_failure``.

    ``states`` holds the samples at ``dense_times`` up to where the run
    stopped or, without them, the initial state, every accepted step point
    and, after a floor event, the collapse point: the run's only sink is the
    sampler (``_sampler``), which builds a step's dense rows only where it
    reads them.  The trajectory keeps no step table: its
    :meth:`~Trajectory.state_at` runs the loop again for each time.
    """
    dim, y0 = _vec_from_state(initial_state)
    t0 = initial_state.t
    times = _sample_times(dense_times, t0, t_end)
    run = RunOptions(rel_tol=rel_tol, abs_tol=abs_tol, max_steps=max_steps, eps_blow=eps_blow,
                     method=method)
    states = []

    def keep(t, y):
        states.append(initial_state if t == t0 else _state_from_vec(dim, t, y))

    def sample_at(t: float) -> tuple:
        """The components at t in (t0, t_stop]: the same run, sampled at t alone."""
        samples = []
        _sampled_run(p, dim, y0, t0, t_end, [t], run, lambda _, y: samples.append(y))
        (y,) = samples
        return y

    termination, t_stop, stats = _sampled_run(p, dim, y0, t0, t_end, times, run, keep)
    return Trajectory(params=p, dim=dim, initial_state=initial_state,
                      states=states, termination=termination, t_span=(t0, t_stop),
                      _sample_at=sample_at, stats=stats)


def stream_trajectory(p: PhysParams, initial_state: EmdenState3D | EmdenState2D,
                      t_end: float, write: Callable[[str], object], *,
                      dense_times: Sequence[float] | None = None,
                      **run_options) -> tuple[Termination, int]:
    """The run of :func:`integrate` with the same arguments, written as it
    goes: ``write`` gets each line of its ``Trajectory.write_jsonl`` file,
    newline included, as soon as the step that holds its sample is settled
    (the initial state's before the first step), and the run makes no state
    objects.  Returns the termination and the number of samples written.

    A sample that :func:`integrate` could not return or ``write_jsonl``
    could not write raises the same ValueError, after the samples before it
    have been written; so does any other error the run raises mid-run.
    """
    dim, y0 = _vec_from_state(initial_state)
    t0 = initial_state.t
    times = _sample_times(dense_times, t0, t_end)
    record = _recorder(p, dim)
    samples = 0

    def emit(t, y):
        nonlocal samples
        write(record(t, y) + "\n")
        samples += 1

    termination, _, _ = _sampled_run(p, dim, y0, t0, t_end, times, RunOptions(**run_options),
                                     emit)
    write(strict_json({"termination": termination.to_dict()}) + "\n")
    return termination, samples


def _sample_times(dense_times, t0: float, t_end: float) -> list[float] | None:
    """``dense_times`` as a list of floats, checked to be strictly increasing
    and within [t0, t_end]: the first check of :func:`integrate`'s run."""
    if dense_times is None:
        return None
    times = [float(t) for t in dense_times]
    if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
        raise ValueError("dense_times must be strictly increasing")
    if times and (times[0] < t0 or times[-1] > t_end):
        raise ValueError("dense_times must lie within [t0, t_end]")
    return times


def _sampled_run(p: PhysParams, dim: int, y0: tuple, t0: float, t_end: float,
                 times, run: RunOptions, emit):
    """The run of :func:`integrate` with its checked ``times`` and options:
    ``_run``'s own checks, then the run with one sink, a ``_sampler`` that
    passes the samples to ``emit``.  Returns (termination, t_stop, stats)."""
    _check_span(t0, t_end)
    run.floors(y0)
    sample = _sampler(_METHODS[run.method].dense(dim), t0, y0, times, emit, run.rel_tol)
    termination, t_stop, _, stats = _run(p, dim, y0, t0, t_end, run, sample)
    return termination, t_stop, stats


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
