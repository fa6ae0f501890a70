"""Exact solution fields and derived quantities.

The 3D family transports the shape function along the similarity variable:

    rho = f(s) / (a^2 b)
    u1  = (a'/a) x - (xi/a^2) y
    u2  = (xi/a^2) x + (a'/a) y
    u3  = (b'/b) z

with the planar analogue dropping u3 and using eta.  Because the velocity is
linear in space its Laplacian vanishes identically, so the same fields solve
the viscous momentum equation for any viscosity; the curl is the uniform
vector (0, 0, 2 xi / a^2).  These are the package's only fields: the
formulas are written once, in ``_exact``, which both classes evaluate.  A
field of another kind reaches the residual checks of :mod:`eulerexact.verify`
as a custom source, any object with ``sample(t, x, y, z)`` and ``cutoff_s``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .emden import EmdenState2D, EmdenState3D, _components, _padded
from .profiles import DensityProfile, PhysParams, similarity_s

__all__ = [
    "FieldSample",
    "Field3D",
    "Field2D",
]


def _exact(params: PhysParams, profile: DensityProfile, x, y, z,
           a: float, a_dot: float, b: float, b_dot: float) -> dict[str, np.ndarray]:
    """Density, velocity, similarity variable and pressure K rho^gamma of the
    exact family at one snapshot.

    The one place the field formulas are written.  Coordinates are
    broadcastable arrays, and each output keeps the broadcast shape of the
    coordinates it depends on (``u3`` depends on ``z`` alone), so a scalar
    coordinate is never expanded.
    """
    stretch, swirl, b_stretch = a_dot / a, params.xi / (a * a), b_dot / b
    x, y, z = (np.asarray(c, dtype=float) for c in (x, y, z))
    s = similarity_s(x, y, z, a, b)
    rho = profile.value_many(s) / (a * a * b)
    # + 0.0 turns a velocity of -0.0 (u3 at z = 0 while b shrinks, say) into
    # the 0.0 that the field files have always held
    return {
        "rho": rho,
        "u1": stretch * x - swirl * y + 0.0,
        "u2": swirl * x + stretch * y + 0.0,
        "u3": b_stretch * z + 0.0,
        "s": s,
        "p": params.K * np.power(rho, params.gamma),  # np.power: see value_many
    }


def _sample(cls, values):
    """``cls`` of the values, each a Python float where it is 0-d."""
    return cls(*(float(v) if np.ndim(v) == 0 else v for v in values))


@dataclass(frozen=True)
class FieldSample:
    """Primitive variables at one space-time point (or arrays over many); a
    planar sample has ``u3 = 0.0`` and its similarity variable in ``s``."""

    rho: float
    u1: float
    u2: float
    u3: float
    s: float
    pressure: float

    @property
    def eta(self) -> float:
        """The planar name of ``s``."""
        return self.s


@dataclass(frozen=True)
class Field3D:
    """The exact 3D field frozen at one scale-factor snapshot; a planar
    state raises ValueError (pad it with ``emden._padded``)."""

    params: PhysParams
    profile: DensityProfile
    state: EmdenState3D

    def __post_init__(self) -> None:
        _components(self.state, 3, "Field3D")

    @classmethod
    def from_params(cls, params: PhysParams, state: EmdenState3D) -> "Field3D":
        return cls(params, DensityProfile(params), state)

    def at_state(self, state: EmdenState3D) -> "Field3D":
        """Same family, different snapshot."""
        return Field3D(self.params, self.profile, state)

    def eval(self, x, y, z) -> FieldSample:
        """:meth:`eval_grid` as a :class:`FieldSample` (floats for scalar input)."""
        # the grid's keys are in the order of the sample's fields
        return _sample(FieldSample, self.eval_grid(x, y, z).values())

    def eval_grid(self, x, y, z) -> dict[str, np.ndarray]:
        """rho, u1, u2, u3, s and p over broadcastable coordinate arrays, each
        in the broadcast shape of the coordinates it depends on (``u3``: z)."""
        st = self.state
        return _exact(self.params, self.profile, x, y, z, st.a, st.a_dot, st.b, st.b_dot)

    def vorticity(self, x: float, y: float, z: float) -> tuple[float, float, float]:
        """curl(u); uniform (0, 0, 2 xi / a^2) for this family."""
        a = self.state.a
        return (0.0, 0.0, 2.0 * self.params.xi / (a * a))

    def velocity_laplacian(self, x: float, y: float, z: float) -> tuple[float, float, float]:
        """Identically zero: u is linear in space."""
        return (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Field2D:
    """The exact planar field frozen at one scale-factor snapshot; a 3D
    state raises ValueError."""

    params: PhysParams
    profile: DensityProfile
    state: EmdenState2D

    def __post_init__(self) -> None:
        _components(self.state, 2, "Field2D")

    @classmethod
    def from_params(cls, params: PhysParams, state: EmdenState2D) -> "Field2D":
        return cls(params, DensityProfile(params), state)

    def eval(self, x, y) -> FieldSample:
        """:meth:`eval_grid` as a :class:`FieldSample`, ``u3 = 0.0`` (floats for scalars)."""
        g = self.eval_grid(x, y)
        return _sample(FieldSample, (g["rho"], g["u1"], g["u2"], 0.0, g["eta"], g["p"]))

    def eval_grid(self, x, y) -> dict[str, np.ndarray]:
        """rho, u1, u2, eta and p: the 3D formulas at z = 0 at the padded
        state (b = 1, b' = 0), which leave every planar value's bits as is."""
        st = _padded(self.state)
        g = _exact(self.params, self.profile, x, y, 0.0, st.a, st.a_dot, st.b, st.b_dot)
        return {"rho": g["rho"], "u1": g["u1"], "u2": g["u2"], "eta": g["s"], "p": g["p"]}

    def vorticity(self, x: float, y: float) -> float:
        """Scalar curl; uniform 2 xi / a^2."""
        a = self.state.a
        return 2.0 * self.params.xi / (a * a)

    def velocity_laplacian(self, x: float, y: float) -> tuple[float, float]:
        return (0.0, 0.0)
