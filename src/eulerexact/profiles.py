"""Parameter set, density shape function, and similarity variables.

The density of every solution family handled here is a transported shape
``f(s)`` divided by the volume factor of the scale factors, where ``s`` is the
similarity variable ``(x^2 + y^2)/a(t)^2 + z^2/b(t)^2`` (``eta`` drops the
``z`` term in the planar case).  The shape function has two branches: an
isothermal exponential for ``gamma = 1`` and a polytropic power of a clipped
linear ramp for ``gamma > 1``, which has compact support whenever ``lam > 0``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ISOTHERMAL_GAMMA_TOL",
    "NonSmoothCutoffWarning",
    "PhysParams",
    "DensityProfile",
    "similarity_s",
    "similarity_eta",
]

# gamma this close to 1 is evaluated through the isothermal branch so that
# 1/(gamma-1) never amplifies rounding noise.
ISOTHERMAL_GAMMA_TOL = 1e-12


class NonSmoothCutoffWarning(UserWarning):
    """Derivative was queried exactly at a support boundary that is not C1."""


@dataclass(frozen=True)
class PhysParams:
    """Constants selecting one solution family; every value must be finite.

    Attributes
    ----------
    K : float
        Pressure constant in ``P = K rho^gamma``; must be positive.
    gamma : float
        Adiabatic index; must be >= 1.
    lam : float
        Separation constant coupling the shape function to the scale-factor
        dynamics; any sign.
    alpha : float
        Shape amplitude at the origin, ``f(0) = alpha``; must be >= 0.
    xi : float
        Swirl constant.  ``xi = 0`` is accepted (degenerate irrotational
        family, useful for regression tests) but flagged via
        :attr:`is_rotational`.
    mu : float
        Viscosity, used only by the Navier-Stokes residual check; >= 0.
    """

    K: float
    gamma: float
    lam: float
    alpha: float
    xi: float
    mu: float = 0.0

    def __post_init__(self) -> None:
        for name in ("K", "gamma", "lam", "alpha", "xi", "mu"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.K > 0.0:
            raise ValueError(f"K must be > 0, got {self.K}")
        if not self.gamma >= 1.0:
            raise ValueError(f"gamma must be >= 1, got {self.gamma}")
        if not self.alpha >= 0.0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not self.mu >= 0.0:
            raise ValueError(f"mu must be >= 0, got {self.mu}")

    @property
    def is_isothermal(self) -> bool:
        return self.gamma < 1.0 + ISOTHERMAL_GAMMA_TOL

    @property
    def is_rotational(self) -> bool:
        """False marks the degenerate xi = 0 family."""
        return self.xi != 0.0


@dataclass(frozen=True)
class DensityProfile:
    """The shape function f(s) of the transported density.

    ``gamma = 1``:  ``f(s) = alpha * exp(-lam * s / (2K))``, positive for all
    ``s >= 0`` when ``alpha > 0``.

    ``gamma > 1``:  ``f(s) = max(alpha - slope * s, 0)^(1/(gamma-1))`` with
    ``slope = lam (gamma-1) / (2 K gamma)``.  For ``lam > 0`` the support is
    the interval ``[0, cutoff_s)``; for ``lam <= 0`` there is no cutoff.
    """

    params: PhysParams

    @property
    def slope_coefficient(self) -> float:
        """The ramp slope lam (gamma-1) / (2 K gamma); zero when gamma = 1."""
        p = self.params
        return p.lam * (p.gamma - 1.0) / (2.0 * p.K * p.gamma)

    @property
    def cutoff_s(self) -> float | None:
        """Support boundary s*, present only for gamma > 1 with lam > 0."""
        p = self.params
        if p.is_isothermal or p.lam <= 0.0:
            return None
        return p.alpha / self.slope_coefficient

    def value(self, s: float) -> float:
        """f(s) at one point: the 0-d case of :meth:`value_many`."""
        return float(self.value_many(s))

    def value_many(self, s) -> np.ndarray:
        """f(s) over an array of s >= 0; nonnegative, alpha at s = 0."""
        import numpy as np

        s = np.asarray(s, dtype=float)
        if not (s >= 0.0).all():
            raise ValueError(f"similarity variable must be >= 0, got {np.min(s)}")
        p = self.params
        if p.is_isothermal:
            # alpha = -0.0 passes the alpha >= 0 check; + 0.0 keeps f from being -0.0
            return (p.alpha + 0.0) * np.exp(-p.lam / (2.0 * p.K) * s)
        # the ufunc, not **: on a numpy scalar (a 0-d input), ** runs the C
        # library's pow, whose last bit can differ from the array loop's
        return np.power(np.maximum(p.alpha - self.slope_coefficient * s, 0.0),
                        1.0 / (p.gamma - 1.0))

    def derivative(self, s: float) -> float:
        """One-sided-aware df/ds.

        On the support interior the returned value satisfies
        ``lam + 2 K gamma f^(gamma-2) f' = 0``.  Outside a compact support the
        derivative is 0.  Exactly at the cutoff the interior limit is returned
        for gamma < 2 (which is 0, the C1 case); for gamma >= 2 the profile is
        not C1 there, a :class:`NonSmoothCutoffWarning` is emitted and the
        exterior value 0 is returned.
        """
        if not s >= 0.0:
            raise ValueError(f"similarity variable must be >= 0, got {s}")
        p = self.params
        if p.is_isothermal:
            return -p.lam / (2.0 * p.K) * self.value(s)
        base = p.alpha - self.slope_coefficient * s
        if base > 0.0:
            return (-p.lam / (2.0 * p.K * p.gamma)
                    * base ** ((2.0 - p.gamma) / (p.gamma - 1.0)))
        if base < 0.0:
            return 0.0
        if p.lam > 0.0 and p.gamma >= 2.0:
            warnings.warn(
                "density shape is not C1 at the support boundary for "
                f"gamma = {p.gamma} >= 2 with lam > 0",
                NonSmoothCutoffWarning,
                stacklevel=2,
            )
        return 0.0


def similarity_s(x, y, z, a: float, b: float):
    """3D similarity variable (x^2 + y^2)/a^2 + z^2/b^2 for a, b > 0.

    The coordinates may be broadcastable arrays.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError(
            f"scale factors must be positive (state at or past collapse): a={a}, b={b}"
        )
    return (x * x + y * y) / (a * a) + (z * z) / (b * b)


def similarity_eta(x, y, a: float):
    """Planar similarity variable (x^2 + y^2)/a^2 for a > 0: the z = 0, b = 1
    case of :func:`similarity_s`, equal to it bit for bit."""
    return similarity_s(x, y, 0.0, a, 1.0)
