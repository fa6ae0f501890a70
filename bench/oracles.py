"""Independent oracles for the benchmark's output checks.

Each function here is written from the paper's formulas, not from the
library's code paths: the conserved energy, the lifespan decision table, the
linear collapse time for lam = 0, the planar period as a first-integral
quadrature, and the closed-form total mass of the density.
"""

from __future__ import annotations

import math

from scipy.integrate import quad
from scipy.optimize import brentq

GLOBAL = "global"
BLOWUP = "finite_time_blowup"
OPEN_CASE = "unknown_open_case"


def energy(gamma, lam, xi, a, a_dot, b=None, b_dot=None) -> float:
    """First integral of the scale-factor system (planar when b is None)."""
    kinetic = 0.5 * a_dot * a_dot + xi * xi / (2.0 * a * a)
    if b is not None:
        kinetic += 0.25 * b_dot * b_dot
    if gamma == 1.0:
        potential = -lam * math.log(a)
        if b is not None:
            potential -= 0.5 * lam * math.log(b)
        return kinetic + potential
    volume = a ** (2.0 - 2.0 * gamma)
    if b is not None:
        volume *= b ** (1.0 - gamma)
    return kinetic + lam / (2.0 * gamma - 2.0) * volume


def table_verdict(gamma: float, lam: float, b1: float) -> str:
    """Lifespan verdict of the 3D decision table."""
    if lam > 0.0:
        return GLOBAL
    if lam == 0.0:
        return GLOBAL if b1 >= 0.0 else BLOWUP
    if gamma == 1.0 or b1 <= 0.0:
        return BLOWUP
    return OPEN_CASE


def linear_collapse_time(b0: float, b1: float) -> float:
    """For lam = 0, b'' = 0, so b = b0 + b1 t reaches zero at -b0/b1."""
    return -b0 / b1


def isothermal_collapse_bound(b0: float, b1: float, lam: float) -> float:
    """Latest collapse time of b for gamma = 1, lam < 0, b1 <= 0.

    There b'' = lam / b <= lam / b0 while b <= b0, so b lies below the
    parabola b0 + b1 t + lam t^2 / (2 b0), which reaches zero first.
    """
    c = lam / (2.0 * b0)
    return (-b1 - math.sqrt(b1 * b1 - 4.0 * c * b0)) / (2.0 * c)


def _planar_potential(gamma, lam, xi):
    if gamma == 1.0:
        return lambda a: xi * xi / (2.0 * a * a) - lam * math.log(a)
    return lambda a: (xi * xi / (2.0 * a * a)
                      + lam / (2.0 * gamma - 2.0) * a ** (2.0 - 2.0 * gamma))


def planar_energy_margin(gamma, lam, xi, a0, a1) -> float:
    """V(infinity) - E: positive for a bound planar orbit."""
    e = 0.5 * a1 * a1 + _planar_potential(gamma, lam, xi)(a0)
    return math.inf if gamma == 1.0 else -e


def planar_period(gamma, lam, xi, a0, a1) -> float:
    """Period T = 2 int da / sqrt(2 (E - V(a))) between the turning points.

    Needs lam < 0, 1 <= gamma < 2 and a bound orbit.  The substitution
    a = c - d cos(theta) removes the inverse-square-root endpoint
    singularities, so plain adaptive quadrature converges.
    """
    V = _planar_potential(gamma, lam, xi)
    E = 0.5 * a1 * a1 + V(a0)
    # V'(a) = 0 at the circular orbit
    a_min = (xi * xi / -lam) ** (1.0 / (4.0 - 2.0 * gamma))

    def gap(a):
        return E - V(a)

    lo = a_min
    while gap(lo) >= 0.0:
        lo *= 0.5
    hi = a_min
    while gap(hi) >= 0.0:
        hi *= 2.0
    a_lo = brentq(gap, lo, a_min, xtol=1e-15, rtol=1e-15)
    a_hi = brentq(gap, a_min, hi, xtol=1e-15, rtol=1e-15)
    c, d = 0.5 * (a_lo + a_hi), 0.5 * (a_hi - a_lo)
    # |V'| at the turning points: V'(a) = -xi^2/a^3 - lam a^(1 - 2 gamma)
    slopes = [abs(xi * xi / a**3 + lam * a ** (1.0 - 2.0 * gamma)) for a in (a_lo, a_hi)]
    floor = 1e-8 * max(abs(E), d * max(slopes))

    def integrand(theta):
        # next to a turning point E - V is lost to rounding, so use its
        # linear part there: |V'(a_i)| |a - a_i|, with |a - a_i| computed as
        # 2 d sin^2(theta/2) or 2 d cos^2(theta/2) without cancellation
        near = (2.0 * d * math.sin(0.5 * theta) ** 2 * slopes[0] if theta < 0.5 * math.pi
                else 2.0 * d * math.cos(0.5 * theta) ** 2 * slopes[1])
        g = near if near < floor else gap(c - d * math.cos(theta))
        return d * math.sin(theta) / math.sqrt(2.0 * g)

    half, _ = quad(integrand, 0.0, math.pi, epsabs=0.0, epsrel=1e-10, limit=200)
    return 2.0 * half


def total_mass(K, gamma, lam, alpha) -> float:
    """Closed-form mass of the density for lam > 0.

    gamma = 1: alpha (2 pi K / lam)^(3/2) (a Gaussian).  gamma > 1: with
    m = 1/(gamma-1) and support s* = alpha / c, c = lam (gamma-1)/(2 K gamma),
    the mass is 2 pi s*^(3/2) alpha^m B(3/2, m+1).
    """
    if not lam > 0.0:
        raise ValueError("total mass is finite only for lam > 0")
    if gamma == 1.0:
        return alpha * (2.0 * math.pi * K / lam) ** 1.5
    m = 1.0 / (gamma - 1.0)
    s_star = alpha * 2.0 * K * gamma / (lam * (gamma - 1.0))
    beta = math.exp(math.lgamma(1.5) + math.lgamma(m + 1.0) - math.lgamma(m + 2.5))
    return 2.0 * math.pi * s_star**1.5 * alpha**m * beta


def support_radius(K, gamma, lam, alpha) -> float:
    """Similarity radius sqrt(s) holding all but a negligible part of the mass.

    Compact support (gamma > 1, lam > 0) ends at sqrt(s*); the Gaussian is cut
    where exp(-lam s / 2K) drops to exp(-41.4), about 1e-18.
    """
    if gamma == 1.0:
        return math.sqrt(2.0 * K * 41.4 / lam)
    return math.sqrt(alpha * 2.0 * K * gamma / (lam * (gamma - 1.0)))
