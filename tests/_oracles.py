"""Independent oracles shared by the test modules.

Everything here is deliberately written against the raw equations, not
against the library code paths it checks: a fixed-step classic RK4 stepper
(scalar and vectorized over parameter batches), plain finite-difference
helpers and the planar period from the first integral by quadrature.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq


def rhs_3d_arrays(y, K, gamma, lam, xi):
    """Vectorized RHS of the 3D scale-factor system; y has shape (4,) or (4, m)."""
    a, ad, b, bd = y
    add = xi * xi / a**3 + lam / (a ** (2.0 * gamma - 1.0) * b ** (gamma - 1.0))
    bdd = lam / (a ** (2.0 * gamma - 2.0) * b**gamma)
    return np.stack([ad, add, bd, bdd])


def rhs_2d_arrays(y, K, gamma, lam, xi):
    a, ad = y
    return np.stack([ad, xi * xi / a**3 + lam / a ** (2.0 * gamma - 1.0)])


def rk4_fixed(rhs, y0, t_span, dt, params):
    """Classic RK4 with fixed step; returns the final state vector."""
    t0, t1 = t_span
    n = int(round((t1 - t0) / dt))
    y = np.array(y0, dtype=float)
    h = (t1 - t0) / n
    for _ in range(n):
        k1 = rhs(y, *params)
        k2 = rhs(y + 0.5 * h * k1, *params)
        k3 = rhs(y + 0.5 * h * k2, *params)
        k4 = rhs(y + h * k3, *params)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def central_diff(fun, x, h):
    return (fun(x + h) - fun(x - h)) / (2.0 * h)


def second_diff(fun, x, h):
    return (fun(x + h) - 2.0 * fun(x) + fun(x - h)) / (h * h)


def planar_potential(a, gamma, lam, xi):
    """V(a) = xi^2/(2a^2) + lam a^(2-2gamma)/(2gamma-2); -lam log a at gamma = 1."""
    if gamma == 1.0:
        return xi * xi / (2.0 * a * a) - lam * math.log(a)
    return xi * xi / (2.0 * a * a) + lam * a ** (2.0 - 2.0 * gamma) / (2.0 * gamma - 2.0)


def first_integral_period(gamma, lam, xi, a0, a1):
    """Period T = 2 int da / sqrt(2 (E - V(a))) between the turning points.

    Needs lam < 0 and 1 <= gamma < 2 (V has one minimum, at
    a_eq = (xi^2/|lam|)^(1/(4-2gamma))) and a bound orbit, E below V's limit
    at infinity.  The substitution a = c + h sin(theta) removes the inverse
    square-root singularities at the turning points c -/+ h.
    """
    V = lambda a: planar_potential(a, gamma, lam, xi)  # noqa: E731
    E = 0.5 * a1 * a1 + V(a0)
    a_eq = (xi * xi / -lam) ** (1.0 / (4.0 - 2.0 * gamma))
    lo = a_eq
    while V(lo) < E:
        lo *= 0.5
    hi = a_eq
    while V(hi) < E:
        hi *= 2.0
    a_min = brentq(lambda a: V(a) - E, lo, a_eq, xtol=1e-15, rtol=1e-15)
    a_max = brentq(lambda a: V(a) - E, a_eq, hi, xtol=1e-15, rtol=1e-15)
    c, h = 0.5 * (a_min + a_max), 0.5 * (a_max - a_min)

    def integrand(theta):
        gap = E - V(c + h * math.sin(theta))
        return h * math.cos(theta) / math.sqrt(2.0 * max(gap, 1e-300))

    value, _ = quad(integrand, -0.5 * math.pi, 0.5 * math.pi,
                    epsabs=0.0, epsrel=1e-12, limit=200)
    return 2.0 * value
