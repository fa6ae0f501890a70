"""Numerical certification of fields against the governing equations.

The residual and regularity checks are finite-difference based and
independent of the algebra that produced the fields: second-order central
stencils for the continuity and momentum residuals (which must vanish as
O(h^2) on exact fields) and one-sided difference quotients at the compact
support boundary.  A residual pass computes a ``ResidualTable``, one column
per value over all its points; the per-point :class:`ResidualReport`
objects and the ``verify`` mode's JSON records are both read from it.  The
total mass is a midpoint-with-Richardson box
quadrature, or the exact Beta-function integral over a compact support.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .emden import Trajectory, _nonfinite_path, advance
from .fields import Field3D, GeneralMassFamily
from .profiles import DensityProfile

__all__ = [
    "SnapshotFieldSource",
    "TrajectoryFieldSource",
    "GeneralFamilySource",
    "ResidualReport",
    "MassBudget",
    "RegularityReport",
    "mass_residual",
    "euler_residual",
    "navier_stokes_residual",
    "refined_residual",
    "total_mass",
    "cutoff_regularity_check",
]

# similarity tail cut for box quadrature of the gamma=1 density:
# exp(-41.4) ~ 1e-18, far below the quadrature tolerance
_TAIL_LOG = 41.4


class SnapshotFieldSource:
    """Exact-family source anchored at one scale-factor snapshot.

    Time-shifted samples advance the snapshot along the governing ODEs with
    :func:`eulerexact.emden.advance`, one tight-tolerance run of the adaptive
    loop whose error is many orders below second-order stencil truncation.
    Shifted states are cached per requested time.
    """

    def __init__(self, field: Field3D):
        self.field = field
        self._cache: dict[float, Field3D] = {field.state.t: field}

    @property
    def cutoff_s(self) -> float | None:
        return self.field.profile.cutoff_s

    def sample(self, t, x, y, z):
        fld = self._cache.get(t)
        if fld is None:
            st = advance(self.field.params, self.field.state, t - self.field.state.t)
            fld = self.field.at_state(st)
            self._cache[t] = fld
        return fld.eval(x, y, z)


class TrajectoryFieldSource:
    """Exact-family source reading scale factors from dense trajectory output.

    Time accuracy is limited by the integration tolerance of the trajectory,
    so residual floors scale like rel_tol/h; integrate tightly (for example
    DOP853 at rel_tol 1e-12) when using this source for convergence studies.
    """

    def __init__(self, trajectory: Trajectory, profile: DensityProfile | None = None):
        if trajectory.dim != 3:
            raise ValueError("residual verification requires a 3D trajectory")
        self.trajectory = trajectory
        self.profile = profile if profile is not None else DensityProfile(trajectory.params)

    @property
    def cutoff_s(self) -> float | None:
        return self.profile.cutoff_s

    def sample(self, t, x, y, z):
        st = self.trajectory.state_at(t)
        return Field3D(self.trajectory.params, self.profile, st).eval(x, y, z)


class GeneralFamilySource:
    """Source over a :class:`GeneralMassFamily`; only the mass residual is
    meaningful (samples carry NaN pressure)."""

    cutoff_s = None

    def __init__(self, family: GeneralMassFamily):
        self.family = family

    def sample(self, t, x, y, z):
        return self.family.eval(t, x, y, z)


@dataclass
class ResidualReport:
    """Finite-difference residuals of the governing equations at one point."""

    t: float
    x: float
    y: float
    z: float
    stencil_h: float
    mass_residual: float
    momentum_residual: tuple[float, float, float]
    ns_momentum_residual: tuple[float, float, float] | None = None
    mu: float | None = None
    observed_order: float | None = None
    kink_crossing: bool = False

    def to_dict(self) -> dict:
        d = dict(vars(self))
        d["momentum_residual"] = list(self.momentum_residual)
        if self.ns_momentum_residual is not None:
            d["ns_momentum_residual"] = list(self.ns_momentum_residual)
        return d

    def magnitude(self) -> float:
        """RMS over the four equation residuals."""
        return _rms(self.mass_residual, *self.momentum_residual)


def _rms(mass, m0, m1, m2) -> float:
    """RMS of one point's four equation residuals: mass and three momentum rows."""
    try:
        square = mass**2 + m0 ** 2 + m1 ** 2 + m2 ** 2
    except OverflowError:
        square = math.inf
    if square == math.inf:
        # a square past the float range: the same RMS without squaring
        return math.hypot(mass, m0, m1, m2) / 2.0
    return math.sqrt(square / 4.0)


# rows of a stencil array: the sample's fields, in this order
_FIELDS = ("rho", "u1", "u2", "u3", "pressure", "s")
_RHO, _U, _P, _S = 0, slice(1, 4), 4, 5
_AXES = np.arange(3)


def _stencil(source, t, x, y, z, h):
    """The broadcast points and the stencil arrays of the three time levels,
    whose rows are the fields in ``_FIELDS`` order.

    The centre time is one ``sample`` call over the centre points and their
    six +/-h shifts, stacked on a second axis (centre, x+, x-, y+, y-, z+, z-);
    t + h and t - h are one call each at the centre points.
    """
    if not h > 0.0:
        raise ValueError(f"stencil step must be positive, got {h}")
    if h * h == 0.0:
        raise ValueError(f"stencil step {h} is too small: its square underflows to 0")
    x, y, z = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in (x, y, z)))
    xs = np.stack([x, x + h, x - h, x, x, x, x])
    ys = np.stack([y, y, y, y + h, y - h, y, y])
    zs = np.stack([z, z, z, z, z, z + h, z - h])

    def rows(smp, shape):
        return np.stack([np.broadcast_to(getattr(smp, k), shape) for k in _FIELDS])

    return (x, y, z), (rows(source.sample(t, xs, ys, zs), xs.shape),
                       rows(source.sample(t + h, x, y, z), x.shape),
                       rows(source.sample(t - h, x, y, z), x.shape))


def _delta(q):
    """q(+h e_k) - q(-h e_k) for each axis k (second axis) of a centre-time array."""
    return q[:, 1::2] - q[:, 2::2]


def _kink_flag(source, st):
    """Whether the stencil's similarity values straddle the support boundary."""
    sstar = getattr(source, "cutoff_s", None)
    c, tp, tm = st
    if sstar is None:
        return np.zeros(tp.shape[1:], dtype=bool)
    s = np.concatenate([c[_S], tp[_S:_S + 1], tm[_S:_S + 1]])
    return (s.min(axis=0) < sstar) & (sstar <= s.max(axis=0))


def _mass_from_stencil(st, h):
    c, tp, tm = st
    div = _delta(c[_RHO] * c[_U])[_AXES, _AXES] / (2.0 * h)  # d(rho u_k)/dx_k
    return (tp[_RHO] - tm[_RHO]) / (2.0 * h) + div[0] + div[1] + div[2]


def _momentum_from_stencil(st, h):
    """rho (u_t + (u . grad) u) + grad p, one row per component."""
    c, tp, tm = st
    u, du = c[_U, 0], _delta(c[_U])  # du[i, k]: u_i(+h e_k) - u_i(-h e_k)
    dt = (tp[_U] - tm[_U]) / (2.0 * h)
    adv = (u[0] * du[:, 0] + u[1] * du[:, 1] + u[2] * du[:, 2]) / (2.0 * h)
    dp = (c[_P, 1::2] - c[_P, 2::2]) / (2.0 * h)  # p along axis i for component i
    return c[_RHO, 0] * (dt + adv) + dp


def _laplacian_from_stencil(st, h):
    u = st[0][_U]
    d2 = (u[:, 1::2] - 2.0 * u[:, :1] + u[:, 2::2]) / (h * h)
    return d2[:, 0] + d2[:, 1] + d2[:, 2]


@dataclass(eq=False)
class ResidualTable:
    """The residuals of one stencil pass at n points, one flat column per
    value, in C order of the broadcast points: what a residual pass computes.

    The reports (:meth:`reports`) and the ``verify`` mode's JSON records
    (:meth:`to_json`) are both read from it.  ``shape`` is the broadcast
    shape of the coordinates, ``()`` for scalars; ``observed_order`` is None
    until :func:`_refined_table` fills it in.
    """

    t: float
    stencil_h: float
    mu: float | None
    shape: tuple[int, ...]
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    mass_residual: np.ndarray  # (n,)
    momentum_residual: np.ndarray  # (3, n)
    ns_momentum_residual: np.ndarray | None  # (3, n), None without mu
    kink_crossing: np.ndarray  # (n,) bool
    observed_order: list[float | None] | None = None

    def magnitudes(self):
        """:meth:`ResidualReport.magnitude` of each point, lazily, in C order."""
        return map(_rms, self.mass_residual.tolist(), *self.momentum_residual.tolist())

    def reports(self) -> list[ResidualReport]:
        """One :class:`ResidualReport` per point, in C order."""
        n = self.x.size
        ns = self.ns_momentum_residual
        return [ResidualReport(self.t, x, y, z, self.stencil_h, mass, mom, visc, self.mu,
                               order, kink)
                for x, y, z, mass, mom, visc, order, kink in zip(
                    self.x.tolist(), self.y.tolist(), self.z.tolist(),
                    self.mass_residual.tolist(), map(tuple, self.momentum_residual.T.tolist()),
                    [None] * n if ns is None else map(tuple, ns.T.tolist()),
                    self.observed_order or [None] * n, self.kink_crossing.tolist())]

    def result(self):
        """What the residual functions return: one report for scalar
        coordinates, else the list of :meth:`reports`."""
        reports = self.reports()
        return reports[0] if self.shape == () else reports

    def to_json(self) -> str:
        """The ``points`` array of the ``verify`` document: the list of the
        reports' ``to_dict`` forms as ``json.dumps(allow_nan=False, indent=2)``
        writes it one level deep, byte for byte.  A NaN or infinity raises
        ValueError naming its path as ``emden._nonfinite_path`` does.

        Each float column is formatted with one ``map(float.__repr__, ...)``
        after one finiteness check, and each record fills one template whose
        keys and constant values (``t``, ``stencil_h``, ``mu``) are written
        once.
        """
        n = self.x.size
        if n == 0:
            return "[]"
        ns, orders = self.ns_momentum_residual, self.observed_order
        floats = [self.x, self.y, self.z, self.mass_residual, *self.momentum_residual,
                  *(() if ns is None else ns)]
        constants = [self.t, self.stencil_h, *(() if self.mu is None else (self.mu,))]
        if not (np.isfinite(floats).all() and np.isfinite(constants).all()
                and all(o is None or math.isfinite(o) for o in orders or ())):
            path = _nonfinite_path([r.to_dict() for r in self.reports()])
            raise ValueError(f"non-finite number in a residual record at {path}")
        # a record sits two levels deep in the document, its keys three
        record, key, item = "\n    ", "\n      ", "\n        "
        triple = "[" + item + ("," + item).join(["%s"] * 3) + key + "]"
        fields = [("t", json.dumps(self.t)), ("x", "%s"), ("y", "%s"), ("z", "%s"),
                  ("stencil_h", json.dumps(self.stencil_h)), ("mass_residual", "%s"),
                  ("momentum_residual", triple),
                  ("ns_momentum_residual", "null" if ns is None else triple),
                  ("mu", json.dumps(self.mu)),
                  ("observed_order", "null" if orders is None else "%s"),
                  ("kink_crossing", "%s")]
        template = "{" + key + ("," + key).join(f'"{k}": {v}' for k, v in fields) + record + "}"
        cells = [map(float.__repr__, c.tolist()) for c in floats]
        if orders is not None:
            cells.append(["null" if o is None else float.__repr__(o) for o in orders])
        cells.append(map(("false", "true").__getitem__, self.kink_crossing.tolist()))
        return "[" + record + ("," + record).join(map(template.__mod__, zip(*cells))) + "\n  ]"


def _table(source, t, x, y, z, h, mu=None) -> ResidualTable:
    """One stencil pass over the broadcast points."""
    if mu is not None and not mu >= 0.0:
        raise ValueError(f"viscosity must be >= 0, got {mu}")
    (x, y, z), st = _stencil(source, t, x, y, z, h)
    mom = _momentum_from_stencil(st, h).reshape(3, -1)
    ns = None if mu is None else mom - mu * _laplacian_from_stencil(st, h).reshape(3, -1)
    return ResidualTable(t, h, mu, x.shape, x.ravel(), y.ravel(), z.ravel(),
                         _mass_from_stencil(st, h).ravel(), mom, ns,
                         _kink_flag(source, st).ravel())


def mass_residual(source, t: float, x, y, z, h: float):
    """Central-difference rho_t + div(rho u); O(h^2) for continuity solutions.

    A float for scalar coordinates, else an array of their broadcast shape.
    """
    (x, _, _), st = _stencil(source, t, x, y, z, h)
    mass = _mass_from_stencil(st, h)
    return float(mass) if x.ndim == 0 else mass


def euler_residual(source, t: float, x, y, z, h: float):
    """Continuity and momentum residuals of the inviscid equations.

    One :class:`ResidualReport` for scalar coordinates; for arrays, a list of
    reports over the broadcast points in C order, from one stencil pass.
    A stencil that straddles a compact support boundary is flagged
    (``kink_crossing``) and reported anyway rather than rejected.  A step
    ``h`` whose square underflows to 0 is rejected.
    """
    return _table(source, t, x, y, z, h).result()


def navier_stokes_residual(source, t: float, x, y, z, h: float, mu: float):
    """Euler residual plus the viscous momentum residual (momentum - mu lap u).

    Both come from one stencil pass, so mu = 0 reproduces the Euler momentum
    residual bitwise, and for the exact family (u linear in space) the two
    differ only by mu times finite-difference rounding noise.  Coordinates
    and ``h`` are handled as in :func:`euler_residual`.
    """
    return _table(source, t, x, y, z, h, mu).result()


def _refined_table(source, t: float, x, y, z, h: float, mu: float | None = None) -> ResidualTable:
    """The ``ResidualTable`` of :func:`refined_residual`: the residuals
    at h, with ``observed_order`` from an h/2 rerun and ``kink_crossing``
    set where either level's stencil straddles the support boundary."""
    table = _table(source, t, x, y, z, h, mu)
    fine = _table(source, t, x, y, z, h / 2.0, mu)
    table.observed_order = [math.log2(rc / rf) if rf > 0.0 and rc > 0.0 else None
                            for rc, rf in zip(table.magnitudes(), fine.magnitudes())]
    table.kink_crossing = table.kink_crossing | fine.kink_crossing
    return table


def refined_residual(source, t: float, x, y, z, h: float, mu: float | None = None):
    """Residual at h with the observed convergence order from an h/2 rerun.

    ``observed_order = log2(|r(h)| / |r(h/2)|)`` over the RMS of the four
    equation residuals; approximately 2 for exact fields until the residuals
    reach the rounding floor.  Coordinates are handled as in
    :func:`euler_residual`, with one stencil pass per level for all points;
    an ``h`` whose half step has a square that underflows to 0 is rejected.
    The reports are read from the same residual columns that the ``verify``
    mode writes as its ``points`` without building them.
    """
    return _refined_table(source, t, x, y, z, h, mu).result()


@dataclass
class MassBudget:
    """Total mass at one instant with its provenance: the scheme, and the box's
    points per axis in ``resolution`` (None for the exact ``ellipsoid`` mass)."""

    t: float
    total_mass: float
    scheme: str
    resolution: int | None
    domain_radius: tuple[float, float, float] | None = None
    richardson: bool = False

    def to_dict(self) -> dict:
        d = dict(vars(self))
        if self.domain_radius is not None:
            d["domain_radius"] = list(self.domain_radius)
        return d


def _box_midpoint(field: Field3D, radius, n: int) -> float:
    """Tensor midpoint rule over [-rx,rx]x[-ry,ry]x[-rz,rz], z-slab chunked."""
    rx, ry, rz = radius
    hx, hy, hz = 2.0 * rx / n, 2.0 * ry / n, 2.0 * rz / n
    xs = -rx + hx * (np.arange(n) + 0.5)
    ys = -ry + hy * (np.arange(n) + 0.5)
    zs = -rz + hz * (np.arange(n) + 0.5)
    X = xs[:, None]
    Y = ys[None, :]
    st = field.state
    a2 = st.a * st.a
    planar = (X * X + Y * Y) / a2
    total = 0.0
    for z in zs:
        s = planar + (z * z) / (st.b * st.b)
        total += float(field.profile.value_many(s).sum())
    return total / (a2 * st.b) * hx * hy * hz


def _ellipsoid_mass(alpha: float, m: float, sstar: float) -> float:
    """2 pi s*^(3/2) alpha^m B(3/2, m+1): the exact integral of f(s) = alpha^m
    (1 - s/s*)^m, m = 1/(gamma-1), over its support in similarity coordinates;
    0.0 for alpha = 0 or an underflow, inf for an overflow.  From m = 20 on,
    ln Gamma(m+1) - ln Gamma(m+5/2) is Stirling's series, not a difference of
    two large, cancelling ``lgamma`` values."""
    if alpha == 0.0:
        return 0.0
    if m < 20.0:
        log_ratio = math.lgamma(m + 1.0) - math.lgamma(m + 2.5)
    else:
        x = 1.5 / (m + 1.0)
        l1p = math.log1p(x)
        log_ratio = (-1.5 * (l1p / x - 1.0) + 0.5 * l1p - 1.5 * math.log(m + 2.5)
                     + _stirling_tail(m + 1.0) - _stirling_tail(m + 2.5))
    try:
        return 2.0 * math.pi * math.exp(1.5 * math.log(sstar) + m * math.log(alpha)
                                        + math.lgamma(1.5) + log_ratio)
    except OverflowError:
        return math.inf


def _stirling_tail(z: float) -> float:
    """ln Gamma(z) - ((z - 1/2) ln z - z + ln(2 pi)/2), to O(z^-9)."""
    return 1.0 / (12.0 * z) - 1.0 / (360.0 * z**3) + 1.0 / (1260.0 * z**5) - 1.0 / (1680.0 * z**7)


def total_mass(field: Field3D, *, scheme: str = "auto", n: int = 96,
               richardson: bool = True, radius=None) -> MassBudget:
    """Total mass of rho over the domain at the field's snapshot time.

    Schemes
    -------
    ``ellipsoid``
        The exact mass over the support ellipsoid, for compact support only
        (gamma > 1, lam > 0); ``resolution`` is None.  The scale factors
        cancel from it, so it is time-invariant by construction; use the box
        scheme to test conservation in fixed physical coordinates.
    ``box``
        Tensor midpoint over a physical box (optionally Richardson
        extrapolated from n and 2n points per axis).  The box is sized from
        the support or Gaussian tail at this snapshot unless ``radius`` (a
        scalar or per-axis triple) pins a fixed domain.

    ``auto`` selects ``ellipsoid`` for compact support and ``box`` otherwise.
    A configuration with unbounded mass (no cutoff and lam <= 0) requires an
    explicit truncation ``radius``.
    """
    p, st = field.params, field.state
    sstar = field.profile.cutoff_s
    if scheme == "auto":
        scheme = "ellipsoid" if sstar is not None else "box"

    if scheme == "ellipsoid":
        if sstar is None:
            raise ValueError("ellipsoid scheme requires compact support (gamma > 1, lam > 0)")
        r, m = math.sqrt(sstar), 1.0 / (p.gamma - 1.0)
        return MassBudget(t=st.t, total_mass=_ellipsoid_mass(p.alpha, m, sstar),
                          scheme="ellipsoid", resolution=None,
                          domain_radius=(st.a * r, st.a * r, st.b * r))

    if scheme != "box":
        raise ValueError(f"unknown quadrature scheme {scheme!r}")

    if radius is None:
        if sstar is not None:
            r_sim = math.sqrt(sstar)
        elif p.is_isothermal and p.lam > 0.0:
            r_sim = math.sqrt(2.0 * p.K * _TAIL_LOG / p.lam)
        else:
            raise ValueError(
                "total mass is unbounded for this configuration "
                "(no compact support and lam <= 0); pass an explicit radius")
        radius = (st.a * r_sim, st.a * r_sim, st.b * r_sim)
    elif np.isscalar(radius):
        radius = (float(radius),) * 3
    else:
        radius = tuple(float(r) for r in radius)

    coarse = _box_midpoint(field, radius, n)
    if richardson:
        fine = _box_midpoint(field, radius, 2 * n)
        # extrapolate only while the levels still differ beyond rounding;
        # for smooth rapidly-decaying densities midpoint converges faster
        # than h^2 and extrapolating converged levels would reintroduce
        # the coarse-level error
        if abs(fine - coarse) > 1e-13 * max(1.0, abs(fine)):
            mass = (4.0 * fine - coarse) / 3.0
        else:
            mass = fine
    else:
        mass = coarse
    return MassBudget(t=st.t, total_mass=mass, scheme="box-midpoint",
                      resolution=n, domain_radius=radius, richardson=richardson)


@dataclass
class RegularityReport:
    """C1 status of the density at the compact support boundary."""

    c1: bool
    has_cutoff: bool
    boundary_slope: float
    numeric_slope: float

    def to_dict(self) -> dict:
        return dict(vars(self))


def cutoff_regularity_check(profile: DensityProfile) -> RegularityReport:
    """Decide C1 regularity of the density shape and measure the boundary slope.

    C1 holds iff gamma = 1, or gamma > 1 with lam <= 0 (no cutoff), or
    gamma < 2 (interior slope of the ramp power vanishes at the boundary).
    The analytic one-sided limit of f' at the boundary is cross-checked with
    a one-sided difference quotient; for gamma > 2 the limit is -inf and the
    numeric column reports a finite sample of the divergence.
    """
    p = profile.params
    c1 = p.is_isothermal or p.lam <= 0.0 or p.gamma < 2.0
    sstar = profile.cutoff_s
    if sstar is None:
        return RegularityReport(c1=c1, has_cutoff=False,
                                boundary_slope=math.nan, numeric_slope=math.nan)
    if p.gamma < 2.0:
        slope = 0.0
    elif p.gamma == 2.0:
        slope = -profile.slope_coefficient
    else:
        slope = -math.inf
    eps = 1e-7 * max(1.0, sstar)
    numeric = (profile.value(sstar) - profile.value(sstar - eps)) / eps
    return RegularityReport(c1=c1, has_cutoff=True,
                            boundary_slope=slope, numeric_slope=numeric)
