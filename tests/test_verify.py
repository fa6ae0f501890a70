import dataclasses
import math
import sys
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eulerexact import (EmdenState3D, Field3D, GeneralFamilySource,
                        GeneralMassFamily, MassBudget, PhysParams,
                        RegularityReport, ResidualReport, SnapshotFieldSource,
                        TrajectoryFieldSource, cutoff_regularity_check,
                        euler_residual, integrate, mass_residual,
                        navier_stokes_residual, refined_residual, total_mass)
from eulerexact.emden import strict_json
from eulerexact.profiles import DensityProfile


def params(K=1.0, gamma=1.4, lam=0.0, alpha=1.0, xi=1.0, mu=0.0):
    return PhysParams(K=K, gamma=gamma, lam=lam, alpha=alpha, xi=xi, mu=mu)


def mpmath_mass(p):
    """2 pi s*^(3/2) alpha^m B(3/2, m+1) at 50 digits, with m = 1/(gamma-1)
    and s* = alpha 2 K gamma / (lam (gamma-1)) rebuilt from the float
    parameters: an oracle that shares no float arithmetic with the library."""
    with mpmath.workdps(50):
        K, gamma, lam, alpha = map(mpmath.mpf, (p.K, p.gamma, p.lam, p.alpha))
        m = 1 / (gamma - 1)
        sstar = alpha * 2 * K * gamma / (lam * (gamma - 1))
        return 2 * mpmath.pi * sstar**1.5 * alpha**m * mpmath.beta(1.5, m + 1)


def snapshot_source(p, a=1.1, ad=0.3, b=0.9, bd=-0.2):
    return SnapshotFieldSource(Field3D.from_params(p, EmdenState3D(0.0, a, ad, b, bd)))


def interior_point(source, rng, frac=0.6):
    """A random point safely inside the density support."""
    st = source.field.state
    sstar = source.cutoff_s
    s_hi = frac * sstar if sstar is not None else 1.5
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    s_target = rng.uniform(0.1, 1.0) * s_hi
    denom = (v[0] ** 2 + v[1] ** 2) / st.a**2 + v[2] ** 2 / st.b**2
    scale = math.sqrt(s_target / denom)
    return float(scale * v[0]), float(scale * v[1]), float(scale * v[2])


class ScaledVelocitySource:
    """Negative control: u1 scaled, breaking both equations."""

    def __init__(self, inner, factor=1.01):
        self.inner = inner
        self.factor = factor
        self.cutoff_s = inner.cutoff_s

    def sample(self, t, x, y, z):
        smp = self.inner.sample(t, x, y, z)
        return replace(smp, u1=self.factor * smp.u1)


class QuadraticBumpSource:
    """Negative control with known Laplacian: u1 += x^2 adds 2 to lap(u)_1."""

    def __init__(self, inner):
        self.inner = inner
        self.cutoff_s = inner.cutoff_s

    def sample(self, t, x, y, z):
        smp = self.inner.sample(t, x, y, z)
        return replace(smp, u1=smp.u1 + x * x)


class TestEulerResidual:
    @pytest.mark.parametrize("gamma,lam", [(1.0, 2.0), (1.0, -0.8), (1.5, 1.0),
                                           (1.7, -0.5), (2.0, -1.0), (2.7, -0.6)])
    def test_second_order_convergence(self, gamma, lam):
        p = params(gamma=gamma, lam=lam, alpha=1.2, xi=1.3)
        source = snapshot_source(p)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x, y, z = interior_point(source, rng)
            rep = refined_residual(source, 0.0, x, y, z, 1e-3)
            assert not rep.kink_crossing
            assert rep.observed_order == pytest.approx(2.0, abs=0.4)
            assert rep.magnitude() < 1e-5

    def test_halving_h_cuts_residuals_by_about_four(self):
        # reduction factor stays in [3.2, 4.8] away from the rounding floor
        rng = np.random.default_rng(42)
        cases = [(1.0, 1.5), (1.4, 0.9), (1.6, -0.8), (2.2, -1.1), (3.0, -0.5)]
        checked = 0
        for gamma, lam in cases:
            p = params(gamma=gamma, lam=lam, alpha=1.3, xi=1.2)
            source = snapshot_source(p, a=1.05, ad=0.35, b=0.95, bd=-0.25)
            for _ in range(10):
                x, y, z = interior_point(source, rng)
                coarse = euler_residual(source, 0.0, x, y, z, 1e-3).magnitude()
                fine = euler_residual(source, 0.0, x, y, z, 5e-4).magnitude()
                if fine < 1e-9:
                    continue
                assert 3.2 <= coarse / fine <= 4.8
                checked += 1
        assert checked >= 40

    def test_vacuum_residuals_exactly_zero(self):
        p = params(alpha=0.0, gamma=1.5, lam=1.0)
        source = snapshot_source(p)
        rep = euler_residual(source, 0.0, 0.4, -0.2, 0.3, 1e-3)
        assert rep.mass_residual == 0.0
        assert rep.momentum_residual == (0.0, 0.0, 0.0)

    def test_corrupted_velocity_fails_convergence(self):
        p = params(gamma=1.5, lam=1.0, alpha=1.2, xi=1.3)
        source = ScaledVelocitySource(snapshot_source(p))
        rng = np.random.default_rng(2)
        x, y, z = interior_point(source.inner, rng)
        rep = refined_residual(source, 0.0, x, y, z, 1e-3)
        assert rep.magnitude() > 1e-4
        assert rep.observed_order < 0.5

    def test_kink_crossing_flagged(self):
        p = params(gamma=1.5, lam=1.0, alpha=1.0)
        source = snapshot_source(p, a=1.0, ad=0.0, b=1.0, bd=0.0)
        sstar = source.cutoff_s
        x = math.sqrt(0.999 * sstar)
        rep = euler_residual(source, 0.0, x, 0.0, 0.0, 0.05)
        assert rep.kink_crossing
        assert math.isfinite(rep.mass_residual)
        inside = euler_residual(source, 0.0, 0.1, 0.0, 0.0, 1e-3)
        assert not inside.kink_crossing

    def test_frame_symmetry(self):
        # the family is axisymmetric and a quarter turn maps stencils onto
        # stencils, so residual magnitudes match to rounding
        p = params(gamma=1.5, lam=0.8, alpha=1.1, xi=1.2)
        source = snapshot_source(p)
        rng = np.random.default_rng(3)
        for _ in range(10):
            x, y, z = interior_point(source, rng)
            r1 = euler_residual(source, 0.0, x, y, z, 1e-3)
            r2 = euler_residual(source, 0.0, -y, x, z, 1e-3)
            assert abs(r1.mass_residual - r2.mass_residual) < 1e-10
            n1 = math.sqrt(sum(m * m for m in r1.momentum_residual))
            n2 = math.sqrt(sum(m * m for m in r2.momentum_residual))
            assert abs(n1 - n2) < 1e-10

    def test_trajectory_source(self):
        p = params(gamma=1.5, lam=1.0, alpha=1.2, xi=1.1)
        traj = integrate(p, EmdenState3D(0.0, 1.0, 0.2, 1.1, -0.1), 2.0,
                         rel_tol=1e-12, abs_tol=1e-14, method="DOP853")
        source = TrajectoryFieldSource(traj)
        rep = refined_residual(source, 1.0, 0.3, -0.2, 0.25, 1e-3)
        assert rep.magnitude() < 1e-4
        assert rep.observed_order == pytest.approx(2.0, abs=0.5)

    def test_magnitude_past_the_range_of_a_square(self):
        # squares that overflow alone, and finite squares whose sum overflows
        from eulerexact.verify import _rms
        assert _rms(1.0, 2.0, -3.0, 4.0) == math.sqrt(30.0 / 4.0)
        assert _rms(3e200, -4e200, 0.0, 0.0) == pytest.approx(2.5e200, rel=1e-15)
        assert _rms(1.2e154, 1.2e154, -1.2e154, 1.2e154) == pytest.approx(1.2e154, rel=1e-15)
        rep = ResidualReport(0.0, 0.0, 0.0, 0.0, 1e-3, 1e300, (0.0, 0.0, 0.0))
        assert rep.magnitude() == pytest.approx(5e299, rel=1e-15)
        assert _rms(math.inf, 1.0, 0.0, 0.0) == math.inf
        assert math.isnan(_rms(math.inf, math.nan, 0.0, 0.0))

    def test_invalid_h(self):
        p = params()
        source = snapshot_source(p)
        with pytest.raises(ValueError):
            euler_residual(source, 0.0, 0.1, 0.1, 0.1, 0.0)


class TestNavierStokesResidual:
    def test_mu_zero_reduces_to_euler(self):
        p = params(gamma=1.5, lam=1.0, alpha=1.2, xi=1.3)
        source = snapshot_source(p)
        e = euler_residual(source, 0.0, 0.3, 0.1, -0.2, 1e-3)
        ns = navier_stokes_residual(source, 0.0, 0.3, 0.1, -0.2, 1e-3, mu=0.0)
        assert ns.ns_momentum_residual == e.momentum_residual
        assert ns.momentum_residual == e.momentum_residual

    @pytest.mark.parametrize("mu", [0.0, 1.0, 10.0])
    def test_viscous_term_is_rounding_noise(self, mu):
        # u linear in space: the discrete Laplacian is pure cancellation noise
        p = params(gamma=1.0, lam=1.5, alpha=1.0, xi=1.1, mu=mu)
        source = snapshot_source(p)
        rng = np.random.default_rng(4)
        for _ in range(5):
            x, y, z = interior_point(source, rng)
            rep = navier_stokes_residual(source, 0.0, x, y, z, 1e-2, mu=mu)
            diff = max(abs(n - m) for n, m in
                       zip(rep.ns_momentum_residual, rep.momentum_residual))
            assert diff < 1e-9

    def test_quadratic_corruption_shifts_by_laplacian(self):
        p = params(gamma=1.0, lam=1.5, alpha=1.0, xi=1.1)
        mu = 0.7
        source = QuadraticBumpSource(snapshot_source(p))
        rep = navier_stokes_residual(source, 0.0, 0.4, -0.3, 0.2, 1e-3, mu=mu)
        shift = rep.momentum_residual[0] - rep.ns_momentum_residual[0]
        assert shift == pytest.approx(2.0 * mu, rel=1e-6)
        for i in (1, 2):
            assert abs(rep.momentum_residual[i] - rep.ns_momentum_residual[i]) < 1e-8

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            navier_stokes_residual(snapshot_source(params()), 0.0, 0.1, 0.1, 0.1,
                                   1e-3, mu=-1.0)


class TestGeneralFamilyMass:
    def test_arbitrary_handles_satisfy_continuity(self):
        fam = GeneralMassFamily(
            f=lambda s: math.exp(-s),
            G=math.sin,
            a=lambda t: 2.0 + math.cos(t),
            a_dot=lambda t: -math.sin(t),
            b=math.exp,
            b_dot=math.exp,
        )
        source = GeneralFamilySource(fam)
        rng = np.random.default_rng(6)
        for _ in range(5):
            t = rng.uniform(0.2, 1.5)
            x, y, z = rng.uniform(-0.8, 0.8, size=3)
            r1 = mass_residual(source, t, x, y, z, 1e-3)
            r2 = mass_residual(source, t, x, y, z, 5e-4)
            assert abs(r1) < 1e-5
            assert math.log2(abs(r1) / abs(r2)) == pytest.approx(2.0, abs=0.4)

    def test_vacuum_trivially_solves_continuity(self):
        fam = GeneralMassFamily(f=lambda s: 0.0, G=lambda t: 1.0,
                                a=lambda t: 1.0 + t, a_dot=lambda t: 1.0,
                                b=lambda t: 1.0, b_dot=lambda t: 0.0)
        assert mass_residual(GeneralFamilySource(fam), 0.5, 0.3, 0.2, 0.1, 1e-3) == 0.0


@st.composite
def compact_params(draw):
    """gamma - 1 log-uniform in [1e-11, 3], K and lam log-uniform in
    [1e-3, 1e3], and alpha in [0.1, 3]: uniform, or for half the draws
    exp(x/m) with |x| <= 700, m = 1/(gamma-1), so that alpha^m stays within
    the float range as m grows."""
    gamma = 1.0 + math.exp(draw(st.floats(math.log(1e-11), math.log(3.0))))
    m = 1.0 / (gamma - 1.0)
    alpha = draw(st.one_of(st.floats(0.1, 3.0), st.floats(-700.0, 700.0).map(
        lambda x: math.exp(min(math.log(3.0), max(math.log(0.1), x / m))))))
    K, lam = (math.exp(draw(st.floats(math.log(1e-3), math.log(1e3)))) for _ in range(2))
    return params(gamma=gamma, K=K, lam=lam, alpha=alpha)


class TestTotalMass:
    def test_gaussian_oracle(self):
        # closed form alpha (2 pi K / lam)^(3/2) = 1 at lam = 2 pi K
        p = params(gamma=1.0, lam=2.0 * math.pi, alpha=1.0, xi=1.0)
        fld = Field3D.from_params(p, EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.0))
        budget = total_mass(fld)
        assert budget.scheme == "box-midpoint"
        assert budget.total_mass == pytest.approx(1.0, rel=1e-10)

    def test_gaussian_general_closed_form(self):
        p = params(gamma=1.0, K=0.8, lam=1.7, alpha=1.3)
        fld = Field3D.from_params(p, EmdenState3D(0.0, 1.2, 0.1, 0.9, -0.3))
        want = p.alpha * (2.0 * math.pi * p.K / p.lam) ** 1.5
        assert total_mass(fld).total_mass == pytest.approx(want, rel=1e-10)

    def test_vacuum(self):
        p = params(gamma=1.0, lam=2.0, alpha=0.0)
        fld = Field3D.from_params(p, EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.0))
        assert total_mass(fld).total_mass == 0.0

    def test_conserved_along_trajectory_fixed_box(self):
        p = params(gamma=1.0, lam=2.0 * math.pi, alpha=1.0, xi=1.0)
        ic = EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.0)
        traj = integrate(p, ic, 2.0)
        st2 = traj.state_at(2.0)
        # one fixed physical box covering the widest state; the t = 0 density
        # is then narrow relative to the box, so the grid must stay fine
        r_sim = math.sqrt(2.0 * p.K * 41.4 / p.lam)
        radius = (st2.a * r_sim, st2.a * r_sim, st2.b * r_sim)
        m0 = total_mass(Field3D.from_params(p, ic), radius=radius, n=256,
                        richardson=False)
        m2 = total_mass(Field3D.from_params(p, st2), radius=radius, n=256,
                        richardson=False)
        assert m2.total_mass == pytest.approx(m0.total_mass, rel=1e-6)
        assert m0.total_mass == pytest.approx(1.0, rel=1e-6)

    def test_compact_support_radial_oracle(self):
        # gamma = 3/2 makes f a polynomial: total mass has the closed form
        # 32 pi alpha^2 s*^(3/2) / 105
        p = params(gamma=1.5, lam=1.1, K=0.9, alpha=1.4)
        prof = DensityProfile(p)
        want = 32.0 * math.pi * p.alpha**2 * prof.cutoff_s**1.5 / 105.0
        fld = Field3D.from_params(p, EmdenState3D(0.0, 1.3, 0.2, 0.8, -0.1))
        budget = total_mass(fld)
        assert budget.scheme == "ellipsoid"
        assert budget.total_mass == pytest.approx(want, rel=1e-10)

    def test_compact_support_box_agrees_with_ellipsoid(self):
        p = params(gamma=1.5, lam=1.0, alpha=1.0)
        fld = Field3D.from_params(p, EmdenState3D(0.0, 1.3, 0.0, 0.8, 0.0))
        m_ell = total_mass(fld).total_mass
        m_box = total_mass(fld, scheme="box", n=128).total_mass
        assert m_box == pytest.approx(m_ell, rel=2e-7)

    def test_compact_support_conservation_in_physical_box(self):
        p = params(gamma=1.5, lam=1.0, alpha=1.0, xi=1.0)
        ic = EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.0)
        traj = integrate(p, ic, 2.0)
        st2 = traj.state_at(2.0)
        sstar = DensityProfile(p).cutoff_s
        r = math.sqrt(sstar) * max(st2.a, st2.b) * 1.01
        m0 = total_mass(Field3D.from_params(p, ic), scheme="box",
                        radius=r, n=128).total_mass
        m2 = total_mass(Field3D.from_params(p, st2), scheme="box",
                        radius=r, n=128).total_mass
        assert m2 == pytest.approx(m0, rel=1e-6)

    def test_nonintegrable_requires_radius(self):
        p = params(gamma=1.0, lam=-1.0, alpha=1.0)
        fld = Field3D.from_params(p, EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.0))
        with pytest.raises(ValueError):
            total_mass(fld)
        assert total_mass(fld, radius=1.0).total_mass > 0.0
        p2 = params(gamma=1.5, lam=0.0, alpha=1.0)
        fld2 = Field3D.from_params(p2, EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.0))
        with pytest.raises(ValueError):
            total_mass(fld2)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(compact_params(), st.floats(0.5, 2.0), st.floats(0.5, 2.0))
    def test_ellipsoid_mass_matches_mpmath(self, p, a, b):
        fld = Field3D.from_params(p, EmdenState3D(0.0, a, 0.1, b, -0.1))
        budget = total_mass(fld, scheme="ellipsoid")
        # a mass beyond the range of normal floats (inf, or 0.0 and
        # subnormals, which carry no relative accuracy) is the edge cases' test
        assume(sys.float_info.min <= budget.total_mass < math.inf)
        want = mpmath_mass(p)
        assert abs(budget.total_mass - want) <= 1e-12 * want
        assert budget.resolution is None

    def test_near_isothermal_mass_is_not_lost(self):
        # m = 1e9: the peak of (1 - u)^m u^(1/2) is about 1/sqrt(m) wide;
        # the mass is close to the Gaussian's (2 pi K / lam)^(3/2) = 15.75
        p = params(gamma=1.0 + 1e-9, K=1.0, lam=1.0, alpha=1.0)
        fld = Field3D.from_params(p, EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.0))
        want = mpmath_mass(p)
        assert abs(total_mass(fld).total_mass - want) <= 1e-6 * want
        assert float(want) == pytest.approx((2.0 * math.pi) ** 1.5, rel=1e-8)

    @pytest.mark.parametrize("alpha", [0.0, -0.0])
    def test_ellipsoid_mass_of_vacuum_is_zero(self, alpha):
        p = params(gamma=1.5, lam=1.0, alpha=alpha)
        fld = Field3D.from_params(p, EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.0))
        budget = total_mass(fld, scheme="ellipsoid")
        assert budget.total_mass == 0.0
        assert budget.resolution is None

    @pytest.mark.parametrize("alpha, want", [(2.0, math.inf), (0.9, 0.0)])
    def test_ellipsoid_mass_beyond_the_float_range(self, alpha, want):
        # m = 1e4: alpha^m is 2^10000 or 0.9^10000
        p = params(gamma=1.0001, lam=1.0, alpha=alpha)
        fld = Field3D.from_params(p, EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.0))
        assert total_mass(fld, scheme="ellipsoid").total_mass == want

    def test_ellipsoid_scheme_rejected_without_cutoff(self):
        p = params(gamma=1.0, lam=1.0)
        fld = Field3D.from_params(p, EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.0))
        with pytest.raises(ValueError):
            total_mass(fld, scheme="ellipsoid")


class TestCutoffRegularity:
    def test_c1_compact_case(self):
        report = cutoff_regularity_check(DensityProfile(params(gamma=1.5, lam=1.0)))
        assert report.c1
        assert report.has_cutoff
        assert report.boundary_slope == 0.0
        assert abs(report.numeric_slope) < 1e-3

    def test_gamma_two_finite_jump(self):
        report = cutoff_regularity_check(DensityProfile(params(gamma=2.0, lam=1.0, K=1.0)))
        assert not report.c1
        assert report.boundary_slope == pytest.approx(-0.25)
        assert report.numeric_slope == pytest.approx(-0.25, rel=1e-6)

    def test_no_cutoff_when_lam_negative(self):
        report = cutoff_regularity_check(DensityProfile(params(gamma=3.0, lam=-1.0)))
        assert report.c1
        assert not report.has_cutoff
        assert math.isnan(report.boundary_slope)

    def test_gamma_above_two_divergent_slope(self):
        report = cutoff_regularity_check(DensityProfile(params(gamma=3.0, lam=1.0)))
        assert not report.c1
        assert report.boundary_slope == -math.inf
        assert report.numeric_slope < -10.0

    def test_isothermal_always_c1(self):
        report = cutoff_regularity_check(DensityProfile(params(gamma=1.0, lam=5.0)))
        assert report.c1
        assert not report.has_cutoff


class TestBatchedStencil:
    def test_reports_per_point_in_order(self):
        p = params(gamma=1.5, lam=1.0, alpha=1.0)
        source = snapshot_source(p, a=1.0, ad=0.0, b=1.0, bd=0.0)
        near = math.sqrt(0.999 * source.cutoff_s)
        xs = np.array([near, 0.1, -near])
        reps = euler_residual(source, 0.0, xs, 0.0, 0.0, 0.05)
        assert [r.x for r in reps] == xs.tolist()
        assert [r.kink_crossing for r in reps] == [True, False, True]
        refined = refined_residual(source, 0.0, xs, 0.0, 0.0, 0.05)
        assert [r.kink_crossing for r in refined] == [True, False, True]

    def test_mass_residual_keeps_the_broadcast_shape(self):
        source = snapshot_source(params(gamma=1.5, lam=1.0, alpha=1.0))
        got = mass_residual(source, 0.0, np.linspace(-0.5, 0.5, 6).reshape(2, 3),
                            0.1, 0.2, 1e-3)
        assert got.shape == (2, 3)
        assert isinstance(mass_residual(source, 0.0, 0.1, 0.1, 0.2, 1e-3), float)

    @pytest.mark.parametrize("h", [1e-300, 1e-170])
    def test_step_whose_square_underflows_rejected(self, h):
        source = snapshot_source(params())
        for call in (lambda: mass_residual(source, 0.0, 0.1, 0.1, 0.1, h),
                     lambda: euler_residual(source, 0.0, 0.1, 0.1, 0.1, h),
                     lambda: navier_stokes_residual(source, 0.0, 0.1, 0.1, 0.1, h, mu=1.0),
                     lambda: refined_residual(source, 0.0, 0.1, 0.1, 0.1, h)):
            with pytest.raises(ValueError, match="stencil step"):
                call()


class TestReportDicts:
    """``to_dict`` gives the ``dataclasses.asdict`` form, tuples as lists."""

    @staticmethod
    def asdict_form(report, tuple_fields):
        d = dataclasses.asdict(report)
        for name in tuple_fields:
            if d[name] is not None:
                d[name] = list(d[name])
        return d

    @pytest.mark.parametrize("viscous", [False, True])
    def test_residual_report(self, viscous):
        extra = dict(ns_momentum_residual=(1e-7, -2e-7, 3e-7), mu=0.05) if viscous else {}
        report = ResidualReport(0.5, 0.1, -0.2, 0.3, 1e-3, 4e-7, (1e-7, -2.5e-7, 0.0),
                                observed_order=1.9999, **extra)
        old = self.asdict_form(report, ["momentum_residual", "ns_momentum_residual"])
        # a tuple never equals a list, and the JSON text also fixes the key order
        assert report.to_dict() == old
        assert strict_json(report.to_dict()) == strict_json(old)

    def test_non_finite_residual_is_rejected(self):
        report = ResidualReport(0.0, 0.1, 0.2, 0.3, 1e-3, math.nan, (0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="non-finite"):
            strict_json(report.to_dict())

    @pytest.mark.parametrize("radius", [None, (1.0, 2.0, 3.0)])
    def test_mass_budget(self, radius):
        budget = MassBudget(0.0, 2.5, "box", 32, domain_radius=radius)
        assert budget.to_dict() == self.asdict_form(budget, ["domain_radius"])

    def test_regularity_report(self):
        report = RegularityReport(True, True, -0.5, -0.49)
        assert report.to_dict() == self.asdict_form(report, [])
