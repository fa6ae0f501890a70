import math

import numpy as np
import pytest

from eulerexact import (DensityProfile, NonSmoothCutoffWarning, PhysParams,
                        similarity_eta, similarity_s)


def make_profile(K=1.0, gamma=1.4, lam=1.0, alpha=1.0, xi=1.0):
    return DensityProfile(PhysParams(K=K, gamma=gamma, lam=lam, alpha=alpha, xi=xi))


class TestPhysParams:
    def test_construction_rejects_bad_constants(self):
        with pytest.raises(ValueError, match="K"):
            PhysParams(K=0.0, gamma=1.4, lam=1.0, alpha=1.0, xi=1.0)
        with pytest.raises(ValueError, match="K"):
            PhysParams(K=-1.0, gamma=1.4, lam=1.0, alpha=1.0, xi=1.0)
        with pytest.raises(ValueError, match="gamma"):
            PhysParams(K=1.0, gamma=0.5, lam=1.0, alpha=1.0, xi=1.0)
        with pytest.raises(ValueError, match="alpha"):
            PhysParams(K=1.0, gamma=1.4, lam=1.0, alpha=-0.1, xi=1.0)
        with pytest.raises(ValueError, match="mu"):
            PhysParams(K=1.0, gamma=1.4, lam=1.0, alpha=1.0, xi=1.0, mu=-1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            PhysParams(K=math.nan, gamma=1.4, lam=1.0, alpha=1.0, xi=1.0)

    @pytest.mark.parametrize("name", ["K", "gamma", "lam", "alpha", "xi", "mu"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, name, value):
        kwargs = dict(K=1.0, gamma=1.4, lam=1.0, alpha=1.0, xi=1.0, mu=0.0)
        kwargs[name] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            PhysParams(**kwargs)

    def test_zero_xi_flagged_not_rejected(self):
        p = PhysParams(K=1.0, gamma=1.4, lam=1.0, alpha=1.0, xi=0.0)
        assert not p.is_rotational
        assert PhysParams(K=1.0, gamma=1.4, lam=1.0, alpha=1.0, xi=2.0).is_rotational

    def test_isothermal_detection(self):
        assert PhysParams(K=1.0, gamma=1.0, lam=1.0, alpha=1.0, xi=1.0).is_isothermal
        assert PhysParams(K=1.0, gamma=1.0 + 1e-13, lam=1.0, alpha=1.0, xi=1.0).is_isothermal
        assert not PhysParams(K=1.0, gamma=1.1, lam=1.0, alpha=1.0, xi=1.0).is_isothermal


class TestShapeValue:
    def test_isothermal_at_origin(self):
        prof = make_profile(gamma=1.0, K=1.0, lam=2.0, alpha=3.0)
        assert prof.value(0.0) == 3.0

    def test_isothermal_decay(self):
        prof = make_profile(gamma=1.0, K=1.0, lam=2.0, alpha=3.0)
        assert prof.value(1.0) == pytest.approx(3.0 * math.exp(-1.0), rel=1e-15)
        assert prof.value(1.0) == pytest.approx(1.103638, rel=1e-6)

    def test_compact_ramp(self):
        # slope lam(gamma-1)/(2 K gamma) = 0.5, so f = max(1 - 0.5 s, 0)
        prof = make_profile(gamma=2.0, K=1.0, lam=2.0, alpha=1.0)
        assert prof.value(2.0) == 0.0
        assert prof.value(1.0) == 0.5
        assert prof.cutoff_s == pytest.approx(2.0)

    def test_negative_lam_growth(self):
        prof = make_profile(gamma=2.0, K=1.0, lam=-2.0, alpha=1.0)
        assert prof.value(4.0) == pytest.approx(3.0)
        assert prof.cutoff_s is None

    def test_no_cutoff_for_lam_zero(self):
        prof = make_profile(gamma=1.7, lam=0.0, alpha=2.0)
        assert prof.cutoff_s is None
        assert prof.value(100.0) == pytest.approx(2.0 ** (1.0 / 0.7))

    def test_value_at_origin_is_power_of_intercept(self):
        # alpha is the ramp intercept, so f(0) = alpha^(1/(gamma-1)) for
        # gamma > 1 and f(0) = alpha in the isothermal branch
        for gamma in (1.0, 1.3, 2.0, 3.0):
            for lam in (-1.5, 0.0, 1.5):
                prof = make_profile(gamma=gamma, lam=lam, alpha=2.5)
                expected = 2.5 if gamma == 1.0 else 2.5 ** (1.0 / (gamma - 1.0))
                assert prof.value(0.0) == pytest.approx(expected, rel=1e-14)

    def test_vacuum(self):
        for gamma in (1.0, 1.5, 2.5):
            prof = make_profile(gamma=gamma, lam=1.0, alpha=0.0)
            assert prof.value(0.0) == 0.0
            assert prof.value(3.0) == 0.0

    def test_negative_s_rejected(self):
        prof = make_profile()
        with pytest.raises(ValueError):
            prof.value(-0.1)
        with pytest.raises(ValueError):
            prof.derivative(-0.1)
        with pytest.raises(ValueError):
            prof.value_many(np.array([0.5, -0.1]))

    def test_near_isothermal_gamma_uses_exponential_branch(self):
        base = make_profile(gamma=1.0, lam=2.0, alpha=3.0)
        near = make_profile(gamma=1.0 + 1e-13, lam=2.0, alpha=3.0)
        for s in (0.0, 0.5, 2.0):
            assert near.value(s) == base.value(s)

    def test_value_many_matches_scalar(self):
        rng = np.random.default_rng(7)
        for gamma, lam in [(1.0, 2.0), (1.5, 1.0), (2.5, -0.7)]:
            prof = make_profile(gamma=gamma, lam=lam, alpha=1.3)
            s = rng.uniform(0.0, 5.0, size=50)
            vec = prof.value_many(s)
            for si, vi in zip(s, vec):
                assert vi == pytest.approx(prof.value(si), rel=1e-15, abs=0.0)


class TestShapeDerivative:
    def test_isothermal_slope(self):
        prof = make_profile(gamma=1.0, K=1.0, lam=2.0, alpha=3.0)
        assert prof.derivative(0.0) == pytest.approx(-3.0, rel=1e-15)

    def test_ramp_slope(self):
        prof = make_profile(gamma=2.0, K=1.0, lam=2.0, alpha=1.0)
        assert prof.derivative(1.0) == pytest.approx(-0.5, rel=1e-15)
        assert prof.derivative(3.0) == 0.0

    def test_at_cutoff_c1_case(self):
        prof = make_profile(gamma=1.5, lam=1.0, alpha=1.0)
        assert prof.derivative(prof.cutoff_s) == 0.0

    def test_at_cutoff_warns_for_gamma_ge_2(self):
        prof = make_profile(gamma=2.0, lam=1.0, alpha=1.0)
        with pytest.warns(NonSmoothCutoffWarning):
            prof.derivative(prof.cutoff_s)
        prof = make_profile(gamma=3.0, lam=1.0, alpha=1.0)
        with pytest.warns(NonSmoothCutoffWarning):
            prof.derivative(prof.cutoff_s)

    def test_defining_ode_consistency(self):
        # lam + 2 K gamma f^(gamma-2) f' = 0 on the support interior
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            gamma = 1.0 if rng.random() < 0.25 else rng.uniform(1.05, 3.0)
            K = rng.uniform(0.1, 5.0)
            lam = rng.uniform(-3.0, 3.0)
            if lam == 0.0:
                lam = 0.5
            alpha = rng.uniform(0.1, 4.0)
            prof = make_profile(gamma=gamma, K=K, lam=lam, alpha=alpha)
            if prof.cutoff_s is not None:
                s = rng.uniform(0.0, 0.95) * prof.cutoff_s
            else:
                s = rng.uniform(0.0, 5.0)
            f = prof.value(s)
            fdot = prof.derivative(s)
            residual = lam + 2.0 * K * gamma * f ** (gamma - 2.0) * fdot
            assert abs(residual) <= 1e-10 * abs(lam)

    def test_monotonicity_sign(self):
        rng = np.random.default_rng(99)
        for lam in (-2.0, -0.3, 0.0, 0.4, 2.0):
            for gamma in (1.0, 1.5, 2.5):
                prof = make_profile(gamma=gamma, lam=lam, alpha=1.5)
                hi = 0.9 * prof.cutoff_s if prof.cutoff_s is not None else 4.0
                for s in rng.uniform(0.0, hi, size=20):
                    d = prof.derivative(s)
                    if lam == 0.0:
                        assert d == 0.0
                    else:
                        assert math.copysign(1.0, d) == -math.copysign(1.0, lam)


class TestCutoffRegularity:
    def test_cutoff_continuity(self):
        # f(s* - eps) = (slope * eps)^(1/(gamma-1)) -> 0 as eps -> 0
        for gamma in (1.2, 1.5, 1.8):
            prof = make_profile(gamma=gamma, lam=1.3, alpha=1.0)
            sstar = prof.cutoff_s
            c = prof.slope_coefficient
            for k in range(4, 9):
                eps = 10.0 ** (-k)
                expected = (c * eps) ** (1.0 / (gamma - 1.0))
                assert prof.value(sstar - eps) == pytest.approx(expected, rel=1e-8)
            assert prof.value(sstar - 1e-8) < 1e-8 ** (1.0 / (gamma - 1.0)) * (c + 1.0)

    def test_one_sided_quotient_vanishes_iff_gamma_below_2(self):
        def quotient(prof, eps):
            sstar = prof.cutoff_s
            return (prof.value(sstar) - prof.value(sstar - eps)) / eps

        prof = make_profile(gamma=1.5, lam=1.0, alpha=1.0)
        qs = [abs(quotient(prof, 10.0 ** (-k))) for k in range(3, 8)]
        assert all(q2 < q1 for q1, q2 in zip(qs, qs[1:]))
        assert qs[-1] < 1e-6

        # cancellation in alpha - slope * (s* - eps) limits the quotient
        # accuracy to ~1e-16/eps, so keep eps >= 1e-6 and tolerance loose
        prof = make_profile(gamma=2.0, lam=1.0, alpha=1.0)
        qs = [quotient(prof, 10.0 ** (-k)) for k in range(3, 7)]
        assert all(q == pytest.approx(-0.25, rel=1e-7) for q in qs)

        prof = make_profile(gamma=3.0, lam=1.0, alpha=1.0)
        qs = [abs(quotient(prof, 10.0 ** (-k))) for k in range(3, 8)]
        assert all(q2 > q1 for q1, q2 in zip(qs, qs[1:]))
        assert qs[-1] > 1e2


class TestSimilarity:
    def test_values(self):
        assert similarity_s(2.0, 0.0, 0.0, 2.0, 1.0) == 1.0
        assert similarity_s(0.0, 0.0, 3.0, 1.0, 3.0) == 1.0
        assert similarity_s(1.0, 1.0, 1.0, 1.0, 1.0) == 3.0
        assert similarity_eta(3.0, 4.0, 5.0) == 1.0

    def test_zero_only_at_origin(self):
        assert similarity_s(0.0, 0.0, 0.0, 2.0, 3.0) == 0.0
        assert similarity_s(1e-8, 0.0, 0.0, 2.0, 3.0) > 0.0

    def test_nonpositive_scale_factors_rejected(self):
        with pytest.raises(ValueError):
            similarity_s(1.0, 0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            similarity_s(1.0, 0.0, 0.0, 1.0, -2.0)
        with pytest.raises(ValueError):
            similarity_eta(1.0, 0.0, 0.0)
