import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerexact import EmdenState2D, EmdenState3D, Field2D, Field3D, PhysParams

from _oracles import central_diff, second_diff


def params(K=1.0, gamma=1.4, lam=0.0, alpha=1.0, xi=1.0, mu=0.0):
    return PhysParams(K=K, gamma=gamma, lam=lam, alpha=alpha, xi=xi, mu=mu)


def _real(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# a grid axis of 1 to 6 points
_axis = st.lists(_real(-4.0, 4.0), min_size=1, max_size=6)


def field3(p, a=1.0, ad=0.0, b=1.0, bd=0.0, t=0.0):
    return Field3D.from_params(p, EmdenState3D(t, a, ad, b, bd))


class TestEval3D:
    def test_origin(self):
        fld = field3(params(gamma=1.0, alpha=3.0, lam=1.0))
        smp = fld.eval(0.0, 0.0, 0.0)
        assert smp.rho == pytest.approx(3.0)
        assert (smp.u1, smp.u2, smp.u3) == (0.0, 0.0, 0.0)
        assert smp.s == 0.0

    def test_velocity_substitution(self):
        fld = field3(params(xi=3.0), a=1.0, ad=2.0, b=1.0, bd=0.0)
        smp = fld.eval(1.0, 0.0, 0.0)
        assert (smp.u1, smp.u2, smp.u3) == (2.0, 3.0, 0.0)

    def test_velocity_and_similarity(self):
        fld = field3(params(xi=1.0), a=1.0, ad=0.0, b=2.0, bd=4.0)
        smp = fld.eval(0.0, 1.0, 1.0)
        assert (smp.u1, smp.u2, smp.u3) == (-1.0, 0.0, 2.0)
        assert smp.s == pytest.approx(1.25)

    def test_pressure_law(self):
        p = params(K=1.7, gamma=1.5, lam=1.0, alpha=2.0)
        fld = field3(p, a=1.2, b=0.9)
        smp = fld.eval(0.3, -0.2, 0.4)
        assert smp.pressure == pytest.approx(p.K * smp.rho**p.gamma, rel=1e-14)

    def test_density_positivity_bulk(self):
        rng = np.random.default_rng(5)
        for gamma, lam in [(1.0, 2.0), (1.5, 1.0), (2.5, -0.7), (1.4, 0.0)]:
            fld = field3(params(gamma=gamma, lam=lam, alpha=1.3),
                         a=rng.uniform(0.5, 2.0), ad=rng.normal(),
                         b=rng.uniform(0.5, 2.0), bd=rng.normal())
            pts = rng.uniform(-3.0, 3.0, size=(3, 250_000))
            rho = fld.eval_grid(pts[0], pts[1], pts[2])["rho"]
            assert np.all(rho >= 0.0)

    def test_support_geometry(self):
        p = params(gamma=1.5, lam=1.0, alpha=1.0)
        fld = field3(p, a=1.3, b=0.8)
        sstar = fld.profile.cutoff_s
        rng = np.random.default_rng(11)
        for _ in range(300):
            x, y, z = rng.uniform(-4.0, 4.0, size=3)
            smp = fld.eval(x, y, z)
            inside = smp.s < sstar
            assert (smp.rho > 0.0) == inside
            assert (smp.rho == 0.0) == (smp.s >= sstar)

    def test_velocity_linear_in_space(self):
        fld = field3(params(xi=1.7), a=1.2, ad=0.4, b=0.9, bd=-0.3)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x, y, z = rng.uniform(-2.0, 2.0, size=3)
            c = rng.uniform(0.1, 3.0)
            base = fld.eval(x, y, z)
            scaled = fld.eval(c * x, c * y, c * z)
            for comp in ("u1", "u2", "u3"):
                assert getattr(scaled, comp) == pytest.approx(
                    c * getattr(base, comp), rel=1e-13, abs=1e-15)
        # powers of two scale exactly
        base = fld.eval(0.3, -0.7, 0.2)
        doubled = fld.eval(0.6, -1.4, 0.4)
        assert doubled.u1 == 2.0 * base.u1
        assert doubled.u2 == 2.0 * base.u2
        assert doubled.u3 == 2.0 * base.u3

    def test_eval_grid_matches_scalar(self):
        fld = field3(params(gamma=1.5, lam=1.0, xi=1.3), a=1.1, ad=0.2, b=0.9, bd=0.1)
        rng = np.random.default_rng(8)
        xs, ys, zs = rng.uniform(-1.5, 1.5, size=(3, 40))
        g = fld.eval_grid(xs, ys, zs)
        for i in range(40):
            smp = fld.eval(xs[i], ys[i], zs[i])
            assert g["rho"][i] == pytest.approx(smp.rho, rel=1e-15, abs=0.0)
            assert g["u1"][i] == pytest.approx(smp.u1, rel=1e-15)
            assert g["p"][i] == pytest.approx(smp.pressure, rel=1e-15, abs=0.0)


class TestVorticity:
    def test_analytic_values(self):
        assert field3(params(xi=3.0), a=2.0).vorticity(0.5, 0.5, 0.5) == (0.0, 0.0, 1.5)
        assert field3(params(xi=0.0), a=1.0).vorticity(1.0, 0.0, 0.0) == (0.0, 0.0, 0.0)
        assert field3(params(xi=1.0), a=1.0).vorticity(0.0, 0.0, 0.0) == (0.0, 0.0, 2.0)

    def test_fd_curl_oracle(self):
        fld = field3(params(xi=1.4), a=1.3, ad=0.5, b=0.8, bd=-0.2)
        h = 1e-5
        rng = np.random.default_rng(17)
        for _ in range(25):
            x, y, z = rng.uniform(-1.0, 1.0, size=3)
            du3_dy = central_diff(lambda q: fld.eval(x, q, z).u3, y, h)
            du2_dz = central_diff(lambda q: fld.eval(x, y, q).u2, z, h)
            du1_dz = central_diff(lambda q: fld.eval(x, y, q).u1, z, h)
            du3_dx = central_diff(lambda q: fld.eval(q, y, z).u3, x, h)
            du2_dx = central_diff(lambda q: fld.eval(q, y, z).u2, x, h)
            du1_dy = central_diff(lambda q: fld.eval(x, q, z).u1, y, h)
            curl = (du3_dy - du2_dz, du1_dz - du3_dx, du2_dx - du1_dy)
            want = fld.vorticity(x, y, z)
            for got, expect in zip(curl, want):
                assert got == pytest.approx(expect, abs=1e-8)

    def test_uniform_across_points(self):
        fld = field3(params(xi=2.2), a=1.7, ad=0.3, b=1.1, bd=0.2)
        w0 = fld.vorticity(0.0, 0.0, 0.0)
        rng = np.random.default_rng(23)
        for _ in range(20):
            x, y, z = rng.uniform(-2.0, 2.0, size=3)
            assert fld.vorticity(x, y, z) == w0


class TestVelocityLaplacian:
    def test_exactly_zero(self):
        fld = field3(params(xi=1.0), a=1.0, ad=0.5, b=1.0, bd=0.5)
        assert fld.velocity_laplacian(0.3, 0.4, 0.5) == (0.0, 0.0, 0.0)

    def test_fd_second_differences_tiny(self):
        # u is linear in space: second differences are pure rounding noise
        fld = field3(params(xi=0.8), a=1.2, ad=0.3, b=0.9, bd=-0.2)
        h = 1e-3
        rng = np.random.default_rng(31)
        for _ in range(20):
            x, y, z = rng.uniform(-0.8, 0.8, size=3)
            for comp in ("u1", "u2", "u3"):
                lap = (second_diff(lambda q: getattr(fld.eval(q, y, z), comp), x, h)
                       + second_diff(lambda q: getattr(fld.eval(x, q, z), comp), y, h)
                       + second_diff(lambda q: getattr(fld.eval(x, y, q), comp), z, h))
                assert abs(lap) < 1e-9

    def test_2d_analogue(self):
        fld = Field2D.from_params(params(xi=1.0), EmdenState2D(0.0, 1.1, 0.4))
        assert fld.velocity_laplacian(0.5, -0.3) == (0.0, 0.0)


class TestEval2D:
    def test_origin(self):
        fld = Field2D.from_params(params(gamma=1.0, alpha=1.0, lam=1.0),
                                  EmdenState2D(0.0, 1.0, 0.0))
        smp = fld.eval(0.0, 0.0)
        assert smp.rho == pytest.approx(1.0)
        assert (smp.u1, smp.u2) == (0.0, 0.0)

    def test_velocity(self):
        fld = Field2D.from_params(params(xi=4.0), EmdenState2D(0.0, 2.0, 2.0))
        smp = fld.eval(1.0, 1.0)
        assert smp.u1 == pytest.approx(0.0, abs=1e-15)
        assert smp.u2 == pytest.approx(2.0)

    def test_compact_density(self):
        fld = Field2D.from_params(params(gamma=2.0, K=1.0, lam=2.0, alpha=1.0),
                                  EmdenState2D(0.0, 1.0, 0.0))
        assert fld.eval(1.0, 0.0).rho == pytest.approx(0.5)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.builds(params, K=_real(0.2, 3.0), gamma=st.one_of(st.just(1.0), _real(1.0, 3.0)),
                     lam=_real(-2.0, 2.0), alpha=_real(0.0, 2.0), xi=_real(-2.0, 2.0)),
           _real(0.3, 3.0), _real(-2.0, 2.0), _axis, _axis)
    def test_planar_slice_of_3d(self, p, a, a_dot, xs, ys):
        # the planar state padded with b = 1, b' = 0 is the 3D state whose
        # field at z = 0 is the planar field bit for bit, with u3 = +0.0
        X, Y = np.meshgrid(np.array(xs), np.array(ys), indexing="ij", sparse=True)
        g2 = Field2D.from_params(p, EmdenState2D(0.0, a, a_dot)).eval_grid(X, Y)
        g3 = Field3D.from_params(p, EmdenState3D(0.0, a, a_dot, 1.0, 0.0)).eval_grid(X, Y, 0.0)
        for k2, k3 in (("rho", "rho"), ("u1", "u1"), ("u2", "u2"), ("eta", "s"), ("p", "p")):
            assert g2[k2].tobytes() == g3[k3].tobytes(), k2
        assert np.float64(g3["u3"]).tobytes() == np.float64(0.0).tobytes()


class TestWrongDimension:
    # Field3D read a missing b off a planar state, and Field2D dropped the
    # b of a 3D one; each now names the dimension it needs
    P = params(gamma=1.5, lam=-1.0, xi=1.0)

    def test_field3d_rejects_a_planar_state(self):
        with pytest.raises(ValueError, match="^Field3D requires a 3D state, got a 2D one$"):
            Field3D.from_params(self.P, EmdenState2D(0.0, 1.1, 0.0))

    def test_field2d_rejects_a_3d_state(self):
        with pytest.raises(ValueError, match="^Field2D requires a 2D state, got a 3D one$"):
            Field2D.from_params(self.P, EmdenState3D(0.0, 1.1, 0.0, 0.5, -3.0))
