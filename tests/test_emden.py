import dataclasses
import hashlib
import inspect
import json
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eulerexact import (EmdenState2D, EmdenState3D, PhysParams, RunConfig, Trajectory,
                        advance, emden_rhs_2d, emden_rhs_3d, energy_2d,
                        energy_3d, integrate)
from eulerexact import emden
from eulerexact._tableaux import RK45_P_BOUND
from eulerexact.emden import MIN_REL_TOL, RunOptions

from _oracles import (dp5_dense_rows, dp5_step, ermakov_pinney, ermakov_pinney_collapse,
                      isothermal_fall_time, rhs_2d_arrays, rhs_2d_floats, rhs_3d_arrays,
                      rhs_3d_floats, rk4_fixed, scipy_run)


def params(K=1.0, gamma=1.4, lam=0.0, alpha=1.0, xi=1.0, mu=0.0):
    return PhysParams(K=K, gamma=gamma, lam=lam, alpha=alpha, xi=xi, mu=mu)


class TestStates:
    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            EmdenState3D(0.0, -1.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            EmdenState3D(0.0, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            EmdenState2D(0.0, 0.0, 1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, value):
        for i, name in enumerate(["t", "a", "a_dot", "b", "b_dot"]):
            y = [0.0, 1.0, 0.0, 1.0, 0.0]
            y[i] = value
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                EmdenState3D(*y)
            if i < 3:
                with pytest.raises(ValueError, match=f"^{name} must be finite"):
                    EmdenState2D(*y[:3])


class TestRhs:
    def test_3d_lam_zero(self):
        st = EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.0)
        ad, add, bd, bdd = emden_rhs_3d(st, params(gamma=1.4, lam=0.0, xi=1.0))
        assert (ad, add, bd, bdd) == (0.0, 1.0, 0.0, 0.0)

    def test_3d_unit_state(self):
        st = EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.0)
        _, add, _, bdd = emden_rhs_3d(st, params(gamma=2.0, lam=2.0, xi=1.0))
        assert add == pytest.approx(3.0)
        assert bdd == pytest.approx(2.0)

    def test_3d_scaled(self):
        st = EmdenState3D(0.0, 2.0, 0.0, 1.0, 0.0)
        _, add, _, bdd = emden_rhs_3d(st, params(gamma=1.0, lam=0.0, xi=2.0))
        assert add == pytest.approx(0.5)
        assert bdd == 0.0

    def test_2d_equilibrium(self):
        st = EmdenState2D(0.0, 1.0, 0.0)
        _, add = emden_rhs_2d(st, params(gamma=1.5, lam=-1.0, xi=1.0))
        assert add == pytest.approx(0.0, abs=1e-15)

    def test_2d_isothermal(self):
        st = EmdenState2D(0.0, 1.0, 0.0)
        _, add = emden_rhs_2d(st, params(gamma=1.0, lam=1.0, xi=2.0))
        assert add == pytest.approx(5.0)

    def test_2d_free_motion(self):
        st = EmdenState2D(0.0, 2.0, 1.0)
        ad, add = emden_rhs_2d(st, params(gamma=1.4, lam=0.0, xi=0.0))
        assert (ad, add) == (1.0, 0.0)


class TestEnergy:
    def test_3d_swirl_only(self):
        st = EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.0)
        assert energy_3d(st, params(gamma=1.4, lam=0.0, xi=1.0)) == pytest.approx(0.5)

    def test_3d_kinetic(self):
        st = EmdenState3D(0.0, 1.0, 2.0, 1.0, 2.0)
        assert energy_3d(st, params(gamma=2.0, lam=0.0, xi=1.0)) == pytest.approx(3.5)

    def test_2d_attractive_potential(self):
        st = EmdenState2D(0.0, 1.0, 0.0)
        assert energy_2d(st, params(gamma=1.5, lam=-1.0, xi=1.0)) == pytest.approx(-0.5)

    def test_2d_pure_kinetic(self):
        st = EmdenState2D(0.0, 1.0, 1.0)
        assert energy_2d(st, params(gamma=2.0, lam=0.0, xi=0.0)) == pytest.approx(0.5)


class TestIntegrate:
    def test_rel_tol_floor_is_the_steppers_own(self):
        # MIN_REL_TOL runs as given (the test suite turns scipy's clamp
        # warning into an error); anything below it is rejected
        p = params()
        ic = EmdenState3D(0.0, 1.0, 0.3, 1.2, -0.2)
        assert MIN_REL_TOL == 100 * np.finfo(float).eps
        for method in ("RK45", "DOP853"):
            integrate(p, ic, 0.1, rel_tol=MIN_REL_TOL, method=method)
            with pytest.raises(ValueError, match="rel_tol must lie in"):
                integrate(p, ic, 0.1, rel_tol=np.nextafter(MIN_REL_TOL, 0.0), method=method)

    def test_linear_collapse_detected(self):
        # lam = 0 leaves b'' = 0, so b = 1 - t crosses the floor at T ~ 1
        p = params(gamma=1.4, lam=0.0, xi=1.0)
        traj = integrate(p, EmdenState3D(0.0, 1.0, 0.0, 1.0, -1.0), 2.0)
        term = traj.termination
        assert term.kind == "blowup"
        assert term.which == "b"
        assert term.t_est == pytest.approx(1.0, rel=1e-8)
        assert term.bracket_width is not None

    def test_constant_b_and_growing_a(self):
        p = params(gamma=1.4, lam=0.0, xi=1.0)
        traj = integrate(p, EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.0), 10.0)
        assert traj.termination.kind == "reached_t_end"
        bs = [st.b for st in traj.states]
        assert all(b == pytest.approx(1.0, rel=1e-12) for b in bs)
        avals = [st.a for st in traj.states]
        assert all(a2 > a1 for a1, a2 in zip(avals, avals[1:]))

    def test_global_growth_matches_rk4_oracle(self):
        p = params(gamma=1.0, lam=1.0, xi=1.0)
        traj = integrate(p, EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.0), 5.0,
                         dense_times=[1.0, 5.0])
        assert traj.termination.kind == "reached_t_end"
        final = traj.states[-1]
        assert final.a > 1.0 and final.b > 1.0
        oracle = rk4_fixed(rhs_3d_floats, (1.0, 0.0, 1.0, 0.0), (0.0, 1.0), 1e-5,
                           (p.K, p.gamma, p.lam, p.xi))
        st1 = traj.states[0]
        got = np.array([st1.a, st1.a_dot, st1.b, st1.b_dot])
        assert np.allclose(got, oracle, rtol=1e-7)

    def test_lam_zero_b_exactly_linear(self):
        p = params(gamma=1.7, lam=0.0, xi=1.3)
        b0, b1 = 2.0, 0.4
        times = [0.5, 1.0, 2.0, 4.0]
        traj = integrate(p, EmdenState3D(0.0, 1.0, -0.2, b0, b1), 4.0,
                         dense_times=times)
        for st in traj.states:
            assert st.b == pytest.approx(b0 + b1 * st.t, rel=1e-12)
            assert st.b_dot == pytest.approx(b1, rel=1e-12)

    def test_lam_positive_accelerations_positive(self):
        p = params(gamma=1.5, lam=0.8, xi=1.0)
        traj = integrate(p, EmdenState3D(0.0, 1.0, -0.3, 1.0, -0.4), 6.0)
        for st in traj.states:
            _, add, _, bdd = emden_rhs_3d(st, p)
            assert add > 0.0
            assert bdd > 0.0

    def test_lam_negative_b_dot_strictly_decreasing(self):
        p = params(gamma=1.5, lam=-0.5, xi=1.0)
        traj = integrate(p, EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.6), 3.0)
        for st in traj.states:
            _, _, _, bdd = emden_rhs_3d(st, p)
            assert bdd < 0.0
        bdots = [st.b_dot for st in traj.states]
        assert all(b2 < b1 for b1, b2 in zip(bdots, bdots[1:]))

    def test_reversibility(self):
        p = params(gamma=1.5, lam=0.7, xi=1.2)
        fwd = integrate(p, EmdenState3D(0.0, 1.0, 0.3, 1.1, -0.2), 3.0,
                        dense_times=[3.0])
        end = fwd.states[-1]
        back = integrate(p, EmdenState3D(0.0, end.a, -end.a_dot, end.b, -end.b_dot),
                         3.0, dense_times=[3.0])
        ret = back.states[-1]
        assert ret.a == pytest.approx(1.0, rel=1e-6)
        assert ret.b == pytest.approx(1.1, rel=1e-6)
        assert ret.a_dot == pytest.approx(-0.3, rel=1e-5, abs=1e-8)

    def test_adaptive_matches_rk4_oracle_on_random_draws(self):
        # 50 lam >= 0 parameter draws, all integrated to t = 1 and compared
        # against a vectorized fixed-step RK4 at dt = 1e-4 (within 1.1e-11 of
        # the same oracle at dt = 1e-5 on these draws)
        rng = np.random.default_rng(2024)
        n = 50
        gammas = np.where(rng.random(n) < 0.2, 1.0, rng.uniform(1.05, 2.5, n))
        lams = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(0.0, 2.0, n))
        xis = rng.uniform(0.5, 2.0, n)
        y0 = np.stack([rng.uniform(0.7, 1.5, n), rng.uniform(-0.5, 0.5, n),
                       rng.uniform(0.7, 1.5, n), rng.uniform(-0.5, 0.5, n)])
        # one vectorized oracle pass per distinct parameter row is wasteful;
        # instead run the whole batch through RK4 with per-column parameters
        def rhs(y, K, gamma, lam, xi):
            return rhs_3d_arrays(y, K, gamma, lam, xi)

        oracle = rk4_fixed(rhs, y0, (0.0, 1.0), 1e-4, (1.0, gammas, lams, xis))
        for i in range(n):
            p = params(gamma=float(gammas[i]), lam=float(lams[i]), xi=float(xis[i]))
            traj = integrate(p, EmdenState3D(0.0, *(float(v) for v in y0[:, i])),
                             1.0, dense_times=[1.0])
            st = traj.states[-1]
            got = np.array([st.a, st.a_dot, st.b, st.b_dot])
            assert np.allclose(got, oracle[:, i], rtol=1e-7, atol=1e-9), i

    def test_energy_drift_small(self):
        for gamma in (1.0, 1.5, 2.0, 3.0):
            p = params(gamma=gamma, lam=1.3, xi=1.1)
            ic = EmdenState3D(0.0, 1.0, 0.2, 1.1, -0.1)
            traj = integrate(p, ic, 10.0)
            e0 = energy_3d(ic, p)
            drift = max(abs(e - e0) for e in traj.energies())
            assert drift <= 1e-8 * max(1.0, abs(e0))

    def test_hard_collapse_reports_blowup(self):
        # gamma = 2, lam < 0: b collapses with diverging velocity; detection
        # may come from the floor event or from step underflow mid-collapse
        p = params(gamma=2.0, lam=-1.0, xi=1.0)
        traj = integrate(p, EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.0), 10.0)
        term = traj.termination
        assert term.kind == "blowup"
        assert term.which == "b"
        assert 1.0 < term.t_est < 1.2

    def test_2d_integration_and_energy(self):
        p = params(gamma=1.5, lam=-1.0, xi=1.0)
        ic = EmdenState2D(0.0, 1.1, 0.0)
        traj = integrate(p, ic, 10.0)
        assert traj.termination.kind == "reached_t_end"
        e0 = energy_2d(ic, p)
        assert max(abs(e - e0) for e in traj.energies()) <= 1e-8 * max(1.0, abs(e0))
        oracle = rk4_fixed(rhs_2d_floats, (1.1, 0.0), (0.0, 1.0), 1e-5,
                           (p.K, p.gamma, p.lam, p.xi))
        st = traj.state_at(1.0)
        assert st.a == pytest.approx(float(oracle[0]), rel=1e-8)

    def test_max_steps_exhaustion(self):
        p = params(gamma=1.4, lam=1.0, xi=1.0)
        traj = integrate(p, EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.0), 10.0, max_steps=3)
        assert traj.termination.kind == "step_failure"
        assert "max_steps" in traj.termination.detail

    def test_argument_validation(self):
        p = params()
        ic = EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate(p, ic, 0.0)
        with pytest.raises(ValueError):
            integrate(p, ic, 1.0, rel_tol=2.0)
        with pytest.raises(ValueError):
            integrate(p, ic, 1.0, dense_times=[0.5, 0.5])
        with pytest.raises(ValueError):
            integrate(p, ic, 1.0, dense_times=[0.5, 2.0])
        with pytest.raises(ValueError):
            integrate(p, ic, 1.0, method="EULER")
        for t_end in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="t_end"):
                integrate(p, ic, t_end)

    @pytest.mark.parametrize("option, value", [
        ("eps_blow", 0.0), ("eps_blow", -1.0), ("eps_blow", math.nan), ("eps_blow", math.inf),
        ("max_steps", 0), ("max_steps", -3),
    ])
    def test_run_option_out_of_range_is_rejected(self, option, value):
        # before the run: no silent floor at or below zero, no instant step_failure
        ic = EmdenState3D(0.0, 1.0, 0.0, 1.0, -1.0)
        with pytest.raises(ValueError, match=f"^{option} must"):
            integrate(params(), ic, 2.0, **{option: value})

    def test_run_option_defaults_are_one_set(self):
        names = [f.name for f in dataclasses.fields(RunOptions)]
        signature = inspect.signature(integrate).parameters
        defaults = {name: signature[name].default for name in names}
        assert RunOptions(**defaults) == RunOptions() == RunOptions(**RunConfig().run_options())

    def test_eps_blow_override(self):
        p = params(gamma=1.4, lam=0.0, xi=1.0)
        traj = integrate(p, EmdenState3D(0.0, 1.0, 0.0, 1.0, -1.0), 2.0,
                         eps_blow=0.5)
        assert traj.termination.kind == "blowup"
        assert traj.termination.t_est == pytest.approx(0.5, rel=1e-9)

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    @pytest.mark.parametrize("ic, eps_blow, name", [
        (EmdenState3D(0.0, 1.0, 0.0, 2.0, 0.3), 1.5, "a"),
        (EmdenState3D(0.0, 2.0, 0.0, 0.3, 0.3), 0.3, "b"),
        (EmdenState2D(0.0, 0.7, 0.0), 0.7, "a"),
    ])
    def test_floor_at_or_above_the_start_is_rejected(self, method, ic, eps_blow, name):
        # not a collapse at t = 0, which is where the floor would put it
        with pytest.raises(ValueError, match=f"^eps_blow must lie below .* of {name}, got "):
            integrate(params(gamma=1.5, lam=-1.0), ic, 3.0, eps_blow=eps_blow, method=method)

    def test_dop853_method(self):
        p = params(gamma=1.5, lam=1.0, xi=1.0)
        ic = EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.0)
        t_rk = integrate(p, ic, 2.0, dense_times=[2.0]).states[-1]
        t_dp = integrate(p, ic, 2.0, dense_times=[2.0], method="DOP853").states[-1]
        assert t_rk.a == pytest.approx(t_dp.a, rel=1e-9)


class TestTrajectory:
    def test_state_at_bounds(self):
        p = params(lam=0.0)
        traj = integrate(p, EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.0), 2.0)
        st = traj.state_at(1.3)
        assert st.t == 1.3
        with pytest.raises(ValueError):
            traj.state_at(2.5)
        with pytest.raises(ValueError):
            traj.state_at(-0.1)

    def test_sample_times_strictly_increasing(self):
        p = params()
        s0 = EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.0)
        s1 = EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.0)
        from eulerexact import Termination
        with pytest.raises(ValueError):
            Trajectory(params=p, dim=3, initial_state=s0, states=[s0, s1],
                       termination=Termination("reached_t_end"), t_span=(0.0, 0.0))

    def test_jsonl_roundtrip(self):
        p = params(gamma=1.0, lam=1.0)
        traj = integrate(p, EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.0), 1.0,
                         dense_times=[0.0, 0.5, 1.0])
        lines = traj.jsonl_lines()
        assert len(lines) == 4
        first = json.loads(lines[0])
        assert list(first) == ["t", "a", "a_dot", "b", "b_dot", "energy"]
        assert first["a"] == 1.0
        last = json.loads(lines[-1])
        assert last["termination"]["kind"] == "reached_t_end"

    def test_jsonl_blowup_record(self):
        p = params(gamma=1.4, lam=0.0)
        traj = integrate(p, EmdenState3D(0.0, 1.0, 0.0, 1.0, -1.0), 2.0)
        last = json.loads(traj.jsonl_lines()[-1])
        assert last["termination"]["kind"] == "blowup"
        assert last["termination"]["which"] == "b"
        assert last["termination"]["t_est"] == pytest.approx(1.0, rel=1e-8)

    def test_2d_jsonl_keys(self):
        p = params(gamma=1.5, lam=-1.0)
        traj = integrate(p, EmdenState2D(0.0, 1.1, 0.0), 1.0, dense_times=[0.5])
        rec = json.loads(traj.jsonl_lines()[0])
        assert list(rec) == ["t", "a", "a_dot", "energy"]


class TestAdvance:
    def test_matches_dense_output(self):
        p = params(gamma=1.5, lam=0.9, xi=1.1)
        ic = EmdenState3D(0.0, 1.0, 0.3, 1.2, -0.2)
        traj = integrate(p, ic, 0.02, rel_tol=1e-12, abs_tol=1e-14)
        got = advance(p, ic, 0.01)
        want = traj.state_at(0.01)
        assert got.a == pytest.approx(want.a, rel=1e-11)
        assert got.b == pytest.approx(want.b, rel=1e-11)

    def test_zero_dt_is_identity(self):
        p = params()
        ic = EmdenState3D(0.0, 1.0, 0.3, 1.2, -0.2)
        assert advance(p, ic, 0.0) is ic

    def test_backward_advance(self):
        p = params(gamma=1.5, lam=0.9, xi=1.1)
        ic = EmdenState3D(0.0, 1.0, 0.3, 1.2, -0.2)
        there = advance(p, ic, 0.01)
        back = advance(p, there, -0.01)
        assert back.a == pytest.approx(ic.a, rel=1e-13)
        assert back.b == pytest.approx(ic.b, rel=1e-13)

    @pytest.mark.parametrize("dt", [10.0, -1e10, math.inf, math.nan])
    def test_shift_beyond_step_budget_rejected_before_stepping(self, dt):
        # a finite shift of any size runs; a non-finite one is rejected
        # before any stepping
        p = params(gamma=1.5, lam=0.9, xi=1.1)
        ic = EmdenState3D(0.0, 1.0, 0.3, 1.2, -0.2)
        if math.isfinite(dt):
            got = advance(p, ic, dt)
            assert got.t == dt
            assert all(map(math.isfinite, (got.a, got.a_dot, got.b, got.b_dot)))
            return
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="must be finite"):
            advance(p, ic, dt)
        assert time.perf_counter() - t0 < 0.5

    def test_shift_into_a_collapse_names_the_termination(self):
        p = params(lam=0.0)
        ic = EmdenState3D(0.0, 1.0, 0.0, 1.0, -1.0)
        with pytest.raises(ValueError, match="blowup"):
            advance(p, ic, 2.0)
        with pytest.raises(ValueError, match="blowup"):
            advance(p, EmdenState3D(0.0, 1.0, 0.0, 1.0, 1.0), -2.0)

    def test_substep_count_is_not_a_parameter(self):
        p = params()
        ic = EmdenState3D(0.0, 1.0, 0.3, 1.2, -0.2)
        with pytest.raises(TypeError):
            advance(p, ic, 0.01, n_substeps=4)


class TestStrictJsonl:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_energy_leaves_no_file(self, tmp_path):
        # xi^2 overflows: the first-integral value of the initial state is inf
        traj = integrate(params(xi=1e200), EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.0), 1.0)
        out = tmp_path / "t.jsonl"
        with pytest.raises(ValueError, match="non-finite"):
            traj.write_jsonl(out)
        assert not out.exists()


class TestRunStats:
    @pytest.mark.parametrize("method, per_attempt, per_dense", [("RK45", 6, 0), ("DOP853", 12, 3)])
    def test_counters_are_exact(self, monkeypatch, method, per_attempt, per_dense):
        calls = 0
        real = emden._rhs

        def counting(p, dim):
            f = real(p, dim)

            def rhs(y):
                nonlocal calls
                calls += 1
                return f(y)

            return rhs

        monkeypatch.setattr(emden, "_rhs", counting)
        rejected = 0
        # the steep collapse rejects steps
        for p, ic, t_end in [
            (params(gamma=2.0, lam=-1.0), EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.0), 10.0),
            (params(gamma=1.5, lam=0.8), EmdenState3D(0.0, 1.0, 0.2, 1.1, -0.3), 6.0),
            (params(gamma=1.5, lam=-1.0), EmdenState2D(0.0, 1.1, 0.0), 10.0),
            (params(gamma=1.2, lam=0.5, xi=0.3), EmdenState2D(0.0, 0.8, -0.4), 20.0),
        ]:
            calls = 0
            traj = integrate(p, ic, t_end, method=method)
            s = traj.stats
            # FSAL: an attempt's last stage is the next step's first
            assert s.rhs_evals == calls == (2 + per_attempt * (s.accepted + s.rejected)
                                            + per_dense * s.accepted)
            rejected += s.rejected
            if traj.termination.kind == "blowup":
                continue
            # without a collapse point, the samples are the step points
            ts = [st.t for st in traj.states]
            assert s.accepted == len(ts) - 1
            steps = [t2 - t1 for t1, t2 in zip(ts, ts[1:])]
            assert (s.h_min, s.h_max) == (min(steps), max(steps))
        assert rejected > 0

    def test_step_budget_and_hand_built_trajectory(self):
        traj = integrate(params(), EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.0), 1.0, max_steps=1)
        assert (traj.termination.kind, traj.stats.accepted) == ("step_failure", 1)
        assert traj.stats.h_min == traj.stats.h_max == traj.states[-1].t
        # a NaN first step accepts no step
        traj = integrate(params(lam=-1.0), EmdenState3D(0.0, 1e-200, 0.0, 1.0, 0.0), 1.0)
        assert (traj.termination.kind, traj.termination.t_est) == ("step_failure", 0.0)
        assert (traj.stats.accepted, traj.stats.h_min, traj.stats.h_max) == (0, None, None)
        hand_built = Trajectory(params=params(), dim=3, initial_state=traj.initial_state,
                                states=[traj.initial_state], termination=traj.termination,
                                t_span=(0.0, 0.0))
        assert hand_built.stats is None


class TestTableFree:
    """A run through no sink (which skips the dense output of steps whose
    floors are out of reach) or through the section sink alone is the run
    that also keeps a step table, bit for bit."""

    def test_runs_with_and_without_a_table_agree(self):
        rng = np.random.default_rng(13)
        kinds = set()
        for i in range(160):
            method, dim, section = ("RK45", "DOP853")[i % 2], 2 + (i // 2) % 2, i % 8 < 6
            p = params(gamma=1.0 if rng.random() < 0.2 else float(rng.uniform(1.05, 2.5)),
                       lam=float(rng.uniform(-2.0, 2.0)), xi=float(rng.uniform(0.0, 1.5)))
            y0 = tuple(float(v) for v in (rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0),
                                          rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))[:2 * dim - 2])
            # below every factor's start: a floor at or above one raises
            eps_blow = None if rng.random() < 0.5 else float(rng.uniform(1e-3, 0.9)) * min(y0[::2])
            max_steps = int(rng.integers(1, 30)) if rng.random() < 0.25 else 5000
            run = RunOptions(max_steps=max_steps, eps_blow=eps_blow, method=method)
            t_end = float(rng.uniform(1.0, 20.0))

            table = emden._DenseOutput(emden._METHODS[method].factors, 0.0, y0)
            if section:
                alone, crossings = emden._section(method)
                free = emden._run(p, dim, y0, 0.0, t_end, run, alone)
                watched, kept_crossings = emden._section(method)

                def both(*step):
                    table.append(*step)
                    return watched(*step)
                kept = emden._run(p, dim, y0, 0.0, t_end, run, both)
                assert repr(crossings) == repr(kept_crossings), i
            else:
                free = emden._run(p, dim, y0, 0.0, t_end, run)
                kept = emden._run(p, dim, y0, 0.0, t_end, run, table.append)
            # repr writes every float exactly, -0.0 included
            assert repr(free) == repr(kept), i
            termination, _, y_end, stats = free
            steps = [t2 - t1 for t1, t2 in zip(table.ts, table.ts[1:])]
            assert stats.accepted == table.steps
            assert (stats.h_min, stats.h_max) == (min(steps, default=None),
                                                  max(steps, default=None))
            assert repr(list(y_end)) == repr(list(table.state(table.steps)))
            if termination.kind == "section":
                assert len(crossings) == 2 and termination.t_est == crossings[1][0]
            kinds.add((termination.kind, eps_blow is not None and termination.kind == "blowup",
                       "max_steps" in termination.detail))
        # every way a run ends was drawn: floors hit at the default and at an
        # explicit eps_blow, the second section crossing, the step budget
        assert {("blowup", False, False), ("blowup", True, False), ("section", False, False),
                ("step_failure", False, True), ("reached_t_end", False, False)} <= kinds


class TestSink:
    """A step sink sees every accepted step and may end the run; a floor
    event in the same step ends it instead when it comes first or ties."""

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("k", [1, 7, 25])
    def test_a_sink_ends_the_run_with_its_record(self, method, dim, k):
        p = params(gamma=1.5, lam=1.0, xi=0.5)
        y0 = (1.0, 0.1, 1.2, -0.2)[:2 * dim - 2]
        stop = emden.Termination("stopped", detail="by the sink")
        seen = []

        def sink(t, t_new, y, y_new, rows):
            seen.append((t, t_new, y, y_new))
            return stop if len(seen) == k else None
        termination, t_stop, y_end, stats = emden._run(
            p, dim, y0, 0.0, 50.0, RunOptions(method=method), sink)
        assert termination is stop
        assert stats.accepted == len(seen) == k
        assert (seen[0][0], seen[0][2]) == (0.0, y0)
        # the steps chain, and the run stops at the end of the sink's step
        assert all(a[1] == b[0] and a[3] == b[2] for a, b in zip(seen, seen[1:]))
        assert (t_stop, y_end) == seen[-1][1::2]
        # the steps are the sink-free run's: its step budget stops it there
        budget = emden._run(p, dim, y0, 0.0, 50.0, RunOptions(method=method, max_steps=k))
        assert repr((budget[1], budget[2])) == repr((t_stop, y_end))

    def test_the_section_counts_a_crossing_on_a_step_boundary_once(self):
        sink, crossings = emden._section("RK45")

        def rows(c):
            # RK45's row (c, 0, 0, 0) adds c * x to a' over the step
            return (0.0,) * 4, (c, 0.0, 0.0, 0.0)
        # a' rises to 0 at the end of one step and on from it in the next
        assert sink(0.0, 1.0, (1.0, -1.0), (1.0, 0.0), rows(1.0)) is None
        assert sink(1.0, 2.0, (1.0, 0.0), (1.0, 1.0), rows(1.0)) is None
        assert crossings == [(1.0, (1.0, 0.0))]
        # falling through 0 is no crossing; rising again is the second
        assert sink(2.0, 3.0, (1.0, 1.0), (1.0, -1.0), rows(-2.0)) is None
        end = sink(3.0, 4.0, (1.0, -1.0), (1.0, 1.0), rows(2.0))
        assert crossings == [(1.0, (1.0, 0.0)), (3.5, (1.0, 0.0))]
        assert (end.kind, end.t_est) == ("section", 3.5)

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    @pytest.mark.parametrize("when, kind", [("before", "early"), ("tie", "blowup"),
                                            ("step_end", "blowup"), ("no_time", "blowup")])
    def test_a_floor_in_the_sinks_step(self, method, when, kind):
        # planar gamma = 2 with xi^2 + lam < 0 collapses; a falls to the floor
        # at a = 0.5 inside a step, long before the step size gives out
        p, y0 = params(gamma=2.0, lam=-3.0), (1.0, 0.0)
        run = RunOptions(method=method, eps_blow=0.5)
        reference = emden._run(p, 2, y0, 0.0, 5.0, run)[0]
        assert (reference.kind, reference.detail) == ("blowup", "")
        T = reference.t_est

        def sink(t, t_new, y, y_new, rows):
            if not t < T <= t_new:
                return None
            t_est = {"before": math.nextafter(T, -math.inf), "tie": T, "step_end": t_new,
                     "no_time": None}[when]
            return emden.Termination("early", t_est=t_est)
        termination, t_stop, _, _ = emden._run(p, 2, y0, 0.0, 5.0, run, sink)
        assert termination.kind == kind
        if kind == "blowup":
            assert repr(termination) == repr(reference) and t_stop == T
        else:
            assert termination.t_est < T < t_stop


class TestClosedForms:
    """integrate against a'' = c / a^3 (Ermakov-Pinney): 3D with lam = 0
    (c = xi^2, b linear) and 2D with gamma = 2 (c = xi^2 + lam)."""

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    def test_3d_lam_zero(self, method):
        rng = np.random.default_rng(31)
        for _ in range(20):
            gamma, xi = float(rng.uniform(1.0, 3.0)), float(rng.uniform(0.3, 2.0))
            a0, a1, b0, b1 = (float(rng.uniform(0.5, 2.0)), float(rng.uniform(-1.0, 1.0)),
                              float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.0, 1.0)))
            times = sorted(float(t) for t in rng.uniform(0.0, 10.0, 5))
            traj = integrate(params(gamma=gamma, lam=0.0, xi=xi), EmdenState3D(0.0, a0, a1, b0, b1),
                             10.0, dense_times=times, method=method)
            assert traj.termination.kind == "reached_t_end"
            for st in traj.states:
                a, ad = ermakov_pinney(a0, a1, xi * xi, st.t)
                assert st.a == pytest.approx(a, rel=1e-8)
                assert st.a_dot == pytest.approx(ad, rel=1e-8, abs=1e-8 * max(1.0, abs(a1)))
                assert st.b == pytest.approx(b0 + b1 * st.t, rel=1e-8)
                assert st.b_dot == pytest.approx(b1, rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    def test_2d_gamma_two(self, method):
        rng = np.random.default_rng(32)
        collapses = 0
        for _ in range(40):
            xi, lam = float(rng.uniform(0.3, 1.5)), float(rng.uniform(-3.0, 2.0))
            a0, a1 = float(rng.uniform(0.5, 2.0)), float(rng.uniform(-1.0, 1.0))
            c = xi * xi + lam
            traj = integrate(params(gamma=2.0, lam=lam, xi=xi), EmdenState2D(0.0, a0, a1), 10.0,
                             dense_times=[1.0, 10.0], method=method)
            T = ermakov_pinney_collapse(a0, a1, c, 1e-10 * a0)
            if T is not None and T < 10.0:
                collapses += 1
                assert traj.termination.kind == "blowup"
                assert traj.termination.t_est == pytest.approx(T, rel=1e-8)
            else:
                assert traj.termination.kind == "reached_t_end"
            for st in traj.states:
                a, ad = ermakov_pinney(a0, a1, c, st.t)
                assert st.a == pytest.approx(a, rel=1e-8)
                assert st.a_dot == pytest.approx(ad, rel=1e-8, abs=1e-8 * max(1.0, abs(a1)))
        assert 5 <= collapses <= 35


def _engine_draws(n):
    """n seeded runs over both dims and methods: 3D collapse, 3D escape, planar
    orbit, planar collapse and planar escape, as (params, y0, t_end, method)."""
    rng = np.random.default_rng(2026)
    draws = []
    for i in range(n):
        u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
        kind = i // 2 % 5
        if kind == 0:
            p, y0 = params(gamma=u(1.0, 2.5), lam=u(-2.0, -0.3), xi=u(0.5, 1.5)), (
                u(0.7, 1.5), u(-0.3, 0.3), u(0.7, 1.5), u(-0.5, 0.0))
        elif kind == 1:
            p, y0 = params(gamma=u(1.0, 2.5), lam=u(0.3, 2.0), xi=u(0.5, 1.5)), (
                u(0.7, 1.5), u(-0.3, 0.3), u(0.7, 1.5), u(-0.3, 0.3))
        elif kind == 2:
            # the equilibrium a_eq = (xi^2 / -lam)^(1 / (4 - 2 gamma)) near 1
            gamma, lam = u(1.0, 1.8), u(-2.0, -0.5)
            xi = math.sqrt(-lam * u(0.7, 1.4))
            a_eq = (xi * xi / -lam) ** (1.0 / (4.0 - 2.0 * gamma))
            p, y0 = params(gamma=gamma, lam=lam, xi=xi), (a_eq * u(0.8, 1.25), u(-0.2, 0.2))
        elif kind == 3:
            xi = u(0.5, 1.5)
            p, y0 = params(gamma=u(2.0, 2.5), lam=-xi * xi - u(0.2, 1.0), xi=xi), (
                u(0.7, 1.5), u(-0.3, 0.0))
        else:
            p, y0 = params(gamma=u(1.0, 3.0), lam=u(0.3, 2.0), xi=u(0.5, 1.5)), (
                u(0.7, 1.5), u(-0.3, 0.3))
        draws.append((p, y0, 3.0, ("RK45", "DOP853")[i % 2]))
    return draws


class TestAgainstScipy:
    def test_engine_matches_scipys_steppers(self):
        # the engine follows scipy's tableaux and controller, so it takes
        # (nearly always) the same steps: states agree to 1e-10 relative and
        # collapse times to 1e-12
        kinds = set()
        for p, y0, t_end, method in _engine_draws(300):
            dim = 3 if len(y0) == 4 else 2
            rhs = rhs_3d_arrays if dim == 3 else rhs_2d_arrays
            # a floor far above the library's keeps the collapses short
            floors = [(comp, 1e-2) for comp in ((0, 2) if dim == 3 else (0,))]
            kind, t_ref, y_ref = scipy_run(rhs, y0, t_end, (p.K, p.gamma, p.lam, p.xi),
                                           method=method, rel_tol=1e-10, abs_tol=1e-12,
                                           floors=floors)
            ic = EmdenState3D(0.0, *y0) if dim == 3 else EmdenState2D(0.0, *y0)
            traj = integrate(p, ic, t_end, dense_times=[t_end], method=method, eps_blow=1e-2)
            term = traj.termination
            assert term.kind == kind, (p, y0, method)
            kinds.add((dim, method, kind, p.lam > 0))
            if kind == "blowup":
                assert term.t_est == pytest.approx(t_ref, rel=1e-12, abs=0.0), (p, y0, method)
            else:
                st = traj.states[-1]
                got = [st.a, st.a_dot] + ([st.b, st.b_dot] if dim == 3 else [])
                # relative, with velocities near 0 measured against 1
                scale = np.maximum(np.abs(y_ref), 1.0)
                assert np.all(np.abs(np.array(got) - y_ref) <= 1e-10 * scale), (p, y0, method)
        # collapse and escape runs in both dims and planar orbits, with both methods
        for m in ("RK45", "DOP853"):
            assert {(3, m, "blowup", False), (3, m, "reached_t_end", True),
                    (2, m, "blowup", False), (2, m, "reached_t_end", True),
                    (2, m, "reached_t_end", False)} <= kinds


def bits(obj) -> list[bytes]:
    """The bit patterns of the floats in a nested tuple or list, in order."""
    if isinstance(obj, (tuple, list)):
        return [b for item in obj for b in bits(item)]
    return [np.float64(obj).tobytes()]


def _kernel_and_reference(p, state, h, rtol, atol):
    dim, y = emden._vec_from_state(state)
    f = emden._rhs(p, dim)
    k1 = f(y)
    attempt, dense = emden._METHODS["RK45"].kernels[dim]
    got = attempt(f, y, k1, h, rtol, atol)
    want = dp5_step(f, y, k1, h, rtol, atol)
    assert bits(got) == bits(want)
    assert bits(dense(f, y, got[0], got[3], h)) == bits(dp5_dense_rows(want[3], h))
    return got


def _real(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


kernel_params = st.builds(params, gamma=st.one_of(st.just(1.0), _real(1.0, 3.0)),
                          lam=_real(-2.0, 2.0), xi=_real(-2.0, 2.0))
kernel_states = st.one_of(
    st.builds(EmdenState3D, st.just(0.0), _real(0.3, 3.0), _real(-2.0, 2.0),
              _real(0.3, 3.0), _real(-2.0, 2.0)),
    st.builds(EmdenState2D, st.just(0.0), _real(0.3, 3.0), _real(-2.0, 2.0)))


class TestKernels:
    """The written-out RK45 kernels against the component-loop reference
    step (``_oracles.dp5_step``), bit for bit."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(kernel_params, kernel_states, _real(1e-8, 3.0), _real(MIN_REL_TOL, 1e-2),
           _real(1e-15, 1e-3))
    def test_rk45_kernels_are_the_reference_step(self, p, state, h, rtol, atol):
        _kernel_and_reference(p, state, h, rtol, atol)

    @pytest.mark.parametrize("p, state, h, leaves_domain", [
        # a stage with a or b < 0: the stage is NaN and so is the error norm
        (params(), EmdenState3D(0.0, 0.2, -2.0, 1.0, 0.0), 1.0, True),
        (params(), EmdenState3D(0.0, 1.0, 0.0, 0.2, -2.0), 1.0, True),
        (params(), EmdenState2D(0.0, 0.2, -2.0), 1.0, True),
        # a**3 underflows to 0, so xi^2 / a^3 divides by zero
        (params(lam=-1.0), EmdenState3D(0.0, 1e-110, 0.0, 1.0, 0.0), 1e-3, False),
        (params(lam=-1.0), EmdenState2D(0.0, 1e-110, 0.0), 1e-3, False),
        # a^(2 gamma - 1) overflows
        (params(gamma=3.0, lam=1.0), EmdenState3D(0.0, 1e100, 1.0, 1.0, 0.0), 1e-3, False),
        (params(gamma=3.0, lam=1.0), EmdenState2D(0.0, 1e100, 1.0), 1e-3, False),
    ])
    def test_rejected_and_ieee_steps(self, monkeypatch, p, state, h, leaves_domain):
        calls = 0
        real = emden._ieee

        def counting(fn, y):
            nonlocal calls
            calls += 1
            return real(fn, y)

        monkeypatch.setattr(emden, "_ieee", counting)
        _, _, err, stages = _kernel_and_reference(p, state, h, 1e-10, 1e-12)
        if leaves_domain:
            assert math.isnan(err) and not err < 1.0
            assert any(math.isnan(v) for k in stages for v in k)
        else:
            assert calls > 0
            # the fallback gives numpy's IEEE values of the raw equations
            dim, y = emden._vec_from_state(state)
            rhs = rhs_3d_arrays if dim == 3 else rhs_2d_arrays
            with np.errstate(all="ignore"):
                want = rhs(tuple(map(np.float64, y)), p.K, p.gamma, p.lam, p.xi)
            assert bits(emden._rhs(p, dim)(y)) == bits(want.tolist())


collapse_params = st.builds(params, gamma=st.one_of(st.just(1.0), _real(1.0, 2.5)),
                            lam=_real(-2.0, -0.1), xi=_real(0.0, 1.5))


class TestFarSteps:
    """A lifespan run skips the dense output of a step that ``_dp5_far``
    clears.  Such a step has no floor event: ``_locate`` finds none on its
    rows and its dense output stays above the floor.  And a lifespan run
    that never trusts the bound is the shipped run, bit for bit."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(collapse_params, st.sampled_from([2, 3]), _real(0.01, 2.0), _real(-2.0, 2.0),
           _real(0.01, 2.0), _real(-2.0, 2.0), _real(-7.0, -0.5), st.sampled_from([0, 2]),
           _real(0.5, 6.0))
    def test_a_far_step_has_no_floor_event(self, p, dim, a, u, b, v, log_h, comp, reaches):
        y = (a, u, b, v)[:2 * dim - 2]
        comp = comp if dim == 3 else 0
        h = 10.0 ** log_h
        f = emden._rhs(p, dim)
        attempt, dense = emden._METHODS["RK45"].kernels[dim]
        # whether or not the controller would accept the step: the bound
        # does not read its error
        y_new, _, _, stages = attempt(f, y, f(y), h, 1e-10, 1e-12)
        ks = [k[comp] for k in stages]
        assume(all(map(math.isfinite, ks)))
        reach = h * sum(abs(k) * m for k, m in zip(ks, RK45_P_BOUND))
        floor = y[comp] - reaches * reach
        assume(floor > 0.0)
        floors = [(comp, floor)]
        far = emden._dp5_far(y, stages, h, floors)
        assert far == (y[comp] - floor > 2.0 * reach + 1e-12 * y[comp])
        if not far:
            return
        rows = dense(f, y, y_new, stages, h)
        factors = emden._METHODS["RK45"].factors
        assert emden._locate(0.0, h, y, rows, factors, floors, 1e-10) is None
        assert min(emden._dense_value(0.0, h, y[comp], rows[comp], factors, t)
                   for t in np.linspace(0.0, h, 1000).tolist()) > floor

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(collapse_params, st.sampled_from([2, 3]), _real(0.3, 2.0), _real(-1.0, 1.0),
           _real(0.3, 2.0), _real(-1.0, 1.0), _real(1.0, 10.0),
           st.one_of(st.none(), _real(0.05, 0.9)))
    def test_lifespan_run_is_the_run_that_never_trusts_the_bound(
            self, p, dim, a0, a1, b0, b1, horizon, floor_share):
        y0 = (a0, a1, b0, b1)[:2 * dim - 2]
        # the library's floors, or a large one below every factor's start
        eps_blow = None if floor_share is None else floor_share * min(y0[::2])
        run = RunOptions(max_steps=5000, eps_blow=eps_blow)
        shipped = emden._run(p, dim, y0, 0.0, horizon, run)
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(emden._METHODS, "RK45",
                       emden._METHODS["RK45"]._replace(far=lambda *args: False))
            near = emden._run(p, dim, y0, 0.0, horizon, run)
        # repr writes every float exactly, -0.0 included
        assert repr(shipped) == repr(near)


def _concavity_stop(traj):
    """(t_stop, w, stop state) of a run that ended at the concavity bound:
    its last step ends at t_stop and its record is ``blowup`` of b at
    t_stop + w, with width w."""
    term, last = traj.termination, traj.states[-1]
    assert (term.kind, term.which, term.detail) == ("blowup", "b", "")
    assert last.t == traj.t_span[1] < term.t_est
    assert term.t_est == last.t + term.bracket_width
    assert term.bracket_width <= 1e-10 * max(1.0, last.t)
    return last.t, term.bracket_width, last


class TestConcavityStop:
    """A 3D run with lam < 0 has b'' < 0, so from a state with b' < 0 the
    exact b reaches 0 by t + b / |b'|; the run ends as a ``blowup`` of b once
    that width is below ``rel_tol`` max(1, t) and the bound is not past
    ``t_end``."""

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    def test_isothermal_collapse_lies_in_the_bracket(self, method):
        # gamma = 1 decouples b'' = lam / b, whose zero time the oracle gives
        # from any state; integrate runs these cells (only classify_cell
        # takes the closed form).  The bracket is exact for the state the run
        # stopped at; T from the start differs from that state's zero time by
        # the run's state error delta: at most 1.0e-11 T on these draws, and
        # 3.9e-10 T on 300 wider ones with T up to 5600; asserted below
        # rel_tol T here.
        rng = np.random.default_rng(22)
        for _ in range(8):
            u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
            k = u(0.3, 2.0)
            p = params(gamma=1.0, lam=-k, xi=u(0.3, 1.5))
            b0, b1 = u(0.5, 2.0), u(-1.0, 0.5)
            T = isothermal_fall_time(b0, b1, k)
            traj = integrate(p, EmdenState3D(0.0, u(0.5, 2.0), u(-0.5, 0.5), b0, b1), T + 5.0,
                             method=method)
            t_stop, w, last = _concavity_stop(traj)
            tau = isothermal_fall_time(last.b, last.b_dot, k)
            assert 0.0 < tau <= w
            delta = t_stop + tau - T
            assert abs(delta) <= 1e-10 * T
            t_est = traj.termination.t_est
            assert t_est - w - abs(delta) <= T <= t_est + abs(delta)

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    def test_a_finer_run_lands_in_the_open_cells_bracket(self, method):
        # gamma > 1, lam < 0, b1 > 0: a run at rel_tol / 100 from the state the
        # coarse run stopped at collapses inside the coarse bracket, with no
        # slack.  From the start, the fine run (which reaches its floor before
        # its own, narrower bound) differs from the coarse one by the coarse
        # run's state error: it lands inside the bracket on these draws, and
        # at most 4e-11 T outside it on 169 wider ones; the slack is rel_tol T
        rng = np.random.default_rng(23)
        for _ in range(6):
            u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
            p = params(gamma=u(1.1, 1.9), lam=-u(0.5, 2.0), xi=u(0.3, 1.2))
            ic = EmdenState3D(0.0, u(0.8, 1.5), u(-0.3, 0.3), u(0.5, 1.5), u(0.0, 0.4))
            coarse = integrate(p, ic, 30.0, method=method)
            t_stop, w, last = _concavity_stop(coarse)
            t_est = coarse.termination.t_est
            for start, slack in ((last, 0.0), (ic, 1e-10 * t_est)):
                fine = integrate(p, start, 30.0, rel_tol=1e-12, method=method).termination
                assert (fine.kind, fine.which) == ("blowup", "b")
                assert t_stop - slack < fine.t_est <= t_est + slack

    def test_no_rule_fires_past_the_horizon(self):
        # horizons around the collapse of the gamma = 1.4 open cell: each run
        # reaches its horizon or collapses by it
        p, ic = params(gamma=1.4, lam=-1.0), EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.2)
        t_stop, w, _ = _concavity_stop(integrate(p, ic, 30.0))
        for share in (-1.0, -0.5, 0.25, 0.5, 0.9, 1.0, 1.5):
            horizon = t_stop + share * w
            traj = integrate(p, ic, horizon)
            term = traj.termination
            if term.kind == "reached_t_end":
                assert traj.t_span[1] == horizon
            else:
                assert term.kind == "blowup" and term.t_est <= horizon
        # just short of the collapse the run reaches its horizon
        for share in (-0.5, 0.25, 0.5):
            traj = integrate(p, ic, t_stop + share * w)
            assert traj.termination.kind == "reached_t_end"

    @pytest.mark.parametrize("eps_blow", [None, 0.5])
    def test_only_steps_the_bound_cannot_clear_build_rows(self, monkeypatch, eps_blow):
        # the lifespan run of the gamma = 1.4 open cell: the stop rule reads the
        # step's end state alone, so the far-step skip stays on.  With the
        # library's floor the run stops before the floor is in reach of a
        # step; the floor at 0.5 is reached first, by steps the bound cannot
        # clear
        p, y0 = params(gamma=1.4, lam=-1.0), (1.0, 0.0, 1.0, 0.2)
        run = RunOptions(eps_blow=eps_blow)
        method = emden._METHODS["RK45"]
        attempt, dense = method.kernels[3]
        locate_rows = emden._locate
        calls = []

        def far(*args):
            calls.append(("far", method.far(*args)))
            return calls[-1][1]

        def rows(*args):
            calls.append(("rows",))
            return dense(*args)

        def locate(*args):
            calls.append(("locate",))
            return locate_rows(*args)
        shipped = emden._run(p, 3, y0, 0.0, 30.0, run)
        monkeypatch.setitem(emden._METHODS, "RK45",
                            method._replace(far=far, kernels={3: (attempt, rows)}))
        monkeypatch.setattr(emden, "_locate", locate)
        watched = emden._run(p, 3, y0, 0.0, 30.0, run)
        assert repr(watched) == repr(shipped)
        termination, t_stop, _, stats = watched
        # the concavity stop ends past its last step, a floor event inside it
        assert (t_stop < termination.t_est) == (eps_blow is None)
        assert sum(c[0] == "far" for c in calls) == stats.accepted
        near = [i for i, c in enumerate(calls) if c == ("far", False)]
        assert (len(near) == 0) == (eps_blow is None) and len(near) < stats.accepted // 10
        # each rows and locate call follows a step the bound could not clear
        assert [c for c in calls if c[0] != "far"] == [("rows",), ("locate",)] * len(near)
        assert all(calls[i + 1:i + 3] == [("rows",), ("locate",)] for i in near)


# sha256 of each run's lifespan result, trajectory records and RunStats,
# pinned before the concavity stop: lam >= 0 and planar runs do not see it
_UNCHANGED_RUNS = {
    "3d_lam_zero_collapse": ((1.4, 0.0, 1.0), (1.0, 0.1, 1.0, -0.5), 5.0),
    "3d_lam_positive": ((1.67, 1.0, 0.5), (1.0, -0.2, 1.2, 0.3), 10.0),
    "3d_isothermal_lam_positive": ((1.0, 0.5, 1.0), (0.8, 0.1, 1.1, -0.2), 10.0),
    "2d_orbit": ((1.5, -1.0, 1.0), (1.1, 0.0), 20.0),
    "2d_collapse": ((2.0, -3.0, 1.0), (1.0, 0.0), 5.0),
}
_UNCHANGED_DIGESTS = {
    ("2d_collapse", "DOP853"):
        "1a0da1e3ee4b8438be5fdb35d4b093084d9aef9f13233cf7dc2f64a2095236f4",
    ("2d_collapse", "RK45"):
        "b5a185401c83089b6c5abc9c8848a640aa7e69aa695fa0b7c27d87c915ab3737",
    ("2d_orbit", "DOP853"):
        "04e53e2ada9601b339457e9cd2bbafec01a8798b7436aa3fcb1e76f351d1e7df",
    ("2d_orbit", "RK45"):
        "94efdb5f9cdf207b62c9fdb3b296db8eef6d5004cc0ef18cdfd686dab01f8f08",
    ("3d_isothermal_lam_positive", "DOP853"):
        "fd414dab1ab48002139e083d4560213116e489c025f708878c80772a60a36411",
    ("3d_isothermal_lam_positive", "RK45"):
        "81bf5d13e6b5fa4e96bd61585a20defa5a84b568edcdc9d08e9da318fdc135be",
    ("3d_lam_positive", "DOP853"):
        "70ec6266918fe60483f467769f71577e6764ca8c56cc00d4a1798998319289d1",
    ("3d_lam_positive", "RK45"):
        "c74cc6add1399ff7bf4f83097fbc6813bbb42f757c362685e4656cf7fdfea45d",
    ("3d_lam_zero_collapse", "DOP853"):
        "cc032e2c419aa0b3e440f09366ebd3773d9a793e2be0d8a85fca7902bc39d1a5",
    ("3d_lam_zero_collapse", "RK45"):
        "4f3789f834a27beca1fe5b2ed436a58be5289988df7c37727322356416d61852",
}


@pytest.mark.parametrize("method", ["RK45", "DOP853"])
@pytest.mark.parametrize("name", sorted(_UNCHANGED_RUNS))
def test_runs_without_a_concave_b_are_unchanged(name, method):
    (gamma, lam, xi), y0, t_end = _UNCHANGED_RUNS[name]
    p = params(gamma=gamma, lam=lam, xi=xi)
    dim = 3 if len(y0) == 4 else 2
    lifespan = emden._run(p, dim, y0, 0.0, t_end, RunOptions(method=method))
    traj = integrate(p, emden._state_from_vec(dim, 0.0, y0), t_end, method=method)
    text = repr(lifespan) + "\n".join(traj.jsonl_lines()) + repr(traj.stats)
    assert hashlib.sha256(text.encode()).hexdigest() == _UNCHANGED_DIGESTS[name, method]
