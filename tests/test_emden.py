import dataclasses
import hashlib
import inspect
import json
import math
import time
from bisect import bisect_left

import mpmath
import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from eulerexact import (EmdenState2D, EmdenState3D, PhysParams, RunConfig, Trajectory,
                        advance, emden_rhs_2d, emden_rhs_3d, energy_2d,
                        energy_3d, integrate)
from eulerexact import emden
from eulerexact._tableaux import RK45_P_BOUND
from eulerexact.emden import MIN_REL_TOL, RunOptions

from _oracles import (DENSE_FACTORS, StepTable, dop853_dense_rows, dop853_step, dp5_dense_rows,
                      dp5_step, ermakov_pinney, ermakov_pinney_collapse, held_sampler,
                      fall_range_of_a, fall_time_bounds, isothermal_closed_form,
                      isothermal_fall_time, nest, rhs_2d_arrays, rhs_2d_floats, rhs_3d_arrays,
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


class TestWrongDimension:
    """A per-dimension helper given a state of the other dimension raises
    the ValueError that names both: a 2D helper would otherwise drop b, and
    a 3D one fail on a missing attribute."""

    P = params(gamma=1.5, lam=-1.0, xi=1.0)
    S3 = EmdenState3D(0.0, 1.1, 0.0, 0.5, -3.0)
    S2 = EmdenState2D(0.0, 1.1, 0.0)

    def test_energy_2d(self):
        with pytest.raises(ValueError, match="^energy_2d requires a 2D state, got a 3D one$"):
            energy_2d(self.S3, self.P)

    def test_emden_rhs_2d(self):
        with pytest.raises(ValueError, match="^emden_rhs_2d requires a 2D state, got a 3D one$"):
            emden_rhs_2d(self.S3, self.P)

    def test_energy_3d(self):
        with pytest.raises(ValueError, match="^energy_3d requires a 3D state, got a 2D one$"):
            energy_3d(self.S2, self.P)

    def test_emden_rhs_3d(self):
        with pytest.raises(ValueError, match="^emden_rhs_3d requires a 3D state, got a 2D one$"):
            emden_rhs_3d(self.S2, self.P)


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

    @pytest.mark.parametrize("streamed", [False, True])
    def test_checks_come_in_order(self, streamed):
        # dense_times, then the run options, then the span, then the floors;
        # a streamed run writes nothing before them
        ic, written = EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.0), []

        def run(t_end, **options):
            if streamed:
                return emden.stream_trajectory(params(), ic, t_end, written.append, **options)
            return integrate(params(), ic, t_end, **options)
        faults = dict(dense_times=[0.5, 0.2], rel_tol=2.0, t_end=math.nan, eps_blow=2.0)
        for fault in list(faults):
            options = dict(faults)
            t_end = options.pop("t_end", 1.0)
            with pytest.raises(ValueError, match=f"^{fault} must"):
                run(t_end, **options)
            del faults[fault]
        assert written == []

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
    def test_state_at_bounds(self, monkeypatch):
        p = params(lam=0.0)
        traj = integrate(p, EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.0), 2.0)
        # state_at runs the loop again without the module's integrate, which a
        # traced pass wraps and would count once more
        monkeypatch.setattr(emden, "integrate", None)
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


def _reference_rk45(p, dim, rtol, atol):
    """RK45's kernels with the trial step of the component-loop reference
    (``_oracles.dp5_step``), which calls ``emden._rhs`` once per stage where
    the generated step evaluates its stages in place; ``TestKernels`` holds
    the two equal bit for bit."""
    f = emden._rhs(p, dim)
    rows = emden._kernels("RK45", p, dim, rtol, atol)[2]

    def attempt(y, k1, h):
        y_new, k7, err, stages = dp5_step(f, y, k1, h, rtol, atol)
        return tuple(y_new), k7, err, tuple(v for k in stages for v in k)
    return f, attempt, rows


def _reference_dop853(p, dim, rtol, atol):
    """DOP853's kernels as the component-loop reference
    (``_oracles.dop853_step`` and ``dop853_dense_rows``), which call
    ``emden._rhs`` once per stage where the generated kernels evaluate their
    stages in place; ``TestKernels`` holds the two equal."""
    f = emden._rhs(p, dim)

    def attempt(y, k1, h):
        return dop853_step(f, y, k1, h, rtol, atol)

    def rows(y, y_new, stages, h):
        return dop853_dense_rows(f, y, y_new, stages, h)
    return f, attempt, rows


class TestRunStats:
    @pytest.mark.parametrize("method, per_attempt, per_dense", [("RK45", 6, 0), ("DOP853", 12, 3)])
    def test_counters_are_exact(self, monkeypatch, method, per_attempt, per_dense):
        calls = 0
        real = emden._rhs
        cases = [
            # the steep collapse rejects steps
            (params(gamma=2.0, lam=-1.0), EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.0), 10.0),
            (params(gamma=1.5, lam=0.8), EmdenState3D(0.0, 1.0, 0.2, 1.1, -0.3), 6.0),
            (params(gamma=1.5, lam=-1.0), EmdenState2D(0.0, 1.1, 0.0), 10.0),
            (params(gamma=1.2, lam=0.5, xi=0.3), EmdenState2D(0.0, 0.8, -0.4), 20.0),
        ]
        shipped = [integrate(p, ic, t_end, method=method) for p, ic, t_end in cases]

        def counting(p, dim):
            f = real(p, dim)

            def rhs(y):
                nonlocal calls
                calls += 1
                return f(y)

            return rhs

        monkeypatch.setattr(emden, "_rhs", counting)
        reference = {"RK45": _reference_rk45, "DOP853": _reference_dop853}[method]
        monkeypatch.setitem(emden._METHODS, method,
                            emden._METHODS[method]._replace(kernels=reference))
        rejected = 0
        for (p, ic, t_end), want in zip(cases, shipped):
            calls = 0
            traj = integrate(p, ic, t_end, method=method)
            # the counted run is the shipped one, step for step
            assert (traj.jsonl_lines(), repr(traj.stats)) == (want.jsonl_lines(),
                                                              repr(want.stats))
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
        # nor a way to run the loop again
        hand_built = dataclasses.replace(hand_built, t_span=(0.0, 1.0))
        assert hand_built.state_at(0.0) is traj.initial_state
        with pytest.raises(ValueError, match="^no dense output available"):
            hand_built.state_at(0.5)


class TestTableFree:
    """A run through no sink (which skips the dense output of steps whose
    floors are out of reach) is the run that keeps a step table
    (``_oracles.StepTable``), bit for bit."""

    def test_runs_with_and_without_a_table_agree(self):
        rng = np.random.default_rng(13)
        kinds = set()
        for i in range(160):
            method, dim = ("RK45", "DOP853")[i % 2], 2 + (i // 2) % 2
            p = params(gamma=1.0 if rng.random() < 0.2 else float(rng.uniform(1.05, 2.5)),
                       lam=float(rng.uniform(-2.0, 2.0)), xi=float(rng.uniform(0.0, 1.5)))
            y0 = tuple(float(v) for v in (rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0),
                                          rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))[:2 * dim - 2])
            # below every factor's start: a floor at or above one raises
            eps_blow = None if rng.random() < 0.5 else float(rng.uniform(1e-3, 0.9)) * min(y0[::2])
            max_steps = int(rng.integers(1, 30)) if rng.random() < 0.25 else 5000
            run = RunOptions(max_steps=max_steps, eps_blow=eps_blow, method=method)
            t_end = float(rng.uniform(1.0, 20.0))

            table = StepTable(method, 0.0, y0)
            free = emden._run(p, dim, y0, 0.0, t_end, run)
            kept = emden._run(p, dim, y0, 0.0, t_end, run, table.append)
            # repr writes every float exactly, -0.0 included
            assert repr(free) == repr(kept), i
            termination, _, y_end, stats = free
            steps = [t2 - t1 for t1, t2 in zip(table.ts, table.ts[1:])]
            assert stats.accepted == table.steps
            assert (stats.h_min, stats.h_max) == (min(steps, default=None),
                                                  max(steps, default=None))
            assert repr(list(y_end)) == repr(list(table.ys[-len(y0):]))
            kinds.add((termination.kind, eps_blow is not None and termination.kind == "blowup",
                       "max_steps" in termination.detail))
        # every way a run ends was drawn: floors hit at the default and at an
        # explicit eps_blow, the step budget
        assert {("blowup", False, False), ("blowup", True, False),
                ("step_failure", False, True), ("reached_t_end", False, False)} <= kinds


class TestSink:
    """A step sink sees every accepted step.  It returns the earliest time
    it still needs settled, or None; that never ends the run, which is the
    sink-free run step for step, and delays only the stop of b."""

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("k", [1, 7, 25])
    def test_a_sink_observes_and_never_ends_the_run(self, method, dim, k):
        # the sink needs the end of its k-th step, then a time past t_end
        p = params(gamma=1.5, lam=1.0, xi=0.5)
        y0 = (1.0, 0.1, 1.2, -0.2)[:2 * dim - 2]
        seen = []

        def sink(t, t_new, y, y_new, rows, t_stop):
            # no floor event: every step is settled at its end
            assert t_stop == t_new
            seen.append((t, t_new, y, y_new))
            return t_new if len(seen) == k else 100.0 if len(seen) > k else None
        watched = emden._run(p, dim, y0, 0.0, 50.0, RunOptions(method=method), sink)
        termination, t_stop, y_end, stats = watched
        assert termination.kind == "reached_t_end" and t_stop == 50.0
        assert stats.accepted == len(seen) > k
        assert (seen[0][0], seen[0][2]) == (0.0, y0)
        # the steps chain to the run's end
        assert all(a[1] == b[0] and a[3] == b[2] for a, b in zip(seen, seen[1:]))
        assert (t_stop, y_end) == seen[-1][1::2]
        # repr writes every float exactly, -0.0 included
        alone = emden._run(p, dim, y0, 0.0, 50.0, RunOptions(method=method))
        assert repr(alone) == repr(watched)

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    @pytest.mark.parametrize("when, kind", [("before", "blowup"), ("tie", "blowup"),
                                            ("step_end", "blowup")])
    def test_a_floor_in_the_sinks_step(self, method, when, kind):
        # planar gamma = 2 with xi^2 + lam < 0 collapses; a falls to the floor
        # at a = 0.5 inside a step, long before the step size gives out.  A
        # time the sink needs in that step, before, at or after the floor
        # crossing, changes nothing: the floor ends the run
        p, y0 = params(gamma=2.0, lam=-3.0), (1.0, 0.0)
        run = RunOptions(method=method, eps_blow=0.5)
        reference = emden._run(p, 2, y0, 0.0, 5.0, run)[0]
        assert (reference.kind, reference.detail) == ("blowup", "")
        T = reference.t_est
        stops = []

        def sink(t, t_new, y, y_new, rows, t_stop):
            stops.append((t_new, t_stop))
            if not t < T <= t_new:
                return None
            return {"before": math.nextafter(T, -math.inf), "tie": T, "step_end": t_new}[when]
        termination, t_stop, _, _ = emden._run(p, 2, y0, 0.0, 5.0, run, sink)
        assert termination.kind == kind
        assert repr(termination) == repr(reference) and t_stop == T
        # the floor event's last step stops at its crossing, every other
        # step at its end
        last_end, last_stop = stops[-1]
        assert last_stop == T < last_end
        assert all(t_new == t_stop for t_new, t_stop in stops[:-1])


    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    def test_a_needed_time_delays_only_the_bracket_stop(self, method):
        # the gamma = 1.4 open cell's run without sinks ends at its bracket
        # stop, at t_stop before the bracket [low, t_est].  Needs at or past
        # low leave the run as it is; a need before low keeps it stepping
        # until that time is settled, and of two sinks' needs the earliest
        # counts
        p, y0 = params(gamma=1.4, lam=-1.0), (1.0, 0.0, 1.0, 0.2)
        run = RunOptions(method=method)
        alone = emden._run(p, 3, y0, 0.0, 30.0, run)
        term, t_stop = alone[0], alone[1]
        low = term.t_est - term.bracket_width
        assert (term.kind, term.which) == ("blowup", "b") and t_stop < low

        def needing(time):
            def sink(t, t_new, y, y_new, rows, t_stop):
                return time if time is not None and t_new < time else None
            return sink
        for need in (None, term.t_est - 0.5 * term.bracket_width, term.t_est, 30.0):
            assert repr(emden._run(p, 3, y0, 0.0, 30.0, run, needing(need))) == repr(alone)
        before = 0.5 * (t_stop + low)
        waited = emden._run(p, 3, y0, 0.0, 30.0, run, needing(before))
        late, late_stop = waited[0], waited[1]
        assert (late.kind, late.which, late.detail) == ("blowup", "b", "")
        assert before <= late_stop < late.t_est - late.bracket_width
        assert late.bracket_width <= 1e-10 * late.t_est
        assert abs(late.t_est - term.t_est) <= 1e-10 * term.t_est
        for pair in ((term.t_est, before), (before, None), (None, before)):
            both = emden._run(p, 3, y0, 0.0, 30.0, run, *map(needing, pair))
            assert repr(both) == repr(waited)

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    def test_a_needed_time_delays_the_concavity_stop(self, method):
        # the gamma = 2.5 open cell's run without sinks ends at the
        # concavity bracket, whose low end is its last step's end t_stop.
        # Needs at or past t_stop leave the run as it is, a need of t_stop
        # itself on every step included; a need before it, stale as it is,
        # holds the stop back, and the run steps on into b's collapse
        # inside the bracket
        p, y0 = params(gamma=2.5, lam=-1.0), (1.0, 0.0, 1.0, 0.2)
        run = RunOptions(method=method)
        alone = emden._run(p, 3, y0, 0.0, 30.0, run)
        term, t_stop = alone[0], alone[1]
        assert (term.kind, term.which, term.detail) == ("blowup", "b", "")
        assert term.t_est - term.bracket_width == t_stop

        def always(time):
            return lambda t, t_new, y, y_new, rows, t_stop: time
        for need in (None, t_stop, term.t_est, 30.0):
            assert repr(emden._run(p, 3, y0, 0.0, 30.0, run, always(need))) == repr(alone)
        held = emden._run(p, 3, y0, 0.0, 30.0, run, always(math.nextafter(t_stop, -math.inf)))
        late, late_stop = held[0], held[1]
        assert (late.kind, late.which) == ("blowup", "b")
        assert t_stop < late_stop <= late.t_est <= term.t_est
        assert held[3].accepted > alone[3].accepted


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
    f, attempt, rows = emden._METHODS["RK45"].kernels(p, dim, rtol, atol)
    k1 = f(y)
    got = attempt(y, k1, h)
    want = dp5_step(emden._rhs(p, dim), y, k1, h, rtol, atol)
    # the kernel's stages are flat, the reference's one tuple per stage
    assert bits(got) == bits(want)
    # P's zero weights meet an infinite stage as inf * 0.0 = NaN in the rows
    assert nan_bits(rows(y, got[0], got[3], h)) == nan_bits(dp5_dense_rows(want[3], h))
    return got


def nan_bits(obj) -> list[bytes]:
    """``bits`` with every NaN as one marker.  Where two NaNs of opposite
    sign meet in an addition (a NaN stage's, and inf * 0.0 where a stage's
    derivative is infinite and its weight zero), CPython's float addition
    returns one or the other depending on whether it has specialized that
    instruction yet, so such a NaN's sign varies between the first calls of
    one function."""
    return [b"nan" if np.isnan(np.frombuffer(b)[0]) else b for b in bits(obj)]


def _dop853_and_reference(p, state, h, rtol, atol):
    """The generated DOP853 step and rows against the component-loop
    reference (``_oracles.dop853_step`` and ``dop853_dense_rows``): every
    float equal bit for bit, every NaN a NaN."""
    dim, y = emden._vec_from_state(state)
    f, attempt, rows = emden._METHODS["DOP853"].kernels(p, dim, rtol, atol)
    reference = emden._rhs(p, dim)
    k1 = f(y)
    assert bits(k1) == bits(reference(y))
    got = attempt(y, k1, h)
    want = dop853_step(reference, y, k1, h, rtol, atol)
    # the kernel's stages are flat, the reference's one tuple per stage
    assert nan_bits(got) == nan_bits(want)
    assert nan_bits(rows(y, got[0], got[3], h)) == nan_bits(
        dop853_dense_rows(reference, y, want[0], want[3], h))
    return got


def _real(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


kernel_params = st.builds(params, gamma=st.one_of(st.just(1.0), _real(1.0, 3.0)),
                          lam=_real(-2.0, 2.0), xi=_real(-2.0, 2.0))
kernel_states = st.one_of(
    st.builds(EmdenState3D, st.just(0.0), _real(0.3, 3.0), _real(-2.0, 2.0),
              _real(0.3, 3.0), _real(-2.0, 2.0)),
    st.builds(EmdenState2D, st.just(0.0), _real(0.3, 3.0), _real(-2.0, 2.0)))


# (p, state, h, whether a stage leaves the domain; otherwise a stage's
# right-hand side falls back to ``_ieee``)
_EDGE_STEPS = [
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
]


def _edge_step(dim, huge, depth, speed, h, gamma):
    """(p, state) of nearly free motion from a start near where a**3
    underflows to 0 (a falling) or a power of a overflows (a rising), so the
    fallback fires at whichever stage crosses that edge, or the stage leaves
    the domain."""
    if huge:
        edge = 10.0 ** (308.0 / max(3.0, 2.0 * gamma - 1.0))
        a = edge / (1.0 + 2.0 * depth)
        p, y = params(gamma=gamma, lam=1.0), (a, speed * a / h)
    else:
        a = 1.4e-108 * 10.0 ** (3.0 * depth)
        p, y = params(gamma=gamma, lam=0.0, xi=0.0), (a, -speed * a / h)
    return p, EmdenState3D(0.0, *y, 1.0, 0.0) if dim == 3 else EmdenState2D(0.0, *y)


class TestKernels:
    """The generated kernels of both state sizes against the component-loop
    reference steps: RK45's trial step (``_oracles.dp5_step``) bit for bit,
    its dense rows, DOP853's step and rows (``_oracles.dop853_step``) and
    both pairs' dense evaluators (``_oracles.nest``) bit for bit but for the
    sign of a NaN (``nan_bits``)."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(kernel_params, kernel_states, _real(1e-8, 3.0), _real(MIN_REL_TOL, 1e-2),
           _real(1e-15, 1e-3))
    def test_rk45_kernels_are_the_reference_step(self, p, state, h, rtol, atol):
        _kernel_and_reference(p, state, h, rtol, atol)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(kernel_params, kernel_states, _real(1e-8, 3.0), _real(MIN_REL_TOL, 1e-2),
           _real(1e-15, 1e-3))
    def test_dop853_kernels_are_the_reference_step(self, p, state, h, rtol, atol):
        _dop853_and_reference(p, state, h, rtol, atol)

    @pytest.mark.parametrize("p, state, h, leaves_domain", _EDGE_STEPS)
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
            assert any(math.isnan(v) for v in stages)
        else:
            assert calls > 0
            # the fallback gives numpy's IEEE values of the raw equations
            dim, y = emden._vec_from_state(state)
            rhs = rhs_3d_arrays if dim == 3 else rhs_2d_arrays
            with np.errstate(all="ignore"):
                want = rhs(tuple(map(np.float64, y)), p.K, p.gamma, p.lam, p.xi)
            assert bits(emden._rhs(p, dim)(y)) == bits(want.tolist())

    @pytest.mark.parametrize("p, state, h, leaves_domain", _EDGE_STEPS)
    def test_dop853_rejected_and_ieee_steps(self, monkeypatch, p, state, h, leaves_domain):
        calls = 0
        real = emden._ieee

        def counting(fn, y):
            nonlocal calls
            calls += 1
            return real(fn, y)

        monkeypatch.setattr(emden, "_ieee", counting)
        _, _, err, stages = _dop853_and_reference(p, state, h, 1e-10, 1e-12)
        if leaves_domain:
            assert math.isnan(err) and not err < 1.0
            assert any(math.isnan(v) for v in stages)
        else:
            assert calls > 0

    def test_dop853_sums_start_at_zero(self):
        # a' is -0.0 and a'' a subnormal below zero, so stage 2's a' sum,
        # k1 * A[1][0], underflows to -0.0: from 0.0 it is +0.0, and so is a'
        # at stage 2, where a's derivative is a'
        p = params(lam=-1e-323, xi=0.0)
        _, _, _, stages = _dop853_and_reference(p, EmdenState2D(0.0, 1.0, -0.0), 0.1,
                                                1e-10, 1e-12)
        assert bits(stages[2]) == bits(0.0)

    @pytest.mark.parametrize("p, state, h, stage, leaves_domain", [
        # free motion, a falling linearly: a**3 underflows to 0 (so 0 / 0
        # raises) from the sixth stage on
        (params(lam=0.0, xi=0.0), EmdenState2D(0.0, 1e-103, -1e-103), 0.99999, 6, False),
        (params(lam=0.0, xi=0.0), EmdenState3D(0.0, 1e-103, -1e-103, 1.0, 0.0), 0.99999, 6,
         False),
        # a^(2 gamma - 1) overflows from the fourth stage on
        (params(gamma=3.0, lam=1.0), EmdenState2D(0.0, 2e61, 4e61), 1.0, 4, False),
        (params(gamma=3.0, lam=1.0), EmdenState3D(0.0, 2e61, 4e61, 1.0, 0.0), 1.0, 4, False),
        # the fourth stage leaves the domain
        (params(lam=0.0, xi=0.0), EmdenState2D(0.0, 0.2, -2.0), 0.3, 4, True),
        (params(), EmdenState3D(0.0, 1.0, 0.0, 0.2, -2.0), 0.3, 4, True),
    ])
    def test_a_middle_stage_falls_back(self, p, state, h, stage, leaves_domain):
        assert _fallback_stages(p, state, h)[leaves_domain] == stage
        _kernel_and_reference(p, state, h, 1e-10, 1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from([2, 3]), st.booleans(), _real(0.0, 1.0), _real(0.3, 2.0),
           _real(0.05, 1.5), _real(1.0, 2.0))
    def test_steps_that_fall_back_at_any_stage_are_the_reference(
            self, dim, huge, depth, speed, h, gamma):
        _kernel_and_reference(*_edge_step(dim, huge, depth, speed, h, gamma), h, 1e-10, 1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from([2, 3]), st.booleans(), _real(0.0, 1.0), _real(0.3, 2.0),
           _real(0.05, 1.5), _real(1.0, 2.0))
    def test_dop853_steps_that_fall_back_at_any_stage_are_the_reference(
            self, dim, huge, depth, speed, h, gamma):
        _dop853_and_reference(*_edge_step(dim, huge, depth, speed, h, gamma), h, 1e-10, 1e-12)


    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.sampled_from(["RK45", "DOP853"]), st.sampled_from([2, 3]), st.data())
    def test_dense_is_the_loop_reference(self, method, dim, data):
        # the generated evaluator against the loop over the nested polynomial
        # (``_oracles.nest``), at the step's ends and inside it, with signed
        # zeros, infinities and NaNs among the coefficients.  A step of -0.0
        # everywhere shows the sum's start at 0.0: 0.0 + -0.0 is +0.0
        value = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(
            [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 1e308, -5e-324]))
        if data.draw(st.booleans()):
            value = st.just(-0.0)
        n, m = 2 * dim - 2, len(DENSE_FACTORS[method](0.0))
        y = tuple(data.draw(st.lists(value, min_size=n, max_size=n)))
        rows = tuple(tuple(data.draw(st.lists(value, min_size=m, max_size=m)))
                     for _ in range(n))
        x = data.draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
        got = emden._METHODS[method].dense(dim)(y, rows, x)
        want = tuple(v + nest(row, DENSE_FACTORS[method](x)) for v, row in zip(y, rows))
        assert nan_bits(got) == nan_bits(want)

    def test_each_state_size_is_compiled_once_per_process(self, monkeypatch):
        compiled = []

        def counting(source, filename, mode):
            compiled.append(filename)
            return compile(source, filename, mode)
        monkeypatch.setattr(emden, "compile", counting, raising=False)
        emden._generated.cache_clear()
        codes = set()
        # two families, two runs of each with other options, both sizes
        for p in (params(gamma=1.4, lam=-1.0), params(gamma=2.0, lam=0.5, xi=0.3)):
            for y0 in ((1.0, 0.0, 1.0, 0.2), (1.1, 0.0)):
                dim = len(y0) // 2 + 1
                for run in (RunOptions(), RunOptions(rel_tol=1e-8, eps_blow=0.5)):
                    emden._run(p, dim, y0, 0.0, 2.0, run)
                    kernels = emden._METHODS["RK45"].kernels(p, dim, run.rel_tol, run.abs_tol)
                    far = emden._METHODS["RK45"].far(dim, run.floors(y0))
                    codes.add(tuple(fn.__code__ for fn in (*kernels, far, emden._rhs(p, dim))))
        assert len(compiled) == 2
        # every run and family reuses its size's code objects
        assert len(codes) == 2

    def test_dop853_is_compiled_at_its_first_run_only(self, monkeypatch):
        compiled = []

        def counting(source, filename, mode):
            compiled.append(filename)
            return compile(source, filename, mode)
        monkeypatch.setattr(emden, "compile", counting, raising=False)
        emden._generated.cache_clear()
        p = params(gamma=1.4, lam=-1.0)
        state = EmdenState3D(0.0, 1.0, 0.1, 1.0, 0.2)
        integrate(p, state, 1.0)
        assert compiled == ["<RK45 kernels of state size 4>"]
        for dt in (1e-3, -1e-3, 0.5):
            advance(p, state, dt)
        advance(p, EmdenState2D(0.0, 1.0, 0.1), 1e-3)
        assert compiled == ["<RK45 kernels of state size 4>", "<DOP853 kernels of state size 4>",
                            "<DOP853 kernels of state size 2>"]

    @pytest.mark.parametrize("method, dim, digest", [
        ("RK45", 3, "5c5213a64a45a73b"), ("RK45", 2, "6a9c1c810d41b2b3"),
        ("DOP853", 3, "c384863986e38c7f"), ("DOP853", 2, "8e585653116528cb")],
        # named without the digest, so that a re-pin keeps the test's name
        ids=["RK45-3", "RK45-2", "DOP853-3", "DOP853-2"])
    def test_the_generated_source_is_pinned(self, monkeypatch, method, dim, digest):
        # the text ``_source`` writes fixes every operation of the kernels
        # and their compile cost; it is read where ``_generated`` compiles it
        sources = []

        def capturing(source, filename, mode):
            sources.append(source)
            return compile(source, filename, mode)
        monkeypatch.setattr(emden, "compile", capturing, raising=False)
        emden._generated.cache_clear()
        emden._METHODS[method].kernels(params(), dim, 1e-10, 1e-12)
        assert [hashlib.sha256(s.encode()).hexdigest()[:16] for s in sources] == [digest]

def _fallback_stages(p, state, h):
    """(the first stage, 2 to 7, of the reference step from ``state`` whose
    right-hand side falls back to ``_ieee``, the first whose state leaves
    the domain), None where there is none."""
    dim, y = emden._vec_from_state(state)
    f = emden._rhs(p, dim)
    k1 = f(y)
    seen, raised = [], []

    def recording(stage):
        seen.append(tuple(stage))
        return f(stage)

    def ieee(fn, stage):
        raised.append(len(seen) + 1)
        return real(fn, stage)
    real = emden._ieee
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(emden, "_ieee", ieee)
        dp5_step(recording, y, k1, h, 1e-10, 1e-12)
    outside = [j for j, s in enumerate(seen, 2) if not min(s[::2]) > 0.0]
    return min(raised, default=None), min(outside, default=None)


collapse_params = st.builds(params, gamma=st.one_of(st.just(1.0), _real(1.0, 2.5)),
                            lam=_real(-2.0, -0.1), xi=_real(0.0, 1.5))


def _streamed_and_kept(p, ic, t_end, times, options):
    """The ``stream_trajectory`` text and the ``integrate`` trajectory of
    one run."""
    lines = []
    termination, samples = emden.stream_trajectory(p, ic, t_end, lines.append,
                                                    dense_times=times, **options)
    assert samples == len(lines) - 1
    return "".join(lines), integrate(p, ic, t_end, dense_times=times, **options)


def _eager_once(dense_rows, *step):
    """``emden._once`` that builds the step's rows at once, on every step."""
    rows = dense_rows(*step)
    return lambda: rows


def _tabled(p, dim, y0, t_end, run):
    """The step table (``_oracles.StepTable``) of the run from (0, y0), kept
    by the table as the run's only sink."""
    table = StepTable(run.method, 0.0, y0)
    emden._run(p, dim, y0, 0.0, t_end, run, table.append)
    return table


def _on_demand_is_eager(p, ic, t_end, times, options):
    """Run with rows built on demand and with every step's rows built, and
    hold the two equal: streamed lines, states, termination, statistics and
    step table.  Returns the on-demand trajectory and its step table."""
    dim, y0 = emden._vec_from_state(ic)
    lazy = _streamed_and_kept(p, ic, t_end, times, options)
    table = _tabled(p, dim, y0, t_end, RunOptions(**options))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(emden, "_once", _eager_once)
        eager = _streamed_and_kept(p, ic, t_end, times, options)
        eager_table = _tabled(p, dim, y0, t_end, RunOptions(**options))
    for (text, traj), want in ((lazy, eager), (eager, lazy)):
        assert text == want[0] == "\n".join(traj.jsonl_lines()) + "\n"
    (_, traj), (_, want) = lazy, eager
    # repr writes every float exactly, -0.0 included
    assert (repr(traj.states), repr(traj.termination), repr(traj.stats), traj.t_span) == (
        repr(want.states), repr(want.termination), repr(want.stats), want.t_span)
    assert table.coeffs.tobytes() == eager_table.coeffs.tobytes()
    return traj, table


class TestRowsOnDemand:
    """A run hands its sinks each step's dense-output rows as a callable
    that builds them at most once: a step table builds them on every step,
    the sampler only on a step that holds a requested time, and the floor
    search shares them.  The samples are those of a run that builds every
    step's rows, bit for bit."""

    @pytest.mark.parametrize("entry", ["stream_trajectory", "integrate"])
    @pytest.mark.parametrize("p, y0, t_end, eps_blow", [
        # the gamma = 1.4 open cell, stopped by the concavity bound or, at
        # eps_blow 0.5, by a floor event inside its last step
        (params(gamma=1.4, lam=-1.0), (1.0, 0.0, 1.0, 0.2), 30.0, None),
        (params(gamma=1.4, lam=-1.0), (1.0, 0.0, 1.0, 0.2), 30.0, 0.5),
        # a planar orbit and an escape
        (params(gamma=1.5, lam=-1.0), (1.1, 0.0), 20.0, None),
        (params(gamma=1.67, lam=1.0, xi=0.5), (1.0, -0.2, 1.2, 0.3), 10.0, None)])
    @pytest.mark.parametrize("count", [None, 0, 1, 31])
    def test_a_streamed_run_builds_only_the_rows_it_reads(self, p, y0, t_end, eps_blow,
                                                          count, entry):
        # integrate's run, like the streamed one, has the sampler as its only
        # sink
        dim = len(y0) // 2 + 1
        ic = emden._state_from_vec(dim, 0.0, y0)
        times = None if count is None else [t_end * k / max(count - 1, 1) for k in range(count)]

        def run(write):
            if entry == "stream_trajectory":
                return emden.stream_trajectory(p, ic, t_end, write, dense_times=times,
                                               eps_blow=eps_blow)[0]
            traj = integrate(p, ic, t_end, dense_times=times, eps_blow=eps_blow)
            for line in traj.jsonl_lines():
                write(line + "\n")
            return traj.termination

        lines = []
        run(lines.append)
        method = emden._METHODS["RK45"]
        calls = []

        def far_test(*args):
            test = method.far(*args)

            def far(*step):
                calls.append(("far", test(*step)))
                return calls[-1][1]
            return far

        def kernels(*args):
            f, attempt, dense = method.kernels(*args)

            def rows(*step):
                calls.append(("rows",))
                return dense(*step)
            return f, attempt, rows

        watched = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(emden._METHODS, "RK45", method._replace(far=far_test, kernels=kernels))
            termination = run(watched.append)
        assert watched == lines
        # the far test runs once per accepted step, first: each step's calls
        # start with it
        steps = []
        for call in calls:
            if call[0] == "far":
                steps.append([not call[1], 0])
            else:
                steps[-1][1] += 1
        table = _tabled(p, dim, y0, t_end, RunOptions(eps_blow=eps_blow)).ts
        assert len(steps) == len(table) - 1
        for (near, built), t, t_new in zip(steps, table, table[1:]):
            holds = times is not None and any(t < time <= t_new for time in times)
            assert built == (near or holds), (t, t_new)
        assert (termination.kind == "blowup") == (p.lam < 0.0 and dim == 3)
        # most steps hold no sample and stay clear of the floors
        assert sum(built for _, built in steps) < len(steps) // 3

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.sampled_from(["RK45", "DOP853"]), st.sampled_from([2, 3]),
           st.builds(params, gamma=st.one_of(st.just(1.0), _real(1.05, 2.5)),
                     lam=_real(-2.0, 2.0), xi=_real(0.0, 1.5)),
           _real(0.5, 2.0), _real(-1.0, 1.0), _real(0.5, 2.0), _real(-1.0, 1.0),
           _real(0.5, 6.0), st.one_of(st.none(), _real(0.3, 0.95)),
           st.one_of(st.none(), st.lists(_real(0.0, 1.0), max_size=12)))
    def test_rows_on_demand_are_the_eager_run(self, method, dim, p, a0, a1, b0, b1, t_end,
                                              floor_share, fractions):
        y0 = (a0, a1, b0, b1)[:2 * dim - 2]
        ic = emden._state_from_vec(dim, 0.0, y0)
        eps_blow = None if floor_share is None else floor_share * min(y0[::2])
        times = None if fractions is None else sorted({t_end * f for f in fractions})
        _on_demand_is_eager(p, ic, t_end, times,
                            dict(method=method, eps_blow=eps_blow, max_steps=3000))

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    @pytest.mark.parametrize("times", [None, [0.0, 0.1, 0.25, 0.3, 0.5, 1.0, 2.0]])
    def test_a_floor_event_inside_the_last_step(self, method, times):
        # planar gamma = 2 with xi^2 + lam < 0 falls to the floor at a = 0.5
        # inside a step; the samples past the crossing are dropped and,
        # without times, the collapse point is the last one
        traj, table = _on_demand_is_eager(params(gamma=2.0, lam=-3.0),
                                          EmdenState2D(0.0, 1.0, 0.0), 5.0, times,
                                          dict(method=method, eps_blow=0.5))
        term = traj.termination
        assert (term.kind, term.detail) == ("blowup", "")
        assert table.ts[-2] < term.t_est == traj.t_span[1] < table.ts[-1]
        assert traj.states[-1].t == (term.t_est if times is None else 0.5)
        assert traj.states[-1].a > 0.5 if times else traj.states[-1].a == pytest.approx(0.5)


def _held_and_settled(p, dim, y0, t_end, times, run):
    """Run once with the sampler and with the hold-back reference
    (``_oracles.held_sampler``) as sinks, and hold their samples equal, bit
    for bit.  Returns the run's t_stop and its last step (t, t_new)."""
    dense = emden._METHODS[run.method].dense(dim)
    settled, held, steps = [], [], []
    sample = emden._sampler(dense, 0.0, y0, times, lambda t, y: settled.append((t, y)),
                            run.rel_tol)
    sink, finish = held_sampler(dense, 0.0, y0, times, lambda t, y: held.append((t, y)))

    def reference(t, t_new, y, y_new, rows, t_stop):
        steps.append((t, t_new))
        sink(t, t_new, y, y_new, rows)
    _, t_stop, _, _ = emden._run(p, dim, y0, 0.0, t_end, run, reference, sample)
    finish(t_stop)
    # repr writes every float exactly, -0.0 included
    assert repr(settled) == repr(held)
    return t_stop, steps[-1] if steps else None


def _floor_at(table, k, comp, where):
    """An eps_blow that puts a floor event of component ``comp`` at a step
    boundary of the run whose step table is ``table``: step k's end state,
    at which step k + 1 starts ("start"), or step k's polynomial at its end
    ("end")."""
    if where == "start":
        return table.ys[(k + 1) * table.n + comp]
    return table(table.ts[k + 1])[comp]


def _forced_floor(p, dim, y0, t_end, method, where, share, k, comp):
    """An eps_blow for a run from (0, y0): None (the library's floors) for
    ``where`` None, ``share`` times the smaller factor's start for "share",
    and for "start" or "end" a floor of component ``comp`` (of a in 2D) at a
    step boundary, picked by k, of the run with the library's floors."""
    comp = comp if dim == 3 else 0
    if where is None:
        return None
    if where == "share":
        return share * min(y0[::2])
    table = _tabled(p, dim, y0, t_end, RunOptions(method=method, max_steps=3000))
    # the steps with such a floor below every factor's start; for "start",
    # where the step's polynomial ends above its end state
    steps = [j for j in range(table.steps - 1)
             if 0.0 < _floor_at(table, j, comp, where) < min(y0[::2])
             and (where == "end" or table(table.ts[j + 1])[comp]
                  > _floor_at(table, j, comp, "start"))]
    assume(steps)
    return _floor_at(table, steps[k % len(steps)], comp, where)


def _where(t_stop, step):
    """Where in its last step (t, t_new) a run stopped."""
    t, t_new = step
    return "start" if t_stop == t else "end" if t_stop == t_new else "inside"


class TestSettledSteps:
    """The sampler emits each sample as soon as its step is settled: the
    samples of the run that holds each step's samples until its end, bit for
    bit, and every line of a streamed run is written before the trial step
    that follows its own step."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from(["RK45", "DOP853"]), st.sampled_from([2, 3]),
           st.builds(params, gamma=st.one_of(st.just(1.0), _real(1.05, 2.5)),
                     lam=_real(-3.0, 1.0), xi=_real(0.0, 1.5)),
           _real(0.5, 2.0), _real(-1.0, 1.0), _real(0.5, 2.0), _real(-1.0, 1.0),
           _real(0.5, 6.0),
           st.one_of(st.none(), st.lists(_real(0.0, 1.0), max_size=12)),
           st.booleans(), st.booleans(),
           st.sampled_from([None, "share", "start", "end"]), _real(0.05, 0.95),
           st.integers(0, 10 ** 6), st.sampled_from([0, 2]))
    def test_the_settled_samples_are_the_held_ones(self, method, dim, p, a0, a1, b0, b1,
                                                   t_end, fractions, at_t0, at_end, where,
                                                   share, k, comp):
        y0 = (a0, a1, b0, b1)[:2 * dim - 2]
        if fractions is None:
            times = None
        else:
            times = sorted({t_end * f for f in fractions + [0.0] * at_t0 + [1.0] * at_end})
        eps_blow = _forced_floor(p, dim, y0, t_end, method, where, share, k, comp)
        t_stop, step = _held_and_settled(p, dim, y0, t_end, times,
                                         RunOptions(method=method, eps_blow=eps_blow,
                                                    max_steps=3000))
        event(f"floor {where}, stopped {step and _where(t_stop, step)}")

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    @pytest.mark.parametrize("times", [None, [0.0, 0.1, 0.25, 0.3, 0.5, 1.0, 2.0, 5.0]])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_floor_events_at_the_start_inside_and_at_the_end_of_a_step(self, method, times,
                                                                       dim):
        # planar gamma = 2 with xi^2 + lam < 0 collapses, and so does b in
        # this 3D cell
        p = params(gamma=2.0, lam=-3.0)
        y0 = (1.0, 0.0, 1.0, -0.5)[:2 * dim - 2]
        table = _tabled(p, dim, y0, 5.0, RunOptions(method=method))
        # floors of the collapsing factor, which falls below the other one:
        # one at a step's polynomial end value is crossed at the step's end,
        # and one at its end state, where the polynomial ends above it by
        # rounding, at the next step's start.  DOP853's polynomial ends at
        # y + (y_new - y), which is y_new on these runs
        comp = len(y0) - 2
        ends = range(0, table.steps - 1, table.steps // 4)
        starts = [k for k in range(table.steps - 1)
                  if table(table.ts[k + 1])[comp] > _floor_at(table, k, comp, "start")]
        assert bool(starts) == (method == "RK45")
        for kind, steps in (("end", ends), ("start", starts[:4])):
            for k in steps:
                eps_blow = _floor_at(table, k, comp, kind)
                assert eps_blow < min(y0[::2])
                t_stop, step = _held_and_settled(p, dim, y0, 5.0, times,
                                                 RunOptions(method=method, eps_blow=eps_blow))
                assert _where(t_stop, step) == kind
        t_stop, step = _held_and_settled(p, dim, y0, 5.0, times,
                                         RunOptions(method=method, eps_blow=0.5))
        assert _where(t_stop, step) == "inside"

    @pytest.mark.parametrize("p, y0, t_end, eps_blow, times", [
        # a bound planar orbit, without and with times at t0 and t_end
        (params(gamma=1.5, lam=-1.0), (1.1, 0.0), 20.0, None, None),
        (params(gamma=1.5, lam=-1.0), (1.1, 0.0), 20.0, None, [0.0, 0.5, 7.0, 7.25, 20.0]),
        # a floor event inside the last step, whose collapse point ends the file
        (params(gamma=2.0, lam=-3.0), (1.0, 0.0), 5.0, 0.5, None),
        (params(gamma=2.0, lam=-3.0), (1.0, 0.0), 5.0, 0.5, [0.0, 0.25, 0.5, 1.0, 5.0]),
        # the open cell, stopped by the concavity bound
        (params(gamma=1.4, lam=-1.0), (1.0, 0.0, 1.0, 0.2), 30.0, None, None)])
    def test_each_line_is_written_before_the_next_trial_step(self, p, y0, t_end, eps_blow,
                                                             times):
        dim = len(y0) // 2 + 1
        ic = emden._state_from_vec(dim, 0.0, y0)
        method = emden._METHODS["RK45"]
        events = []

        def kernels(*args):
            f, attempt, rows = method.kernels(*args)

            def watched(y, k1, h):
                out = attempt(y, k1, h)
                # whether the controller accepts the trial step
                events.append(out[2] < 1.0)
                return out
            return f, watched, rows

        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(emden._METHODS, "RK45", method._replace(kernels=kernels))
            emden.stream_trajectory(p, ic, t_end, lambda line: events.append(json.loads(line)),
                                    dense_times=times, eps_blow=eps_blow)
        traj = integrate(p, ic, t_end, dense_times=times, eps_blow=eps_blow)
        ts = _tabled(p, dim, y0, t_end, RunOptions(eps_blow=eps_blow)).ts
        accepted, last, lines = 0, None, 0
        for item in events:
            if isinstance(item, bool):
                accepted, last = accepted + item, item
            elif "t" in item:
                # the sample lies in step k, (ts[k - 1], ts[k]], and k
                # accepted trial steps have been made, the last one its own
                # step's: no trial of the next step came first
                assert (accepted, last) == (bisect_left(ts, item["t"]),
                                            None if accepted == 0 else True), item
                lines += 1
        assert lines == len(traj.states) > 2


class TestStateAt:
    """``Trajectory.state_at(t)`` runs the loop again, with the sampler as
    its only sink, sampled at t alone: the state at t of the run's step
    table (``_oracles.StepTable``), bit for bit."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    # the gamma = 1.4 open cell, stopped by the concavity bound
    @example("RK45", 3, params(gamma=1.4, lam=-1.0), 1.0, 0.0, 1.0, 0.2, 6.0, None, 0.5, 0, 2,
             3000, None, [(7, 0.5)])
    @example("DOP853", 3, params(gamma=1.4, lam=-1.0), 1.0, 0.0, 1.0, 0.2, 6.0, None, 0.5, 0, 2,
             3000, [0.0, 0.1, 0.2, 0.5], [(3, 0.25), (11, 0.0)])
    @given(st.sampled_from(["RK45", "DOP853"]), st.sampled_from([2, 3]),
           st.builds(params, gamma=st.one_of(st.just(1.0), _real(1.05, 2.5)),
                     lam=_real(-3.0, 1.0), xi=_real(0.0, 1.5)),
           _real(0.5, 2.0), _real(-1.0, 1.0), _real(0.5, 2.0), _real(-1.0, 1.0),
           _real(0.5, 6.0), st.sampled_from([None, "share", "start", "end"]),
           _real(0.05, 0.95), st.integers(0, 10 ** 6), st.sampled_from([0, 2]),
           st.one_of(st.just(3000), st.integers(1, 30)),
           st.one_of(st.none(), st.lists(_real(0.0, 1.0), max_size=6)),
           st.lists(st.tuples(st.integers(0, 10 ** 6), _real(0.0, 1.0)), min_size=1,
                    max_size=3))
    def test_state_at_is_the_step_table(self, method, dim, p, a0, a1, b0, b1, t_end, where,
                                        share, k, comp, max_steps, fractions, picks):
        y0 = (a0, a1, b0, b1)[:2 * dim - 2]
        ic = emden._state_from_vec(dim, 0.0, y0)
        options = dict(method=method, max_steps=max_steps,
                       eps_blow=_forced_floor(p, dim, y0, t_end, method, where, share, k, comp))
        times = None if fractions is None else sorted({t_end * f for f in fractions})
        traj = integrate(p, ic, t_end, dense_times=times, **options)
        table = _tabled(p, dim, y0, t_end, RunOptions(**options))
        t0, t_stop = traj.t_span
        assert table.steps == traj.stats.accepted
        # t0, the span's end, and per pick a step's end and a time inside a
        # step, up to where the run stopped
        probes = {t0, t_stop}
        for j, x in picks if table.steps else ():
            j %= table.steps
            lo, hi = table.ts[j], table.ts[j + 1]
            probes |= {t for t in (hi, lo + x * (hi - lo)) if t0 < t <= t_stop}
        for t in sorted(probes):
            want = ic if t == t0 else emden._state_from_vec(dim, t, table(t))
            # repr writes every float exactly, -0.0 included
            assert repr(traj.state_at(t)) == repr(want), t
        term = traj.termination
        if term.detail or term.kind != "blowup":
            ending = term.detail or term.kind
        else:
            ending = "floor event" if term.t_est == t_stop else "concavity stop"
        last = _where(t_stop, (table.ts[-2], table.ts[-1])) if table.steps else "no step"
        event(f"{ending}, {'no ' * (times is None)}dense_times: stopped {last}")


class TestFarSteps:
    """A lifespan run skips the dense output of a step that its far test
    (``_rk45_far``) clears.  Such a step has no floor event: ``_locate``
    finds none on its rows and its dense output stays above the floor.  And
    a lifespan run that never trusts the bound, and so builds every step's
    rows, is the shipped run, bit for bit."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(collapse_params, st.sampled_from([2, 3]), _real(0.01, 2.0), _real(-2.0, 2.0),
           _real(0.01, 2.0), _real(-2.0, 2.0), _real(-7.0, -0.5), st.sampled_from([0, 2]),
           _real(0.5, 6.0))
    def test_a_far_step_has_no_floor_event(self, p, dim, a, u, b, v, log_h, comp, reaches):
        y = (a, u, b, v)[:2 * dim - 2]
        comp = comp if dim == 3 else 0
        h = 10.0 ** log_h
        f, attempt, dense = emden._METHODS["RK45"].kernels(p, dim, 1e-10, 1e-12)
        # whether or not the controller would accept the step: the bound
        # does not read its error
        y_new, _, _, stages = attempt(y, f(y), h)
        assume(all(map(math.isfinite, stages[comp::len(y)])))

        def reach(c):
            return h * sum(abs(k) * m for k, m in zip(stages[c::len(y)], RK45_P_BOUND))
        floor = y[comp] - reaches * reach(comp)
        assume(floor > 0.0)
        # a run has a floor per scale factor: the other one's is the library's
        floors = [(c, floor if c == comp else 1e-10 * y[c]) for c in range(0, len(y), 2)]
        far = emden._METHODS["RK45"].far(dim, floors)(y, stages, h)
        assert far == all(y[c] - f_c > 2.0 * reach(c) + 1e-12 * y[c] for c, f_c in floors)
        if not far:
            return
        rows = dense(y, y_new, stages, h)
        evaluator = emden._METHODS["RK45"].dense(dim)
        assert emden._locate(0.0, h, y, rows, evaluator, floors, 1e-10) is None
        assert min(emden._dense_state(0.0, h, y, rows, evaluator, t)[comp]
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
        method = emden._METHODS["RK45"]
        built = 0

        def kernels(*args):
            f, attempt, rows = method.kernels(*args)

            def counted(*step):
                nonlocal built
                built += 1
                return rows(*step)
            return f, attempt, counted

        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(emden._METHODS, "RK45", method._replace(
                kernels=kernels, far=lambda dim, floors: lambda y, stages, h: False))
            near = emden._run(p, dim, y0, 0.0, horizon, run)
        # repr writes every float exactly, -0.0 included
        assert repr(shipped) == repr(near)
        # the run that never trusts the bound builds every step's rows
        assert built == near[3].accepted

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(collapse_params, st.sampled_from([2, 3]), _real(0.3, 2.0), _real(-1.0, 1.0),
           _real(0.3, 2.0), _real(-1.0, 1.0), _real(1.0, 10.0),
           st.one_of(st.none(), _real(0.05, 0.9)))
    def test_sink_run_is_the_run_that_never_trusts_the_bound(
            self, p, dim, a0, a1, b0, b1, horizon, floor_share):
        # a run with a sink (integrate's sampler) skips ``_locate`` on the
        # steps its far test clears, and a sink that reads every step's rows
        # (a step table) still gets them
        y0 = (a0, a1, b0, b1)[:2 * dim - 2]
        ic = emden._state_from_vec(dim, 0.0, y0)
        eps_blow = None if floor_share is None else floor_share * min(a0, b0)
        run = RunOptions(max_steps=5000, eps_blow=eps_blow)
        shipped, located = _located_run(p, ic, horizon, max_steps=5000, eps_blow=eps_blow)
        table = _tabled(p, dim, y0, horizon, run)
        method = emden._METHODS["RK45"]
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(emden._METHODS, "RK45", method._replace(
                far=lambda dim, floors: lambda y, stages, h: False))
            near, near_located = _located_run(p, ic, horizon, max_steps=5000, eps_blow=eps_blow)
            near_table = _tabled(p, dim, y0, horizon, run)
        assert (shipped.jsonl_lines(), repr(shipped.termination), repr(shipped.stats),
                shipped.t_span) == (near.jsonl_lines(), repr(near.termination),
                                    repr(near.stats), near.t_span)
        assert table.coeffs.tobytes() == near_table.coeffs.tobytes()
        assert located <= near_located == near.stats.accepted

    def test_a_deck_like_sink_run_skips_the_floor_search(self):
        traj, located = _located_run(params(gamma=1.4, lam=-1.0),
                                     EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.2), 30.0)
        assert traj.termination.kind == "blowup"
        assert located < traj.stats.accepted // 10


def _located_run(p, ic, t_end, **options):
    """(``integrate``'s trajectory, the number of ``_locate`` calls its run made)."""
    located = 0
    real = emden._locate

    def counting(*args):
        nonlocal located
        located += 1
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(emden, "_locate", counting)
        return integrate(p, ic, t_end, **options), located


def _record_holds(term, t_last, lo, hi, rel_tol=1e-10):
    """Assert that ``term`` is the record of the stop of b from a last state
    at t_last whose bracket of b's zero is (lo, hi) after t_last: its ends
    t_last + lo and t_last + hi rounded outward (t_last + 0 is exact),
    exactly, and a width at most ``rel_tol`` max(1, t_last)."""
    start = math.nextafter(t_last + lo, -math.inf) if lo else t_last
    assert (term.kind, term.which, term.detail) == ("blowup", "b", "")
    assert term.t_est == math.nextafter(t_last + hi, math.inf)
    assert term.bracket_width == math.nextafter(term.t_est - start, math.inf)
    assert term.bracket_width <= rel_tol * max(1.0, t_last)
    assert t_last < term.t_est


def _rule_bracket(p, y0, t_last, y, run=RunOptions()):
    """(lo, hi), the bracket of b's zero that the stop of b takes from the
    last state (t_last, y) of a 3D run from y0 with lam < 0: the concavity
    bracket (0, w), w = b / |b'|, when w <= rel_tol max(1, t_last), else the
    bracket source of the run's gamma."""
    w = y[2] / -y[3]
    if w <= run.rel_tol * max(1.0, t_last):
        return 0.0, w
    (_, floor_a), (_, floor_b) = run.floors(y0)
    if p.gamma == 1.0:
        return emden._isothermal_bracket(-p.lam, p.xi * p.xi, floor_a, floor_b, y)
    return emden._fall_bracket(-p.lam, p.xi * p.xi, p.gamma, floor_a, floor_b, y)


def _stop_of_b(p, ic, traj):
    """Assert that a run without times from ``ic`` ended at the stop of b:
    its last step ends where it stopped, and its record is that of the
    bracket the rule takes from there."""
    last = traj.states[-1]
    assert last.t == traj.t_span[1]
    y = (last.a, last.a_dot, last.b, last.b_dot)
    ends = _rule_bracket(p, (ic.a, ic.a_dot, ic.b, ic.b_dot), last.t, y)
    _record_holds(traj.termination, last.t, *ends)


def _concavity_stop(traj):
    """(t_stop, w, stop state) of a run that ended at the concavity bound:
    its last step ends at t_stop, where w = b / |b'| is at most
    ``rel_tol`` max(1, t_stop), and its record is that of the bracket
    (0, w) after t_stop."""
    last = traj.states[-1]
    w = last.b / -last.b_dot
    assert last.t == traj.t_span[1]
    assert w <= 1e-10 * max(1.0, last.t)
    _record_holds(traj.termination, last.t, 0.0, w)
    return last.t, w, last


def _bracket_stop(traj):
    """(t_stop, w, stop state) of a run that ended at the bracket of b's
    zero: its last step ends at t_stop, where w = b / |b'| is still above
    the concavity stop's width, and its record is ``blowup`` of b at t_est
    whose bracket [t_est - width, t_est] lies past t_stop and within the
    concavity bound t_stop + w, with a width below ``rel_tol`` max(1, t)."""
    term, last = traj.termination, traj.states[-1]
    w = last.b / -last.b_dot
    assert (term.kind, term.which, term.detail) == ("blowup", "b", "")
    assert last.t == traj.t_span[1] < term.t_est - term.bracket_width
    assert term.t_est < last.t + w
    assert term.bracket_width <= 1e-10 * max(1.0, last.t) < w
    return last.t, w, last


# the stop of each test below, and the gamma of its open cell (lam = -1,
# b1 = 0.2): the bracket cannot take gamma >= 2
_STOPS = {"concavity": (_concavity_stop, 2.5), "bracket": (_bracket_stop, 1.4)}


# sha256 of the near-isothermal runs (gamma = 1 + 5e-13) of
# test_isothermal_collapse_lies_in_the_bracket: each run's sample records and
# RunStats, taken at the commit before the stop of b became one rule, which
# moved none of them; and their termination records, pinned again there
# (t_est up one ulp, bracket_width by a few ulp of t)
_NEAR_ISOTHERMAL_DIGESTS = {
    "RK45": (
        "e46bf66152f7b27db57281df0e09b9f759efa7891a8549a27ccb0998ee7f11d9",
        "36f7c6cd5521175ce18b37ba8ec2df3ec11c6ef0d64996b59796b11a0cf21412"),
    "DOP853": (
        "04191d18df2c25dd68778f840f1caefd94f80b9175ce75874007b2cda37185b6",
        "250f97478d8b496ca233ad4eb4505ef592ea1b61946ce28d25208e347469aba0"),
}


class TestConcavityStop:
    """A 3D run with lam < 0 has b'' < 0, so from a state with b' < 0 the
    exact b reaches 0 by t + b / |b'|; the run ends as a ``blowup`` of b once
    that width is below ``rel_tol`` max(1, t) and the bound is not past
    ``t_end``.  Where gamma = 1 or 1 < gamma < 2 a bracket of b's zero
    (``emden._isothermal_bracket``, ``emden._fall_bracket``) ends the run
    first; each test runs on cells no bracket takes (near-isothermal or
    gamma >= 2), and the same assertions hold for the bracket stop on cells
    it takes."""

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    def test_isothermal_collapse_lies_in_the_bracket(self, method):
        # gamma = 1 decouples b'' = lam / b, whose zero time the oracle gives
        # from any state.  Each draw runs twice: near-isothermal (gamma =
        # 1 + 5e-13, which no bracket takes, so the concavity stop ends it
        # as before gamma = 1 got its bracket: the runs are pinned), and at
        # gamma = 1, where the bracket stop ends it, with the record's width
        # in place of w.  The oracle's zero time from the last state lies in
        # the stop's bracket; T from the start differs from that state's
        # zero time by the run's state error delta: at most 1.0e-11 T on
        # these draws, and 3.9e-10 T on 300 wider ones with T up to 5600;
        # asserted below rel_tol T here.  1 + 5e-13 moves T by about 1e-12 T
        rng = np.random.default_rng(22)
        steps, records = [], []
        for _ in range(8):
            u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
            k, xi = u(0.3, 2.0), u(0.3, 1.5)
            b0, b1 = u(0.5, 2.0), u(-1.0, 0.5)
            ic = EmdenState3D(0.0, u(0.5, 2.0), u(-0.5, 0.5), b0, b1)
            (_, floor_a), (_, floor_b) = RunOptions().floors((ic.a, ic.a_dot, b0, b1))
            T = isothermal_fall_time(b0, b1, k)
            for gamma in (1.0 + 5e-13, 1.0):
                traj = integrate(params(gamma=gamma, lam=-k, xi=xi), ic, T + 5.0, method=method)
                t_est = traj.termination.t_est
                if gamma == 1.0:
                    t_stop, _, last = _bracket_stop(traj)
                    w = traj.termination.bracket_width
                    tau = isothermal_fall_time(last.b, last.b_dot, k)
                    y = (last.a, last.a_dot, last.b, last.b_dot)
                    lo, hi = emden._isothermal_bracket(k, xi * xi, floor_a, floor_b, y)
                    assert lo <= tau <= hi
                else:
                    t_stop, w, last = _concavity_stop(traj)
                    lines = traj.jsonl_lines()
                    steps.append("\n".join(lines[:-1]) + repr(traj.stats))
                    records.append(lines[-1])
                    tau = isothermal_fall_time(last.b, last.b_dot, k)
                    assert 0.0 < tau <= w
                delta = t_stop + tau - T
                assert abs(delta) <= 1e-10 * T
                assert t_est - w - abs(delta) <= T <= t_est + abs(delta)
        digests = tuple(hashlib.sha256("\n".join(pinned).encode()).hexdigest()
                        for pinned in (steps, records))
        assert digests == _NEAR_ISOTHERMAL_DIGESTS[method]

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    def test_a_finer_run_lands_in_the_open_cells_bracket(self, method):
        # lam < 0, b1 > 0: a run at rel_tol / 100 from the state the coarse
        # run stopped at collapses inside the coarse bracket, with no slack
        # (past the bracket stop's, up to the fine run's own width).  From
        # the start, the fine run (which reaches its floor before its own,
        # narrower bound) differs from the coarse one by the coarse run's
        # state error: it lands inside the bracket on these draws, and at
        # most 4e-11 T outside it on 169 wider ones; the slack is rel_tol T.
        # The concavity stop's cells are near-isothermal and have
        # gamma > 2 in turn
        for stop, (check, _) in sorted(_STOPS.items()):
            rng = np.random.default_rng(23)
            for i in range(6):
                u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
                gamma = (u(1.1, 1.9) if stop == "bracket"
                         else u(2.05, 2.8) if i % 2 else 1.0 + u(0.1, 0.9) * 1e-12)
                p = params(gamma=gamma, lam=-u(0.5, 2.0), xi=u(0.3, 1.2))
                ic = EmdenState3D(0.0, u(0.8, 1.5), u(-0.3, 0.3), u(0.5, 1.5), u(0.0, 0.4))
                coarse = integrate(p, ic, 30.0, method=method)
                t_stop, _, last = check(coarse)
                t_est, width = coarse.termination.t_est, coarse.termination.bracket_width
                for start, slack in ((last, 0.0), (ic, 1e-10 * t_est)):
                    fine = integrate(p, start, 30.0, rel_tol=1e-12, method=method).termination
                    assert (fine.kind, fine.which) == ("blowup", "b")
                    if stop == "concavity":
                        assert t_stop - slack < fine.t_est <= t_est + slack
                    else:
                        own = fine.bracket_width if start is last else 0.0
                        assert t_est - width - slack <= fine.t_est <= t_est + own + slack

    def test_no_rule_fires_past_the_horizon(self):
        # horizons around the collapse of each open cell: each run reaches
        # its horizon or collapses by it
        for check, gamma in _STOPS.values():
            p, ic = params(gamma=gamma, lam=-1.0), EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.2)
            t_stop, w, _ = check(integrate(p, ic, 30.0))
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
        # the lifespan run of each open cell: the stop rules read the step's
        # end state alone, so the far-step skip stays on.  With the
        # library's floor the run stops before the floor is in reach of a
        # step; the floor at 0.5 is reached first, by steps the bound cannot
        # clear
        cells = [(params(gamma=gamma, lam=-1.0), (1.0, 0.0, 1.0, 0.2))
                 for _, gamma in _STOPS.values()]
        run = RunOptions(eps_blow=eps_blow)
        method = emden._METHODS["RK45"]
        locate_rows = emden._locate
        calls = []

        def far_test(*args):
            test = method.far(*args)

            def far(*step):
                calls.append(("far", test(*step)))
                return calls[-1][1]
            return far

        def kernels(*args):
            f, attempt, dense = method.kernels(*args)

            def rows(*step):
                calls.append(("rows",))
                return dense(*step)
            return f, attempt, rows

        def locate(*args):
            calls.append(("locate",))
            return locate_rows(*args)
        shipped = [emden._run(p, 3, y0, 0.0, 30.0, run) for p, y0 in cells]
        monkeypatch.setitem(emden._METHODS, "RK45",
                            method._replace(far=far_test, kernels=kernels))
        monkeypatch.setattr(emden, "_locate", locate)
        for (p, y0), want in zip(cells, shipped):
            calls.clear()
            watched = emden._run(p, 3, y0, 0.0, 30.0, run)
            assert repr(watched) == repr(want)
            termination, t_stop, _, stats = watched
            # the stops end past their last step, a floor event inside it
            assert (t_stop < termination.t_est) == (eps_blow is None)
            assert sum(c[0] == "far" for c in calls) == stats.accepted
            near = [i for i, c in enumerate(calls) if c == ("far", False)]
            assert (len(near) == 0) == (eps_blow is None) and len(near) < stats.accepted // 10
            # each rows and locate call follows a step the bound could not clear
            assert [c for c in calls if c[0] != "far"] == [("rows",), ("locate",)] * len(near)
            assert all(calls[i + 1:i + 3] == [("rows",), ("locate",)] for i in near)


def _bracket_calls(monkeypatch):
    """The w = b / |b'| of each state ``emden._fall_bracket`` gets from now
    on, in call order."""
    seen, real = [], emden._fall_bracket

    def counting(*args):
        y = args[-1]
        seen.append(y[2] / -y[3])
        return real(*args)
    monkeypatch.setattr(emden, "_fall_bracket", counting)
    return seen


class TestBracketStop:
    """A 3D run with lam < 0 and 1 < gamma < 2 ends as a ``blowup`` of b once
    the energy of b brackets its zero and its floor crossing
    (``emden._fall_bracket``) to ``rel_tol`` max(1, t), unless a sink still
    needs a time that the bracket proves the solution reaches; a floor that
    b reaches first ends the run at its crossing."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    # a may move by s = 0.46 a: a bracket; by more than a / 2: none, even
    # where the series would take the range of K that s gives (gamma = 1.1)
    @example(1.25, 1.69, 0.77, 0.68, 1.33, -1.28, 1.37)
    @example(1.93, 1.01, 0.0, 1.65, -0.19, -1.3, 1.11)
    @example(1.1, 1.97, 0.0, 0.57, 2.01, -1.22, 1.05)
    @given(_real(1.05, 1.95), _real(0.3, 2.0), st.one_of(st.just(0.0), _real(0.1, 1.5)),
           _real(0.5, 2.0), _real(-3.0, 3.0), _real(-6.0, -1.0), _real(0.72, 1.6))
    def test_the_bracket_holds_the_fall_time(self, gamma, k, xi, a, ad, log_w, r):
        # a state near b's zero, with w = b / |b'| = 10^log_w and b'^2 at
        # 2 K b^(-p) / (p r), the speed at which the series of F is summed
        # when K stays put.  Where it gives a bracket, a stays within
        # [a - s, a + s] (s the library's) on the fall of the full 3D
        # system, and the bracket holds the quadrature bounds (the fall
        # times with K held at each end of that range), tightly
        p = gamma - 1.0
        c = 2.0 * k * a ** (-2.0 * p) / p
        w = 10.0 ** log_w
        b = (w * math.sqrt(c / r)) ** (1.0 / (1.0 + 0.5 * p))
        y = (a, ad, b, -b / w)
        got = emden._fall_bracket(k, xi * xi, gamma, 0.0, 0.0, y)
        event("bracket" if got else "no bracket")
        if got is None:
            return
        s = emden._fall_spread(k, xi * xi, gamma, y)
        assert a - s >= 0.5 * a
        least, greatest = fall_range_of_a(gamma, -k, xi, y)
        assert a - s <= least <= greatest <= a + s
        (lo, hi), (want_lo, want_hi) = got, fall_time_bounds(gamma, -k, a, b, y[3], s)
        assert 0.0 < lo <= want_lo <= want_hi <= hi < w
        assert (hi - lo) - (want_hi - want_lo) <= 1e-12 * w

    def test_the_bracket_holds_the_floor_crossing(self):
        # b takes at most floor_b / |b'| from its floor to 0, so the floor
        # lowers lo by that and leaves hi; a bracket whose a - s is not above
        # a's floor is none, as a may cross it first
        y = (1.0, 0.1, 1e-4, -10.0)
        s = emden._fall_spread(1.0, 1.0, 1.4, y)
        lo, hi = emden._fall_bracket(1.0, 1.0, 1.4, 0.0, 0.0, y)
        assert 0.0 < s < 0.5
        for floor_b in (1e-10, 1e-8, 1e-6):
            assert emden._fall_bracket(1.0, 1.0, 1.4, 0.0, floor_b, y) == (
                max(0.0, lo - floor_b / 10.0), hi)
        assert emden._fall_bracket(1.0, 1.0, 1.4, math.nextafter(1.0 - s, 0.0), 0.0, y) == (lo, hi)
        assert emden._fall_bracket(1.0, 1.0, 1.4, 1.0 - s, 0.0, y) is None

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.sampled_from(["RK45", "DOP853"]), _real(1.05, 1.95), _real(0.5, 2.0),
           st.one_of(st.just(0.0), _real(0.3, 1.2)), _real(0.8, 1.5), _real(-0.3, 0.3),
           _real(0.5, 1.5), _real(-0.5, 0.4))
    def test_a_bracket_stop_holds_the_collapse(self, method, gamma, k, xi, a0, a1, b0, b1):
        # b's zero of the exact solution through the last state, from a
        # DOP853 run at rel_tol 1e-13 (up to that run's own width), lies in
        # the bracket; and T agrees with a run at rel_tol / 100 from the
        # start to rel_tol max(1, T)
        p, ic = params(gamma=gamma, lam=-k, xi=xi), EmdenState3D(0.0, a0, a1, b0, b1)
        traj = integrate(p, ic, 30.0, method=method)
        term = traj.termination
        at_bracket = (term.kind, term.which) == ("blowup", "b") and (
            term.t_est - term.bracket_width > traj.t_span[1])
        event("bracket stop" if at_bracket else f"{term.kind} of {term.which}")
        if not at_bracket:
            return
        _bracket_stop(traj)
        zero = integrate(p, traj.states[-1], 30.0, rel_tol=1e-13, abs_tol=1e-15,
                         method="DOP853").termination
        assert (zero.kind, zero.which) == ("blowup", "b")
        assert term.t_est - term.bracket_width <= zero.t_est
        assert zero.t_est - zero.bracket_width <= term.t_est
        fine = integrate(p, ic, 30.0, rel_tol=1e-12, method=method).termination
        assert abs(fine.t_est - term.t_est) <= 1e-10 * max(1.0, term.t_est)

    # the gamma = 1.4 open cell's floor crossings of b, taken at the commit
    # before the bracket stop: b reaches these floors before a bracket that
    # holds its crossing is narrow enough, so the floor event ends the run
    @pytest.mark.parametrize("method, eps_blow, T", [
        ("RK45", 1e-5, 1.4240263523575583), ("DOP853", 1e-5, 1.424026352369655),
        ("RK45", 1e-7, 1.424026717892818), ("DOP853", 1e-7, 1.4240267179170318)])
    def test_a_floor_crossed_first_ends_the_run(self, method, eps_blow, T):
        p, ic = params(gamma=1.4, lam=-1.0), EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.2)
        traj = integrate(p, ic, 30.0, eps_blow=eps_blow, method=method)
        term = traj.termination
        assert (term.kind, term.which, term.t_est, term.detail) == ("blowup", "b", T, "")
        assert traj.t_span[1] == T

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    @pytest.mark.parametrize("eps_blow", [1e-9, 1e-8])
    def test_a_bracket_stop_holds_the_floor_crossing(self, method, eps_blow):
        # a floor the run has not reached when the bracket stop ends it lies
        # in the bracket: a DOP853 run at rel_tol 1e-13 from the last state
        # crosses it there
        p, ic = params(gamma=1.4, lam=-1.0), EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.2)
        traj = integrate(p, ic, 30.0, eps_blow=eps_blow, method=method)
        _bracket_stop(traj)
        term = traj.termination
        floor = integrate(p, traj.states[-1], 30.0, eps_blow=eps_blow, rel_tol=1e-13,
                          abs_tol=1e-15, method="DOP853")
        assert floor.t_span[1] == floor.termination.t_est
        assert term.t_est - term.bracket_width <= floor.termination.t_est <= term.t_est

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    def test_a_time_before_the_bracket_keeps_its_sample(self, method):
        # the run of the open cell without times stops at t_stop, with b's
        # zero in [lo, t_est]; the solution reaches a time in (t_stop, lo),
        # so a run that asks for it steps on and samples it, while a time
        # inside the bracket is truncated where the run without it stops
        p, ic = params(gamma=1.4, lam=-1.0), EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.2)
        free = integrate(p, ic, 30.0, method=method)
        t_stop, _, _ = _bracket_stop(free)
        t_est, width = free.termination.t_est, free.termination.bracket_width
        before, inside = 0.5 * (t_stop + t_est - width), t_est - 0.5 * width
        kept = integrate(p, ic, 30.0, dense_times=[0.5, before], method=method)
        assert [st.t for st in kept.states] == [0.5, before] and before <= kept.t_span[1]
        term = kept.termination
        assert (term.kind, term.which, term.detail) == ("blowup", "b", "")
        assert abs(term.t_est - t_est) <= 1e-10 * t_est
        cut = integrate(p, ic, 30.0, dense_times=[0.5, inside], method=method)
        assert [st.t for st in cut.states] == [0.5]
        assert repr(cut.termination) == repr(free.termination)
        assert cut.t_span == free.t_span

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    # the last three end at the concavity bracket: gamma > 2, near-isothermal,
    # and gamma = 1 with w0 = b1^2 / (2 |lam|) = 800, out of the closed form's
    # reach
    @pytest.mark.parametrize("gamma, b1", [(1.1, 0.1), (1.4, -0.5), (1.4, 0.2), (1.8, 0.3),
                                           (2.5, 0.2), (1.0 + 5e-13, 0.2), (1.0, -40.0)])
    def test_runs_without_times_report_one_time(self, method, gamma, b1):
        from eulerexact.classify import classify_cell

        p, ic = params(gamma=gamma, lam=-1.0), EmdenState3D(0.0, 1.0, 0.0, 1.0, b1)
        traj = integrate(p, ic, 30.0, method=method)
        # the source cells end at their energy bracket, past the last step
        # and inside the concavity bound; the others at the concavity bracket
        (_bracket_stop if 1.0 < gamma < 2.0 and not p.is_isothermal else _concavity_stop)(traj)
        _stop_of_b(p, ic, traj)
        streamed, _ = emden.stream_trajectory(p, ic, 30.0, lambda line: None, method=method)
        cell = classify_cell(p, ic, 30.0, method=method)
        assert repr(streamed) == repr(traj.termination)
        # bit for bit: == on floats
        assert cell.T == traj.termination.t_est and cell.t_horizon == traj.t_span[1]

    def test_only_runs_near_a_collapse_try_the_bracket(self, monkeypatch, tmp_path):
        from eulerexact import cli

        seen = _bracket_calls(monkeypatch)
        # advance's shifts, the runs of verify and sample, and an escaping run
        p, ic = params(gamma=1.4, lam=-1.0), EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.2)
        for dt in (1e-3, -1e-3, 0.5, 1.2):
            advance(p, ic, dt)
        cell = ["--gamma", "1.4", "--lambda=-1", "--b1", "0.2"]
        assert cli.main(["verify", *cell, "--verify-time", "1.0", "--verify-points", "4",
                         "--out", str(tmp_path / "v.json")]) == 0
        assert cli.main(["sample", *cell, "--times", "0,0.5,1.2", "--grid-x=-1:1:3",
                         "--grid-y=-1:1:3", "--grid-z=-1:1:3",
                         "--out", str(tmp_path / "s.csv")]) == 0
        escape = integrate(params(gamma=1.4, lam=-1.0), EmdenState3D(0.0, 1.0, 0.0, 1.0, 2.0),
                           30.0)
        assert escape.termination.kind == "reached_t_end"
        assert seen == []
        # a collapsing run tries it from w <= 1e-3 max(1, t), each time w has
        # halved since its last try
        traj = integrate(p, ic, 30.0)
        _bracket_stop(traj)
        assert 0 < len(seen) <= 10 and seen[0] <= 1e-3 * traj.termination.t_est
        assert all(w2 <= 0.5 * w1 for w1, w2 in zip(seen, seen[1:]))


# gamma = 1 cells the bracket stop takes, lam = -1 and (a0, a1, b0) =
# (1.5, 0.1, 1.0) unless given: (xi, b1) or (xi, y0).  The last was pinned
# as out of the bracket's reach before gamma = 1 got its bracket
_ISOTHERMAL_CELLS = {
    "xi_zero_falling": (0.0, -0.4),
    "xi_zero_rising": (0.0, 0.3),
    "falling": (0.8, -0.4),
    "rising": (0.8, 0.3),
    "formerly_out_of_reach": (0.5, (1.2, 0.1, 1.0, -0.3)),
}
# sha256 of the sample records each run of a cell writes before its bracket
# stop (every step point, then dense_times 0.05, 0.1, ..., 2.0), taken from
# the runs of the commit before gamma = 1 got its bracket stop, which step on
# to the concavity stop: their first records, as many as the stop's runs write
_ISOTHERMAL_PREFIX_DIGESTS = {
    ("falling", "DOP853"):
        "1e90e8ab17258357107024aa6546549685528f19e26104b175ad7823e9b821a7",
    ("falling", "RK45"):
        "3ace2ae6e4b7fcbef42323099003d71b02f6e702d2fb120a40ec0ea28093085d",
    ("formerly_out_of_reach", "DOP853"):
        "872790a9d47d64595f483a58b009f13256bbea4065a52cf4c376bf4b756aec05",
    ("formerly_out_of_reach", "RK45"):
        "efbbc14ccf68bf7535adb44c445aafed67f23f10d6032e9375e0cae4405b5d96",
    ("rising", "DOP853"):
        "6007ec9ef8f8c3aafc2366efc8d1c01afface1bdff15f6af099a491ba808df98",
    ("rising", "RK45"):
        "5b1052bc0c90d1c29322f5699bbbc8687f91f55648c313e6676a54f4e91ab0d9",
    ("xi_zero_falling", "DOP853"):
        "e75bac5d23b4b8a989b960cd29aae777b1583afbfe96ce682ac943250a11465f",
    ("xi_zero_falling", "RK45"):
        "948f0964642504ee511dd14292413fef0353adccf1030f469f02901c3b919216",
    ("xi_zero_rising", "DOP853"):
        "7bfde8cf208a6bcc04e8ddcea3e18398223a161c2241a858adcf5b4eb56210fa",
    ("xi_zero_rising", "RK45"):
        "21edd30715f00f4e0d605ac47aab39872850a90490f4e40c4179a0625ee2c905",
}


def _isothermal_cell(name):
    xi, rest = _ISOTHERMAL_CELLS[name]
    y0 = rest if isinstance(rest, tuple) else (1.5, 0.1, 1.0, rest)
    return params(gamma=1.0, lam=-1.0, xi=xi), emden._state_from_vec(3, 0.0, y0)


class TestIsothermalBracketStop:
    """At gamma = 1 the system decouples, and a 3D run with lam < 0 ends as
    a ``blowup`` of b once the closed form brackets b's zero and its floor
    crossing (``emden._isothermal_bracket``) to ``rel_tol`` max(1, t), unless
    a sink still needs a time before the bracket or a may reach its floor
    first."""

    def test_the_margin_holds_the_closed_form_rounding(self):
        # _isothermal_zero to 0 and to a floor against 40-digit mpmath, for
        # w0 in [0, 700] on both branches: the error stays inside the
        # stop's margin, and above a flat 1e-13 near w0 = 700.  The oracle
        # itself agrees with the quadrature of the first integral
        for x0, x1, k in ((1.0, -0.3, 1.0), (0.7, 0.4, 0.5), (2.0, 0.0, 1.5)):
            zero, _ = isothermal_closed_form(x0, x1, k)
            assert float(zero) == pytest.approx(isothermal_fall_time(x0, x1, k), rel=1e-14)
        rng = np.random.default_rng(33)
        worst, flat_misses = 0.0, 0
        for i in range(1200):
            w0 = 700.0 if i < 4 else 0.0 if i < 8 else float(rng.uniform(0.0, 700.0))
            k, x0 = float(rng.uniform(0.2, 3.0)), float(10.0 ** rng.uniform(-4.0, 1.0))
            x1 = math.copysign(math.sqrt(2.0 * k * w0), -1.0 if i % 2 else 1.0)
            floor = x0 * 10.0 ** -float(rng.uniform(1e-5, 12.0)) if i % 4 >= 2 else 0.0
            got = emden._isothermal_zero(x0, x1, k, floor)
            zero, want = isothermal_closed_form(x0, x1, k, floor)
            error = abs(got - want) / zero
            worst = max(worst, float(error / emden._isothermal_margin(x1, k)))
            flat_misses += w0 >= 600.0 and error > 1e-13
        assert worst <= 1.0
        assert flat_misses > 0
        # out of reach: e^w0 past _MAX_EXP_ARG
        assert emden._isothermal_zero(1.0, -math.sqrt(2.0 * 700.001), 1.0) is None

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(["RK45", "DOP853"]), _real(0.3, 2.0),
           st.one_of(st.just(0.0), _real(0.3, 1.5)), _real(0.5, 2.0), _real(-0.5, 0.5),
           _real(0.5, 2.0), _real(-1.0, 0.5))
    def test_the_stop_holds_the_closed_form(self, method, k, xi, a0, a1, b0, b1):
        # the bracket of the record is _isothermal_bracket's from the last
        # state, and it holds b's closed-form zero and floor crossing from
        # there (40-digit mpmath); T agrees with the table's; and the
        # samples before the stop, step points or dense_times, are those of
        # a run without the bracket, which steps on
        from eulerexact.classify import classify_3d

        p, ic = params(gamma=1.0, lam=-k, xi=xi), EmdenState3D(0.0, a0, a1, b0, b1)
        table = classify_3d(p, ic).T
        t_end = table + 5.0
        times = [t_end * i / 25 for i in range(1, 25)]
        runs = [integrate(p, ic, t_end, dense_times=dense, method=method)
                for dense in (None, times)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(emden, "_isothermal_bracket", lambda *args: None)
            before = [integrate(p, ic, t_end, dense_times=dense, method=method)
                      for dense in (None, times)]
        for traj, old in zip(runs, before):
            lines = traj.jsonl_lines()[:-1]
            assert old.jsonl_lines()[:len(lines)] == lines
        # a requested time the stop leaves out lies in its bracket or past it
        sampled = runs[1].termination
        assert all(st.t >= sampled.t_est - sampled.bracket_width
                   for st in before[1].states[len(runs[1].states):])
        traj = runs[0]
        term = traj.termination
        assert term.kind == "blowup"
        assert abs(term.t_est - table) <= 1e-10 * max(1.0, table)
        at_bracket = term.which == "b" and term.t_est - term.bracket_width > traj.t_span[1]
        event("bracket stop" if at_bracket else f"blowup of {term.which}")
        if not at_bracket:
            assert repr(term) == repr(before[0].termination)
            return
        t_stop, _, last = _bracket_stop(traj)
        (_, floor_a), (_, floor_b) = RunOptions().floors((a0, a1, b0, b1))
        y = (last.a, last.a_dot, last.b, last.b_dot)
        lo, hi = emden._isothermal_bracket(k, xi * xi, floor_a, floor_b, y)
        # the record's ends are t_stop + lo and t_stop + hi rounded outward
        _record_holds(term, t_stop, lo, hi)
        zero, cross = isothermal_closed_form(last.b, last.b_dot, k, floor_b)
        assert lo <= cross < zero <= hi
        # so in absolute time the record's floats hold both, of the reals
        with mpmath.workdps(40):
            top = mpmath.mpf(term.t_est)
            assert top - mpmath.mpf(term.bracket_width) <= t_stop + cross
            assert t_stop + zero <= top
        if xi == 0.0:
            _, a_cross = isothermal_closed_form(last.a, last.a_dot, k, floor_a)
            assert a_cross > hi

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    @pytest.mark.parametrize("name", sorted(_ISOTHERMAL_CELLS))
    def test_the_samples_before_the_stop_are_pinned(self, name, method):
        p, ic = _isothermal_cell(name)
        steps = integrate(p, ic, 2.0, method=method)
        times = [0.05 * (i + 1) for i in range(40)]
        sampled = integrate(p, ic, 2.0, dense_times=times, method=method)
        _bracket_stop(steps)
        assert repr(sampled.termination) == repr(steps.termination)
        text = "\n".join(steps.jsonl_lines()[:-1] + ["--"] + sampled.jsonl_lines()[:-1])
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == _ISOTHERMAL_PREFIX_DIGESTS[name, method]

    @pytest.mark.parametrize("method, T", [("RK45", 1.0018367015220608),
                                           ("DOP853", 1.001836701531752)])
    def test_a_falling_first_ends_the_run_at_its_floor(self, monkeypatch, method, T):
        # xi = 0 and a just faster than b: a reaches its floor about 1e-6
        # before b's zero, inside every bracket of b, so each try gives no
        # bracket and a's floor crossing ends the run as before the stop
        calls, real = [], emden._isothermal_bracket

        def counting(*args):
            calls.append(real(*args))
            return calls[-1]
        monkeypatch.setattr(emden, "_isothermal_bracket", counting)
        p = params(gamma=1.0, lam=-1.0, xi=0.0)
        traj = integrate(p, EmdenState3D(0.0, 1.0, -0.300001, 1.0, -0.3), 30.0, method=method)
        term = traj.termination
        assert (term.kind, term.which, term.t_est, term.detail) == ("blowup", "a", T, "")
        assert traj.t_span[1] == T
        assert len(calls) >= 5 and calls == [None] * len(calls)

    def test_classify_and_sweep_take_the_table(self, monkeypatch, tmp_path):
        # gamma = 1 cells have the table's closed-form T and make no run
        from eulerexact import classify, cli

        def no_run(*args, **kwargs):
            raise AssertionError("a gamma = 1 cell made a run")
        monkeypatch.setattr(classify, "_run", no_run)
        for name in sorted(_ISOTHERMAL_CELLS):
            p, ic = _isothermal_cell(name)
            cell = classify.classify_cell(p, ic, 30.0)
            assert cell == classify.classify_3d(p, ic) and cell.T is not None
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--gamma", "1", "--lambda=-1", "--sweep", "xi=0,0.8",
                         "--sweep", "b1=-0.4,0.3", "--sweep-t-end", "30",
                         "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 4 and all(",analytic," in row for row in rows)


class TestOneStopRule:
    """Every stop of b in a 3D run with lam < 0 follows one rule: from the
    last state the run takes the concavity bracket (0, w), w = b / |b'|,
    when w is at most ``rel_tol`` max(1, t), else its gamma's bracket
    source, and its record holds that bracket's ends rounded outward."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    # the concavity bracket at gamma > 2, near-isothermal and at gamma = 1
    # with w0 = 800; the bracket sources at gamma = 1 and 1 < gamma < 2
    @example("RK45", (2.0, 1.0), 0.5, 1.0, 1.0, 1.0, 0.0, 1.0, 0.2)
    @example("DOP853", (1.0 + 5e-13, 0.0), 0.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.2)
    @example("RK45", (1.0, 0.0), 0.0, 1.0, 0.5, 1.2, 0.1, 1.0, -40.0)
    @example("DOP853", (1.0, 0.0), 0.0, 1.0, 0.0, 1.5, 0.1, 1.0, -0.4)
    @example("RK45", (1.05, 0.9), 0.35, 1.0, 1.0, 1.0, 0.0, 1.0, 0.2)
    # gamma = low + span u: 1, 1 + 5e-13, in [1.05, 1.95] or in [2, 3]
    @given(st.sampled_from(["RK45", "DOP853"]),
           st.sampled_from([(1.0, 0.0), (1.0 + 5e-13, 0.0), (1.05, 0.9), (2.0, 1.0)]),
           _real(0.0, 1.0), _real(0.3, 2.0), st.one_of(st.just(0.0), _real(0.3, 1.5)),
           _real(0.5, 2.0), _real(-0.5, 0.5), _real(0.5, 2.0), _real(-1.0, 0.5))
    def test_the_record_is_the_rules_bracket_rounded_outward(self, method, gammas, u, k, xi,
                                                             a0, a1, b0, b1):
        low, span = gammas
        gamma = low + span * u
        p, y0 = params(gamma=gamma, lam=-k, xi=xi), (a0, a1, b0, b1)
        term, t_last, y, _ = emden._run(p, 3, y0, 0.0, 30.0, RunOptions(method=method))
        # a floor crossing or a step-size underflow ends at t_last itself
        if not (term.kind == "blowup" and term.which == "b" and t_last < term.t_est):
            event(f"{term.kind} of {term.which}")
            return
        ends = _rule_bracket(p, y0, t_last, y)
        concave = y[2] / -y[3] <= 1e-10 * max(1.0, t_last)
        event("concavity" if concave else "gamma = 1" if gamma == 1.0 else "1 < gamma < 2")
        assert ends is not None
        _record_holds(term, t_last, *ends)
        lo, hi = ends
        # the bracket lies past the last step; the concavity bracket starts
        # at it, so its record's low end is t_last
        if lo > 0.0:
            assert t_last < term.t_est - term.bracket_width
        else:
            assert t_last == term.t_est - term.bracket_width
        # the record's floats hold the bracket of the reals
        with mpmath.workdps(40):
            top, start = mpmath.mpf(term.t_est), mpmath.mpf(t_last)
            assert top - mpmath.mpf(term.bracket_width) <= start + lo
            assert start + hi <= top


# cells the bracket stop cannot take, pinned as _UNCHANGED_RUNS are, at the
# commit before it: gamma = 2, gamma > 2, near-isothermal, and xi = 0 with
# a1 < 0, where a falls to its floor first.  The gamma = 1 cells were pinned
# again at the commit before gamma = 1 got its bracket, which takes the cell
# pinned here before (tests of TestIsothermalBracketStop): xi = 0 with a
# falling to its floor just before b's zero, so the bracket is tried and
# refused, and a start whose w0 = b1^2 / (2 |lam|) = 800 puts the closed
# form out of reach.  Each digest is split in two when the stop of b became
# one rule: the steps (the lifespan run's t_stop, last state and RunStats,
# the trajectory's sample records and RunStats), taken at the commit before
# it, and the termination records, pinned again there (the concavity stops'
# t_est up one ulp; the gamma = 1 floor crossings and a's underflow did not
# move)
_OUT_OF_REACH_RUNS = {
    "3d_gamma_two": ((2.0, -1.0, 1.0), (1.0, 0.0, 1.0, 0.2), 30.0),
    "3d_gamma_above_two": ((2.5, -1.0, 1.0), (1.0, 0.0, 1.0, 0.2), 30.0),
    "3d_near_isothermal": ((1.0 + 5e-13, -1.0, 1.0), (1.0, 0.0, 1.0, 0.2), 30.0),
    "3d_isothermal": ((1.0, -1.0, 0.0), (1.0, -0.300001, 1.0, -0.3), 30.0),
    "3d_isothermal_overflow": ((1.0, -1.0, 0.5), (1.2, 0.1, 1.0, -40.0), 30.0),
    "3d_xi_zero_a_falls": ((1.4, -1.0, 0.0), (1.0, -0.5, 1.0, 0.2), 30.0),
}
_OUT_OF_REACH_DIGESTS = {
    ("3d_gamma_two", "RK45"): (
        "dfe33fc30c96a0ff1d20c4020ab9a941aff048b6c2233eda8999d3df2952328d",
        "623af245ff8f3e9f4cfd465d794d5996697965c2b4527569311cf11e2671879b"),
    ("3d_gamma_two", "DOP853"): (
        "47b595c002c7edbcad3fb4b8ffdbdc6f31f7cceb257982c9abfc754af3205987",
        "dbb977e71ef93afbddc2ba39343f9cb00247a35f227d5f3db9b42b63048994e3"),
    ("3d_gamma_above_two", "RK45"): (
        "0868c7939e0172301c78b7f7a78407cc44333c398ce21519f0ad855cbdf7ede5",
        "9e6e55819e4924bc6154ad72e2b363e5c73580d1e618991e826c24eed1ca7be3"),
    ("3d_gamma_above_two", "DOP853"): (
        "467a9baa73fde76a0631d508e4a2c2d86ffeb0624f5c1bac66308b5f62ac5517",
        "839e634483380b370f2d17553a2386963ba981b4a010510085c8c9cbef23648f"),
    ("3d_near_isothermal", "RK45"): (
        "560c7071229e5628bc8e1928e8ce1422599843d32f1d65bdc01075343487f253",
        "442a0882e64ab878453fd6ea999306e98881d9e537d7873545012f02f0eb1959"),
    ("3d_near_isothermal", "DOP853"): (
        "d7022fb8635af6ddeb33a16377cee19cfc7abbadb98e6d1ba59ba8a19e2030de",
        "d7ba279f3f03942e90ccbdbe01bebcc4506e67916965cc6ddc7fd00d315f41db"),
    ("3d_isothermal", "RK45"): (
        "fd1a9fb52f9b9cff6c0eca5d92ba154060c5ef1844c62b4d116c09a6a59873fa",
        "b6164822020a797f53bccf60f22c0f3927dc9170afaf60a3dbd713726b4dd73d"),
    ("3d_isothermal", "DOP853"): (
        "74a0eacfe39a00039dd47f28939ef930c8e3cb1e2e15d78f1c75eb98ac7ea370",
        "865910dada72947a8aff7cfe2f99eef2cb650e77cc1bdf6a831fa1ae42b9af3d"),
    ("3d_isothermal_overflow", "RK45"): (
        "d97e8f32bafa4ee6c86efcfae5dbb9470e802cfa05a9d014416a689592c75ebd",
        "9756009de153f4cd7b283f0778c0fd8857c5cedf8e24aae83e736b99234b2b7d"),
    ("3d_isothermal_overflow", "DOP853"): (
        "57cc0c0945fdf65271cbff3a2324c798984874a7ac8dca67669363df03ef5f6c",
        "91e6405c073a47da45b6a126417bad561cc4020c8f2b535e9165e323819430b2"),
    ("3d_xi_zero_a_falls", "RK45"): (
        "f5278a40a841b6fe8f24c72fac7363d065dda1c7ac012fb1460fd96f7a0f6cb3",
        "bfc21ea30eae06d5236a3553646a8369c82972d1ee7ec1a2a5132c8af32acd0b"),
    ("3d_xi_zero_a_falls", "DOP853"): (
        "d7b88193b5ca79da7089f7a8e0d5767485fff5d853d65be4967b661d0ee3741d",
        "22006e4823a9b3ef02aec144e1d561eda278e297a51757b8334f29294d8ba00c"),
}


@pytest.mark.parametrize("method", ["RK45", "DOP853"])
@pytest.mark.parametrize("name", sorted(_OUT_OF_REACH_RUNS))
def test_runs_the_bracket_cannot_take_are_unchanged(name, method):
    (gamma, lam, xi), y0, t_end = _OUT_OF_REACH_RUNS[name]
    p = params(gamma=gamma, lam=lam, xi=xi)
    lifespan = emden._run(p, 3, y0, 0.0, t_end, RunOptions(method=method))
    traj = integrate(p, emden._state_from_vec(3, 0.0, y0), t_end, method=method)
    lines = traj.jsonl_lines()
    texts = (repr(lifespan[1:]) + "\n".join(lines[:-1]) + repr(traj.stats),
             repr(lifespan[0]) + "\n" + lines[-1])
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in texts)
    assert digests == _OUT_OF_REACH_DIGESTS[name, method]


# sha256 of each run's lifespan result, trajectory records and RunStats,
# pinned before the concavity stop: lam >= 0 and planar runs do not see it.
# DOP853's were pinned again when its kernels were generated: its last state
# became a tuple, as RK45's is, with every float unchanged
_UNCHANGED_RUNS = {
    "3d_lam_zero_collapse": ((1.4, 0.0, 1.0), (1.0, 0.1, 1.0, -0.5), 5.0),
    "3d_lam_positive": ((1.67, 1.0, 0.5), (1.0, -0.2, 1.2, 0.3), 10.0),
    "3d_isothermal_lam_positive": ((1.0, 0.5, 1.0), (0.8, 0.1, 1.1, -0.2), 10.0),
    "2d_orbit": ((1.5, -1.0, 1.0), (1.1, 0.0), 20.0),
    "2d_collapse": ((2.0, -3.0, 1.0), (1.0, 0.0), 5.0),
}
_UNCHANGED_DIGESTS = {
    ("2d_collapse", "DOP853"):
        "1fae0b7a6ecd780982098346dceed717280ff1a260b1b85562430bf3a105a4e5",
    ("2d_collapse", "RK45"):
        "b5a185401c83089b6c5abc9c8848a640aa7e69aa695fa0b7c27d87c915ab3737",
    ("2d_orbit", "DOP853"):
        "31913435a424f23a4a1235ea850049fdcb3141c413337ecddafdfcb4d4023a30",
    ("2d_orbit", "RK45"):
        "94efdb5f9cdf207b62c9fdb3b296db8eef6d5004cc0ef18cdfd686dab01f8f08",
    ("3d_isothermal_lam_positive", "DOP853"):
        "cd20a25a6b52b1b817d36eb3f7599d1bb02d50d166a60dffa41bc40f231e61bb",
    ("3d_isothermal_lam_positive", "RK45"):
        "81bf5d13e6b5fa4e96bd61585a20defa5a84b568edcdc9d08e9da318fdc135be",
    ("3d_lam_positive", "DOP853"):
        "11a431d2d043ef21029cca22b566b530fa77532af7dad6d9fdfe7780322e4d64",
    ("3d_lam_positive", "RK45"):
        "c74cc6add1399ff7bf4f83097fbc6813bbb42f757c362685e4656cf7fdfea45d",
    ("3d_lam_zero_collapse", "DOP853"):
        "a2dafba2fce3f97cf147a09922ee0b9a2797d8822aaa55f5c8bb5fd7b1631b71",
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


# The lifespan runs of one deck-like sweep (gamma = 1.4, lam = -1, horizon 30,
# the other keys at their defaults), pinned before the RK45 kernels were
# generated and again at the bracket stop, which ends the two collapsing runs
# after 184 and 203 steps, not 364 and 383: per b1, the run's termination and
# its RunStats (accepted, rejected, rhs_evals, h_min, h_max), written exactly
# by repr.  The two blowup records were pinned again when the stop of b
# became one rule and rounded them outward (t_est up one ulp), with the
# RunStats unchanged
_PINNED_SWEEP_RUNS = [
    ("Termination(kind='blowup', t_est=0.8256756211296697, which='b', "
     "bracket_width=6.142641950646067e-11, detail='')",
     (184, 0, 1106, 1.3452853870887793e-06, 0.023223452377702018)),
    ("Termination(kind='blowup', t_est=1.5723625943212673, which='b', "
     "bracket_width=1.4649970125901748e-10, detail='')",
     (203, 1, 1226, 2.134576455370407e-06, 0.03132885566487775)),
    ("Termination(kind='reached_t_end', t_est=None, which=None, bracket_width=None, "
     "detail='')",
     (134, 0, 806, 0.001908023162027349, 1.2204453777157305)),
]


def test_a_deck_like_sweep_takes_its_pinned_steps(monkeypatch, tmp_path):
    from eulerexact import classify, cli

    runs = []
    real = classify._run

    def recording(*args, **kwargs):
        runs.append(real(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(classify, "_run", recording)
    assert cli.main(["sweep", "--gamma", "1.4", "--lambda=-1", "--sweep", "b1=-0.5,0.3,2.0",
                     "--sweep-t-end", "30", "--out", str(tmp_path / "sweep.csv")]) == 0
    got = [(repr(term), (s.accepted, s.rejected, s.rhs_evals, s.h_min, s.h_max))
           for term, _, _, s in runs]
    assert got == _PINNED_SWEEP_RUNS
