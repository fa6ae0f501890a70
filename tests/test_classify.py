import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eulerexact import (BLOWUP, GLOBAL, OPEN_CASE, EmdenState2D, EmdenState3D,
                        PhysParams, Trajectory, check_no_period_3d,
                        classify_3d, classify_cell, detect_period_2d, integrate,
                        probe_open_case, search_period_2d)
from eulerexact.classify import FIXED_POINT_TOL
from eulerexact.emden import Termination

from _oracles import first_integral_period, isothermal_fall_time, planar_potential


def params(K=1.0, gamma=1.4, lam=0.0, alpha=1.0, xi=1.0):
    return PhysParams(K=K, gamma=gamma, lam=lam, alpha=alpha, xi=xi)


def state3(a0=1.0, a1=0.0, b0=1.0, b1=0.0, t=0.0):
    return EmdenState3D(t, a0, a1, b0, b1)


def isothermal_T(p, ic):
    """Collapse time of a gamma = 1, lam < 0 cell from the quadrature oracle:
    b's zero, or a's when xi = 0 leaves a no barrier and it comes first."""
    factors = [(ic.b, ic.b_dot)] + ([(ic.a, ic.a_dot)] if p.xi == 0.0 else [])
    return ic.t + min(isothermal_fall_time(x0, x1, -p.lam) for x0, x1 in factors)


class TestDecisionTable:
    def test_lam_positive_global(self):
        for gamma in (1.0, 1.5, 2.5):
            for b1 in (-1.0, 0.0, 1.0):
                c = classify_3d(params(gamma=gamma, lam=0.3), state3(b1=b1))
                assert c.verdict == GLOBAL
                assert c.basis == "analytic"

    def test_lam_zero_split_on_b1(self):
        for b1 in (0.0, 0.7):
            assert classify_3d(params(lam=0.0), state3(b1=b1)).verdict == GLOBAL
        c = classify_3d(params(lam=0.0), state3(b0=1.0, b1=-0.5))
        assert c.verdict == BLOWUP
        assert c.T == pytest.approx(2.0)

    def test_lam_negative_isothermal_always_blows_up(self):
        for b1 in (-1.0, 0.0, 1.0):
            c = classify_3d(params(gamma=1.0, lam=-1.0), state3(b1=b1))
            assert c.verdict == BLOWUP
            # the exact zero of b'' = lam / b, in closed form
            assert c.T == pytest.approx(isothermal_fall_time(1.0, b1, 1.0), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("b1, T", [(0.3, 2.0), (-0.25, 2.0), (-1.0, 1.0)])
    def test_lam_zero_xi_zero_a_is_linear_too(self, b1, T):
        # xi = 0 and lam = 0 leave a'' = 0: a = 1 - 0.5 t collapses at t = 2
        p, ic = params(lam=0.0, xi=0.0), state3(a1=-0.5, b1=b1)
        c = classify_cell(p, ic, 10.0)
        assert (c.verdict, c.basis, c.T) == (BLOWUP, "analytic", T)
        assert c.case == "lam_zero_xi_zero_a1_negative"
        end = integrate(p, ic, 10.0).termination
        assert (end.kind, end.which) == ("blowup", "a" if b1 > -0.5 else "b")
        assert end.t_est == pytest.approx(T, rel=1e-8)

    def test_lam_zero_xi_zero_without_a_falling_follows_b(self):
        p = params(lam=0.0, xi=0.0)
        assert classify_3d(p, state3(a1=0.0, b1=0.0)).verdict == GLOBAL
        c = classify_3d(p, state3(a1=0.5, b1=-0.5))
        assert (c.verdict, c.case, c.T) == (BLOWUP, "lam_zero_b1_negative", 2.0)

    @pytest.mark.parametrize("p, b1, table", [
        (params(lam=0.0), -0.5, True),
        (params(gamma=1.0, lam=-1.0), 0.5, True),
        (params(gamma=1.4, lam=-1.0), 0.2, False),  # an open cell: its T is the run's
    ])
    def test_T_is_an_absolute_time(self, p, b1, table):
        at_0 = classify_cell(p, state3(b1=b1), 30.0)
        at_5 = classify_cell(p, state3(b1=b1, t=5.0), 30.0)
        end = integrate(p, state3(b1=b1, t=5.0), 35.0).termination
        assert (at_5.t_horizon is None) == table
        if table:
            assert at_5.T == 5.0 + at_0.T
        assert at_5.T == pytest.approx(5.0 + at_0.T, rel=1e-9)
        assert end.t_est == pytest.approx(at_5.T, rel=1e-8)
        assert 6.0 < at_5.T < 8.0

    def test_lam_negative_polytropic_split(self):
        for b1 in (-0.4, 0.0):
            c = classify_3d(params(gamma=1.5, lam=-1.0), state3(b1=b1))
            assert c.verdict == BLOWUP
        c = classify_3d(params(gamma=1.5, lam=-1.0), state3(b1=0.3))
        assert c.verdict == OPEN_CASE
        assert c.basis == "analytic"

    def test_exhaustive_sign_grid(self):
        # pure function of (sign lam, gamma vs 1, sign b1); gamma < 1 is a
        # construction error
        for lam in (-1.0, 0.0, 1.0):
            for gamma in (0.5, 1.0, 1.5):
                for b1 in (-1.0, 0.0, 1.0):
                    if gamma < 1.0:
                        with pytest.raises(ValueError):
                            params(gamma=gamma, lam=lam)
                        continue
                    c = classify_3d(params(gamma=gamma, lam=lam), state3(b1=b1))
                    if lam > 0.0:
                        want = GLOBAL
                    elif lam == 0.0:
                        want = GLOBAL if b1 >= 0.0 else BLOWUP
                    elif gamma == 1.0:
                        want = BLOWUP
                    else:
                        want = BLOWUP if b1 <= 0.0 else OPEN_CASE
                    assert c.verdict == want
                    assert c.basis == "analytic"
                    assert c.case

    def test_blowup_time_matches_integrator(self):
        p = params(gamma=1.6, lam=0.0)
        for b0, b1 in [(1.0, -0.5), (2.0, -0.3), (0.7, -1.1)]:
            c = classify_3d(p, state3(b0=b0, b1=b1))
            traj = integrate(p, state3(b0=b0, b1=b1), 2.0 * c.T)
            assert traj.termination.kind == "blowup"
            assert abs(traj.termination.t_est - c.T) <= 1e-8 * c.T

    def test_analytic_numeric_agreement_on_decided_cases(self):
        # integrator outcomes never contradict the analytic verdict
        rng = np.random.default_rng(77)
        horizon = 50.0
        checked = 0
        while checked < 100:
            lam_kind = rng.integers(0, 3)
            lam = {0: float(rng.uniform(0.3, 2.0)),
                   1: 0.0,
                   2: float(-rng.uniform(0.5, 2.0))}[lam_kind]
            gamma = 1.0 if rng.random() < 0.3 else float(rng.uniform(1.1, 3.0))
            p = params(gamma=gamma, lam=lam, xi=float(rng.uniform(0.5, 2.0)))
            ic = state3(a0=float(rng.uniform(0.5, 1.5)),
                        a1=float(rng.uniform(-0.5, 0.5)),
                        b0=float(rng.uniform(0.5, 1.5)),
                        b1=float(rng.uniform(-1.0, 1.0)))
            c = classify_3d(p, ic)
            if c.verdict == OPEN_CASE:
                continue
            traj = integrate(p, ic, horizon, rel_tol=1e-8, abs_tol=1e-10)
            if c.verdict == GLOBAL:
                assert traj.termination.kind == "reached_t_end", (p, ic)
            else:
                assert traj.termination.kind == "blowup", (p, ic)
                assert traj.termination.t_est < horizon
            checked += 1


isothermal_cells = st.builds(
    lambda lam, xi, a0, a1, b0, b1: (params(gamma=1.0, lam=lam, xi=xi),
                                     state3(a0=a0, a1=a1, b0=b0, b1=b1)),
    st.floats(-2.0, -0.5), st.one_of(st.just(0.0), st.floats(0.3, 2.0)),
    st.floats(0.3, 2.0), st.floats(-1.5, 1.5), st.floats(0.3, 2.0), st.floats(-1.5, 1.5))
ISOTHERMAL = [
    (params(gamma=1.0, lam=-1.0, xi=0.0), state3(a1=-1.0, b1=0.5)),  # a falls first
    (params(gamma=1.0, lam=-1.0, xi=0.0), state3(a1=0.5, b1=-1.0)),
    (params(gamma=1.0, lam=-0.5, xi=1.0), state3(a1=-1.5, b1=1.5)),  # a bounces
    (params(gamma=1.0, lam=-2.0, xi=1.0), state3(a1=0.0, b1=-1.5)),
]


def _examples(test):
    for cell in ISOTHERMAL:
        test = example(cell)(test)
    return test


class TestIsothermalClosedForm:
    """gamma = 1, lam < 0: the table's erf zero against quadrature of the
    first integral and against both integrators, on generated cells."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(isothermal_cells)
    @_examples
    def test_T_is_the_quadrature_of_the_first_integral(self, cell):
        p, ic = cell
        c = classify_cell(p, ic, 1.0)
        assert (c.verdict, c.basis, c.case) == (BLOWUP, "analytic", "lam_negative_isothermal")
        assert c.T == pytest.approx(isothermal_T(p, ic), rel=1e-12, abs=0.0)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(isothermal_cells)
    @_examples
    def test_T_agrees_with_the_default_run(self, cell):
        p, ic = cell
        T = classify_cell(p, ic, 1.0).T
        end = integrate(p, ic, 2.0 * T).termination
        assert end.kind == "blowup"
        if p.xi != 0.0:
            # the xi^2 / a^3 barrier keeps a from its floor
            assert end.which == "b"
        assert end.t_est == pytest.approx(T, rel=1e-8, abs=0.0)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(isothermal_cells)
    @_examples
    def test_T_agrees_with_a_tight_dop853_run(self, cell):
        # a floor of 1e-15 puts the floor crossing within about 1e-15 of the zero
        p, ic = cell
        T = classify_cell(p, ic, 1.0).T
        end = integrate(p, ic, 2.0 * T, method="DOP853", rel_tol=1e-13, abs_tol=1e-15,
                        eps_blow=1e-15).termination
        assert end.kind == "blowup"
        assert end.t_est == pytest.approx(T, rel=1e-12, abs=0.0)


class TestProbeOpenCase:
    def test_requires_open_case_parameters(self):
        with pytest.raises(ValueError):
            probe_open_case(params(gamma=1.5, lam=1.0), state3(b1=0.5), 10.0)
        with pytest.raises(ValueError):
            probe_open_case(params(gamma=1.0, lam=-1.0), state3(b1=0.5), 10.0)
        with pytest.raises(ValueError):
            probe_open_case(params(gamma=1.5, lam=-1.0), state3(b1=-0.5), 10.0)

    def test_small_b1_collapses_numerically(self):
        c = probe_open_case(params(gamma=2.0, lam=-1.0, xi=1.0),
                            state3(b1=0.01), 100.0)
        assert c.basis == "numerical_evidence"
        assert c.note == "numerical evidence, not proof"
        assert c.verdict in (BLOWUP, OPEN_CASE)
        # with nearly stationary b and lam < 0 the collapse fires well
        # before the horizon
        assert c.verdict == BLOWUP
        assert c.T is not None and 0.0 < c.T < 100.0

    def test_fast_expansion_survives_short_horizon(self):
        c = probe_open_case(params(gamma=2.0, lam=-1.0, xi=1.0),
                            state3(b1=1e6), 0.01)
        assert c.verdict == OPEN_CASE
        assert c.basis == "numerical_evidence"
        assert c.t_horizon == pytest.approx(0.01)
        assert c.note == "numerical evidence, not proof"

    def test_never_reports_global(self):
        c = probe_open_case(params(gamma=1.5, lam=-0.1, xi=2.0),
                            state3(b1=2.0), 5.0)
        assert c.verdict != GLOBAL


class TestClassifyCell:
    def test_table_time_or_global_verdict_needs_no_run(self, monkeypatch):
        import eulerexact.classify

        def no_run(*args, **kwargs):
            raise AssertionError("_run called")

        monkeypatch.setattr(eulerexact.classify, "_run", no_run)
        for p, ic in [(params(lam=0.5), state3(b1=-1.0)),
                      (params(lam=0.0), state3(b1=0.5)),
                      (params(lam=0.0), state3(b0=1.0, b1=-0.5)),
                      (params(lam=0.0, xi=0.0), state3(a1=-0.5, b1=0.3)),
                      (params(gamma=1.0, lam=-1.0), state3(b1=0.5)),
                      (params(gamma=1.0, lam=-1.0), state3(b1=-0.5)),
                      (params(gamma=1.0, lam=-0.3, xi=0.0), state3(a1=-0.2, b1=0.4)),
                      (params(gamma=1.0, lam=-2.0), state3(b1=-37.0))]:
            assert classify_cell(p, ic, 10.0) == classify_3d(p, ic)
        # the patched name is the one a cell that needs a run goes through: an
        # open cell, a near-isothermal gamma, and a b1 or (xi = 0) a1 whose
        # e^w0 is out of reach
        for p, ic in [(params(gamma=1.4, lam=-1.0), state3(b1=0.2)),
                      (params(gamma=1.0 + 1e-13, lam=-1.0), state3(b1=0.5)),
                      (params(gamma=1.0, lam=-1.0), state3(b1=40.0)),
                      (params(gamma=1.0, lam=-1.0), state3(b1=-40.0)),
                      (params(gamma=1.0, lam=-1.0, xi=0.0), state3(a1=40.0))]:
            with pytest.raises(AssertionError, match="_run called"):
                classify_cell(p, ic, 10.0)

    def test_analytic_blowup_cell_gets_the_runs_collapse_time(self):
        p, ic = params(gamma=1.0, lam=-1.0), state3(b1=0.5)
        c = classify_cell(p, ic, 30.0)
        traj = integrate(p, ic, 30.0)
        assert (c.verdict, c.basis, c.case) == (BLOWUP, "analytic", "lam_negative_isothermal")
        # the closed form is the exact zero; the run crosses its floor a hair
        # before it
        assert c.T == pytest.approx(isothermal_fall_time(1.0, 0.5, 1.0), rel=1e-12, abs=0.0)
        assert c.T == pytest.approx(traj.termination.t_est, rel=1e-8, abs=0.0)
        # no run was made, so nothing is read from one, whatever the horizon
        assert (c.t_horizon, c.termination) == (None, None)
        assert classify_cell(p, ic, 0.1) == c
        assert c.note == ""

    def test_near_isothermal_and_overflowing_cells_still_run(self):
        for p, ic in [(params(gamma=1.0 + 1e-13, lam=-1.0), state3(b1=0.5)),
                      (params(gamma=1.0, lam=-1.0), state3(b1=-40.0))]:
            c = classify_cell(p, ic, 30.0)
            assert (c.verdict, c.basis, c.case) == (BLOWUP, "analytic", "lam_negative_isothermal")
            traj = integrate(p, ic, 30.0)
            assert c.T == traj.termination.t_est
            # the run ends at the concavity bound: its last step is the
            # horizon reached, and T lies one bracket width past it
            assert c.t_horizon == traj.t_span[1]
            assert c.t_horizon <= c.T <= c.t_horizon + traj.termination.bracket_width

    def test_open_cell_collapse_is_numerical_evidence(self):
        p, ic = params(gamma=1.4, lam=-1.0), state3(b1=0.2)
        c = classify_cell(p, ic, 30.0)
        assert (c.verdict, c.basis) == (OPEN_CASE, "numerical_evidence")
        assert c.note == "numerical evidence, not proof"
        assert c.T == probe_open_case(p, ic, 30.0).T == 1.4240267194294873

    def test_open_cell_surviving_the_horizon_keeps_the_table_label(self):
        c = classify_cell(params(gamma=2.0, lam=-1.0), state3(b1=1e6), 0.01)
        assert (c.verdict, c.basis, c.T) == (OPEN_CASE, "analytic", None)
        assert c.t_horizon == 0.01

    def test_exhausted_step_budget_records_the_time_reached(self):
        # three steps cover a fraction of the horizon: no evidence of survival
        p, ic = params(gamma=1.4, lam=-1.0), state3(b1=0.2)
        c = classify_cell(p, ic, 30.0, max_steps=3)
        traj = integrate(p, ic, 30.0, max_steps=3)
        assert traj.termination.kind == "step_failure"
        assert c.verdict == OPEN_CASE and c.T is None
        assert c.t_horizon == traj.t_span[1] < 30.0
        # the run that stopped short says why
        assert c.termination == traj.termination
        assert c.to_dict()["termination"] == {"kind": "step_failure",
                                              "detail": "max_steps=3 exhausted"}

    @pytest.mark.parametrize("p, ic, horizon", [
        (params(gamma=1.4, lam=-1.0), state3(b1=0.2), 30.0),   # collapses
        (params(gamma=2.0, lam=-1.0), state3(b1=1e6), 0.01),   # reaches the horizon
    ])
    def test_runs_that_end_as_asked_carry_no_termination(self, p, ic, horizon):
        c = classify_cell(p, ic, horizon)
        assert c.termination is None
        assert "termination" not in c.to_dict()

    @pytest.mark.parametrize("horizon", [-1.0, 0.0, math.inf, math.nan])
    def test_horizon_is_checked_before_the_table(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            classify_cell(params(lam=1.0), state3(), horizon)

    def test_run_options_are_checked_before_the_table(self):
        # a global cell needs no run, yet a bad option is an error all the same
        with pytest.raises(ValueError, match="^eps_blow must"):
            classify_cell(params(lam=1.0), state3(), 10.0, eps_blow=-1.0)
        with pytest.raises(TypeError, match="tol"):
            classify_cell(params(lam=1.0), state3(), 10.0, tol=1e-8)

    @pytest.mark.parametrize("lam, b1", [(1.0, 0.0), (-1.0, -0.5), (-1.0, 0.2)])
    def test_a_floor_above_the_start_raises_before_the_table(self, lam, b1):
        # a global cell, a closed-form T and an open cell alike
        with pytest.raises(ValueError, match=r"^eps_blow must lie below .* of b, got 0\.6$"):
            classify_cell(params(gamma=1.4, lam=lam), state3(b0=0.5, b1=b1), 10.0, eps_blow=0.6)

    @pytest.mark.parametrize("check", [lambda p, ic: classify_cell(p, ic, 10.0),
                                       lambda p, ic: probe_open_case(p, ic, 10.0)],
                             ids=["classify_cell", "probe_open_case"])
    def test_a_planar_state_is_a_named_error(self, check):
        # a planar state has no b: the error names the dimension it needs
        with pytest.raises(ValueError, match="requires a 3D state, got a 2D one"):
            check(params(gamma=1.4, lam=-1.0), EmdenState2D(0.0, 1.0, 0.2))

    def test_probe_forwards_the_run_options(self):
        p, ic = params(gamma=1.4, lam=-1.0), state3(b1=0.2)
        assert probe_open_case(p, ic, 30.0).T == 1.4240267194294873
        assert probe_open_case(p, ic, 30.0, eps_blow=0.5).T == 1.1701510518576843


class TestPeriodDetection:
    def test_equilibrium_reports_fixed_point(self):
        # a'' = xi^2/a^3 + lam/a^2 vanishes at a = 1 for xi = 1, lam = -1
        p = params(gamma=1.5, lam=-1.0, xi=1.0)
        est = detect_period_2d(p, EmdenState2D(0.0, 1.0, 0.0), 50.0)
        assert est is not None
        assert est.method == "fixed-point"
        # linearization: omega^2 = 1, so the degenerate period is 2 pi
        assert est.period == pytest.approx(2.0 * math.pi, rel=1e-12)

    @pytest.mark.parametrize("gamma, lam, xi, a0", [
        (2.5, -1.0, 1.0, 1.0),  # V has a maximum at a = 1
        (1.5, 0.0, 0.0, 1.0),  # free motion: every a is an equilibrium
    ])
    def test_an_equilibrium_that_is_not_bound_has_no_period(self, gamma, lam, xi, a0):
        p = params(gamma=gamma, lam=lam, xi=xi)
        assert search_period_2d(p, EmdenState2D(0.0, a0, 0.0), 50.0) == (None, None)

    def test_perturbed_equilibrium_oscillates(self):
        p = params(gamma=1.5, lam=-1.0, xi=1.0)
        est = detect_period_2d(p, EmdenState2D(0.0, 1.1, 0.0), 50.0,
                               rel_tol=1e-10, abs_tol=1e-12)
        assert est is not None
        assert est.method == "first-integral"
        assert est.period == pytest.approx(2.0 * math.pi, rel=0.05)

    def test_period_stable_under_tolerance_halving(self):
        p = params(gamma=1.5, lam=-1.0, xi=1.0)
        ic = EmdenState2D(0.0, 1.1, 0.0)
        e1 = detect_period_2d(p, ic, 50.0, rel_tol=1e-10, abs_tol=1e-12)
        e2 = detect_period_2d(p, ic, 50.0, rel_tol=5e-11, abs_tol=5e-13)
        assert e1.period == pytest.approx(e2.period, rel=1e-6)

    def test_isothermal_oscillation(self):
        # gamma = 1 belongs to the oscillatory band too
        p = params(gamma=1.0, lam=-1.0, xi=1.0)
        est = detect_period_2d(p, EmdenState2D(0.0, 1.2, 0.0), 60.0)
        assert est is not None
        assert est.method == "first-integral"

    def test_lam_positive_escapes(self):
        p = params(gamma=1.5, lam=1.0, xi=1.0)
        assert detect_period_2d(p, EmdenState2D(0.0, 1.0, 0.0), 50.0) is None

    def test_no_second_crossing_before_t_max(self):
        # a horizon shorter than the period, and a step budget of one step,
        # do not hide it: a bound orbit's period needs no run
        p = params(gamma=1.5, lam=-1.0, xi=1.0)
        ic = EmdenState2D(0.0, 1.1, 0.0)
        est, termination = search_period_2d(p, ic, 3.0, max_steps=1)
        assert (est.period, est.method, termination) == (
            6.361888521587524, "first-integral", None)

    @pytest.mark.parametrize("t_max", [0.0, -1.0, math.inf, math.nan])
    def test_search_horizon_must_be_positive_and_finite(self, t_max):
        p = params(gamma=1.5, lam=-1.0, xi=1.0)
        with pytest.raises(ValueError, match="t_end"):
            detect_period_2d(p, EmdenState2D(0.0, 1.1, 0.0), t_max)

    @pytest.mark.parametrize("t_max", [0.0, -1.0, math.inf, math.nan])
    def test_horizon_is_checked_before_the_fixed_point(self, t_max):
        # a = 1 is the equilibrium, which needs no run
        p = params(gamma=1.5, lam=-1.0, xi=1.0)
        with pytest.raises(ValueError, match="t_end"):
            detect_period_2d(p, EmdenState2D(0.0, 1.0, 0.0), t_max)

    def test_run_options_are_checked_before_the_fixed_point(self):
        p = params(gamma=1.5, lam=-1.0, xi=1.0)
        with pytest.raises(ValueError, match="^max_steps must"):
            detect_period_2d(p, EmdenState2D(0.0, 1.0, 0.0), 50.0, max_steps=0)
        # and before the quadrature of a bound orbit
        with pytest.raises(ValueError, match="^method must"):
            detect_period_2d(p, EmdenState2D(0.0, 1.1, 0.0), 50.0, method="RK4")

    @pytest.mark.parametrize("search", [search_period_2d, detect_period_2d])
    def test_a_3d_state_is_a_named_error(self, search):
        # the planar search would ignore b, and find the period 6.3619 of
        # the planar orbit from (1.1, 0)
        p = params(gamma=1.5, lam=-1.0, xi=1.0)
        with pytest.raises(ValueError, match="requires a 2D state, got a 3D one"):
            search(p, EmdenState3D(0.0, 1.1, 0.0, 0.5, -3.0), 100.0)

    def test_collapse_floor_ends_the_search(self):
        # a swings between about 0.92 and 1.1, below a floor of 1.05
        p = params(gamma=1.5, lam=-1.0, xi=1.0)
        ic = EmdenState2D(0.0, 1.1, 0.0)
        assert detect_period_2d(p, ic, 100.0) is not None
        assert detect_period_2d(p, ic, 100.0, eps_blow=1.05) is None
        est, termination = search_period_2d(p, ic, 100.0, eps_blow=1.05)
        assert (est, termination.kind) == (None, "blowup")
        assert repr(termination) == repr(integrate(p, ic, 100.0, eps_blow=1.05).termination)

    # each within 6e-16 relative of a 50-digit mpmath quadrature
    # (first_integral_period); the section run that gave the periods
    # before was 1.8e-11 to 5.1e-11 off
    @pytest.mark.parametrize("a0, a1, period", [
        (0.9, 0.0, 6.401362423660859),  # starts at a pericenter
        (1.1, 0.0, 6.361888521587524),
        (1.0, 0.2, 6.679947032093039),
    ])
    def test_pinned_periods(self, a0, a1, period):
        p = params(gamma=1.5, lam=-1.0, xi=1.0)
        est = detect_period_2d(p, EmdenState2D(0.0, a0, a1), 50.0)
        assert est.method == "first-integral"
        assert est.period == period

    def test_pericenter_start_counts_as_first_crossing(self):
        # a' = 0 and a'' > 0 at t0, and a horizon just over one period
        p = params(gamma=1.5, lam=-1.0, xi=1.0)
        est = detect_period_2d(p, EmdenState2D(0.0, 0.9, 0.0), 7.0)
        assert est is not None
        assert est.period == 6.401362423660859

    def test_period_matches_first_integral(self):
        # generated bound orbits (E below V at infinity when gamma > 1)
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 10:
            gamma = 1.0 if checked == 0 else float(rng.uniform(1.0, 1.8))
            lam = -float(rng.uniform(0.5, 2.0))
            xi = float(rng.uniform(0.5, 1.5))
            a_eq = (xi * xi / -lam) ** (1.0 / (4.0 - 2.0 * gamma))
            a0 = a_eq * float(rng.uniform(0.6, 1.6))
            a1 = float(rng.uniform(-0.3, 0.3))
            energy = 0.5 * a1 * a1 + planar_potential(a0, gamma, lam, xi)
            if gamma > 1.0 and energy >= 0.05 * planar_potential(a_eq, gamma, lam, xi):
                continue
            want = first_integral_period(gamma, lam, xi, a0, a1)
            est = detect_period_2d(params(gamma=gamma, lam=lam, xi=xi),
                                   EmdenState2D(0.0, a0, a1), 2.5 * want)
            assert est is not None
            assert est.period == pytest.approx(want, rel=1e-13)
            checked += 1

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.one_of(st.just(1.0), st.floats(1.01, 1.95)), st.floats(0.3, 2.0),
           st.floats(0.5, 2.0), st.floats(-5.0, -0.2), st.sampled_from([-1.0, 1.0]),
           st.floats(-1.0, 1.0))
    def test_period_matches_mpmath(self, gamma, xi, a_eq, log_offset, side, speed):
        # the start lies 10^log_offset (relative) from the equilibrium, with
        # a speed of the orbit's own size, of either sign
        lam = -xi * xi * a_eq ** (2.0 * gamma - 4.0)
        offset = 10.0 ** log_offset
        a0, a1 = a_eq * (1.0 + side * offset), speed * offset * a_eq
        p = params(gamma=gamma, lam=lam, xi=xi)
        assume(gamma == 1.0 or 0.5 * a1 * a1 + planar_potential(a0, gamma, lam, xi) < 0.0)
        est, termination = search_period_2d(p, EmdenState2D(0.0, a0, a1), 1.0)
        assert (est.method, termination) == ("first-integral", None)
        want = first_integral_period(gamma, lam, xi, a0, a1)
        assert est.period == pytest.approx(want, rel=1e-13 if offset >= 1e-3 else 1e-11,
                                           abs=0.0)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.one_of(st.just(1.0), st.floats(1.01, 1.9)), st.floats(0.3, 2.0),
           st.floats(0.5, 2.0), st.floats(0.6, 1.6), st.floats(-0.3, 0.3))
    def test_a_run_of_one_period_returns_to_the_start(self, gamma, xi, a_eq, ratio, a1):
        # T ties to the equations of motion, not to V
        lam = -xi * xi * a_eq ** (2.0 * gamma - 4.0)
        p, ic = params(gamma=gamma, lam=lam, xi=xi), EmdenState2D(0.0, a_eq * ratio, a1)
        est = detect_period_2d(p, ic, 1.0)
        assume(est is not None)
        back = integrate(p, ic, est.period, dense_times=[est.period], rel_tol=1e-12,
                         abs_tol=1e-14).states[-1]
        assert back.t == est.period
        scale = max(1.0, abs(ic.a), abs(ic.a_dot))
        assert abs(back.a - ic.a) <= 1e-9 * scale
        assert abs(back.a_dot - ic.a_dot) <= 1e-9 * scale

    @pytest.mark.parametrize("search", [search_period_2d, detect_period_2d])
    def test_the_equilibrium_tolerance_is_a_constant(self, search):
        # a keyword the search no longer has is a bad run option
        assert FIXED_POINT_TOL == 1e-9
        with pytest.raises(TypeError, match="fixed_point_tol"):
            search(params(gamma=1.5, lam=-1.0), EmdenState2D(0.0, 1.0, 0.0), 1.0,
                   fixed_point_tol=1e-9)

    @pytest.mark.parametrize("gamma, lam, xi", [(1.0, -1.0, 1.0), (1.5, -1.0, 1.0),
                                                (1.8, -0.7, 0.6)])
    def test_the_period_tends_to_the_fixed_points(self, gamma, lam, xi):
        # the period is even in the amplitude, so it leaves the linearized
        # period quadratically in the start's offset from a_eq
        p = params(gamma=gamma, lam=lam, xi=xi)
        a_eq = (xi * xi / -lam) ** (1.0 / (4.0 - 2.0 * gamma))
        fixed = detect_period_2d(p, EmdenState2D(0.0, a_eq, 0.0), 1.0)
        assert fixed.method == "fixed-point"
        for j in range(1, 11):
            offset = 10.0 ** -j
            est = detect_period_2d(p, EmdenState2D(0.0, a_eq * (1.0 + offset), 0.0), 1.0)
            # |a''| / (a w^2) is about (2 - gamma) offset, and the start is an
            # equilibrium where that is within FIXED_POINT_TOL = 1e-9; at
            # j = 9 it lies next to the tolerance
            if j != 9:
                assert est.method == ("first-integral" if j < 9 else "fixed-point")
            assert abs(est.period / fixed.period - 1.0) <= 2.0 * offset * offset + 1e-14

    @settings(max_examples=60, deadline=None, derandomize=True)
    @example(1.5, 1.0, 1.0, 1.0, 0.0, -150)
    @example(1.3, 0.7, 1.4, 1.0, 0.0, 150)
    @given(st.one_of(st.just(1.0), st.floats(1.01, 1.95)), st.floats(0.3, 2.0),
           st.floats(0.5, 2.0), st.one_of(st.just(1.0), st.floats(0.6, 1.6)),
           st.one_of(st.just(0.0), st.floats(-0.3, 0.3)), st.integers(-160, 160))
    def test_a_bound_orbit_keeps_its_period_at_every_scale(self, gamma, xi, a_eq, ratio,
                                                           a1, e):
        # (2^e xi, 4^e lam, 2^e a1) is the orbit with time divided by 2^e,
        # and every value in the quadrature and in the fixed-point test, which
        # reads the orbit's own rate, scales by a power of 2 exactly: T(s) s
        # and the method do not depend on s
        lam = -xi * xi * a_eq ** (2.0 * gamma - 4.0)
        a0, s = a_eq * ratio, 2.0 ** e
        est = detect_period_2d(params(gamma=gamma, lam=lam, xi=xi),
                               EmdenState2D(0.0, a0, a1), 1.0)
        assume(est is not None)
        scaled = detect_period_2d(params(gamma=gamma, lam=lam * s * s, xi=xi * s),
                                  EmdenState2D(0.0, a0, a1 * s), 1.0)
        assert (scaled.period * s, scaled.method) == (est.period, est.method)

    def test_a_slow_orbit_is_no_fixed_point(self):
        # the orbit (gamma 1.62, xi 0.886, lam -0.951, a0 1.209, a1 0.094)
        # slowed by s = 1.98e-46: an absolute tolerance on a' and a'' took
        # it for an equilibrium
        s, gamma, a0 = 1.98e-46, 1.62, 1.209
        est = detect_period_2d(params(gamma=gamma, lam=-0.951, xi=0.886),
                               EmdenState2D(0.0, a0, 0.094), 1.0)
        slow = detect_period_2d(params(gamma=gamma, lam=-0.951 * s * s, xi=0.886 * s),
                                EmdenState2D(0.0, a0, 0.094 * s), 1.0)
        assert (est.method, slow.method) == ("first-integral", "first-integral")
        assert slow.period * s == pytest.approx(est.period, rel=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @example(1.0, -1e300, 1e-100, 1.0, 0.0)
    @given(st.one_of(st.just(1.0), st.floats(1.0, 2.0, exclude_max=True)),
           st.sampled_from([-1.0, 1.0]).flatmap(
               lambda sign: st.floats(-100.0, 100.0).map(lambda e: sign * 10.0 ** e)),
           st.floats(-100.0, 100.0).map(lambda e: 10.0 ** e),
           st.floats(1e-3, 1e3), st.floats(-10.0, 10.0))
    def test_extreme_scales_end_in_a_period_or_a_run(self, gamma, lam, xi, a0, a1):
        # no hang and no bare math error: a period, a run's termination, or
        # a ValueError that names what is wrong
        p, ic = params(gamma=gamma, lam=lam, xi=xi), EmdenState2D(0.0, a0, a1)
        try:
            est, termination = search_period_2d(p, ic, 10.0, max_steps=2000)
        except ValueError as exc:
            assert "math domain error" not in str(exc)
            return
        if est is not None:
            assert math.isfinite(est.period) and est.period > 0.0
            assert termination is None
        else:
            assert termination is None or termination.kind in (
                "reached_t_end", "blowup", "step_failure")


class TestNoPeriod3D:
    def test_lam_negative_trajectory_monotone(self):
        p = params(gamma=1.5, lam=-0.8, xi=1.0)
        traj = integrate(p, state3(b1=0.5), 3.0)
        assert check_no_period_3d(p, traj)

    def test_requires_lam_negative(self):
        p = params(lam=0.0)
        traj = integrate(p, state3(), 1.0)
        with pytest.raises(ValueError):
            check_no_period_3d(p, traj)

    def test_tampered_trajectory_fails(self):
        p = params(gamma=1.5, lam=-0.8, xi=1.0)
        traj = integrate(p, state3(b1=0.5), 3.0)
        states = list(traj.states)
        mid = len(states) // 2
        st = states[mid]
        states[mid] = EmdenState3D(st.t, st.a, st.a_dot, st.b,
                                   states[mid - 1].b_dot + 1.0)
        tampered = Trajectory(params=p, dim=3, initial_state=traj.initial_state,
                              states=states,
                              termination=Termination("reached_t_end"),
                              t_span=traj.t_span)
        assert not check_no_period_3d(p, tampered)
