"""Property tests on generated parameters, states and points: the scalar
evaluators are the 0-d case of the array ones, bit for bit, the planar energy
is the 3D one at b = 1, b' = 0, bit for bit, a batched
residual stencil gives each point what a single-point call gives it, 3D
``classify`` gives each cell the row a one-cell ``sweep`` gives it, and a
time shift by ``advance`` agrees with a fixed-step RK4 oracle both ways."""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerexact import (EmdenState2D, EmdenState3D, Field2D, Field3D,
                        GeneralFamilySource, GeneralMassFamily, PhysParams,
                        SnapshotFieldSource, advance, energy_2d, energy_3d,
                        mass_residual, navier_stokes_residual, refined_residual)
from eulerexact.cli import main
from eulerexact.profiles import DensityProfile

from _oracles import (planar_potential, pointwise_stencil_residuals, rhs_2d_arrays,
                      rhs_3d_arrays, rk4_fixed)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def real(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


params = st.builds(
    PhysParams, K=real(0.2, 3.0),
    gamma=st.one_of(st.just(1.0), real(1.0, 3.0)),
    lam=real(-2.0, 2.0), alpha=real(0.0, 2.0), xi=real(-2.0, 2.0))
states_3d = st.builds(EmdenState3D, st.just(0.0), real(0.3, 3.0), real(-2.0, 2.0),
                      real(0.3, 3.0), real(-2.0, 2.0))
states_2d = st.builds(EmdenState2D, st.just(0.0), real(0.3, 3.0), real(-2.0, 2.0))


def points(dim, max_size=8):
    return st.lists(st.tuples(*[real(-4.0, 4.0)] * dim), min_size=1, max_size=max_size)


def bits(value) -> bytes:
    return np.float64(value).tobytes()


@SETTINGS
@given(params, states_3d, points(3))
def test_field3d_eval_is_the_0d_case_of_eval_grid(p, state, pts):
    field = Field3D.from_params(p, state)
    x, y, z = np.array(pts).T
    grid = field.eval_grid(x, y, z)
    for i, pt in enumerate(pts):
        smp = field.eval(*pt)
        got = (smp.rho, smp.u1, smp.u2, smp.u3, smp.s, smp.pressure)
        assert all(isinstance(v, float) for v in got)
        assert [bits(v) for v in got] == [bits(grid[k][i]) for k in grid]


@SETTINGS
@given(params, states_2d, points(2))
def test_field2d_eval_is_the_0d_case_of_eval_grid(p, state, pts):
    field = Field2D.from_params(p, state)
    x, y = np.array(pts).T
    grid = field.eval_grid(x, y)
    for i, pt in enumerate(pts):
        smp = field.eval(*pt)
        got = (smp.rho, smp.u1, smp.u2, smp.eta, smp.pressure)
        assert [bits(v) for v in got] == [bits(grid[k][i]) for k in grid]


@SETTINGS
@given(params, states_2d)
def test_energy_2d_is_energy_3d_at_unit_b(p, state):
    planar = energy_2d(state, p)
    assert bits(planar) == bits(energy_3d(EmdenState3D(state.t, state.a, state.a_dot, 1.0, 0.0), p))
    want = 0.5 * state.a_dot ** 2 + planar_potential(state.a, p.gamma, p.lam, p.xi)
    assert planar == pytest.approx(want, rel=1e-12, abs=1e-12)


@SETTINGS
@given(params, st.lists(real(0.0, 50.0), min_size=1, max_size=20))
def test_profile_value_is_the_0d_case_of_value_many(p, s):
    profile = DensityProfile(p)
    many = profile.value_many(np.array(s))
    assert [bits(profile.value(si)) for si in s] == [bits(v) for v in many]


@SETTINGS
@given(params, states_3d, points(3, max_size=6), st.one_of(st.none(), real(0.01, 2.0)))
def test_batched_refined_residual_equals_single_point_calls(p, state, pts, mu):
    source = SnapshotFieldSource(Field3D.from_params(p, state))
    x, y, z = np.array(pts).T
    batched = refined_residual(source, 0.0, x, y, z, 1e-3, mu=mu)
    singles = [refined_residual(source, 0.0, *pt, 1e-3, mu=mu) for pt in pts]
    # repr tells -0.0 from 0.0, so equal reprs are equal bits
    assert [repr(r.to_dict()) for r in batched] == [repr(r.to_dict()) for r in singles]


@SETTINGS
@given(params, states_3d, points(3, max_size=6), real(0.0, 2.0), real(1e-4, 0.1))
def test_batched_stencil_equals_pointwise_reference(p, state, pts, mu, h):
    source = SnapshotFieldSource(Field3D.from_params(p, state))
    x, y, z = np.array(pts).T
    for rep, pt in zip(navier_stokes_residual(source, 0.0, x, y, z, h, mu), pts):
        mass, mom, lap = pointwise_stencil_residuals(source, 0.0, *pt, h)
        assert repr((rep.mass_residual, rep.momentum_residual)) == repr((mass, mom))
        assert repr(rep.ns_momentum_residual) == repr(tuple(m - mu * v for m, v in zip(mom, lap)))


@SETTINGS
@given(real(0.1, 2.0), real(-1.0, 1.0), real(0.5, 2.0), real(-0.3, 0.3), real(0.2, 1.5),
       points(3), real(0.0, 1.0))
def test_general_family_same_on_arrays_as_on_scalars(c, g, a0, a1, b0, pts, t):
    family = GeneralMassFamily(
        f=lambda s: math.exp(-c * s), G=lambda t: g * math.cos(t),
        a=lambda t: a0 + a1 * t, a_dot=lambda t: a1,
        b=lambda t: b0 * math.exp(t), b_dot=lambda t: b0 * math.exp(t))
    source = GeneralFamilySource(family)
    x, y, z = np.array(pts).T
    arrays = source.sample(t, x, y, z)
    masses = mass_residual(source, t, x, y, z, 1e-3)
    for i, pt in enumerate(pts):
        one = source.sample(t, *pt)
        for name in ("rho", "u1", "u2", "u3", "s"):
            assert bits(getattr(one, name)) == bits(getattr(arrays, name)[i])
        assert math.isnan(one.pressure) and math.isnan(arrays.pressure)
        assert bits(mass_residual(source, t, *pt, 1e-3)) == bits(masses[i])


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.one_of(st.just(1.0), real(1.0, 3.0)), st.one_of(st.just(0.0), real(-2.0, 2.0)),
       real(0.3, 3.0), st.one_of(st.just(0.0), real(-2.0, 2.0)))
def test_classify_is_a_one_cell_sweep(gamma, lam, b0, b1):
    cell = [f"--gamma={gamma!r}", f"--lambda={lam!r}", f"--b0={b0!r}", "--sweep-t-end=5"]
    with tempfile.TemporaryDirectory() as tmp:
        c_out, s_out = os.path.join(tmp, "c.json"), os.path.join(tmp, "s.csv")
        _quiet_main(["classify", *cell, f"--b1={b1!r}", "--out", c_out])
        _quiet_main(["sweep", *cell, f"--sweep=b1={b1!r}", "--out", s_out])
        with open(c_out, encoding="utf-8") as f:
            doc = json.load(f)
        with open(s_out, encoding="utf-8") as f:
            row = f.read().splitlines()[1].split(",")
    assert [doc["verdict"], doc["basis"]] == row[10:12]
    assert doc.get("T") == (float(row[12]) if row[12] else None)


shift_params = st.builds(
    PhysParams, K=st.just(1.0), gamma=st.one_of(st.just(1.0), real(1.0, 2.5)),
    lam=real(-1.0, 1.0), alpha=st.just(1.0), xi=real(-1.0, 1.0))
shift_states = st.one_of(
    st.builds(EmdenState3D, st.just(0.0), real(0.5, 2.0), real(-1.0, 1.0),
              real(0.5, 2.0), real(-1.0, 1.0)),
    st.builds(EmdenState2D, st.just(0.0), real(0.5, 2.0), real(-1.0, 1.0)))


def state_vec(state) -> np.ndarray:
    if isinstance(state, EmdenState3D):
        return np.array([state.a, state.a_dot, state.b, state.b_dot])
    return np.array([state.a, state.a_dot])


@SETTINGS
@given(shift_params, shift_states, real(1e-4, 0.05), st.booleans())
def test_advance_matches_fixed_step_rk4(p, state, size, backward):
    dt = -size if backward else size
    rhs = rhs_3d_arrays if isinstance(state, EmdenState3D) else rhs_2d_arrays
    # the oracle steps backward in time directly, not by reversing velocities
    want = rk4_fixed(rhs, state_vec(state), (0.0, dt), math.copysign(1e-4, dt),
                     (p.K, p.gamma, p.lam, p.xi))
    got = advance(p, state, dt)
    assert got.t == dt
    # relative to the state's size: a velocity may pass through 0
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(state_vec(got) - want)) <= 1e-12 * scale
    back = advance(p, got, -dt)
    assert np.max(np.abs(state_vec(back) - state_vec(state))) <= 1e-12 * scale
