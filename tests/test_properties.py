"""Property tests on generated parameters, states and points: the scalar
evaluators are the 0-d case of the array ones, bit for bit, the planar energy
is the 3D one at b = 1, b' = 0, bit for bit, a batched
residual stencil gives each point what a single-point call gives it, 3D
``classify`` gives each cell the row a one-cell ``sweep`` gives it, a
``sample`` CSV reads back to the evaluated field bit for bit, a
time shift by ``advance`` agrees with a fixed-step RK4 oracle both ways,
runs that do not collapse conserve the energy, and the 3D field is
self-similar: scaling x, y by a and z by b maps the unit state onto the
state (a, b)."""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eulerexact import (EmdenState2D, EmdenState3D, Field2D, Field3D,
                        GeneralFamilySource, GeneralMassFamily, PhysParams,
                        SnapshotFieldSource, advance, energy_2d, energy_3d, integrate,
                        mass_residual, navier_stokes_residual, refined_residual)
from eulerexact.cli import _load_config, build_parser, main
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
@given(params, states_3d, points(3))
def test_field3d_is_self_similar(p, state, pts):
    # the state (a, b) at (aX, aY, bZ) has the unit state's s at (X, Y, Z),
    # and its density times a^2 b is the unit state's density there
    a, b = state.a, state.b
    field = Field3D.from_params(p, state)
    unit = Field3D.from_params(p, EmdenState3D(state.t, 1.0, state.a_dot, 1.0, state.b_dot))
    eps = np.finfo(float).eps
    for x, y, z in pts:
        got, want = field.eval(a * x, a * y, b * z), unit.eval(x, y, z)
        assert math.isclose(got.s, want.s, rel_tol=4 * eps, abs_tol=0.0)
        # where s differs in its last bits, f(s) differs by f's condition
        # number times that, which is large near a compact support's edge
        # when 1/(gamma - 1) is large; with equal s only the a^2 b factor
        # differs (abs_tol: a subnormal density keeps fewer bits)
        if got.s == want.s:
            assert math.isclose(got.rho * (a * a * b), want.rho, rel_tol=4 * eps,
                                abs_tol=a * a * b * math.ulp(0.0))


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


# lam > 0 keeps both scale factors growing, so every requested time is sampled
sample_params = st.builds(
    PhysParams, K=real(0.2, 3.0), gamma=st.one_of(st.just(1.0), st.just(2.0), real(1.0, 3.0)),
    lam=real(0.1, 2.0), alpha=st.one_of(st.just(0.0), real(0.1, 2.0)), xi=real(-2.0, 2.0))
axes = st.tuples(real(-3.0, 0.0), real(0.1, 3.0), st.integers(2, 4))
sample_times = st.lists(st.one_of(st.just(0.0), real(0.01, 1.0)), min_size=1, max_size=3,
                        unique=True).map(sorted)


@SETTINGS
@given(sample_params, states_3d, st.sampled_from([2, 3]), axes, axes, axes, sample_times)
def test_sample_csv_reads_back_to_eval_grid(p, ic, dim, ax, ay, az, times):
    argv = ["sample", f"--dim={dim}", f"--K={p.K!r}", f"--gamma={p.gamma!r}",
            f"--lambda={p.lam!r}", f"--alpha={p.alpha!r}", f"--xi={p.xi!r}",
            f"--a0={ic.a!r}", f"--a1={ic.a_dot!r}", f"--b0={ic.b!r}", f"--b1={ic.b_dot!r}",
            "--times=" + ",".join(map(repr, times))]
    argv += [f"--grid-{name}={lo!r}:{hi!r}:{n}"
             for name, (lo, hi, n) in zip("xyz", (ax, ay, az)[:dim])]
    cfg = _load_config(build_parser().parse_args(argv))
    start = cfg.initial_state()
    states = {0.0: start}
    if times[-1] > 0.0:
        traj = integrate(p, start, times[-1], dense_times=times, **cfg.run_options())
        states.update((s.t, s) for s in traj.states if s.t > 0.0)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "f.csv")
        _quiet_main([*argv, "--out", out])
        with open(out, encoding="utf-8") as f:
            lines = f.read().splitlines()[1:]

    xs, ys = np.linspace(*ax), np.linspace(*ay)
    zs = np.linspace(*az) if dim == 3 else np.array([0.0])
    nx, ny, nz = xs.size, ys.size, zs.size
    assert len(lines) == nx * ny * nz * len(times)
    X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij", sparse=True)
    for it, t in enumerate(times):
        if dim == 3:
            g = Field3D.from_params(p, states[t]).eval_grid(X, Y, Z)
        else:
            g = Field2D.from_params(p, states[t]).eval_grid(X, Y)
            g.update(u3=0.0, s=g["eta"])
        cells = [np.broadcast_to(g[k], (nx, ny, nz)) for k in ("rho", "u1", "u2", "u3", "s", "p")]
        for iz in range(nz):
            for iy in range(ny):
                for ix in range(nx):
                    cols = lines[ix + nx * (iy + ny * (iz + nz * it))].split(",")
                    assert [float(c) for c in cols[:4]] == [xs[ix], ys[iy], zs[iz], t]
                    assert [bits(float(c)) for c in cols[4:]] == \
                        [bits(c[ix, iy, iz]) for c in cells]


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


# lam > 0: the potential grows without bound as a or b falls to 0
repulsive_runs = st.tuples(
    st.builds(PhysParams, K=st.just(1.0), gamma=st.one_of(st.just(1.0), real(1.0, 3.0)),
              lam=real(0.1, 2.0), alpha=st.just(1.0), xi=real(-2.0, 2.0)),
    st.one_of(states_3d, states_2d))


@st.composite
def bound_planar_runs(draw):
    """A bound planar orbit: lam < 0, 1 <= gamma < 2 and xi != 0 (the xi^2
    barrier keeps a from 0), with the energy below V's limit at infinity,
    which is 0 for gamma > 1 and infinite at gamma = 1.  lam is set by the
    equilibrium radius a_eq, drawn of order 1 so that t = 5 spans a few
    orbits (lam drawn directly puts a_eq near 1e-7 as gamma nears 2, where
    t = 5 holds millions of orbits)."""
    gamma = draw(st.one_of(st.just(1.0), real(1.0, 1.9)))
    xi, a_eq = draw(real(0.3, 2.0)), draw(real(0.5, 2.0))
    lam = -xi * xi * a_eq ** (2.0 * gamma - 4.0)
    a0, a1 = a_eq * draw(real(0.6, 1.6)), draw(real(-0.5, 0.5))
    assume(gamma == 1.0 or 0.5 * a1 * a1 + planar_potential(a0, gamma, lam, xi) < 0.0)
    return PhysParams(K=1.0, gamma=gamma, lam=lam, alpha=1.0, xi=xi), EmdenState2D(0.0, a0, a1)


@SETTINGS
@given(st.one_of(repulsive_runs, bound_planar_runs()))
def test_energy_drift_is_small_on_runs_that_do_not_collapse(run):
    # the bound of TestIntegrate.test_energy_drift_small, at every step point
    p, state = run
    traj = integrate(p, state, 5.0)
    assert traj.termination.kind == "reached_t_end"
    e0 = (energy_3d if isinstance(state, EmdenState3D) else energy_2d)(state, p)
    assert max(abs(e - e0) for e in traj.energies()) <= 1e-8 * max(1.0, abs(e0))
