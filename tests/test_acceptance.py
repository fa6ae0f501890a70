"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import time
from dataclasses import replace

import numpy as np

from eulerexact import (BLOWUP, GLOBAL, OPEN_CASE, EmdenState2D, EmdenState3D,
                        Field3D, PhysParams, SnapshotFieldSource, Trajectory,
                        check_no_period_3d, classify_3d, cutoff_regularity_check,
                        detect_period_2d, energy_2d, energy_3d, integrate,
                        navier_stokes_residual, refined_residual, total_mass)
from eulerexact.emden import Termination
from eulerexact.profiles import DensityProfile

from _oracles import central_diff, second_diff


def _report(number, name, ok, detail=""):
    print(f"[ACCEPTANCE] {number}. {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _random_state(rng):
    return EmdenState3D(0.0,
                        float(rng.uniform(0.7, 1.5)), float(rng.uniform(-0.6, 0.6)),
                        float(rng.uniform(0.7, 1.5)), float(rng.uniform(-0.6, 0.6)))


def _interior_point(field, rng, s_frac=0.6):
    st = field.state
    sstar = field.profile.cutoff_s
    s_hi = s_frac * sstar if sstar is not None else 1.5
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    s_target = rng.uniform(0.1, 1.0) * s_hi
    denom = (v[0] ** 2 + v[1] ** 2) / st.a**2 + v[2] ** 2 / st.b**2
    scale = math.sqrt(s_target / denom)
    return float(scale * v[0]), float(scale * v[1]), float(scale * v[2])


def _draw_params(rng):
    """20 parameter sets covering gamma = 1, 1 < gamma < 2, gamma >= 2."""
    sets = []
    for _ in range(7):
        sets.append(PhysParams(K=float(rng.uniform(0.5, 2.0)), gamma=1.0,
                               lam=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.4, 2.0)),
                               alpha=float(rng.uniform(0.5, 2.5)),
                               xi=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.6))))
    for _ in range(7):
        sets.append(PhysParams(K=float(rng.uniform(0.5, 2.0)),
                               gamma=float(rng.uniform(1.15, 1.9)),
                               lam=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.4, 2.0)),
                               alpha=float(rng.uniform(0.5, 2.5)),
                               xi=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.6))))
    for i in range(6):
        gamma = 2.0 if i == 0 else float(rng.uniform(2.0, 3.0))
        sets.append(PhysParams(K=float(rng.uniform(0.5, 2.0)), gamma=gamma,
                               lam=float(-rng.uniform(0.3, 2.0)),
                               alpha=float(rng.uniform(0.5, 2.5)),
                               xi=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.6))))
    return sets


def test_criterion_1_residual_convergence_order():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    h = 1e-3
    floor = 1e-9  # below this the h/2 residual sits on the rounding floor
    checked = 0
    skipped = 0
    bad = []
    for p in _draw_params(rng):
        field = Field3D.from_params(p, _random_state(rng))
        source = SnapshotFieldSource(field)
        for _ in range(50):
            x, y, z = _interior_point(field, rng)
            rep = refined_residual(source, 0.0, x, y, z, h)
            if rep.observed_order is None:
                skipped += 1
                continue
            fine_magnitude = rep.magnitude() / 2.0**rep.observed_order
            if fine_magnitude < floor:
                skipped += 1
                continue
            checked += 1
            if not (1.6 <= rep.observed_order <= 2.4):
                bad.append((p.gamma, p.lam, rep.observed_order))
    elapsed = time.monotonic() - t0
    ok = not bad and checked >= 900 and elapsed < 60.0
    _report(1, "residual convergence order 2.0 +/- 0.4", ok,
            f"(points checked={checked}, skipped-at-floor={skipped}, "
            f"out-of-band={bad[:5]}, {elapsed:.1f}s)")


def test_criterion_2_classification_table():
    rng = np.random.default_rng(202)
    ok = True
    detail = ""
    # exhaustive sign grid over (lam, gamma vs 1, b1)
    for lam in (-1.0, 0.0, 1.0):
        for gamma in (1.0, 1.5):
            for b1 in (-1.0, 0.0, 1.0):
                p = PhysParams(K=1.0, gamma=gamma, lam=lam, alpha=1.0, xi=1.0)
                c = classify_3d(p, EmdenState3D(0.0, 1.0, 0.0, 1.0, b1))
                if lam > 0.0:
                    want = GLOBAL
                elif lam == 0.0:
                    want = GLOBAL if b1 >= 0.0 else BLOWUP
                elif gamma == 1.0:
                    want = BLOWUP
                else:
                    want = BLOWUP if b1 <= 0.0 else OPEN_CASE
                if c.verdict != want or c.basis != "analytic":
                    ok = False
                    detail = f"({lam}, {gamma}, {b1}) -> {c.verdict}, want {want}"
    # lam = 0, b1 < 0: detected collapse time matches -b0/b1 to 1e-8 relative
    t0 = time.monotonic()
    for _ in range(10):
        b0 = float(rng.uniform(0.5, 2.0))
        b1 = float(-rng.uniform(0.2, 1.5))
        p = PhysParams(K=1.0, gamma=float(rng.uniform(1.0, 2.5)), lam=0.0,
                       alpha=1.0, xi=1.0)
        T = -b0 / b1
        traj = integrate(p, EmdenState3D(0.0, 1.0, 0.0, b0, b1), 2.0 * T)
        if traj.termination.kind != "blowup" or \
           abs(traj.termination.t_est - T) > 1e-8 * T:
            ok = False
            detail = f"T_est={traj.termination.t_est} want {T}"
    elapsed = time.monotonic() - t0
    _report(2, "classification table + linear collapse time", ok,
            f"({elapsed:.1f}s) {detail}")


def test_criterion_3_energy_conservation():
    bad = []
    for gamma in (1.0, 1.5, 2.0, 3.0):
        p = PhysParams(K=1.0, gamma=gamma, lam=1.3, alpha=1.0, xi=1.1)
        ic3 = EmdenState3D(0.0, 1.0, 0.2, 1.1, -0.15)
        traj3 = integrate(p, ic3, 10.0, rel_tol=1e-10, abs_tol=1e-12)
        e0 = energy_3d(ic3, p)
        drift3 = max(abs(e - e0) for e in traj3.energies())
        if drift3 > 1e-8 * max(1.0, abs(e0)):
            bad.append(("3d", gamma, drift3))
        ic2 = EmdenState2D(0.0, 1.0, 0.2)
        traj2 = integrate(p, ic2, 10.0, rel_tol=1e-10, abs_tol=1e-12)
        f0 = energy_2d(ic2, p)
        drift2 = max(abs(e - f0) for e in traj2.energies())
        if drift2 > 1e-8 * max(1.0, abs(f0)):
            bad.append(("2d", gamma, drift2))
    # the pre-build derivation oracle lives in test_energy_first_integral.py;
    # spot-check dE/dt = 0 numerically here as well
    p = PhysParams(K=1.0, gamma=1.5, lam=-0.7, alpha=1.0, xi=1.0)
    ic = EmdenState3D(0.0, 1.0, 0.1, 1.0, 0.2)
    from eulerexact import advance
    dE = central_diff(lambda dt: energy_3d(advance(p, ic, dt) if dt else ic, p),
                      0.0, 1e-5)
    if abs(dE) > 1e-9:
        bad.append(("dE/dt", dE))
    _report(3, "energy drift <= 1e-8 over t in [0, 10]", not bad, f"{bad}")


def test_criterion_4_mass_conservation():
    t0 = time.monotonic()
    ok = True
    detail = []
    # Gaussian family: closed-form total mass 1
    p = PhysParams(K=1.0, gamma=1.0, lam=2.0 * math.pi, alpha=1.0, xi=1.0)
    ic = EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.0)
    m0_auto = total_mass(Field3D.from_params(p, ic))
    if abs(m0_auto.total_mass - 1.0) > 1e-6:
        ok = False
        detail.append(f"gaussian mass {m0_auto.total_mass}")
    # invariance along the trajectory on one fixed physical box
    traj = integrate(p, ic, 2.0)
    st2 = traj.state_at(2.0)
    r_sim = math.sqrt(2.0 * p.K * 41.4 / p.lam)
    radius = (st2.a * r_sim, st2.a * r_sim, st2.b * r_sim)
    m0 = total_mass(Field3D.from_params(p, ic), radius=radius, n=256,
                    richardson=False).total_mass
    m2 = total_mass(Field3D.from_params(p, st2), radius=radius, n=256,
                    richardson=False).total_mass
    if abs(m2 - m0) > 1e-6 * abs(m0) or abs(m0 - 1.0) > 1e-6:
        ok = False
        detail.append(f"gaussian drift {m0} -> {m2}")
    # compact support: support-mapped quadrature vs the radial closed form,
    # invariant along the trajectory
    pc = PhysParams(K=1.0, gamma=1.5, lam=1.0, alpha=1.0, xi=1.0)
    icc = EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.0)
    want = 32.0 * math.pi * pc.alpha**2 * DensityProfile(pc).cutoff_s**1.5 / 105.0
    trajc = integrate(pc, icc, 2.0)
    stc = trajc.state_at(2.0)
    mc0 = total_mass(Field3D.from_params(pc, icc)).total_mass
    mc2 = total_mass(Field3D.from_params(pc, stc)).total_mass
    if abs(mc0 - want) > 1e-6 * want or abs(mc2 - mc0) > 1e-6 * mc0:
        ok = False
        detail.append(f"compact {mc0} -> {mc2}, want {want}")
    elapsed = time.monotonic() - t0
    _report(4, "total mass oracle + conservation within 1e-6", ok,
            f"({elapsed:.1f}s) {detail}")


def test_criterion_5_navier_stokes_remark():
    rng = np.random.default_rng(505)
    ok = True
    detail = ""
    worst_lap = 0.0
    worst_diff = 0.0
    for _ in range(20):
        p = PhysParams(K=1.0, gamma=float(rng.uniform(1.0, 2.0)),
                       lam=float(rng.uniform(-1.0, 1.5)),
                       alpha=float(rng.uniform(0.5, 1.5)),
                       xi=float(rng.uniform(0.5, 1.5)))
        field = Field3D.from_params(p, _random_state(rng))
        x, y, z = _interior_point(field, rng)
        # second differences of the (linear-in-space) velocity
        h = 5e-3
        for comp in ("u1", "u2", "u3"):
            lap = (second_diff(lambda q: getattr(field.eval(q, y, z), comp), x, h)
                   + second_diff(lambda q: getattr(field.eval(x, q, z), comp), y, h)
                   + second_diff(lambda q: getattr(field.eval(x, y, q), comp), z, h))
            worst_lap = max(worst_lap, abs(lap))
        # viscous and inviscid momentum residuals coincide
        source = SnapshotFieldSource(field)
        for mu in (0.0, 1.0, 10.0):
            rep = navier_stokes_residual(source, 0.0, x, y, z, 1e-2, mu=mu)
            diff = max(abs(n - m) for n, m in
                       zip(rep.ns_momentum_residual, rep.momentum_residual))
            worst_diff = max(worst_diff, diff)
    if worst_lap >= 1e-9:
        ok = False
        detail += f"max |lap u| = {worst_lap:.2e} "
    if worst_diff >= 1e-9:
        ok = False
        detail += f"max |ns - euler| = {worst_diff:.2e}"
    _report(5, "viscous term vanishes (|lap u| and |ns-euler| < 1e-9)", ok,
            f"(lap {worst_lap:.1e}, diff {worst_diff:.1e}) {detail}")


def test_criterion_6_vorticity():
    rng = np.random.default_rng(606)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        p = PhysParams(K=1.0, gamma=float(rng.uniform(1.0, 2.5)),
                       lam=float(rng.uniform(-1.0, 1.5)),
                       alpha=float(rng.uniform(0.5, 2.0)),
                       xi=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)))
        field = Field3D.from_params(p, _random_state(rng))
        st = field.state
        x, y, z = (float(v) for v in rng.uniform(-1.0, 1.0, size=3))
        du3_dy = central_diff(lambda q: field.eval(x, q, z).u3, y, h)
        du2_dz = central_diff(lambda q: field.eval(x, y, q).u2, z, h)
        du1_dz = central_diff(lambda q: field.eval(x, y, q).u1, z, h)
        du3_dx = central_diff(lambda q: field.eval(q, y, z).u3, x, h)
        du2_dx = central_diff(lambda q: field.eval(q, y, z).u2, x, h)
        du1_dy = central_diff(lambda q: field.eval(x, q, z).u1, y, h)
        curl = np.array([du3_dy - du2_dz, du1_dz - du3_dx, du2_dx - du1_dy])
        want = np.array([0.0, 0.0, 2.0 * p.xi / (st.a * st.a)])
        worst = max(worst, float(np.max(np.abs(curl - want))))
    _report(6, "FD curl matches (0, 0, 2 xi / a^2) within 1e-7", worst < 1e-7,
            f"(worst {worst:.1e})")


def test_criterion_7_regularity_conditions():
    ok = True
    detail = ""
    for gamma in (1.0, 1.3, 1.7, 1.9, 2.0, 2.5, 3.0):
        for lam in (-1.5, -0.5, 0.0, 0.5, 1.5):
            p = PhysParams(K=1.0, gamma=gamma, lam=lam, alpha=1.0, xi=1.0)
            rep = cutoff_regularity_check(DensityProfile(p))
            want_c1 = (gamma == 1.0) or (lam <= 0.0) or (gamma < 2.0)
            if rep.c1 != want_c1:
                ok = False
                detail = f"(gamma={gamma}, lam={lam}): c1={rep.c1}, want {want_c1}"
            if gamma == 2.0 and lam > 0.0:
                want_slope = -lam * (gamma - 1.0) / (2.0 * p.K * gamma)
                if not math.isfinite(rep.boundary_slope) or rep.boundary_slope == 0.0 \
                   or abs(rep.boundary_slope - want_slope) > 1e-12 \
                   or abs(rep.numeric_slope - want_slope) > 1e-6 * abs(want_slope):
                    ok = False
                    detail = f"gamma=2 slope {rep.boundary_slope}, want {want_slope}"
    _report(7, "C1 cutoff conditions incl. gamma = 2 boundary", ok, detail)


def test_criterion_8_periodicity():
    ok = True
    detail = ""
    p2 = PhysParams(K=1.0, gamma=1.5, lam=-1.0, alpha=1.0, xi=1.0)
    ic = EmdenState2D(0.0, 1.1, 0.0)
    est = detect_period_2d(p2, ic, 50.0, rel_tol=1e-10, abs_tol=1e-12)
    est_half = detect_period_2d(p2, ic, 50.0, rel_tol=5e-11, abs_tol=5e-13)
    # one period of the equations of motion comes back to the start
    back = None if est is None else integrate(
        p2, ic, est.period, dense_times=[est.period], rel_tol=1e-12, abs_tol=1e-14).states[-1]
    if back is None or math.hypot(back.a - ic.a, back.a_dot - ic.a_dot) >= 1e-9:
        ok = False
        detail = f"return to the start: {back}"
    elif abs(est.period - est_half.period) > 1e-6 * est.period:
        ok = False
        detail = f"period unstable: {est.period} vs {est_half.period}"
    # 3D: b' strictly decreasing on every lam < 0 trajectory
    rng = np.random.default_rng(808)
    for _ in range(10):
        p3 = PhysParams(K=1.0, gamma=float(rng.uniform(1.0, 2.5)),
                        lam=float(-rng.uniform(0.3, 1.5)), alpha=1.0,
                        xi=float(rng.uniform(0.5, 1.5)))
        traj = integrate(p3, EmdenState3D(0.0, 1.0, 0.0, 1.0,
                                          float(rng.uniform(-0.5, 0.8))), 4.0)
        if len(traj.states) >= 2 and not check_no_period_3d(p3, traj):
            ok = False
            detail = f"b_dot not strictly decreasing for {p3}"
    _report(8, "2D period detected and stable; 3D b' monotone", ok,
            f"(period={None if est is None else est.period}) {detail}")


def test_criterion_9_negative_controls():
    ok = True
    detail = ""
    p = PhysParams(K=1.0, gamma=1.5, lam=1.0, alpha=1.2, xi=1.3)
    field = Field3D.from_params(p, EmdenState3D(0.0, 1.1, 0.3, 0.9, -0.2))
    clean = SnapshotFieldSource(field)

    class Corrupted:
        cutoff_s = clean.cutoff_s

        def sample(self, t, x, y, z):
            smp = clean.sample(t, x, y, z)
            return replace(smp, u1=1.01 * smp.u1)

    rng = np.random.default_rng(909)
    x, y, z = _interior_point(field, rng)
    rep = refined_residual(Corrupted(), 0.0, x, y, z, 1e-3)
    if rep.magnitude() < 1e-4 or rep.observed_order > 0.5:
        ok = False
        detail = f"corrupted field looked exact: {rep.magnitude()}, order {rep.observed_order}"

    p3 = PhysParams(K=1.0, gamma=1.5, lam=-0.8, alpha=1.0, xi=1.0)
    traj = integrate(p3, EmdenState3D(0.0, 1.0, 0.0, 1.0, 0.5), 3.0)
    states = list(traj.states)
    st = states[len(states) // 2]
    states[len(states) // 2] = EmdenState3D(
        st.t, st.a, st.a_dot, st.b, states[len(states) // 2 - 1].b_dot + 0.5)
    tampered = Trajectory(params=p3, dim=3, initial_state=traj.initial_state,
                          states=states, termination=Termination("reached_t_end"),
                          t_span=traj.t_span)
    if check_no_period_3d(p3, tampered):
        ok = False
        detail += " tampered trajectory passed monotonicity"
    _report(9, "negative controls fail as required", ok, detail)
