"""Acceptance suite: one test per release criterion, with the tolerances
spelled out inline.  Each test prints a single PASS line when it holds;
a failure message carries the measured numbers.

Shared fixtures run the demo experiment once per session: the bundled
dimerisation preset on 50 cells with the ramped time grid, plus the
rate-factor sweep at the long horizon.
"""

import csv

import numpy as np
import pytest

from fvreact._newton import _at_floor
from fvreact.diagnostics import l1_distance, lyapunov_series
from fvreact.experiment import ExperimentConfig, preset_config, sweep
from fvreact.kinetics import dimerisation_kinetics
from fvreact.limit import integrate_w, project_initial_w
from fvreact.mesh import build_time_grid_uniform, build_uniform_1d
from fvreact.scheme import (SolverConfig, State, _scaled_norm, integrate,
                            project_initial, step)

TOL = SolverConfig().newton_tol
SLACK = 10.0 * TOL

K1 = 1.072e-4
K2 = 2.363e-6
DIFF_U = 1.579e-9
DIFF_V = 1.042e-9


@pytest.fixture(scope="module")
def preset_run():
    """Coupled and limit trajectories of the demo preset at T = 1e5 s."""
    cfg = ExperimentConfig.from_dict(preset_config("dimerisation-tmax1"))
    mesh = cfg.build_mesh()
    kin = cfg.build_kinetics()
    grid = cfg.build_grid()
    wgrid = cfg.build_limit_grid()
    u0, v0 = cfg.initial_profiles()
    traj = integrate(mesh, kin, grid, project_initial(mesh, u0, v0), cfg.solver)
    wtraj = integrate_w(mesh, kin, wgrid,
                        project_initial_w(mesh, kin, u0, v0), cfg.solver)
    return mesh, kin, grid, wgrid, traj, wtraj


@pytest.fixture(scope="module")
def random_trials():
    """100 randomized paired runs on 16 cells, 50 steps each, split over
    rate factors 0, 1 and 1e3.  Pairs start componentwise ordered."""
    mesh = build_uniform_1d(0.1, 16)
    rng = np.random.default_rng(20260819)
    trials = []
    for k, count in ((0.0, 34), (1.0, 33), (1e3, 33)):
        kin = dimerisation_kinetics(K1, K2, DIFF_U, DIFF_V, rate_factor=k)
        for _ in range(count):
            u_lo = rng.uniform(0.0, 0.5, 16)
            v_lo = rng.uniform(0.0, 0.25, 16)
            lo = State(u=u_lo, v=v_lo, level=0, time=0.0)
            hi = State(u=u_lo + rng.uniform(0.0, 0.3, 16),
                       v=v_lo + rng.uniform(0.0, 0.2, 16), level=0, time=0.0)
            dt = 10.0 ** rng.uniform(0.0, 4.0)
            lo_states, hi_states = [lo], [hi]
            for _ in range(50):
                lo, _ = step(mesh, kin, dt, lo)
                hi, _ = step(mesh, kin, dt, hi)
                lo_states.append(lo)
                hi_states.append(hi)
            trials.append({"k": k, "kin": kin, "dt": dt,
                           "lo": lo_states, "hi": hi_states})
    return mesh, trials


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    """The full rate-factor sweep of the demo preset at T = 1e11 s: its
    output directory and records."""
    cfg = ExperimentConfig.from_dict(preset_config("dimerisation-sweep"))
    outdir = tmp_path_factory.mktemp("sweep")
    return outdir, sweep(cfg, outdir, echo=None)


@pytest.fixture(scope="module")
def sweep_records(sweep_run):
    return sweep_run[1]


def _mass_series(mesh, kin, states):
    if hasattr(states[0], "w"):
        return np.array([np.sum(mesh.volumes * s.w) for s in states])
    return np.array([np.sum(mesh.volumes * (s.u / kin.alpha + s.v / kin.beta))
                     for s in states])


def test_01_conservation_on_preset(preset_run):
    """Criterion 1: cell-measure-weighted w-mass drifts < 1e-10 relative at
    every level, for both solvers."""
    mesh, kin, grid, wgrid, traj, wtraj = preset_run
    for name, states in (("coupled", traj.states), ("limit", wtraj.states)):
        mass = _mass_series(mesh, kin, states)
        drift = float(np.max(np.abs(mass - mass[0])) / abs(mass[0]))
        assert drift < 1e-10, \
            f"FAIL: {name} solver mass drift {drift:.3e} exceeds 1e-10"
        print(f"criterion 1 [{name}]: PASS (max relative drift {drift:.3e})")


def test_01_conservation_at_k_1e6():
    """Criterion 1 at rate factor 1e6: the coupled solver runs the demo
    preset to T, and its w-mass drifts < 1e-10 relative at every level.
    Some of its steps stop at the rounding floor."""
    raw = preset_config("dimerisation-tmax1")
    raw["kinetics"]["k"] = 1e6
    cfg = ExperimentConfig.from_dict(raw)
    mesh, kin, grid = cfg.build_mesh(), cfg.build_kinetics(), cfg.build_grid()
    u0, v0 = cfg.initial_profiles()
    traj = integrate(mesh, kin, grid, project_initial(mesh, u0, v0),
                     cfg.solver)
    assert traj.final.level == grid.n_steps
    mass = _mass_series(mesh, kin, traj.states)
    drift = float(np.max(np.abs(mass - mass[0])) / abs(mass[0]))
    assert drift < 1e-10, f"FAIL: mass drift {drift:.3e} exceeds 1e-10"
    floor = sum(st.residual > TOL for st in traj.stats)
    print(f"criterion 1 [k = 1e6]: PASS (max relative drift {drift:.3e}, "
          f"{floor} of {grid.n_steps} steps at the rounding floor)")


def test_02_comparison_and_contraction(random_trials):
    """Criterion 2: componentwise ordering preserved and the weighted L1
    distance nonincreasing at every level, within 10*newton_tol slack."""
    mesh, trials = random_trials
    assert len(trials) == 100
    worst_order = 0.0
    worst_growth = 0.0
    for trial in trials:
        kin = trial["kin"]
        dist = [l1_distance(mesh, kin, a, b)
                for a, b in zip(trial["lo"], trial["hi"])]
        for lo, hi in zip(trial["lo"], trial["hi"]):
            worst_order = max(worst_order,
                              float(np.max(lo.u - hi.u)),
                              float(np.max(lo.v - hi.v)))
        growth = float(np.max(np.diff(dist))) if len(dist) > 1 else 0.0
        worst_growth = max(worst_growth, growth)
    assert worst_order <= SLACK, \
        f"FAIL: ordering violated by {worst_order:.3e} (> {SLACK:.1e})"
    assert worst_growth <= SLACK, \
        f"FAIL: L1 distance grew by {worst_growth:.3e} (> {SLACK:.1e})"
    print(f"criterion 2: PASS over 100 trials "
          f"(worst ordering gap {worst_order:.3e}, "
          f"worst L1 growth {worst_growth:.3e})")


def test_03_sup_norm_envelope(random_trials):
    """Criterion 3: 0 <= u <= U + (alpha/beta) V and 0 <= v <= V +
    (beta/alpha) U with U, V the initial maxima, within 10*newton_tol."""
    mesh, trials = random_trials
    worst = 0.0
    for trial in trials:
        for states in (trial["lo"], trial["hi"]):
            u0, v0 = states[0].u, states[0].v
            cap_u = float(np.max(u0)) + 2.0 * float(np.max(v0))
            cap_v = float(np.max(v0)) + 0.5 * float(np.max(u0))
            for s in states:
                worst = max(worst,
                            float(np.max(s.u)) - cap_u,
                            float(np.max(s.v)) - cap_v,
                            float(-np.min(s.u)), float(-np.min(s.v)))
    assert worst <= SLACK, \
        f"FAIL: envelope violated by {worst:.3e} (> {SLACK:.1e})"
    print(f"criterion 3: PASS over 200 runs (worst excursion {worst:.3e})")


def test_04_lyapunov_decay_on_preset(preset_run):
    """Criterion 4: the entropy functional is nonincreasing level to level,
    with per-step increases below 10*newton_tol*n_cells."""
    mesh, kin, grid, wgrid, traj, wtraj = preset_run
    lam = np.asarray(lyapunov_series(mesh, kin, traj))
    allowed = SLACK * mesh.n_cells
    worst = float(np.max(np.diff(lam)))
    assert worst <= allowed, \
        f"FAIL: entropy increased by {worst:.3e} in one step (> {allowed:.1e})"
    print(f"criterion 4: PASS (initial {lam[0]:.6e}, final {lam[-1]:.6e}, "
          f"worst per-step change {worst:.3e})")


def _rate_energy(mesh, kin, state):
    """F = sum_K m_K (Phi_u(u_K)/alpha + Phi_v(v_K)/beta), where Phi_u(s) =
    k1 s^3/3 and Phi_v(s) = k2 s^2/2 are the antiderivatives of the
    dimerisation rate laws."""
    phi_u = kin.rate_u.coeff * state.u ** 3 / 3.0
    phi_v = kin.rate_v.coeff * state.v ** 2 / 2.0
    return float(np.sum(mesh.volumes * (phi_u / kin.alpha + phi_v / kin.beta)))


def test_05_sweep_uniform_estimates(sweep_records):
    """Criterion 5: across the sweep the estimates do not depend on k.

    Multiplying the u-row of the scheme by r_u(u^{n+1})/alpha and the
    v-row by r_v(v^{n+1})/beta, summing over cells and using convexity of
    Phi = int_0^s r gives the discrete energy inequality

        F(u^N, v^N) + D + R <= F(u^0, v^0),

    with D >= 0 the two-point diffusion dissipation and R the reaction
    defect.  So R is bounded by F(u^0, v^0), a number fixed by the initial
    data alone, for every k.  (R itself tends to 0 like k as k -> 0, so a
    bound relative to R at the smallest swept k would say nothing about
    uniformity.)  The gradient energies E_u, E_v have a positive k -> 0
    limit and stay within 3x of their values at k = 1e-7.
    """
    cfg = ExperimentConfig.from_dict(preset_config("dimerisation-sweep"))
    mesh = cfg.build_mesh()
    u0, v0 = cfg.initial_profiles()
    init = project_initial(mesh, u0, v0, n_quad=cfg.quadrature_points)
    f0 = _rate_energy(mesh, cfg.build_kinetics(), init)

    base = sweep_records[0]
    assert base["k"] == pytest.approx(1e-7)
    failures = []
    for rec in sweep_records:
        for key in ("E_u", "E_v"):
            ratio = rec[key] / base[key]
            if ratio > 3.0:
                failures.append(f"{key}(k={rec['k']:.0e}) = "
                                f"{ratio:.2f}x the k=1e-7 value")
        if rec["R"] > f0 * (1.0 + SLACK):
            failures.append(f"R(k={rec['k']:.0e}) = {rec['R'] / f0:.4f} "
                            f"F(u^0, v^0)")
    ratios = ", ".join(f"k={rec['k']:.0e}: {rec['R'] / f0:.3f}"
                       for rec in sweep_records)
    assert not failures, \
        "FAIL: " + "; ".join(failures) + f" (R/F0 per k: {ratios})"
    print(f"criterion 5: PASS (E_u, E_v within 3x of k=1e-7 values; "
          f"R/F0 with F0 = {f0:.4e}: {ratios})")


def test_06_limit_distance_quantitative(preset_run):
    """Criterion 6: at T = 1e5 s the distance to the fast-reaction limit is
    within a factor 3 of J_u = 4.74e-3 and J_v = 4.032e-3."""
    from fvreact.diagnostics import compare_to_limit
    mesh, kin, grid, wgrid, traj, wtraj = preset_run
    out = compare_to_limit(kin, traj, wtraj)
    for key, target in (("J_u", 4.74e-3), ("J_v", 4.032e-3)):
        val = out[key]
        assert target / 3.0 <= val <= target * 3.0, \
            f"FAIL: {key} = {val:.4e} outside [{target/3:.3e}, {target*3:.3e}]"
    print(f"criterion 6: PASS (J_u = {out['J_u']:.4e}, "
          f"J_v = {out['J_v']:.4e})")


def test_07_limit_distance_qualitative(sweep_records):
    """Criterion 7: the limit distances fall by at least 8 orders of
    magnitude across the sweep, reaching numerical noise (< 1e-10) at the
    largest rate factor."""
    first, last = sweep_records[0], sweep_records[-1]
    for key in ("J_u", "J_v"):
        assert last[key] < 1e-10, \
            f"FAIL: {key} at k={last['k']:.0e} is {last[key]:.3e} >= 1e-10"
        assert first[key] >= 1e8 * last[key], \
            f"FAIL: {key} fell only from {first[key]:.3e} to {last[key]:.3e}"
    js = [rec["J_u"] for rec in sweep_records]
    print(f"criterion 7: PASS (J_u spans {js[0]:.3e} ... {js[-1]:.3e})")


def test_sweep_limit_runs_stop_at_tol_or_floor(sweep_run):
    """The limit runs of the sweep (T = 1e11 s) take no fallback, and the
    steps whose residual ends above newton_tol are exactly those stopped at
    the rounding floor: at the recorded state the residual is the recorded
    one, and the Newton correction there is at working precision."""
    from scipy.linalg import solve_banded

    outdir, _ = sweep_run
    cfg = ExperimentConfig.from_dict(preset_config("dimerisation-sweep"))
    mesh, kin = cfg.build_mesh(), cfg.build_kinetics()
    m, t = mesh.volumes, mesh.transmissibilities
    subdirs = sorted(outdir.glob("k_*"))
    assert len(subdirs) == len(cfg.sweep_values)
    for sub in subdirs:
        with open(sub / "stats_w.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {row["fallback"] for row in rows} == {""}, sub.name
    # the limit run does not depend on k: check the last factor's; it
    # records every level, each as n_cells rows.  The step solves for the
    # equilibrium unknown z, which the CSV does not carry, so rerun the
    # march for it and check that it reproduces the recorded w
    w = np.loadtxt(subdirs[-1] / "trajectory_w.csv", delimiter=",",
                   skiprows=1, usecols=4).reshape(len(rows) + 1, mesh.n_cells)
    u0, v0 = cfg.initial_profiles()
    wtraj = integrate_w(mesh, kin, cfg.build_limit_grid(),
                        project_initial_w(mesh, kin, u0, v0,
                                          cfg.quadrature_points), cfg.solver)
    assert np.array_equal(wtraj.arrays()[2], w)
    values, slopes = kin.maps_in_z()
    floor = [row for row in rows if float(row["residual"]) > TOL]
    assert floor, "FAIL: no limit step reached the rounding floor"
    for row in floor:
        lv, dt = int(row["level"]), float(row["dt"])
        z = wtraj.states[lv].z
        w_z, phi = values(z)
        r = m * (w_z - w[lv - 1]) + dt * mesh.apply_laplacian(phi)
        assert _scaled_norm(m)(z, r) == float(row["residual"]), lv
        wp, fp = slopes(z)
        band = np.zeros((3, mesh.n_cells))
        band[0, 1:] = -dt * t * fp[1:]
        band[1] = m * wp + dt * mesh.deg * fp
        band[2, :-1] = -dt * t * fp[:-1]
        delta = solve_banded((1, 1), band, r)
        assert _at_floor(delta, z), \
            f"FAIL: level {lv} is above newton_tol, not at the floor"
    print(f"limit runs: PASS ({len(floor)} of {len(rows)} steps at the "
          f"rounding floor, levels {floor[0]['level']}..{floor[-1]['level']})")


def test_08_scheme_orders_pure_diffusion():
    """Criterion 8: with the reaction off and smooth data, Richardson
    refinement shows spatial order 2.0 +- 0.2 and temporal order
    1.0 +- 0.2."""
    length, final = 0.1, 2e5
    kin = dimerisation_kinetics(K1, K2, DIFF_U, DIFF_V, rate_factor=0.0)
    u0 = lambda x: 0.3 + 0.2 * np.cos(np.pi * x / length)
    v0 = lambda x: 0.25 + 0.1 * np.cos(2 * np.pi * x / length)

    def solve(n_cells, n_steps):
        mesh = build_uniform_1d(length, n_cells)
        grid = build_time_grid_uniform(final, n_steps)
        init = project_initial(mesh, u0, v0, n_quad=3)
        return integrate(mesh, kin, grid, init).final

    # spatial: common time grid so the temporal error cancels in differences
    ref = solve(512, 256)
    errs = []
    for n in (16, 32, 64):
        sol = solve(n, 256)
        coarse_ref = ref.u.reshape(n, 512 // n).mean(axis=1)
        errs.append(float(np.max(np.abs(sol.u - coarse_ref))))
    orders_x = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for order in orders_x:
        assert 1.8 <= order <= 2.2, \
            f"FAIL: spatial orders {orders_x} outside 2.0 +- 0.2"

    # temporal: fixed mesh so the spatial error cancels exactly
    ref_t = solve(32, 4096)
    errs_t = []
    for m in (16, 32, 64):
        sol = solve(32, m)
        errs_t.append(float(np.max(np.abs(sol.u - ref_t.u))))
    orders_t = [np.log2(errs_t[i] / errs_t[i + 1]) for i in range(2)]
    for order in orders_t:
        assert 0.8 <= order <= 1.2, \
            f"FAIL: temporal orders {orders_t} outside 1.0 +- 0.2"
    print(f"criterion 8: PASS (spatial orders {np.round(orders_x, 3)}, "
          f"temporal orders {np.round(orders_t, 3)})")


def test_09_kinetics_oracles():
    """Criterion 9: inversion round trip, chemical-equilibrium identity and
    the quadratic-formula oracle all agree to 1e-10.

    Concentrations span [1e-3, 10], two decades around the demo's physical
    range."""
    kin = dimerisation_kinetics(K1, K2, DIFF_U, DIFF_V)
    u = np.geomspace(1e-3, 10.0, 50)
    w = kin.w_from_u(u)

    u_rec = kin.u_from_w(w)
    v_rec = kin.v_from_w(w)
    round_trip = float(np.max(np.abs(u_rec - u) / u))
    assert round_trip < 1e-10, f"FAIL: round trip error {round_trip:.3e}"
    gap = np.abs(kin.rate_u.value(u_rec) - kin.rate_v.value(v_rec))
    ident = float(np.max(gap / kin.rate_u.value(u_rec)))
    assert ident < 1e-10, f"FAIL: equilibrium identity off by {ident:.3e}"

    q = K1 / K2
    u_quad = (-0.5 + np.sqrt(0.25 + 4.0 * q * w)) / (2.0 * q)
    quad = float(np.max(np.abs(u_quad - u_rec) / u_rec))
    assert quad < 1e-10, f"FAIL: quadratic-formula oracle off by {quad:.3e}"
    print(f"criterion 9: PASS (round trip {round_trip:.2e}, identity "
          f"{ident:.2e}, quadratic oracle {quad:.2e})")
