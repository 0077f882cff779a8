import numpy as np
import pytest
from scipy.integrate import quad

from fvreact.diagnostics import (DiagnosticsReport, compare_to_limit,
                                 conserved_mass, diagnostics_report,
                                 gradient_energy, l1_distance, lyapunov,
                                 lyapunov_series, reaction_defect,
                                 translate_seminorms)
from fvreact.kinetics import dimerisation_kinetics, power_law_kinetics
from fvreact.limit import WState, WTrajectory, integrate_w, project_initial_w
from fvreact.mesh import (TimeGrid, build_time_grid_uniform,
                          build_uniform_1d)
from fvreact.scheme import State, Trajectory, integrate, project_initial

K1 = 1.072e-4
K2 = 2.363e-6
DIFF_U = 1.579e-9
DIFF_V = 1.042e-9


def dimer(k=1.0):
    return dimerisation_kinetics(K1, K2, DIFF_U, DIFF_V, rate_factor=k)


def unit_kin(k=1.0):
    return power_law_kinetics(1.0, 1.0, 1.0, 1.0, alpha=1.0, beta=1.0,
                              diff_u=1.0, diff_v=2.0, rate_factor=k)


def make_traj(mesh, fields):
    """States from a list of (u, v) arrays at unit time spacing."""
    states = [State(u=np.asarray(u, dtype=float), v=np.asarray(v, dtype=float),
                    level=i, time=float(i)) for i, (u, v) in enumerate(fields)]
    return Trajectory(states=states, stats=())


# -- mass and distance ---------------------------------------------------------

def test_conserved_mass_values():
    mesh = build_uniform_1d(1.0, 2)
    kin = dimer()
    s = State(u=np.array([0.4, 0.2]), v=np.array([0.1, 0.3]), level=0, time=0.0)
    # sum m (u/2 + v) = 0.5*(0.2+0.1) + 0.5*(0.1+0.3)
    assert conserved_mass(mesh, kin, s) == pytest.approx(0.35)
    ws = WState(w=np.array([0.3, 0.4]), level=0, time=0.0)
    assert conserved_mass(mesh, kin, ws) == pytest.approx(0.35)


def test_l1_distance_single_cell_oracle():
    mesh = build_uniform_1d(1.0, 1)
    kin = unit_kin()  # alpha_hat = beta_hat = 1
    s1 = State(u=np.array([1.0]), v=np.array([0.0]), level=0, time=0.0)
    s2 = State(u=np.array([0.0]), v=np.array([2.0]), level=0, time=0.0)
    assert l1_distance(mesh, kin, s1, s2) == pytest.approx(3.0)
    assert l1_distance(mesh, kin, s1, s1) == 0.0


def test_l1_distance_rate_factor_zero_uses_bare_weights():
    mesh = build_uniform_1d(1.0, 1)
    kin = unit_kin(k=0.0)
    s1 = State(u=np.array([1.0]), v=np.array([0.0]), level=0, time=0.0)
    s2 = State(u=np.array([0.0]), v=np.array([2.0]), level=0, time=0.0)
    # same functional up to the dropped common 1/k factor
    assert l1_distance(mesh, kin, s1, s2) == pytest.approx(3.0)


# -- quadratic space-time functionals -------------------------------------------

def test_gradient_energy_two_cell_oracle():
    # two cells, one step of dt=1, T=1, u goes to (0, 1): single term = 1
    mesh = build_uniform_1d(2.0, 2)  # h=1 -> T = 1/1 = 1
    assert mesh.transmissibilities[0] == pytest.approx(1.0)
    grid = TimeGrid(levels=np.array([0.0, 1.0]))
    traj = make_traj(mesh, [((0.5, 0.5), (0.0, 0.0)),
                            ((0.0, 1.0), (0.0, 0.0))])
    e_u, e_v = gradient_energy(mesh, grid, traj)
    assert e_u == pytest.approx(1.0)
    assert e_v == pytest.approx(0.0)


def test_gradient_energy_constant_trajectory_vanishes():
    mesh = build_uniform_1d(1.0, 5)
    grid = build_time_grid_uniform(2.0, 2)
    traj = make_traj(mesh, [(np.full(5, 0.3), np.full(5, 0.1))] * 3)
    assert gradient_energy(mesh, grid, traj) == (0.0, 0.0)


def test_gradient_energy_requires_complete_trajectory():
    mesh = build_uniform_1d(1.0, 3)
    grid = build_time_grid_uniform(2.0, 2)
    traj = make_traj(mesh, [(np.zeros(3), np.zeros(3))] * 2)  # missing level
    with pytest.raises(ValueError):
        gradient_energy(mesh, grid, traj)


def test_reaction_defect_zero_cases():
    mesh = build_uniform_1d(1.0, 4)
    grid = build_time_grid_uniform(3.0, 3)
    kin = dimer()
    u = 0.2
    v = float(kin.v_from_u(u))
    eq = make_traj(mesh, [(np.full(4, u), np.full(4, v))] * 4)
    assert reaction_defect(mesh, grid, kin, eq) == pytest.approx(0.0, abs=1e-25)

    rng = np.random.default_rng(1)
    wild = make_traj(mesh, [(rng.uniform(0, 1, 4), rng.uniform(0, 1, 4))
                            for _ in range(4)])
    assert reaction_defect(mesh, grid, dimer(k=0.0), wild) == 0.0


def test_reaction_defect_single_cell_oracle():
    # one cell m=2, one step dt=1, k=1: R = 2 (r_A(u1) - r_B(v1))^2
    mesh = build_uniform_1d(2.0, 1)
    grid = TimeGrid(levels=np.array([0.0, 1.0]))
    kin = unit_kin()
    traj = make_traj(mesh, [((0.0,), (0.0,)), ((0.7,), (0.2,))])
    assert reaction_defect(mesh, grid, kin, traj) == pytest.approx(2 * 0.5 ** 2)


# -- Lyapunov functional ---------------------------------------------------------

def test_lyapunov_zero_at_reference():
    mesh = build_uniform_1d(1.0, 3)
    kin = dimer()
    a = 0.2
    b = float(kin.v_from_u(a))
    s = State(u=np.full(3, a), v=np.full(3, b), level=0, time=0.0)
    assert lyapunov(mesh, kin, s, reference=(a, b)) == pytest.approx(0.0, abs=1e-14)


def test_lyapunov_closed_form_oracle():
    # quadratic forward rate and linear backward rate both collapse to
    # s ln(s/ref) + ref - s; check the quadrature against it off reference
    mesh = build_uniform_1d(1.0, 1)  # single cell, measure 1
    kin = dimer()
    a = 0.2
    b = float(kin.v_from_u(a))
    for v in (0.5 * b, 2.0 * b, 10.0 * b):
        s = State(u=np.array([a]), v=np.array([v]), level=0, time=0.0)
        expect = v * np.log(v / b) + b - v
        assert lyapunov(mesh, kin, s, reference=(a, b)) == \
            pytest.approx(expect, rel=1e-8)
    for u in (0.5 * a, 3.0 * a):
        s = State(u=np.array([u]), v=np.array([b]), level=0, time=0.0)
        expect = u * np.log(u / a) + a - u
        assert lyapunov(mesh, kin, s, reference=(a, b)) == \
            pytest.approx(expect, rel=1e-8)


def test_lyapunov_handles_zero_concentration():
    # s ln s -> 0 at s = 0; the value reduces to the reference mass term
    mesh = build_uniform_1d(1.0, 1)
    kin = dimer()
    a = 0.2
    b = float(kin.v_from_u(a))
    s = State(u=np.array([0.0]), v=np.array([b]), level=0, time=0.0)
    assert lyapunov(mesh, kin, s, reference=(a, b)) == pytest.approx(a, rel=1e-8)


def test_lyapunov_nonnegative_random_states():
    mesh = build_uniform_1d(1.0, 6)
    kin = dimer()
    rng = np.random.default_rng(17)
    ref = (0.2, float(kin.v_from_u(0.2)))
    for _ in range(5):
        s = State(u=rng.uniform(0, 1, 6), v=rng.uniform(0, 2, 6),
                  level=0, time=0.0)
        assert lyapunov(mesh, kin, s, reference=ref) >= -1e-12


def test_lyapunov_rejects_unbalanced_reference():
    mesh = build_uniform_1d(1.0, 2)
    kin = dimer()
    s = State(u=np.full(2, 0.2), v=np.full(2, 0.1), level=0, time=0.0)
    with pytest.raises(ValueError):
        lyapunov(mesh, kin, s, reference=(0.2, 0.2))


def test_lyapunov_series_nonincreasing_along_scheme():
    mesh = build_uniform_1d(0.1, 10)
    kin = dimer()
    grid = build_time_grid_uniform(1e4, 25)
    init = project_initial(mesh, lambda x: 0.3 + 0.2 * np.sin(40 * x),
                           lambda x: 0.1 + 0 * x)
    traj = integrate(mesh, kin, grid, init)
    lam = lyapunov_series(mesh, kin, traj)
    assert len(lam) == 26
    assert np.all(np.diff(lam) <= 1e-12)
    assert lam[0] > lam[-1]


def _entropy_by_quad(mesh, kin, ref, traj):
    """Entropy per state from the definition of the density,

        V(s) = (1/weight) [ s ln(r(s)/r(ref)) + int_s^ref sigma r'(sigma)/r(sigma) d sigma ],

    with the integral by quad and the integrand frozen below a floor."""
    def density(law, weight, a, s):
        floor = a * 1e-10

        def integrand(x):
            x = max(x, floor)
            return float(x * law.deriv(x) / law.value(x))

        log_term = 0.0 if s <= floor else s * np.log(law.value(s) / law.value(a))
        integral, _ = quad(integrand, s, a, epsabs=1e-10, epsrel=1e-10,
                           limit=200)
        return (log_term + integral) / weight

    return np.array([
        np.sum(mesh.volumes * np.array(
            [density(kin.rate_u, kin.alpha, ref[0], u)
             + density(kin.rate_v, kin.beta, ref[1], v)
             for u, v in zip(np.maximum(st.u, 0.0), np.maximum(st.v, 0.0))]))
        for st in traj.states])


@pytest.mark.parametrize("kin", [
    dimer(),
    power_law_kinetics(2.0, 3.0, 0.5, 1.5, alpha=3.0, beta=0.5,
                       diff_u=1.0, diff_v=2.0),
], ids=["dimerisation", "power-law"])
def test_lyapunov_closed_form_matches_quad(kin):
    mesh = build_uniform_1d(1.0, 8)
    grid = build_time_grid_uniform(0.5, 5)
    init = project_initial(mesh, lambda x: 0.3 + 0.2 * np.sin(6 * x),
                           lambda x: 0.1 + 0.05 * x)
    traj = integrate(mesh, kin, grid, init)
    zeros = State(u=np.where(np.arange(8) % 2, 0.0, 0.4),
                  v=np.where(np.arange(8) % 3, 0.2, 0.0), level=6, time=0.6)
    traj = Trajectory(states=traj.states + [zeros], stats=traj.stats)
    ref = (0.3, float(kin.v_from_u(0.3)))
    closed = lyapunov_series(mesh, kin, traj, reference=ref)
    assert np.allclose(_entropy_by_quad(mesh, kin, ref, traj),
                       closed, rtol=1e-8, atol=0.0)
    for i, s in enumerate(traj.states):
        assert lyapunov(mesh, kin, s, reference=ref) == closed[i]


# -- limit comparison -------------------------------------------------------------

def test_compare_to_limit_manufactured_exact():
    mesh = build_uniform_1d(0.1, 7)
    kin = dimer()
    u_f = np.linspace(0.05, 0.4, 7)
    v_f = np.asarray(kin.v_from_u(u_f))
    w_f = u_f / 2.0 + v_f
    traj = Trajectory(states=[State(u=u_f, v=v_f, level=1, time=5.0)], stats=())
    wtraj = WTrajectory(states=[WState(w=w_f, level=1, time=5.0)], stats=())
    out = compare_to_limit(kin, traj, wtraj)
    assert out["final_time"] == pytest.approx(5.0)
    assert out["J_u"] == pytest.approx(0.0, abs=1e-11)
    assert out["J_v"] == pytest.approx(0.0, abs=1e-10)
    assert set(out) == {"final_time", "J_u", "J_v"}


def test_compare_to_limit_detects_time_mismatch():
    mesh = build_uniform_1d(0.1, 3)
    kin = dimer()
    traj = Trajectory(states=[State(u=np.full(3, 0.1), v=np.full(3, 0.1),
                                    level=1, time=4.0)], stats=())
    wtraj = WTrajectory(states=[WState(w=np.full(3, 0.15),
                                       level=1, time=5.0)], stats=())
    with pytest.raises(ValueError):
        compare_to_limit(kin, traj, wtraj)


# -- translate seminorms -----------------------------------------------------------

def brute_force_space(mesh, grid, values, xi, n_samples=200001):
    """Riemann-sampled reference for the space seminorm of one field."""
    length = mesh.edges[-1]
    total = 0.0
    xs = np.linspace(0.0, length - xi, n_samples, endpoint=False) \
        + 0.5 * (length - xi) / n_samples
    for n in range(len(grid.levels) - 1):
        f = values[n + 1]
        idx = np.clip(np.searchsorted(mesh.edges, xs, side="right") - 1,
                      0, mesh.n_cells - 1)
        idx_s = np.clip(np.searchsorted(mesh.edges, xs + xi, side="right") - 1,
                        0, mesh.n_cells - 1)
        integrand = (f[idx_s] - f[idx]) ** 2
        dt = grid.levels[n + 1] - grid.levels[n]
        total += dt * np.mean(integrand) * (length - xi)
    return total


def brute_force_time(mesh, grid, values, tau, n_samples=200001):
    """Riemann-sampled reference for the time seminorm of one field."""
    final = grid.levels[-1]
    ts = np.linspace(0.0, final - tau, n_samples, endpoint=False) \
        + 0.5 * (final - tau) / n_samples
    idx = np.clip(np.searchsorted(grid.levels, ts, side="left"),
                  1, len(grid.levels) - 1)
    idx_s = np.clip(np.searchsorted(grid.levels, ts + tau, side="left"),
                    1, len(grid.levels) - 1)
    vals = np.asarray(values)
    diff2 = (vals[idx_s] - vals[idx]) ** 2  # (n_samples, n_cells)
    return float(np.sum(np.mean(diff2, axis=0) * (final - tau) * mesh.volumes))


def test_translate_seminorms_trivial_cases():
    mesh = build_uniform_1d(1.0, 5)
    grid = build_time_grid_uniform(2.0, 2)
    kin = dimer()
    traj = make_traj(mesh, [(np.full(5, 0.3), np.full(5, 0.2))] * 3)
    recs = translate_seminorms(mesh, grid, traj, kin,
                               shifts=(0.0, 0.4), lags=(0.0, 1.0))
    assert all(rec["value"] == pytest.approx(0.0, abs=1e-20) for rec in recs)
    fields = {rec["field"] for rec in recs}
    assert fields == {"u", "v", "w"}
    kinds = {rec["kind"] for rec in recs}
    assert kinds == {"space", "time"}


def test_translate_seminorms_match_brute_force():
    rng = np.random.default_rng(8)
    mesh = build_uniform_1d(1.0, 6)
    grid = TimeGrid(levels=np.array([0.0, 0.7, 1.0, 2.3]))
    fields = [(rng.uniform(0, 1, 6), rng.uniform(0, 1, 6)) for _ in range(4)]
    traj = make_traj(mesh, fields)
    # unit-weight kinetics keep w = u + v simple
    kin = unit_kin()
    xi, tau = 0.23, 0.9
    recs = translate_seminorms(mesh, grid, traj, kin, shifts=(xi,), lags=(tau,))
    by_key = {(r["field"], r["kind"]): r["value"] for r in recs}

    u_vals = [np.asarray(u) for u, _ in fields]
    v_vals = [np.asarray(v) for _, v in fields]
    w_vals = [u + v for u, v in zip(u_vals, v_vals)]
    assert by_key[("u", "space")] == pytest.approx(
        brute_force_space(mesh, grid, u_vals, xi), rel=2e-4)
    assert by_key[("w", "space")] == pytest.approx(
        brute_force_space(mesh, grid, w_vals, xi), rel=2e-4)
    assert by_key[("v", "time")] == pytest.approx(
        brute_force_time(mesh, grid, v_vals, tau), rel=2e-4)
    assert by_key[("w", "time")] == pytest.approx(
        brute_force_time(mesh, grid, w_vals, tau), rel=2e-4)


def test_translate_seminorms_reject_out_of_range():
    mesh = build_uniform_1d(1.0, 4)
    grid = build_time_grid_uniform(2.0, 2)
    kin = dimer()
    traj = make_traj(mesh, [(np.zeros(4), np.zeros(4))] * 3)
    with pytest.raises(ValueError):
        translate_seminorms(mesh, grid, traj, kin, shifts=(1.5,), lags=())
    with pytest.raises(ValueError):
        translate_seminorms(mesh, grid, traj, kin, shifts=(), lags=(2.5,))


# -- report assembly ----------------------------------------------------------------

def test_diagnostics_report_round_trip(tmp_path):
    mesh = build_uniform_1d(0.1, 8)
    kin = dimer()
    grid = build_time_grid_uniform(1e4, 6)
    init = project_initial(mesh, lambda x: 0.3 + 0.1 * np.sin(40 * x),
                           lambda x: 0.1 + 0 * x)
    traj = integrate(mesh, kin, grid, init)
    winit = project_initial_w(mesh, kin, lambda x: 0.3 + 0.1 * np.sin(40 * x),
                              lambda x: 0.1 + 0 * x)
    wtraj = integrate_w(mesh, kin, grid, winit)
    rep = diagnostics_report(mesh, grid, kin, traj, wtraj=wtraj,
                             shifts=(0.02,), lags=(2e3,))
    assert isinstance(rep, DiagnosticsReport)
    assert len(rep.levels) == 7
    assert rep.entropy is not None and len(rep.entropy) == 7
    assert rep.compare is not None and "J_u" in rep.compare
    assert rep.translates and len(rep.translates) == 6
    assert rep.reaction_defect >= 0.0

    csv_path = tmp_path / "diag.csv"
    rep.write_csv(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("level,t,mass_w,u_min,u_max,v_min,v_max")
    assert len(lines) == 8

    tpath = tmp_path / "translates.csv"
    rep.write_translates_csv(tpath)
    tlines = tpath.read_text().strip().splitlines()
    assert tlines[0] == "field,kind,displacement,value"
    assert len(tlines) == 7

    text = rep.summary()
    assert "mass" in text and "J_u" in text


def test_diagnostics_report_without_optional_parts():
    mesh = build_uniform_1d(0.1, 5)
    kin = dimer()
    grid = build_time_grid_uniform(10.0, 2)
    init = project_initial(mesh, lambda x: 0.2 + 0 * x, lambda x: 0.1 + 0 * x)
    traj = integrate(mesh, kin, grid, init)
    rep = diagnostics_report(mesh, grid, kin, traj, entropy=False)
    assert rep.entropy is None
    assert rep.compare is None
    assert rep.translates is None
    assert rep.summary()  # still renders
