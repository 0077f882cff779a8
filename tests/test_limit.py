import csv

import numpy as np
import pytest

from fvreact import limit
from fvreact.errors import NonConvergenceError
from fvreact.kinetics import (Kinetics, dimerisation_kinetics,
                              power_law_kinetics)
from fvreact.mesh import build_time_grid_uniform, build_uniform_1d
from fvreact.limit import (WState, integrate_w, project_initial_w, step_w,
                           write_w_csv)
from fvreact.scheme import (State, SolverConfig, Trajectory, integrate,
                            project_initial, write_trajectory_csv)

K1 = 1.072e-4
K2 = 2.363e-6
DIFF_U = 1.579e-9
DIFF_V = 1.042e-9


def dimer():
    return dimerisation_kinetics(K1, K2, DIFF_U, DIFF_V)


def test_project_initial_w_combines_species():
    mesh = build_uniform_1d(1.0, 8)
    kin = dimer()
    winit = project_initial_w(mesh, kin, lambda x: 0.4 + 0 * x,
                              lambda x: 1.2 + 0 * x)
    # w = u/2 + v/1
    assert np.allclose(winit.w, 0.4 / 2 + 1.2)
    assert winit.level == 0 and winit.time == 0.0


def test_project_initial_w_matches_coupled_projection():
    # same quadrature as the coupled solver, so the two solvers start from
    # states with identical conserved mass
    mesh = build_uniform_1d(0.1, 13)
    kin = dimer()
    u0 = lambda x: 0.25 * (1 + np.sin(20 * x))
    v0 = lambda x: 0.1 * (1 + x)
    init = project_initial(mesh, u0, v0, n_quad=3)
    winit = project_initial_w(mesh, kin, u0, v0, n_quad=3)
    assert np.allclose(winit.w, init.u / 2.0 + init.v, rtol=1e-14)


def test_step_w_constant_fixed_point():
    mesh = build_uniform_1d(1.0, 6)
    kin = dimer()
    prev = WState(w=np.full(6, 0.37), level=0, time=0.0)
    new, stats = step_w(mesh, kin, 100.0, prev)
    assert np.allclose(new.w, 0.37, rtol=1e-13)
    assert new.level == 1 and new.time == pytest.approx(100.0)


def test_step_w_conserves_mass():
    mesh = build_uniform_1d(0.1, 15)
    kin = dimer()
    rng = np.random.default_rng(13)
    prev = WState(w=rng.uniform(0.01, 1.0, 15), level=0, time=0.0)
    mass = float(np.sum(mesh.volumes * prev.w))
    new, _ = step_w(mesh, kin, 1e4, prev)
    assert float(np.sum(mesh.volumes * new.w)) == pytest.approx(mass, rel=1e-12)


def test_step_w_maximum_principle():
    mesh = build_uniform_1d(0.1, 15)
    kin = dimer()
    rng = np.random.default_rng(29)
    state = WState(w=rng.uniform(0.01, 1.0, 15), level=0, time=0.0)
    lo, hi = float(np.min(state.w)), float(np.max(state.w))
    slack = 10 * SolverConfig().newton_tol
    for _ in range(6):
        state, _ = step_w(mesh, kin, 1e5, state)
        assert float(np.min(state.w)) >= lo - slack
        assert float(np.max(state.w)) <= hi + slack
        lo, hi = float(np.min(state.w)), float(np.max(state.w))


def test_linear_flux_matches_heat_equation_solver():
    # symmetric identity rates with equal diffusivities make the flux
    # potential exactly a * w, so the w march must agree with the coupled
    # solver run at k = 0 on the same heat equation
    a = 1e-3
    kin_lin = power_law_kinetics(1.0, 1.0, 1.0, 1.0, alpha=1.0, beta=1.0,
                                 diff_u=a, diff_v=a)
    kin_off = power_law_kinetics(1.0, 1.0, 1.0, 1.0, alpha=1.0, beta=1.0,
                                 diff_u=a, diff_v=a, rate_factor=0.0)
    mesh = build_uniform_1d(1.0, 24)
    grid = build_time_grid_uniform(20.0, 40)
    u0 = lambda x: 0.5 + 0.3 * np.cos(np.pi * x)
    zero = lambda x: 0.0 * x
    wtraj = integrate_w(mesh, kin_lin,
                        grid, project_initial_w(mesh, kin_lin, u0, zero))
    traj = integrate(mesh, kin_off, grid, project_initial(mesh, u0, zero))
    for ws, s in zip(wtraj.states, traj.states):
        assert np.max(np.abs(ws.w - s.u)) < 1e-12


def test_integrate_w_steady_state_long_time():
    # pure nonlinear diffusion flattens to the mass-preserving constant
    mesh = build_uniform_1d(0.1, 20)
    kin = dimer()
    grid = build_time_grid_uniform(1e10, 50)
    winit = project_initial_w(mesh, kin,
                              lambda x: 0.4 * (x < 0.05), lambda x: 0.1 + 0 * x)
    traj = integrate_w(mesh, kin, grid, winit)
    mean = float(np.sum(mesh.volumes * winit.w) / np.sum(mesh.volumes))
    assert np.max(np.abs(traj.final.w - mean)) < 1e-9
    levels, times, w = traj.arrays()
    assert w.shape == (51, 20)


def test_integrate_w_records_requested_levels():
    mesh = build_uniform_1d(0.1, 6)
    kin = dimer()
    grid = build_time_grid_uniform(100.0, 4)
    winit = project_initial_w(mesh, kin, lambda x: 0.2 + 0 * x,
                              lambda x: 0.1 + 0 * x)
    traj = integrate_w(mesh, kin, grid, winit, output_levels=[1])
    assert [s.level for s in traj.states] == [1, 4]


def test_integrate_w_rejects_negative_initial():
    mesh = build_uniform_1d(0.1, 4)
    kin = dimer()
    grid = build_time_grid_uniform(1.0, 2)
    bad = WState(w=np.array([0.1, -0.2, 0.1, 0.1]), level=0, time=0.0)
    with pytest.raises(ValueError):
        integrate_w(mesh, kin, grid, bad)


def test_step_w_reports_nonconvergence():
    # one Newton iteration cannot finish a 1e9 s step (residual ~57); the
    # step makes one attempt, from the previous state, and names it
    mesh = build_uniform_1d(0.1, 8)
    kin = dimer()
    rng = np.random.default_rng(3)
    prev = WState(w=rng.uniform(0.01, 1.0, 8), level=0, time=0.0)
    cfg = SolverConfig(newton_max_iter=1)
    with pytest.raises(NonConvergenceError) as info:
        step_w(mesh, kin, 1e9, prev, cfg)
    msg = str(info.value)
    for part in ("limit step to level 1", "t = 1000000000.0",
                 "dt = 1000000000.0", "k = 1.0",
                 "tried previous-state (residual"):
        assert part in msg
    assert msg.count("(residual ") == 1
    assert info.value.iterations == 1
    assert info.value.residual > 1.0
    assert info.value.residual == float(
        msg.rsplit("previous-state (residual ", 1)[1].split()[0])


def test_write_w_csv(tmp_path):
    mesh = build_uniform_1d(0.1, 3)
    kin = dimer()
    grid = build_time_grid_uniform(10.0, 2)
    winit = project_initial_w(mesh, kin, lambda x: 0.2 + 0 * x,
                              lambda x: 0.1 + 0 * x)
    traj = integrate_w(mesh, kin, grid, winit)
    path = tmp_path / "w.csv"
    write_w_csv(mesh, traj, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "level,t,cell_id,x,w"
    assert len(lines) == 1 + 3 * 3
    assert float(lines[1].split(",")[4]) == pytest.approx(winit.w[0])


def test_step_w_inverts_once_per_residual(monkeypatch):
    # the correction at an iterate reuses the phi' its residual computed,
    # so a step inverts the equilibrium map once per residual evaluation
    mesh = build_uniform_1d(0.1, 16)
    kin = dimer()
    rng = np.random.default_rng(3)
    prev = WState(w=rng.uniform(0.05, 0.5, 16), level=0, time=0.0)
    inversions, residuals, solves = [], [], []
    u_from_w = Kinetics.u_from_w
    monkeypatch.setattr(Kinetics, "u_from_w",
                        lambda self, *a, **kw: inversions.append(1)
                        or u_from_w(self, *a, **kw))
    damped_newton = limit.damped_newton

    def counting_newton(z0, residual_fn, solve_fn, *args, **kwargs):
        return damped_newton(
            z0, lambda z: residuals.append(1) or residual_fn(z),
            lambda z, r: solves.append(1) or solve_fn(z, r), *args, **kwargs)

    monkeypatch.setattr(limit, "damped_newton", counting_newton)
    _, stats = step_w(mesh, kin, 1e3, prev)
    assert stats.fallback == "" and solves
    assert len(inversions) == len(residuals)


def _csv_writer_bytes(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


def test_trajectory_writers_match_csv_writer(tmp_path):
    # the writers format rows themselves; their bytes must equal those of
    # csv.writer on the same rows of repr'd floats, for awkward floats too
    mesh = build_uniform_1d(0.3, 5)
    a = np.array([-0.0, 5e-324, 1e300, 0.1 + 0.2, 3.0])
    b = np.array([2.0, 0.0, 1e-300, 7.0, 0.1 + 0.2])
    times = [0.0, 0.1 + 0.2, 1e12]
    traj = Trajectory(states=[State(u=np.roll(a, i), v=np.roll(b, i),
                                    level=i, time=t)
                              for i, t in enumerate(times)])
    wtraj = Trajectory(states=[WState(w=np.roll(a, i), level=i, time=t)
                               for i, t in enumerate(times)])
    x = mesh.x
    rows = [[s.level, repr(float(s.time)), k, repr(float(x[k])),
             repr(float(s.u[k])), repr(float(s.v[k]))]
            for s in traj.states for k in range(s.n_cells)]
    write_trajectory_csv(mesh, traj, tmp_path / "traj.csv")
    assert (tmp_path / "traj.csv").read_bytes() == _csv_writer_bytes(
        tmp_path / "ref.csv", ["level", "t", "cell_id", "x", "u", "v"], rows)
    rows = [[s.level, repr(float(s.time)), k, repr(float(x[k])),
             repr(float(s.w[k]))]
            for s in wtraj.states for k in range(s.n_cells)]
    write_w_csv(mesh, wtraj, tmp_path / "w.csv")
    assert (tmp_path / "w.csv").read_bytes() == _csv_writer_bytes(
        tmp_path / "ref.csv", ["level", "t", "cell_id", "x", "w"], rows)
