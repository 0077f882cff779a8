import csv
from types import SimpleNamespace

import numpy as np
import pytest

from fvreact import experiment
from fvreact._newton import damped_newton
from fvreact.diagnostics import DiagnosticsReport
from fvreact.errors import NonConvergenceError
from fvreact.experiment import ExperimentConfig, preset_config
from fvreact.kinetics import (Kinetics, dimerisation_kinetics,
                              power_law_kinetics)
from fvreact.mesh import (Mesh, build_time_grid_uniform, build_uniform_1d,
                          write_mesh_csv)
from fvreact.limit import (WState, integrate_w, project_initial_w, step_w,
                           write_w_csv)
from fvreact.scheme import (State, SolverConfig, StepStats, Trajectory,
                            _scaled_norm, integrate, project_initial,
                            write_stats_csv, write_trajectory_csv)

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
    history = [float(h)
               for h in msg.split("residual history: ")[1].split(", ")]
    assert len(history) == 2 and history[0] > history[1]
    assert history[1] == pytest.approx(info.value.residual, rel=1e-3)


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


def test_step_w_inverts_only_a_state_without_z(monkeypatch):
    # step_w iterates in the equilibrium unknown z: a state it returned
    # carries z and its next step inverts nothing, while a state built
    # from w alone costs exactly one inversion
    mesh = build_uniform_1d(0.1, 16)
    kin = dimer()
    rng = np.random.default_rng(3)
    prev = WState(w=rng.uniform(0.05, 0.5, 16), level=0, time=0.0)
    inversions = []
    u_from_w = Kinetics.u_from_w
    monkeypatch.setattr(Kinetics, "u_from_w",
                        lambda self, *a, **kw: inversions.append(1)
                        or u_from_w(self, *a, **kw))
    state, _ = step_w(mesh, kin, 1e3, prev)
    assert len(inversions) == 1 and state.z is not None
    state, stats = step_w(mesh, kin, 1e3, state)
    assert len(inversions) == 1 and stats.newton_iterations > 0


def _w_residual_step(mesh, kin, dt, w_prev):
    """Reference: the same step solved in w.  Its residual takes phi from
    the equilibrium (u, v) of each iterate, one ``u_from_w`` inversion per
    evaluation, so it shares no code with step_w's maps in z; the slope
    only steers Newton, and is kin.flux_potential_deriv.  Both are
    odd-extended."""
    from scipy.linalg import solve_banded

    m, t = mesh.volumes, mesh.transmissibilities

    def residual_fn(w):
        u = kin.u_from_w(np.abs(w))
        phi = (kin.diff_u / kin.alpha) * u \
            + (kin.diff_v / kin.beta) * kin.v_from_u(u)
        return m * (w - w_prev) + dt * mesh.apply_laplacian(np.sign(w) * phi)

    def solve_fn(w, r):
        fp = kin.flux_potential_deriv(np.abs(w))
        band = np.zeros((3, w.size))
        band[0, 1:] = -dt * t * fp[1:]
        band[1] = m + dt * mesh.deg * fp
        band[2, :-1] = -dt * t * fp[:-1]
        return solve_banded((1, 1), band, r)

    result = damped_newton(w_prev, residual_fn, solve_fn, _scaled_norm(m),
                           tol=SolverConfig().newton_tol, max_iter=40)
    assert result.converged
    return result.z


def _random_exponents(rng, case):
    if case == "p>q":
        q = rng.uniform(1.0, 3.0)
        return q + rng.uniform(0.2, 2.0), q
    if case == "p=q":
        p = rng.uniform(1.0, 3.0)
        return p, p
    if case == "p<q":
        return 1.0, rng.uniform(1.2, 4.0)
    p = rng.uniform(1.1, 2.0)  # q > p > 1
    return p, p + rng.uniform(0.3, 2.0)


@pytest.mark.parametrize("case", ["p>q", "p=q", "p<q", "q>p>1"])
def test_step_w_matches_a_w_residual_reference(case):
    # seeded random power laws, meshes, data and dt in [1e-8, 1e12] s: the
    # step in z agrees with the same step solved in w to 1e-11 of max w,
    # conserves mass and keeps the maximum principle; the q > p > 1 trials
    # start from data with zero cells
    rng = np.random.default_rng(["p>q", "p=q", "p<q", "q>p>1"].index(case))
    slack = 10 * SolverConfig().newton_tol
    for _ in range(10):
        p, q = _random_exponents(rng, case)
        c_a, c_b, d_u, d_v = 10.0 ** rng.uniform([-2, -2, -10, -10],
                                                 [2, 2, -8, -8])
        kin = power_law_kinetics(c_a, p, c_b, q, alpha=rng.uniform(0.5, 3),
                                 beta=rng.uniform(0.5, 3), diff_u=d_u,
                                 diff_v=d_v)
        n = int(rng.integers(1, 25))
        mesh = build_uniform_1d(0.1, n)
        w_prev = rng.uniform(0.0, 1.0, n)
        if case == "q>p>1":
            w_prev[rng.uniform(size=n) < 0.4] = 0.0
        dt = 10.0 ** rng.uniform(-8, 12)
        new, _ = step_w(mesh, kin, dt, WState(w=w_prev, level=0, time=0.0))
        w_max = float(np.max(w_prev))
        ref = _w_residual_step(mesh, kin, dt, w_prev)
        assert np.max(np.abs(new.w - ref)) <= 1e-11 * w_max, (p, q, dt)
        mass = float(np.sum(mesh.volumes * w_prev))
        assert abs(float(np.sum(mesh.volumes * new.w)) - mass) \
            <= 1e-12 * mesh.volumes.sum() * w_max, (p, q, dt)
        assert np.min(new.w) >= np.min(w_prev) - slack * max(1.0, w_max)
        assert np.max(new.w) <= w_max + slack * max(1.0, w_max)


@pytest.mark.parametrize("preset", ["dimerisation-tmax1",
                                    "dimerisation-tmax2"])
def test_step_w_from_z_matches_step_from_w_on_presets(preset):
    # along each preset's limit run, a step from the returned state (which
    # carries z) and a step from the same w alone agree to 1e-11 of max w
    cfg = ExperimentConfig.from_dict(preset_config(preset))
    mesh, kin = cfg.build_mesh(), cfg.build_kinetics()
    grid = cfg.build_limit_grid()
    u0, v0 = cfg.initial_profiles()
    traj = integrate_w(mesh, kin, grid, project_initial_w(mesh, kin, u0, v0),
                       cfg.solver)
    scale = float(np.max(traj.states[0].w))
    for state in traj.states[1:-1:40]:
        dt = float(grid.steps[state.level])
        with_z, _ = step_w(mesh, kin, dt, state, cfg.solver)
        bare = WState(w=state.w, level=state.level, time=state.time)
        from_w, _ = step_w(mesh, kin, dt, bare, cfg.solver)
        assert np.max(np.abs(with_z.w - from_w.w)) <= 1e-11 * scale, \
            state.level


def test_limit_mass_change_is_bounded_by_the_residual():
    # W(z) is nonlinear, so a limit step conserves mass only to its
    # converged residual: along the T = 1e11 s limit run, each step's
    # |sum m (w - w_prev)| = |sum r| is at most that step's reported scaled
    # residual times sum m max(1, |z|), plus rounding
    eps = np.finfo(float).eps
    cfg = ExperimentConfig.from_dict(preset_config("dimerisation-tmax2"))
    mesh, kin = cfg.build_mesh(), cfg.build_kinetics()
    u0, v0 = cfg.initial_profiles()
    traj = integrate_w(mesh, kin, cfg.build_limit_grid(),
                       project_initial_w(mesh, kin, u0, v0,
                                         cfg.quadrature_points), cfg.solver)
    m = mesh.volumes
    phi = kin.maps_in_z()[0]
    for prev, new, stats in zip(traj.states, traj.states[1:], traj.stats):
        change = abs(np.sum(m * (new.w - prev.w)))
        bound = stats.residual * np.sum(m * np.maximum(1.0, np.abs(new.z)))
        rounding = 4.0 * eps * np.sum(
            m * (np.abs(prev.w) + np.abs(new.w))
            + 2.0 * stats.dt * mesh.deg * np.abs(phi(new.z)[1]))
        assert change <= bound + rounding, stats.level
    mass = np.sum(m * traj.states[0].w)
    drift = max(abs(np.sum(m * s.w) - mass) for s in traj.states) / mass
    assert drift < 1e-10


def _csv_writer_bytes(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


def test_trajectory_writers_match_csv_writer(tmp_path, monkeypatch):
    # every CSV output goes through one row writer; its bytes must equal
    # those of csv.writer on the same rows of repr'd floats, for awkward
    # floats too
    a = np.array([-0.0, 5e-324, 1e300, 0.1 + 0.2, 3.0])
    b = np.array([2.0, 0.0, 1e-300, 7.0, 0.1 + 0.2])
    times = [0.0, 0.1 + 0.2, 1e12]
    mesh = Mesh(edges=[-1e300, -0.0, -0.0, 0.1, 0.2, 1e300],
                volumes=[5e-324, 1e300, 0.1 + 0.2, 3.0, 2.0],
                transmissibilities=np.ones(4))
    out = tmp_path / "out.csv"

    def check(path, header, rows):
        assert path.read_bytes() == _csv_writer_bytes(
            tmp_path / "ref.csv", header, rows), header

    traj = Trajectory(
        states=[State(u=np.roll(a, i), v=np.roll(b, i), level=i, time=t)
                for i, t in enumerate(times)],
        stats=[StepStats(level=i + 1, dt=dt, newton_iterations=i,
                         residual=r)
               for i, (dt, r) in enumerate(zip(a, b))])
    wtraj = Trajectory(states=[WState(w=np.roll(a, i), level=i, time=t)
                               for i, t in enumerate(times)])
    x = mesh.x
    write_trajectory_csv(mesh, traj, out)
    check(out, ["level", "t", "cell_id", "x", "u", "v"],
          [[s.level, repr(float(s.time)), k, repr(float(x[k])),
            repr(float(s.u[k])), repr(float(s.v[k]))]
           for s in traj.states for k in range(s.n_cells)])
    write_w_csv(mesh, wtraj, out)
    check(out, ["level", "t", "cell_id", "x", "w"],
          [[s.level, repr(float(s.time)), k, repr(float(x[k])),
            repr(float(s.w[k]))]
           for s in wtraj.states for k in range(s.n_cells)])
    write_stats_csv(traj, out)  # fallback is the empty string
    check(out, ["level", "dt", "newton_iterations", "residual", "fallback"],
          [[st.level, repr(float(st.dt)), st.newton_iterations,
            repr(float(st.residual)), st.fallback] for st in traj.stats])
    write_mesh_csv(mesh, out)
    check(out, ["cell_id", "x", "measure"],
          [[k, repr(float(x[k])), repr(float(mesh.volumes[k]))]
           for k in range(mesh.n_cells)])

    columns = [a, np.roll(a, 1), b, np.roll(b, 2), -a]
    rows = [[k, repr(float(times[k % 3] + k))]
            + [repr(float(c[k])) for c in columns] for k in range(5)]
    translates = [{"field": f, "kind": kind, "displacement": d, "value": v}
                  for f, kind, d, v in zip("uvwuv", ["space", "time"] * 3,
                                           a, b)]
    header = ["level", "t", "mass_w", "u_min", "u_max", "v_min", "v_max"]
    for entropy in (np.roll(b, 3), None):
        report = DiagnosticsReport(
            np.arange(5), np.array([r[1] for r in rows], dtype=float),
            *columns, entropy=entropy, gradient_energy_u=0.0,
            gradient_energy_v=0.0, reaction_defect=0.0,
            translates=translates)
        report.write_csv(out)
        if entropy is None:
            check(out, header, rows)
        else:
            check(out, header + ["entropy"],
                  [r + [repr(float(e))] for r, e in zip(rows, entropy)])
    report.write_translates_csv(out)
    check(out, ["field", "kind", "displacement", "value"],
          [[t["field"], t["kind"], repr(float(t["displacement"])),
            repr(float(t["value"]))] for t in translates])

    # the sweep summary, with the runs it tabulates stood in for
    def fake_run(sub, subdir, write_mesh=False, echo=None):
        k = sub.spec["kinetics"]["k"]
        return SimpleNamespace(
            gradient_energy_u=-k, gradient_energy_v=5e-324,
            reaction_defect=1e300,
            compare={"J_u": 0.1 + 0.2, "J_v": k, "final_time": 1.0})

    monkeypatch.setattr(experiment, "run", fake_run)
    raw = preset_config("dimerisation-sweep")
    raw["sweep"] = [0.1 + 0.2, -0.0, 1e300, 5e-324]
    experiment.sweep(ExperimentConfig.from_dict(raw), tmp_path, echo=None)
    check(tmp_path / "sweep_summary.csv",
          ["k", "J_u", "J_v", "E_u", "E_v", "R"],
          [[repr(k), repr(0.1 + 0.2), repr(k), repr(-k), repr(5e-324),
            repr(1e300)] for k in sorted(raw["sweep"])])
