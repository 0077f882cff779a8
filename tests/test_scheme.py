import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fvreact import limit, scheme
from fvreact.errors import ConsistencyError, NonConvergenceError
from fvreact.kinetics import (Kinetics, dimerisation_kinetics,
                              power_law_kinetics)
from fvreact.mesh import (build_time_grid_uniform, build_uniform_1d)
from fvreact.scheme import (SolverConfig, State, integrate,
                            ode_upper_solution, project_initial, residual,
                            step, write_stats_csv, write_trajectory_csv)

K1 = 1.072e-4
K2 = 2.363e-6
DIFF_U = 1.579e-9
DIFF_V = 1.042e-9


def dimer(k=1.0):
    return dimerisation_kinetics(K1, K2, DIFF_U, DIFF_V, rate_factor=k)


def linear_kin(k=1.0, a=0.0, b=0.0):
    # identity rates, unit stoichiometry; a=b=0 needs a positivity floor
    return power_law_kinetics(1.0, 1.0, 1.0, 1.0, alpha=1.0, beta=1.0,
                              diff_u=max(a, 1e-300), diff_v=max(b, 1e-300),
                              rate_factor=k)


# -- initial data projection -------------------------------------------------

def test_project_constant():
    mesh = build_uniform_1d(1.0, 8)
    init = project_initial(mesh, lambda x: 0.3 + 0 * x, lambda x: 0.7 + 0 * x)
    assert np.allclose(init.u, 0.3)
    assert np.allclose(init.v, 0.7)
    assert init.level == 0
    assert init.time == 0.0


def test_project_linear_profile_midpoint_exact():
    # midpoint rule integrates affine profiles exactly
    mesh = build_uniform_1d(2.0, 5)
    init = project_initial(mesh, lambda x: x, lambda x: 2 - 0.5 * x)
    assert np.allclose(init.u, mesh.x)
    assert np.allclose(init.v, 2 - 0.5 * mesh.x)


def test_project_quadrature_refines_curved_profile():
    mesh = build_uniform_1d(1.0, 4)
    f = lambda x: x ** 2
    exact = np.diff(mesh.edges ** 3) / 3 / mesh.volumes  # true cell averages
    mid = project_initial(mesh, f, f, n_quad=1).u
    quad = project_initial(mesh, f, f, n_quad=3).u
    assert np.max(np.abs(quad - exact)) < 1e-14
    assert np.max(np.abs(mid - exact)) > 1e-4


def test_project_rejects_negative_data():
    mesh = build_uniform_1d(1.0, 4)
    with pytest.raises(ValueError):
        project_initial(mesh, lambda x: x - 0.5, lambda x: 0 * x)


# -- residual oracles ---------------------------------------------------------

def test_residual_zero_at_equilibrium_constant():
    # constant chemically balanced state: every term vanishes
    mesh = build_uniform_1d(1.0, 6)
    kin = dimer()
    u = 0.2
    v = float(kin.v_from_u(u))
    state = State(u=np.full(6, u), v=np.full(6, v), level=0, time=0.0)
    res_u, res_v = residual(mesh, kin, dt=3.0, prev=state, guess=state)
    assert np.max(np.abs(res_u)) < 1e-18
    assert np.max(np.abs(res_v)) < 1e-18


def test_residual_single_cell_reaction_only():
    # one cell, k=0: residual is pure mass difference m (z - z_prev)
    mesh = build_uniform_1d(2.0, 1)
    kin = dimer(k=0.0)
    prev = State(u=np.array([0.3]), v=np.array([0.1]), level=0, time=0.0)
    guess = State(u=np.array([0.5]), v=np.array([0.4]), level=1, time=1.0)
    res_u, res_v = residual(mesh, kin, dt=1.0, prev=prev, guess=guess)
    assert res_u[0] == pytest.approx(2.0 * 0.2)
    assert res_v[0] == pytest.approx(2.0 * 0.3)


def test_residual_two_cell_diffusion_oracle():
    # two cells of measure 1/2, T = 2, dt = 1, diff_u = 1, no reaction,
    # u = (0, 1) = prev: residual is dt * T * (u_K - u_L) = (-2, +2)... scaled
    mesh = build_uniform_1d(1.0, 2)
    kin = power_law_kinetics(1.0, 1.0, 1.0, 1.0, alpha=1.0, beta=1.0,
                             diff_u=1.0, diff_v=2.0, rate_factor=0.0)
    state = State(u=np.array([0.0, 1.0]), v=np.array([1.0, 1.0]),
                  level=0, time=0.0)
    res_u, res_v = residual(mesh, kin, dt=1.0, prev=state, guess=state)
    t = mesh.transmissibilities[0]
    assert res_u[0] == pytest.approx(-t * 1.0)
    assert res_u[1] == pytest.approx(+t * 1.0)
    assert np.allclose(res_v, 0.0)


# -- single step ---------------------------------------------------------------

def test_step_equilibrium_fixed_point():
    mesh = build_uniform_1d(1.0, 6)
    kin = dimer()
    u = 0.2
    v = float(kin.v_from_u(u))
    prev = State(u=np.full(6, u), v=np.full(6, v), level=0, time=0.0)
    new, stats = step(mesh, kin, dt=10.0, prev=prev)
    assert np.allclose(new.u, u, rtol=1e-12)
    assert np.allclose(new.v, v, rtol=1e-12)
    assert new.level == 1
    assert new.time == pytest.approx(10.0)


def test_step_linear_kinetics_closed_form():
    # identity rates, alpha=beta=1, no diffusion, dt=1, k=1, start (1, 0):
    # backward Euler solves u - 1 + (u - v) = 0, v - 0 - (u - v) = 0
    # whose solution is u = 2/3, v = 1/3
    mesh = build_uniform_1d(1.0, 1)
    kin = linear_kin()
    prev = State(u=np.array([1.0]), v=np.array([0.0]), level=0, time=0.0)
    new, stats = step(mesh, kin, dt=1.0, prev=prev)
    assert new.u[0] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert new.v[0] == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_step_conserves_weighted_mass():
    mesh = build_uniform_1d(0.1, 17)
    kin = dimer()
    rng = np.random.default_rng(7)
    prev = State(u=rng.uniform(0, 0.5, 17), v=rng.uniform(0, 0.25, 17),
                 level=0, time=0.0)
    mass = np.sum(mesh.volumes * (prev.u / 2.0 + prev.v / 1.0))
    new, _ = step(mesh, kin, dt=50.0, prev=prev)
    mass_new = np.sum(mesh.volumes * (new.u / 2.0 + new.v / 1.0))
    assert mass_new == pytest.approx(mass, rel=1e-12)


def _fd_jacobian(fn, z, rel=1e-6):
    """Central-difference Jacobian of fn at z, one column per unknown."""
    cols = []
    for j in range(z.size):
        h = rel * max(1.0, abs(z[j]))
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        cols.append((fn(zp) - fn(zm)) / (2.0 * h))
    return np.column_stack(cols)


@pytest.mark.parametrize("k", [0.0, 1.0, 1e3])
@pytest.mark.parametrize("n_cells", [1, 2, 12])
def test_banded_correction_matches_fd_jacobian(n_cells, k):
    # the banded Newton correction of the coupled step and of step_w equals
    # a dense solve with a finite-difference Jacobian of the step residual
    mesh = build_uniform_1d(0.1, n_cells)
    kin = dimer(k=k)
    dt = 1e3
    rng = np.random.default_rng(n_cells)
    prev = State(u=rng.uniform(0.05, 0.5, n_cells),
                 v=rng.uniform(0.05, 0.25, n_cells), level=0, time=0.0)
    z = np.concatenate([rng.uniform(0.05, 0.5, n_cells),
                        rng.uniform(0.05, 0.25, n_cells)])
    r = rng.uniform(-1.0, 1.0, 2 * n_cells)

    def coupled(z):
        guess = State(u=z[:n_cells], v=z[n_cells:], level=1, time=dt)
        return np.concatenate(residual(mesh, kin, dt, prev, guess))

    delta = scheme._make_solve_fn(mesh, kin, dt)(z, r)
    expect = np.linalg.solve(_fd_jacobian(coupled, z), r)
    assert np.allclose(delta, expect, rtol=1e-6,
                       atol=1e-9 * np.max(np.abs(expect)))

    w_prev = prev.u / kin.alpha + prev.v / kin.beta
    w = z[:n_cells] / kin.alpha + z[n_cells:] / kin.beta
    def limit_residual(w):
        return (mesh.volumes * (w - w_prev)
                + dt * mesh.apply_laplacian(kin.flux_potential(w)))

    delta_w = limit._make_solve_fn_w(mesh, kin, dt)(w, r[:n_cells])
    expect_w = np.linalg.solve(_fd_jacobian(limit_residual, w), r[:n_cells])
    assert np.allclose(delta_w, expect_w, rtol=1e-6,
                       atol=1e-9 * np.max(np.abs(expect_w)))


@pytest.mark.parametrize("k", [0.0, 1.0, 1e3, 1e9])
@pytest.mark.parametrize("n_cells", [1, 2, 3, 16, 50])
def test_lapack_corrections_equal_solve_banded(n_cells, k):
    # both corrections call LAPACK directly; on the same band they must
    # equal scipy.linalg.solve_banded bit for bit and leave r untouched
    from scipy.linalg import solve_banded

    mesh = build_uniform_1d(0.1, n_cells)
    kin = dimer(k=k)
    n = n_cells
    m, t, deg = mesh.volumes, mesh.transmissibilities, mesh.deg
    a, b, ah, bh = kin.diff_u, kin.diff_v, kin.alpha_hat, kin.beta_hat
    rng = np.random.default_rng([n_cells, 7])
    z = np.concatenate([rng.uniform(0.05, 0.5, n), rng.uniform(0.05, 0.25, n)])
    r = rng.uniform(-1.0, 1.0, 2 * n)
    r_before = r.copy()
    rup, rvp = kin.rate_u.deriv(z[:n]), kin.rate_v.deriv(z[n:])
    w = z[:n] / kin.alpha + z[n:] / kin.beta
    phip = kin.flux_potential_deriv(w)
    iu, iv = np.arange(0, 2 * n, 2), np.arange(1, 2 * n, 2)
    for dt in (1.0, 1e3, 1e6):
        ab = np.zeros((5, 2 * n))
        ab[2, iu] = m + dt * a * deg + dt * m * ah * rup
        ab[2, iv] = m + dt * b * deg + dt * m * bh * rvp
        ab[1, iv] = -dt * m * ah * rvp
        ab[3, iu] = -dt * m * bh * rup
        ab[0, iu[1:]] = -dt * a * t
        ab[0, iv[1:]] = -dt * b * t
        ab[4, iu[:-1]] = -dt * a * t
        ab[4, iv[:-1]] = -dt * b * t
        x = solve_banded((2, 2), ab, np.ravel([r[:n], r[n:]], order="F"))
        delta = scheme._make_solve_fn(mesh, kin, dt)(z, r)
        assert np.array_equal(delta, np.concatenate([x[iu], x[iv]]))

        ab_w = np.zeros((3, n))
        ab_w[1] = m + dt * deg * phip
        ab_w[0, 1:] = -dt * t * phip[1:]
        ab_w[2, :-1] = -dt * t * phip[:-1]
        delta_w = limit._make_solve_fn_w(mesh, kin, dt)(w, r[:n])
        assert np.array_equal(delta_w, solve_banded((1, 1), ab_w, r[:n]))
        assert np.array_equal(r, r_before)


def test_singular_band_fails_the_step(monkeypatch):
    # one cell, alpha_hat = 1, dt = 1/2, r_u' = -2, r_v' = 0: the u-row of
    # the Jacobian is exactly zero
    from scipy.linalg import solve_banded

    mesh = build_uniform_1d(1.0, 1)
    kin = linear_kin(k=1.0)
    monkeypatch.setattr(scheme, "_rate_deriv_ext", lambda law, s: np.full(
        s.shape, -2.0 if law is kin.rate_u else 0.0))
    z, r = np.array([0.3, 0.1]), np.array([1.0, 1.0])
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        scheme._make_solve_fn(mesh, kin, 0.5)(z, r)
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        solve_banded((2, 2), [[0, 0], [0, 0], [0, 1], [1, 0], [0, 0]], r)
    prev = State(u=[0.3], v=[0.1], level=0, time=0.0)
    with pytest.raises(NonConvergenceError, match="after 0 iterations"):
        step(mesh, kin, 0.5, prev)

    # two cells, dt = 1/4, phi' = (0, -1): the second row is exactly zero
    mesh = build_uniform_1d(1.0, 2)
    w, phip = np.array([0.2, 0.4]), np.array([0.0, -1.0])
    solve_w = limit._make_solve_fn_w(mesh, kin, 0.25, {"w": w, "phip": phip})
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        solve_w(w, r)


def test_non_finite_band_raises_solve_banded_error(monkeypatch):
    from scipy.linalg import solve_banded

    with pytest.raises(ValueError) as banded:
        solve_banded((2, 2), np.full((5, 4), np.nan), np.ones(4))
    mesh = build_uniform_1d(0.1, 2)
    kin = dimer()
    z = np.array([0.1, 0.2, 0.1, 0.1])
    for bad in (np.nan, np.inf):
        # r_u' = 2 kf u is non-finite with u; r_v' is constant
        with pytest.raises(ValueError) as ours:
            scheme._make_solve_fn(mesh, kin, 1e3)(
                np.array([0.1, bad, 0.1, 0.1]), np.ones(4))
        assert str(ours.value) == str(banded.value)
        with pytest.raises(ValueError) as ours:
            scheme._make_solve_fn(mesh, kin, 1e3)(
                z, np.array([0.1, 0.2, bad, 0.1]))
        assert str(ours.value) == str(banded.value)
    for n_cells in (1, 2):
        w = np.full(n_cells, 0.2)
        with pytest.raises(ValueError) as ours:
            limit._make_solve_fn_w(build_uniform_1d(0.1, n_cells), kin, 1e3)(
                w, np.full(n_cells, np.nan))
        assert str(ours.value) == str(banded.value)
    monkeypatch.setattr(scheme, "_rate_deriv_ext",
                        lambda law, s: np.full(s.shape, np.nan))
    prev = State(u=[0.3, 0.2], v=[0.1, 0.1], level=0, time=0.0)
    with pytest.raises(ValueError) as ours:
        step(mesh, kin, 1e3, prev)
    assert str(ours.value) == str(banded.value)


def test_newton_result_counts_its_callbacks(monkeypatch):
    # residual_evals and linear_solves equal the calls of the residual and
    # solve callbacks, on a converging coupled step, a limit step and a
    # limit step that stops at the rounding floor
    results = []
    damped_newton = scheme.damped_newton

    def counting_newton(z0, residual_fn, solve_fn, *args, **kwargs):
        calls = {"residual": 0, "solve": 0}

        def counted_residual(z):
            calls["residual"] += 1
            return residual_fn(z)

        def counted_solve(z, r):
            calls["solve"] += 1
            return solve_fn(z, r)

        result = damped_newton(z0, counted_residual, counted_solve,
                               *args, **kwargs)
        results.append((result, calls))
        return result

    monkeypatch.setattr(scheme, "damped_newton", counting_newton)
    monkeypatch.setattr(limit, "damped_newton", counting_newton)
    mesh = build_uniform_1d(0.1, 16)
    kin = dimer(k=1e3)
    rng = np.random.default_rng(2)
    prev = State(u=rng.uniform(0.05, 0.5, 16), v=rng.uniform(0.05, 0.25, 16),
                 level=0, time=0.0)
    step(mesh, kin, 1e3, prev)
    wprev = limit.WState(w=prev.u / kin.alpha + prev.v / kin.beta, level=0,
                         time=0.0)
    limit.step_w(mesh, kin, 1e3, wprev)
    limit.step_w(mesh, kin, 1e10, wprev)
    assert len(results) == 3
    for result, calls in results:
        assert result.converged
        assert result.residual_evals == calls["residual"]
        assert result.linear_solves == calls["solve"]
        assert result.residual_evals > result.linear_solves >= \
            result.iterations > 0
    assert [r.residual > SolverConfig().newton_tol
            for r, _ in results] == [False, False, True]


def test_import_does_not_load_scipy():
    # the LAPACK routines and the Laplacian are looked up on first use, so
    # importing the package stays cheap
    import fvreact

    env = {**os.environ,
           "PYTHONPATH": str(Path(fvreact.__file__).resolve().parents[1])}
    code = ("import sys, fvreact; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_steps_do_not_load_scipy_sparse():
    # both steps reach scipy only for LAPACK's banded solvers; the
    # diffusion operator is Mesh.apply_laplacian, not a sparse matrix.
    # Older scipy releases load scipy.sparse from scipy.linalg itself, so
    # the steps may load no scipy.sparse module beyond what a bare
    # `import scipy.linalg` does.
    import fvreact

    env = {**os.environ,
           "PYTHONPATH": str(Path(fvreact.__file__).resolve().parents[1])}

    def scipy_modules_after(code):
        code += ("\nimport json, sys\n"
                 "print(json.dumps([m for m in sys.modules"
                 " if m.startswith('scipy.')]))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             check=True, capture_output=True, text=True)
        return set(json.loads(out.stdout))

    loaded = scipy_modules_after(
        "from fvreact import (State, WState, build_uniform_1d,\n"
        "                     dimerisation_kinetics, limit, scheme)\n"
        "mesh = build_uniform_1d(0.1, 8)\n"
        "kin = dimerisation_kinetics(1.072e-4, 2.363e-6, 1.579e-9, 1.042e-9)\n"
        "u = [0.1 * (i % 3) for i in range(8)]\n"
        "scheme.step(mesh, kin, 1e3, State(u=u, v=u, level=0, time=0.0))\n"
        "limit.step_w(mesh, kin, 1e3, WState(w=u, level=0, time=0.0))")
    baseline = scipy_modules_after("import scipy.linalg")
    assert any(m.startswith("scipy.linalg") for m in loaded)
    assert not [m for m in loaded - baseline if m.startswith("scipy.sparse")]


def test_step_reports_nonconvergence():
    mesh = build_uniform_1d(0.1, 8)
    kin = dimer()
    rng = np.random.default_rng(11)
    prev = State(u=rng.uniform(0, 0.5, 8), v=rng.uniform(0, 0.25, 8),
                 level=0, time=0.0)
    # two iterations cannot finish a 1e4 s step: the one attempt fails
    cfg = SolverConfig(newton_tol=1e-30, newton_max_iter=2)
    prev = State(u=prev.u, v=prev.v, level=7, time=3.0)
    with pytest.raises(NonConvergenceError) as info:
        step(mesh, kin, 1e4, prev, cfg)
    msg = str(info.value)
    for part in ("level 8", "t = 10003.0", "dt = 10000.0", "k = 1.0",
                 "tried previous-state (residual"):
        assert part in msg
    assert msg.count("(residual ") == 1
    assert "equilibrium-guess" not in msg and "splitting" not in msg
    assert info.value.residual == pytest.approx(
        float(msg.rsplit("(residual ", 1)[1].split()[0]))
    assert info.value.residual > 0 and info.value.iterations > 0


def test_linear_step_converges_at_the_rounding_floor():
    # k = 0 on 50 cells from rough data with dt = 2.6e7 s: double precision
    # cannot bring the scaled residual to newton_tol, so a step stops once
    # its Newton correction is at working precision, inside the envelope
    # and with each species' mass kept
    mesh = build_uniform_1d(0.1, 50)
    kin = dimer(k=0.0)
    tol = SolverConfig().newton_tol
    floor_steps = 0
    for seed in (9, 10, 15, 45):
        rng = np.random.default_rng(seed)
        prev = State(u=rng.uniform(0.0, 0.5, 50), v=rng.uniform(0.0, 0.25, 50),
                     level=0, time=0.0)
        new, stats = step(mesh, kin, 2.6e7, prev)
        scheme._check_step_bounds(kin, prev, new.u, new.v, tol)
        for a, b in ((prev.u, new.u), (prev.v, new.v)):
            assert np.sum(mesh.volumes * b) == pytest.approx(
                np.sum(mesh.volumes * a), rel=1e-13)
        floor_steps += stats.residual > tol
    assert floor_steps > 0


def test_step_never_inverts_the_equilibrium_map(monkeypatch):
    # the coupled step is one Newton attempt from the previous state: even
    # a failing k > 0 step pays for no u_from_w inversion
    mesh = build_uniform_1d(0.1, 8)
    kin = dimer()
    rng = np.random.default_rng(5)
    prev = State(u=rng.uniform(0, 0.5, 8), v=rng.uniform(0, 0.25, 8),
                 level=0, time=0.0)
    calls = []
    u_from_w = Kinetics.u_from_w
    monkeypatch.setattr(Kinetics, "u_from_w",
                        lambda self, *a, **kw: calls.append(1)
                        or u_from_w(self, *a, **kw))
    assert kin.rate_factor > 0
    with pytest.raises(NonConvergenceError):
        step(mesh, kin, 10.0, prev,
             SolverConfig(newton_tol=1e-30, newton_max_iter=2))
    _, stats = step(mesh, kin, 10.0, prev)
    assert stats.fallback == ""
    assert calls == []


# -- integration ---------------------------------------------------------------

def test_integrate_records_all_levels():
    mesh = build_uniform_1d(0.1, 10)
    kin = dimer()
    grid = build_time_grid_uniform(100.0, 5)
    init = project_initial(mesh, lambda x: 0.2 + 0 * x, lambda x: 0.1 + 0 * x)
    traj = integrate(mesh, kin, grid, init)
    assert [s.level for s in traj.states] == list(range(6))
    assert traj.final.time == pytest.approx(100.0)
    levels, times, u, v = traj.arrays()
    assert u.shape == (6, 10)
    assert np.allclose(times, grid.levels)


def test_integrate_subset_output_keeps_final():
    mesh = build_uniform_1d(0.1, 6)
    kin = dimer()
    grid = build_time_grid_uniform(10.0, 4)
    init = project_initial(mesh, lambda x: 0.2 + 0 * x, lambda x: 0.1 + 0 * x)
    traj = integrate(mesh, kin, grid, init, output_levels=[0, 2])
    assert [s.level for s in traj.states] == [0, 2, 4]


def test_integrate_k_zero_decouples_into_heat_equations():
    # without reaction each species relaxes toward its own mean
    mesh = build_uniform_1d(0.1, 20)
    kin = dimer(k=0.0)
    grid = build_time_grid_uniform(5e6, 60)
    init = project_initial(mesh, lambda x: 0.2 + 0.1 * np.cos(np.pi * x / 0.1),
                           lambda x: 0.1 + 0 * x)
    traj = integrate(mesh, kin, grid, init)
    final = traj.final
    mean_u = np.sum(mesh.volumes * init.u) / np.sum(mesh.volumes)
    assert np.max(np.abs(final.u - mean_u)) < 1e-3
    assert np.allclose(final.v, 0.1, rtol=1e-12)  # untouched by anything


def test_integrate_requires_initial_at_level_zero():
    mesh = build_uniform_1d(0.1, 4)
    kin = dimer()
    grid = build_time_grid_uniform(1.0, 2)
    bad = State(u=np.full(4, 0.1), v=np.full(4, 0.1), level=3, time=0.5)
    with pytest.raises(ValueError):
        integrate(mesh, kin, grid, bad)


def test_integrate_rejects_unknown_output_level():
    mesh = build_uniform_1d(0.1, 4)
    kin = dimer()
    grid = build_time_grid_uniform(1.0, 2)
    init = project_initial(mesh, lambda x: 0.1 + 0 * x, lambda x: 0.1 + 0 * x)
    with pytest.raises(ValueError):
        integrate(mesh, kin, grid, init, output_levels=[5])


# -- structure preservation (randomized) ----------------------------------------

def _random_pair(rng, n, dominate=True):
    u1 = rng.uniform(0.0, 0.5, n)
    v1 = rng.uniform(0.0, 0.25, n)
    if dominate:
        u2 = u1 + rng.uniform(0.0, 0.3, n)
        v2 = v1 + rng.uniform(0.0, 0.2, n)
    else:
        u2 = rng.uniform(0.0, 0.5, n)
        v2 = rng.uniform(0.0, 0.25, n)
    return (State(u=u1, v=v1, level=0, time=0.0),
            State(u=u2, v=v2, level=0, time=0.0))


@pytest.mark.parametrize("k", [0.0, 1.0, 1e3])
def test_comparison_principle_random_trials(k):
    rng = np.random.default_rng(2024)
    mesh = build_uniform_1d(0.1, 16)
    kin = dimer(k=k)
    slack = 10 * SolverConfig().newton_tol
    for _ in range(10):
        lo_state, hi_state = _random_pair(rng, 16, dominate=True)
        dt = 10 ** rng.uniform(0, 3)
        for _ in range(5):
            lo_state, _ = step(mesh, kin, dt, lo_state)
            hi_state, _ = step(mesh, kin, dt, hi_state)
            assert np.all(lo_state.u <= hi_state.u + slack)
            assert np.all(lo_state.v <= hi_state.v + slack)


@pytest.mark.parametrize("k", [0.0, 1.0, 1e3])
def test_l1_contraction_random_trials(k):
    from fvreact.diagnostics import l1_distance
    rng = np.random.default_rng(99)
    mesh = build_uniform_1d(0.1, 16)
    kin = dimer(k=k)
    slack = 10 * SolverConfig().newton_tol
    for _ in range(10):
        s1, s2 = _random_pair(rng, 16, dominate=False)
        dist = l1_distance(mesh, kin, s1, s2)
        dt = 10 ** rng.uniform(0, 3)
        for _ in range(5):
            s1, _ = step(mesh, kin, dt, s1)
            s2, _ = step(mesh, kin, dt, s2)
            new_dist = l1_distance(mesh, kin, s1, s2)
            assert new_dist <= dist + slack
            dist = new_dist


@pytest.mark.parametrize("k", [0.0, 1.0, 1e3])
def test_sup_norm_envelope_random_trials(k):
    rng = np.random.default_rng(5)
    mesh = build_uniform_1d(0.1, 16)
    kin = dimer(k=k)
    slack = 10 * SolverConfig().newton_tol
    for _ in range(10):
        state, _ = _random_pair(rng, 16)
        cap_u = np.max(state.u) + (2.0 / 1.0) * np.max(state.v)
        cap_v = np.max(state.v) + (1.0 / 2.0) * np.max(state.u)
        dt = 10 ** rng.uniform(0, 3)
        for _ in range(8):
            state, _ = step(mesh, kin, dt, state)
            assert np.all(state.u >= -slack)
            assert np.all(state.v >= -slack)
            assert np.all(state.u <= cap_u + slack)
            assert np.all(state.v <= cap_v + slack)


def _rate_energy(mesh, kin, state):
    # sum_K m_K (Phi_u(u_K)/alpha + Phi_v(v_K)/beta), Phi = int_0^s r
    phi_u = kin.k_forward * state.u ** 3 / 3.0
    phi_v = kin.k_backward * state.v ** 2 / 2.0
    return float(np.sum(mesh.volumes * (phi_u / kin.alpha + phi_v / kin.beta)))


@pytest.mark.parametrize("k", [0.0, 1.0, 1e3])
def test_energy_inequality_per_step_random_trials(k):
    # F(n+1) + dt (D_n + R_n) <= F(n): the step's rows tested against
    # r_u(u^{n+1})/alpha and r_v(v^{n+1})/beta, with D_n the diffusion
    # dissipation and R_n the reaction defect of the new state
    rng = np.random.default_rng(31)
    mesh = build_uniform_1d(0.1, 16)
    kin = dimer(k=k)
    ka = np.arange(mesh.n_faces)   # face i joins cells i and i + 1
    lb = ka + 1
    t = mesh.transmissibilities
    slack = 10 * SolverConfig().newton_tol
    for _ in range(10):
        state, _ = _random_pair(rng, 16)
        dt = 10 ** rng.uniform(0, 3)
        for _ in range(5):
            new, _ = step(mesh, kin, dt, state)
            ru = kin.rate_u.value(np.maximum(new.u, 0.0))
            rv = kin.rate_v.value(np.maximum(new.v, 0.0))
            diss = np.sum(t * (kin.diff_u / kin.alpha
                               * (new.u[lb] - new.u[ka]) * (ru[lb] - ru[ka])
                               + kin.diff_v / kin.beta
                               * (new.v[lb] - new.v[ka]) * (rv[lb] - rv[ka])))
            defect = k * np.sum(mesh.volumes * (ru - rv) ** 2)
            before = _rate_energy(mesh, kin, state)
            after = _rate_energy(mesh, kin, new)
            assert after + dt * (diss + defect) <= before * (1 + slack)
            state = new


# -- space-homogeneous companion ------------------------------------------------

def test_ode_upper_solution_conserves_and_equilibrates():
    kin = dimer()
    grid = build_time_grid_uniform(1e6, 400)
    ubar, vbar = ode_upper_solution(kin, grid, 0.5, 0.25)
    assert ubar.shape == (401,)
    assert ubar[0] == 0.5 and vbar[0] == 0.25
    # invariant of the reaction ODE
    w = ubar / 2.0 + vbar
    assert np.allclose(w, w[0], rtol=1e-12)
    # long-time limit is the chemical equilibrium on that invariant
    u_inf = float(kin.u_from_w(w[0]))
    assert ubar[-1] == pytest.approx(u_inf, rel=1e-6)
    assert np.all(np.diff(ubar) <= 1e-15)  # decay from above


def test_ode_upper_solution_linear_oracle():
    kin = linear_kin()
    grid = build_time_grid_uniform(1.0, 1)
    ubar, vbar = ode_upper_solution(kin, grid, 1.0, 0.0)
    assert ubar[-1] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert vbar[-1] == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_ode_upper_dominates_pde_cells():
    # space-homogeneous data with the initial maxima bounds every cell
    mesh = build_uniform_1d(0.1, 12)
    kin = dimer()
    rng = np.random.default_rng(21)
    init = State(u=rng.uniform(0, 0.5, 12), v=rng.uniform(0, 0.25, 12),
                 level=0, time=0.0)
    grid = build_time_grid_uniform(1e4, 40)
    traj = integrate(mesh, kin, grid, init)
    ubar, vbar = ode_upper_solution(kin, grid, float(np.max(init.u)),
                                    float(np.max(init.v)))
    slack = 10 * SolverConfig().newton_tol
    for i, s in enumerate(traj.states):
        assert np.all(s.u <= ubar[i] + slack)
        assert np.all(s.v <= vbar[i] + slack)


# -- state validation and CSV ----------------------------------------------------

def test_state_rejects_bad_shapes():
    with pytest.raises(ValueError):
        State(u=np.zeros(3), v=np.zeros(4), level=0, time=0.0)
    with pytest.raises(ValueError):
        State(u=np.array([np.nan]), v=np.array([0.0]), level=0, time=0.0)


def test_trajectory_csv_round_trip(tmp_path):
    mesh = build_uniform_1d(0.1, 3)
    kin = dimer()
    grid = build_time_grid_uniform(10.0, 2)
    init = project_initial(mesh, lambda x: 0.2 + 0 * x, lambda x: 0.1 + 0 * x)
    traj = integrate(mesh, kin, grid, init)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(mesh, traj, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "level,t,cell_id,x,u,v"
    assert len(lines) == 1 + 3 * 3
    fields = lines[1].split(",")
    assert float(fields[4]) == pytest.approx(init.u[0])

    stats_path = tmp_path / "stats.csv"
    write_stats_csv(traj, stats_path)
    slines = stats_path.read_text().strip().splitlines()
    assert slines[0] == "level,dt,newton_iterations,residual,fallback"
    assert len(slines) == 3
