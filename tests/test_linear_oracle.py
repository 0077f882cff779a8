"""Exact oracle for linear kinetics (p = q = 1) on a uniform mesh.

With linear rates the implicit scheme is linear, and the cosines
cos(j pi x_K / L) diagonalize the two-point Laplacian: (L f)_K / m_K has
eigenvalues lam_j = (4/h^2) sin^2(j pi / (2n)).  So each backward Euler
step is one 2x2 solve per mode, on any time grid, and the limit scheme is
the heat equation in w with D_eff = (a/alpha + b c_a/(beta c_b)) /
(1/alpha + c_a/(beta c_b)).  Mass, ordering and envelopes all hold for a
step that converges to a wrong answer; these tests do not.
"""

import numpy as np
import pytest

from fvreact.errors import NonConvergenceError
from fvreact.experiment import _demo_bands_u0, _demo_bands_v0
from fvreact.kinetics import power_law_kinetics
from fvreact.limit import project_initial_w, step_w
from fvreact.mesh import build_time_grid_ramped, build_uniform_1d
from fvreact.scheme import project_initial, step

LENGTH, N_CELLS = 0.1, 16
# the dimerisation-tmax1 horizon and data on a shrunk grid: 57 steps
GRID = build_time_grid_ramped(1e-2, 1.3, 1e5)


def _cosine_modes(n, length):
    """Orthonormal cosine modes of n uniform cells (columns) and their
    eigenvalues lam_j of L/m."""
    j = np.arange(n)
    q = np.cos(np.pi * np.outer(j + 0.5, j) / n)
    q /= np.linalg.norm(q, axis=0)
    return q, (2.0 * n / length * np.sin(j * np.pi / (2 * n))) ** 2


def exact_coupled(kin, length, times, u0, v0):
    """(u, v) at every level of the coupled backward Euler scheme with
    linear kinetics.  The 2x2 determinant of each mode is formed as
    A B + x B + y A, a sum of positive terms, not A' B' - x y with its
    cancellation at large k."""
    q, lam = _cosine_modes(u0.size, length)
    ka, kb = kin.alpha_hat, kin.beta_hat
    ca, cb = kin.rate_u.coeff, kin.rate_v.coeff
    big_u, big_v = q.T @ u0, q.T @ v0
    out = [(u0, v0)]
    for dt in np.diff(times):
        a, b = 1.0 + dt * kin.diff_u * lam, 1.0 + dt * kin.diff_v * lam
        x, y = dt * ka * ca, dt * kb * cb
        det = a * b + x * b + y * a
        big_u, big_v = (((b + y) * big_u + dt * ka * cb * big_v) / det,
                        (dt * kb * ca * big_u + (a + x) * big_v) / det)
        out.append((q @ big_u, q @ big_v))
    return out


def exact_limit(kin, length, times, w0):
    """w at every level of the backward Euler heat equation with D_eff."""
    q, lam = _cosine_modes(w0.size, length)
    s = kin.rate_u.coeff / (kin.beta * kin.rate_v.coeff)
    d_eff = (kin.diff_u / kin.alpha + kin.diff_v * s) / (1.0 / kin.alpha + s)
    big_w = q.T @ w0
    out = [w0]
    for dt in np.diff(times):
        big_w = big_w / (1.0 + dt * d_eff * lam)
        out.append(q @ big_w)
    return out


def _linear(k):
    return power_law_kinetics(1.072e-4, 1.0, 2.363e-6, 1.0, alpha=2.0,
                              beta=1.0, diff_u=1.579e-9, diff_v=1.042e-9,
                              rate_factor=k)


@pytest.mark.parametrize("k", [0.0, 1.0, 1e4, 1e8, 1e12, 1e16, 1e20])
def test_coupled_step_matches_the_exact_oracle(k):
    # every level the coupled kernel reaches is within 1e-10 of the exact
    # modal solution, relative to its max; measured: <= 5.1e-14 on this
    # grid.  A step may raise NonConvergenceError (k = 1e8 does at level
    # 48, 1e12 at 28, 1e16 at 3 and 1e20 at 1), but k <= 1e4 reaches T.
    mesh, kin = build_uniform_1d(LENGTH, N_CELLS), _linear(k)
    state = project_initial(mesh, _demo_bands_u0, _demo_bands_v0)
    exact = exact_coupled(kin, LENGTH, GRID.levels, state.u, state.v)
    reached = 0
    for dt, (eu, ev) in zip(np.diff(GRID.levels), exact[1:]):
        try:
            state, _ = step(mesh, kin, dt, state)
        except NonConvergenceError:
            break
        reached += 1
        scale = max(np.max(np.abs(eu)), np.max(np.abs(ev)))
        gap = max(np.max(np.abs(state.u - eu)), np.max(np.abs(state.v - ev)))
        assert gap <= 1e-10 * scale, (k, state.level, gap / scale)
    assert k > 1e4 or reached == len(GRID.levels) - 1


def test_limit_step_matches_the_heat_equation_oracle():
    # the limit kernel with linear kinetics is the heat equation with
    # D_eff: within 1e-12 of its exact modal solution at every level,
    # relative to its max; measured: 1.9e-15
    mesh, kin = build_uniform_1d(LENGTH, N_CELLS), _linear(1.0)
    state = project_initial_w(mesh, kin, _demo_bands_u0, _demo_bands_v0)
    exact = exact_limit(kin, LENGTH, GRID.levels, state.w)
    for dt, ew in zip(np.diff(GRID.levels), exact[1:]):
        state, _ = step_w(mesh, kin, dt, state)
        gap = np.max(np.abs(state.w - ew))
        assert gap <= 1e-12 * np.max(np.abs(ew)), (state.level, gap)
