"""Implicit finite-volume solver for the conserved-variable diffusion problem.

In the fast-reaction regime the pair (u, v) collapses onto the equilibrium
manifold and the conserved combination w = u/alpha + v/beta alone evolves by
nonlinear diffusion.  Each implicit step solves

    m_K (w_K - w_K^prev) + dt sum_L T (phi(w_K) - phi(w_L)) = 0

with phi the kinetics' flux potential.  Newton corrections use the analytic
chain-rule slope of phi.  One equilibrium inversion per Newton iterate
serves both: the residual evaluates phi and phi' together, and the
correction at that iterate reuses its phi'.  The scheme conserves
sum_K m_K w_K exactly and obeys a discrete maximum principle; both are
enforced as post-conditions within numerical slack.

phi is evaluated through its odd extension (phi(-s) := -phi(s)) so line
searches survive transiently negative iterates.

Only the state, the residual and its tridiagonal Newton correction live
here.  The diffusion operator, the residual norm, the initial projection,
the marching loop and ``Trajectory`` are the coupled scheme's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._newton import damped_newton, lapack_solve
from .errors import ConsistencyError
from .kinetics import Kinetics
from .mesh import Mesh, TimeGrid
from .scheme import (SolverConfig, StepStats, Trajectory, _CellState,
                     _check_step, _march, _scaled_norm, _step_failure,
                     _write_cell_csv, project_initial)

__all__ = [
    "WState",
    "project_initial_w",
    "step_w",
    "integrate_w",
    "write_w_csv",
]


@dataclass(eq=False)
class WState(_CellState):
    """Cellwise conserved variable at one time level."""

    fields = ("w",)

    w: np.ndarray
    level: int
    time: float


def project_initial_w(mesh: Mesh, kin: Kinetics, u0, v0,
                      n_quad: int = 1) -> WState:
    """Cell averages of u0/alpha + v0/beta, formed from the coupled
    solver's projection so the two problems start from identical discrete
    mass."""
    s = project_initial(mesh, u0, v0, n_quad)
    return WState(w=s.u / kin.alpha + s.v / kin.beta, level=0, time=0.0)


def step_w(mesh: Mesh, kin: Kinetics, dt: float, prev: WState,
           cfg: SolverConfig | None = None) -> tuple[WState, StepStats]:
    """Advance the conserved variable one implicit step.

    Tries damped Newton from the previous state, then from the mass-weighted
    mean.  Each residual evaluation inverts the equilibrium map once and
    keeps phi' for the correction at the same iterate.  Raises
    NonConvergenceError naming the step and both attempts when neither
    converges.
    """
    if cfg is None:
        cfg = SolverConfig()
    _check_step(mesh, dt, prev)
    m = mesh.volumes

    last = {}

    def residual_fn(w):
        phi, phip = kin.flux_potential_and_deriv(np.abs(w))
        last["w"], last["phip"] = w, phip
        return m * (w - prev.w) + dt * mesh.apply_laplacian(np.sign(w) * phi)

    norm_fn = _scaled_norm(m)
    solve_fn = _make_solve_fn_w(mesh, kin, dt, last)

    mean = float(np.sum(m * prev.w) / np.sum(m))
    guesses = [("", prev.w), ("mean-guess", np.full(mesh.n_cells, mean))]
    attempts = []
    for fallback, w0 in guesses:
        result = damped_newton(w0, residual_fn, solve_fn, norm_fn,
                               tol=cfg.newton_tol,
                               max_iter=cfg.newton_max_iter)
        if result.converged:
            break
        attempts.append((fallback or "previous-state", result.iterations,
                         result.residual))
    else:
        raise _step_failure("limit", prev, dt, kin, attempts)

    w_new = result.z
    lo, hi = float(np.min(prev.w)), float(np.max(prev.w))
    lo_new, hi_new = float(np.min(w_new)), float(np.max(w_new))
    slack = 10.0 * cfg.newton_tol * max(1.0, -lo, hi)
    if lo_new < lo - slack or hi_new > hi + slack:
        raise ConsistencyError(
            "converged diffusion step violated the maximum principle "
            f"(range [{lo_new!r}, {hi_new!r}] vs previous [{lo!r}, {hi!r}])")
    state = WState(w=w_new, level=prev.level + 1, time=prev.time + dt)
    stats = StepStats(level=state.level, dt=dt,
                      newton_iterations=result.iterations,
                      residual=result.residual, fallback=fallback)
    return state, stats


def _make_solve_fn_w(mesh: Mesh, kin: Kinetics, dt: float,
                     last: dict | None = None):
    """Banded Newton correction of step_w's residual at w.

    ``last`` holds the iterate whose residual was evaluated last (key "w")
    and phi' there ("phip").  damped_newton solves only at that iterate, so
    a call on the same array reuses phi'; any other array is inverted anew.
    """
    m = mesh.volumes
    dt_deg = dt * mesh.deg
    dt_t = -dt * mesh.transmissibilities

    def solve_fn(w, r):
        if last is not None and last.get("w") is w:
            phip = last["phip"]
        else:
            phip = kin.flux_potential_deriv(np.abs(w))
        return lapack_solve("gtsv", dt_t * phip[:-1], m + dt_deg * phip,
                            dt_t * phip[1:], r, overwrite_dl=True,
                            overwrite_d=True, overwrite_du=True)

    return solve_fn


def integrate_w(mesh: Mesh, kin: Kinetics, grid: TimeGrid, initial: WState,
                cfg: SolverConfig | None = None,
                output_levels=None) -> Trajectory:
    """March the diffusion scheme over the whole grid; see scheme.integrate
    for the output_levels convention."""
    return _march(step_w, mesh, kin, grid, initial, cfg, output_levels)


def write_w_csv(mesh: Mesh, traj: Trajectory, path) -> None:
    """Write recorded states as rows (level, t, cell_id, x, w)."""
    _write_cell_csv(mesh, traj.states, WState.fields, path)
