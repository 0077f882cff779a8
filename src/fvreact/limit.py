"""Implicit finite-volume solver for the conserved-variable diffusion problem.

In the fast-reaction regime the pair (u, v) collapses onto the equilibrium
manifold and the conserved combination w = u/alpha + v/beta alone evolves by
nonlinear diffusion.  Each implicit step solves

    m_K (w_K - w_K^prev) + dt sum_L T (phi(w_K) - phi(w_L)) = 0

with phi the kinetics' flux potential.  The unknown is z, the equilibrium
value of u (p >= q) or of v (p < q), in which w = W(z) and phi = Phi(z) are
explicit (``Kinetics.maps_in_z``, odd-extended so line searches survive
negative iterates): no residual inverts the equilibrium map, and each
Newton correction is one tridiagonal solve with the slopes W' and Phi'.  A
step returns w = W(z) with z, and the next step starts from that z; only a
state built from w alone costs one inversion.  The scheme conserves
sum_K m_K w_K up to the converged residual and obeys a discrete maximum
principle; both are enforced as post-conditions within numerical slack.

Each step is one damped Newton solve started from the previous state.  On
long steps (dt T / m large, as late in a T = 1e11 s run) double precision
cannot bring the scaled residual to ``newton_tol``; the solve then stops at
its rounding floor and the step reports the residual it reached.

Only the state, the residual and its tridiagonal Newton correction live
here.  The diffusion operator, the residual norm, the initial projection,
the marching loop and ``Trajectory`` are the coupled scheme's; the Newton
iteration is ``_newton.damped_newton``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._newton import damped_newton, lapack_solve
from .errors import ConsistencyError
from .kinetics import Kinetics
from .mesh import Mesh, TimeGrid
from .scheme import (_DEFAULT_CFG, SolverConfig, StepStats, Trajectory,
                     _CellState, _check_step, _march, _scaled_norm,
                     _step_failure, _write_cell_csv, project_initial)

__all__ = [
    "WState",
    "project_initial_w",
    "step_w",
    "integrate_w",
    "write_w_csv",
]


@dataclass(eq=False)
class WState(_CellState):
    """Cellwise conserved variable at one time level.

    ``z`` is the equilibrium unknown of ``step_w`` that gives w, or None
    for a state built from w alone.  It is not one of the ``fields``, so
    no output carries it.
    """

    fields = ("w",)

    w: np.ndarray
    level: int
    time: float
    z: np.ndarray | None = None


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

    Runs damped Newton once in the equilibrium unknown z, from the
    previous state's z; a state without z (its w must be nonnegative) is
    inverted once to get it.  A step that stops at the rounding floor
    reports a residual above ``newton_tol``.  Returns w = W(z) with z.
    Raises NonConvergenceError naming the step and that attempt when it
    does not converge, and ConsistencyError when the result breaks the
    maximum principle.
    """
    if cfg is None:
        cfg = _DEFAULT_CFG
    _check_step(mesh, dt, prev)
    m = mesh.volumes
    values, slopes = kin.maps_in_z()
    z0 = kin.z_from_w(prev.w) if prev.z is None else prev.z

    def residual_fn(z):
        w, phi = values(z)
        return m * (w - prev.w) + dt * mesh.apply_laplacian(phi)

    result = damped_newton(z0, residual_fn, _make_solve_fn_w(mesh, dt, slopes),
                           _scaled_norm(m), tol=cfg.newton_tol,
                           max_iter=cfg.newton_max_iter)
    if not result.converged:
        raise _step_failure("limit", prev, dt, kin, result)

    w_new = values(result.z)[0]
    lo, hi = float(prev.w.min()), float(prev.w.max())
    lo_new, hi_new = float(w_new.min()), float(w_new.max())
    slack = 10.0 * cfg.newton_tol * max(1.0, -lo, hi)
    if lo_new < lo - slack or hi_new > hi + slack:
        raise ConsistencyError(
            "converged diffusion step violated the maximum principle "
            f"(range [{lo_new!r}, {hi_new!r}] vs previous [{lo!r}, {hi!r}])")
    state = WState(w=w_new, level=prev.level + 1, time=prev.time + dt,
                   z=result.z)
    stats = StepStats(level=state.level, dt=dt,
                      newton_iterations=result.iterations,
                      residual=result.residual)
    return state, stats


def _make_solve_fn_w(mesh: Mesh, dt: float, slopes):
    """Banded Newton correction of step_w's residual at z: the tridiagonal
    Jacobian has diagonal m W'(z) + dt deg Phi'(z) and off-diagonals
    -dt T Phi'(z), with ``slopes(z) -> (W', Phi')``."""
    m = mesh.volumes
    dt_deg = dt * mesh.deg
    dt_t = -dt * mesh.transmissibilities

    def solve_fn(z, r):
        wp, fp = slopes(z)
        return lapack_solve("gtsv", dt_t * fp[:-1], m * wp + dt_deg * fp,
                            dt_t * fp[1:], r, overwrite_dl=True,
                            overwrite_d=True, overwrite_du=True)

    return solve_fn


def integrate_w(mesh: Mesh, kin: Kinetics, grid: TimeGrid, initial: WState,
                cfg: SolverConfig | None = None) -> Trajectory:
    """March the diffusion scheme over the whole grid, recording every
    level."""
    return _march(step_w, mesh, kin, grid, initial, cfg)


def write_w_csv(mesh: Mesh, traj: Trajectory, path) -> None:
    """Write recorded states as rows (level, t, cell_id, x, w)."""
    _write_cell_csv(mesh, traj.states, WState.fields, path)
