"""Fully implicit finite-volume scheme for the coupled two-species system.

Each time step solves, for every cell K with measure m_K and neighbor
transmissibilities T,

    m_K (u_K - u_K^prev) - dt diff_u sum_L T (u_L - u_K)
        + dt m_K alpha_hat (r_u(u_K) - r_v(v_K)) = 0
    m_K (v_K - v_K^prev) - dt diff_v sum_L T (v_L - v_K)
        - dt m_K beta_hat (r_u(u_K) - r_v(v_K)) = 0

simultaneously by damped Newton iteration on the full coupled system with an
analytic Jacobian.  No operator splitting, no clipping: nonnegativity and the
comparison structure must emerge from the solve, and a converged state that
violates them beyond numerical slack is reported as an internal error.

Rate laws are evaluated through their odd extension (r(-s) := -r(s)) so line
searches remain defined when an iterate transiently dips negative; converged
states are still required to be nonnegative within slack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._csv import write_rows
from ._newton import NewtonResult, damped_newton, lapack_solve
from .errors import ConsistencyError, NonConvergenceError
from .kinetics import Kinetics, RateLaw
from .mesh import Mesh, TimeGrid, build_uniform_1d

__all__ = [
    "State",
    "SolverConfig",
    "StepStats",
    "Trajectory",
    "project_initial",
    "residual",
    "step",
    "integrate",
    "ode_upper_solution",
    "write_trajectory_csv",
    "write_stats_csv",
]


class _CellState:
    """The checks and size shared by ``State`` and the limit solver's
    ``WState``.  A subclass names its cellwise arrays in ``fields``; they
    must be finite 1D float arrays of equal length."""

    fields: tuple = ()

    def __post_init__(self):
        shape = None
        for name in self.fields:
            a = np.asarray(getattr(self, name), dtype=float)
            if a.ndim != 1 or shape not in (None, a.shape):
                raise ValueError(f"state arrays {self.fields} must be 1D "
                                 "and of equal length")
            if not np.isfinite(a).all():
                raise ValueError("state contains non-finite values")
            setattr(self, name, a)
            shape = a.shape
        if self.level < 0 or self.time < 0:
            raise ValueError("level and time must be nonnegative")

    @property
    def n_cells(self) -> int:
        return getattr(self, self.fields[0]).shape[0]


@dataclass(eq=False)
class State(_CellState):
    """Cellwise concentrations at one time level."""

    fields = ("u", "v")

    u: np.ndarray
    v: np.ndarray
    level: int
    time: float


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the implicit step's damped Newton iteration."""

    newton_tol: float = 1e-12
    newton_max_iter: int = 40

    def __post_init__(self):
        tol, max_iter = self.newton_tol, self.newton_max_iter
        # the residual is scaled: from 1 up, a step may stop at its first guess
        if isinstance(tol, bool) or not isinstance(tol, (int, float)) \
                or not 0 < tol < 1:
            raise ValueError("newton_tol must be a number in (0, 1)")
        if isinstance(max_iter, bool) or not isinstance(max_iter, int) \
                or max_iter < 1:
            raise ValueError("newton_max_iter must be an integer >= 1")


# the configuration of a step called without one, validated once
_DEFAULT_CFG = SolverConfig()


@dataclass(frozen=True)
class StepStats:
    level: int              # index of the level this step produced
    dt: float
    newton_iterations: int
    residual: float         # final scaled residual (max norm)
    fallback: str = ""      # always "": no step has a fallback; kept
                            # because the benchmark tracer reads it


@dataclass(eq=False)
class Trajectory:
    """States recorded along a time grid plus per-step solver statistics.

    The states are those of one solver: coupled ``State``s or the limit
    solver's ``WState``s.  Each state class names its cellwise arrays in
    ``fields``.
    """

    states: list
    stats: list[StepStats] = field(default_factory=list)

    @property
    def levels(self) -> list[int]:
        return [s.level for s in self.states]

    @property
    def final(self) -> State:
        return self.states[-1]

    def arrays(self) -> tuple[np.ndarray, ...]:
        """(levels, times, *fields), each field shaped (n_recorded, n_cells):
        (levels, times, U, V) for coupled states, (levels, times, W) for
        limit states.  An empty trajectory has no state class to name its
        fields and returns the coupled layout, two empty (0, 0) arrays."""
        levels = np.array([s.level for s in self.states], dtype=int)
        times = np.array([s.time for s in self.states], dtype=float)
        if not self.states:
            return levels, times, np.empty((0, 0)), np.empty((0, 0))
        return levels, times, *(np.vstack([getattr(s, name)
                                           for s in self.states])
                                for name in type(self.states[0]).fields)


# -- odd extension of the rate laws ---------------------------------------

def _rate_ext(law: RateLaw, s: np.ndarray) -> np.ndarray:
    return np.sign(s) * np.asarray(law.value(np.abs(s)), dtype=float)


def _rate_deriv_ext(law: RateLaw, s: np.ndarray) -> np.ndarray:
    return np.asarray(law.deriv(np.abs(s)), dtype=float)


# -- initial projection ----------------------------------------------------

def project_initial(mesh: Mesh, u0, v0, n_quad: int = 1) -> State:
    """Project initial profiles onto cell averages.

    Gauss-Legendre quadrature with n_quad points on each cell; n_quad = 1
    is the midpoint rule.  Sampled values must be nonnegative.
    """
    u = _cell_averages(mesh, u0, n_quad, "u0")
    v = _cell_averages(mesh, v0, n_quad, "v0")
    return State(u=u, v=v, level=0, time=0.0)


def _cell_averages(mesh: Mesh, fn, n_quad: int, name: str) -> np.ndarray:
    if int(n_quad) != n_quad or n_quad < 1:
        raise ValueError(f"n_quad must be a positive integer, got {n_quad}")
    nodes, weights = np.polynomial.legendre.leggauss(int(n_quad))
    lo = mesh.edges[:-1]
    hi = mesh.edges[1:]
    # points shaped (n_cells, n_quad); weights sum to 2 on [-1, 1]
    pts = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * nodes[None, :]
    vals = np.asarray(fn(pts.ravel()), dtype=float)
    if vals.shape != (pts.size,):
        raise ValueError(f"{name} must return one value per sample point")
    vals = vals.reshape(pts.shape)
    if np.any(vals < 0):
        raise ValueError(f"{name} is negative at a quadrature point")
    return vals @ (weights / 2.0)


# -- residual and Jacobian solves ------------------------------------------

def residual(mesh: Mesh, kin: Kinetics, dt: float,
             prev: State, guess: State) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell residual pair of the implicit step at the given guess."""
    _check_step(mesh, dt, prev, guess)
    r = _make_residual_fn(mesh, kin, dt, prev)(
        np.concatenate([guess.u, guess.v]))
    return r[:mesh.n_cells], r[mesh.n_cells:]


def _make_residual_fn(mesh: Mesh, kin: Kinetics, dt: float, prev: State):
    """Return residual_fn(z), the residual pair of the step from ``prev``
    stacked as [res_u, res_v]; z stacks [u, v]."""
    n = mesh.n_cells
    m = mesh.volumes
    lap = mesh.apply_laplacian
    dt_a, dt_b = dt * kin.diff_u, dt * kin.diff_v
    dt_m_ah, dt_m_bh = dt * m * kin.alpha_hat, dt * m * kin.beta_hat

    def residual_fn(z):
        u, v = z[:n], z[n:]
        gap = _rate_ext(kin.rate_u, u) - _rate_ext(kin.rate_v, v)
        r = np.empty(2 * n)
        r[:n] = m * (u - prev.u) + dt_a * lap(u) + dt_m_ah * gap
        r[n:] = m * (v - prev.v) + dt_b * lap(v) - dt_m_bh * gap
        return r

    return residual_fn


def _check_step(mesh: Mesh, dt: float, *states) -> None:
    """Reject a negative dt and states whose size does not match the mesh;
    shared by both solvers' steps."""
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    if any(s.n_cells != mesh.n_cells for s in states):
        raise ValueError("state size does not match the mesh")


def _make_solve_fn(mesh: Mesh, kin: Kinetics, dt: float):
    """Return solve_fn(z, r) computing the Newton correction for the coupled
    system; z stacks [u, v].

    Interleaved ordering (u_0, v_0, u_1, v_1, ...) makes the Jacobian
    pentadiagonal.  It is held in LAPACK gbsv's band layout: rows 2..6 are
    the diagonals +2..-2, rows 0 and 1 gbsv's room for fill-in.  All but
    the four half-rows that depend on r'(u) and r'(v) are built once.
    """
    n = mesh.n_cells
    m = mesh.volumes
    t = mesh.transmissibilities
    a, b = kin.diff_u, kin.diff_v
    ah, bh = kin.alpha_hat, kin.beta_hat
    band = np.zeros((7, 2 * n), order="F")
    band[2, 2::2] = -dt * a * t        # u coupling to next cell
    band[2, 3::2] = -dt * b * t
    band[6, 0:-2:2] = -dt * a * t
    band[6, 1:-2:2] = -dt * b * t
    diag_u, diag_v = m + dt * a * mesh.deg, m + dt * b * mesh.deg
    dt_m_ah, dt_m_bh = dt * m * ah, dt * m * bh
    cross_u, cross_v = -dt * m * ah, -dt * m * bh

    def solve_fn(z, r):
        rup = _rate_deriv_ext(kin.rate_u, z[:n])
        rvp = _rate_deriv_ext(kin.rate_v, z[n:])
        ab = band.copy(order="F")
        ab[4, 0::2] = diag_u + dt_m_ah * rup
        ab[4, 1::2] = diag_v + dt_m_bh * rvp
        ab[3, 1::2] = cross_u * rvp    # d res_u / d v, same cell
        ab[5, 0::2] = cross_v * rup    # d res_v / d u, same cell
        rhs = r.reshape(2, n).T.flatten()  # a copy: gbsv overwrites it
        x = lapack_solve("gbsv", 2, 2, ab, rhs,
                         overwrite_ab=True, overwrite_b=True)
        return x.reshape(n, 2).T.ravel()

    return solve_fn


def _scaled_norm(weights: np.ndarray):
    """Return norm_fn(z, r) = max |r| / (weights max(1, |z|)), the scaled
    residual both Newton kernels test against newton_tol."""

    def norm_fn(z, r):
        return float((np.abs(r)
                      / (weights * np.maximum(1.0, np.abs(z)))).max())

    return norm_fn


# -- the implicit step -----------------------------------------------------

def step(mesh: Mesh, kin: Kinetics, dt: float, prev: State,
         cfg: SolverConfig | None = None) -> tuple[State, StepStats]:
    """Advance one implicit step; returns the new state and solve statistics.

    Runs damped Newton on the fully coupled system once, from the previous
    state.  Raises NonConvergenceError naming the step and that attempt
    when it does not converge, and ConsistencyError when a converged state
    breaks the scheme's bounds.
    """
    if cfg is None:
        cfg = _DEFAULT_CFG
    _check_step(mesh, dt, prev)
    n = mesh.n_cells
    m2 = np.concatenate([mesh.volumes, mesh.volumes])
    result = damped_newton(np.concatenate([prev.u, prev.v]),
                           _make_residual_fn(mesh, kin, dt, prev),
                           _make_solve_fn(mesh, kin, dt), _scaled_norm(m2),
                           tol=cfg.newton_tol, max_iter=cfg.newton_max_iter)
    if not result.converged:
        raise _step_failure("coupled", prev, dt, kin, result)

    u_new, v_new = result.z[:n], result.z[n:]
    _check_step_bounds(kin, prev, u_new, v_new, cfg.newton_tol)
    state = State(u=u_new, v=v_new, level=prev.level + 1, time=prev.time + dt)
    stats = StepStats(level=state.level, dt=dt,
                      newton_iterations=result.iterations,
                      residual=result.residual)
    return state, stats


def _step_failure(what: str, prev, dt: float, kin: Kinetics,
                  result: NewtonResult) -> NonConvergenceError:
    """The error for an implicit step whose one Newton attempt, from the
    previous state, returned ``result`` unconverged; it ends with the
    residual norm at the start and after each step taken."""
    its, res = result.iterations, result.residual
    history = ", ".join(f"{h:.3e}" for h in result.history)
    return NonConvergenceError(
        f"{what} step to level {prev.level + 1} at t = {prev.time + dt!r} "
        f"(dt = {dt!r}, k = {kin.rate_factor!r}) did not converge; "
        f"tried previous-state (residual {res!r} after {its} iterations); "
        f"residual history: {history}", iterations=its, residual=res)


def _check_step_bounds(kin, prev, u_new, v_new, newton_tol):
    """A converged step must stay inside the scheme's proven envelope:
    nonnegative, u below max(u_prev) + (alpha/beta) max(v_prev) and v below
    the symmetric bound, all within 10 * newton_tol slack."""
    max_u, max_v = float(prev.u.max()), float(prev.v.max())
    cap_u = max_u + (kin.alpha / kin.beta) * max_v
    cap_v = max_v + (kin.beta / kin.alpha) * max_u
    slack_u = 10.0 * newton_tol * max(1.0, cap_u)
    slack_v = 10.0 * newton_tol * max(1.0, cap_v)
    lo_u, lo_v = float(u_new.min()), float(v_new.min())
    if lo_u < -slack_u or lo_v < -slack_v:
        raise ConsistencyError(
            f"converged step produced negative concentrations "
            f"(min u = {lo_u!r}, min v = {lo_v!r})")
    hi_u, hi_v = float(u_new.max()), float(v_new.max())
    if hi_u > cap_u + slack_u or hi_v > cap_v + slack_v:
        raise ConsistencyError(
            f"converged step escaped its comparison envelope "
            f"(max u = {hi_u!r} vs cap {cap_u!r}, "
            f"max v = {hi_v!r} vs cap {cap_v!r})")


# -- marching ---------------------------------------------------------------

def integrate(mesh: Mesh, kin: Kinetics, grid: TimeGrid, initial: State,
              cfg: SolverConfig | None = None) -> Trajectory:
    """March the scheme over the whole time grid, recording every level."""
    return _march(step, mesh, kin, grid, initial, cfg)


def _march(step_fn, mesh: Mesh, kin: Kinetics, grid: TimeGrid, initial,
           cfg: SolverConfig | None) -> Trajectory:
    """Apply ``step_fn`` over every step of the grid from a nonnegative
    level-0 state, recording every level."""
    if initial.level != 0 or initial.time != 0.0:
        raise ValueError("integration starts from level 0 at time 0")
    if initial.n_cells != mesh.n_cells:
        raise ValueError("initial state size does not match the mesh")
    if any(np.any(getattr(initial, name) < 0) for name in initial.fields):
        raise ValueError("initial state must be nonnegative")
    traj = Trajectory(states=[initial])
    state = initial
    for dt in grid.steps:
        state, st = step_fn(mesh, kin, float(dt), state, cfg)
        traj.stats.append(st)
        traj.states.append(state)
    return traj


def ode_upper_solution(kin: Kinetics, grid: TimeGrid, u_bound: float,
                       v_bound: float,
                       cfg: SolverConfig | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Space-free companion system started from constant bounds (U, V):

        ubar^{n+1} - ubar^n = dt alpha_hat (r_v(vbar^{n+1}) - r_u(ubar^{n+1}))
        vbar^{n+1} - vbar^n = dt beta_hat  (r_u(ubar^{n+1}) - r_v(vbar^{n+1}))

    Its iterates dominate the scheme started from data below (U, V), which
    is what makes it useful as an upper solution.  Returns arrays of shape
    (n_levels,).  Conserves ubar/alpha + vbar/beta exactly.
    """
    if u_bound < 0 or v_bound < 0:
        raise ValueError("bounds must be nonnegative")
    initial = State(u=[float(u_bound)], v=[float(v_bound)], level=0,
                    time=0.0)
    _, _, ubar, vbar = _march(step, build_uniform_1d(1.0, 1), kin, grid,
                              initial, cfg).arrays()
    return ubar[:, 0], vbar[:, 0]


# -- CSV export --------------------------------------------------------------

def write_trajectory_csv(mesh: Mesh, traj: Trajectory, path) -> None:
    """Write recorded states as rows (level, t, cell_id, x, u, v)."""
    _write_cell_csv(mesh, traj.states, State.fields, path)


def _write_cell_csv(mesh: Mesh, states, names, path) -> None:
    """Write one row (level, t, cell_id, x, *names) per state and cell;
    ``names`` are the state class's ``fields``.  Each state is one block,
    and the cell_id,x prefixes are formatted once per file."""
    cells = [f"{k},{xk!r}" for k, xk in enumerate(mesh.x.tolist())]

    def blocks():
        for s in states:
            head = f"{s.level},{float(s.time)!r},"
            yield [[head + c for c in cells],
                   *(list(map(repr, getattr(s, name).tolist()))
                     for name in names)]

    write_rows(path, ("level", "t", "cell_id", "x", *names), blocks())


def write_stats_csv(traj: Trajectory, path) -> None:
    """Write per-step solver statistics as CSV."""
    rows = [(str(st.level), repr(float(st.dt)), str(st.newton_iterations),
             repr(float(st.residual)), st.fallback) for st in traj.stats]
    write_rows(path, ("level", "dt", "newton_iterations", "residual",
                      "fallback"), [list(zip(*rows))])
