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

import csv
from dataclasses import dataclass, field

import numpy as np

from ._newton import damped_newton
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

@dataclass(eq=False)
class State:
    """Cellwise concentrations at one time level."""

    u: np.ndarray
    v: np.ndarray
    level: int
    time: float

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.u.ndim != 1 or self.u.shape != self.v.shape:
            raise ValueError("u and v must be 1D arrays of equal length")
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.v))):
            raise ValueError("state contains non-finite values")
        if self.level < 0 or self.time < 0:
            raise ValueError("level and time must be nonnegative")

    @property
    def n_cells(self) -> int:
        return self.u.shape[0]


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the implicit step's damped Newton iteration."""

    newton_tol: float = 1e-12
    newton_max_iter: int = 40

    def __post_init__(self):
        if self.newton_tol <= 0:
            raise ValueError("newton_tol must be positive")
        if self.newton_max_iter < 1:
            raise ValueError("newton_max_iter must be at least 1")


@dataclass(frozen=True)
class StepStats:
    level: int              # index of the level this step produced
    dt: float
    newton_iterations: int
    residual: float         # final scaled residual (max norm)
    fallback: str = ""      # "" or, for limit steps, "mean-guess"


@dataclass(eq=False)
class Trajectory:
    """States recorded along a time grid plus per-step solver statistics."""

    states: list[State]
    stats: list[StepStats] = field(default_factory=list)

    @property
    def levels(self) -> list[int]:
        return [s.level for s in self.states]

    @property
    def final(self) -> State:
        return self.states[-1]

    def state_at(self, level: int) -> State:
        for s in self.states:
            if s.level == level:
                return s
        raise KeyError(f"level {level} not recorded in trajectory")

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(levels, times, U, V) with U, V shaped (n_recorded, n_cells)."""
        levels = np.array([s.level for s in self.states], dtype=int)
        times = np.array([s.time for s in self.states], dtype=float)
        u = np.vstack([s.u for s in self.states]) if self.states else np.empty((0, 0))
        v = np.vstack([s.v for s in self.states]) if self.states else np.empty((0, 0))
        return levels, times, u, v


# -- odd extension of the rate laws ---------------------------------------

def _rate_ext(law: RateLaw, s: np.ndarray) -> np.ndarray:
    return np.sign(s) * np.asarray(law.value(np.abs(s)), dtype=float)


def _rate_deriv_ext(law: RateLaw, s: np.ndarray) -> np.ndarray:
    return np.asarray(law.deriv(np.abs(s)), dtype=float)


# -- initial projection ----------------------------------------------------

def project_initial(mesh: Mesh, u0, v0, n_quad: int = 1) -> State:
    """Project initial profiles onto cell averages.

    n_quad = 1 samples cell centers (the midpoint rule); higher orders use
    Gauss-Legendre quadrature on each cell.
    Sampled values must be nonnegative.
    """
    u = _cell_averages(mesh, u0, n_quad, "u0")
    v = _cell_averages(mesh, v0, n_quad, "v0")
    return State(u=u, v=v, level=0, time=0.0)


def _cell_averages(mesh: Mesh, fn, n_quad: int, name: str) -> np.ndarray:
    if int(n_quad) != n_quad or n_quad < 1:
        raise ValueError(f"n_quad must be a positive integer, got {n_quad}")
    n_quad = int(n_quad)
    if n_quad == 1:
        vals = np.asarray(fn(mesh.x), dtype=float)
        if vals.shape != (mesh.n_cells,):
            raise ValueError(f"{name} must return one value per sample point")
        if np.any(vals < 0):
            raise ValueError(f"{name} is negative at a cell center")
        return vals
    nodes, weights = np.polynomial.legendre.leggauss(n_quad)
    lo = mesh.edges[:-1]
    hi = mesh.edges[1:]
    # points shaped (n_cells, n_quad); weights sum to 2 on [-1, 1]
    pts = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * nodes[None, :]
    vals = np.asarray(fn(pts.ravel()), dtype=float).reshape(pts.shape)
    if np.any(vals < 0):
        raise ValueError(f"{name} is negative at a quadrature point")
    return vals @ (weights / 2.0)


# -- residual and Jacobian solves ------------------------------------------

def residual(mesh: Mesh, kin: Kinetics, dt: float,
             prev: State, guess: State) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell residual pair of the implicit step at the given guess."""
    _check_shapes(mesh, prev, guess)
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    return _residual_uv(mesh, kin, dt, prev.u, prev.v, guess.u, guess.v)


def _residual_uv(mesh, kin, dt, u_prev, v_prev, u, v):
    m = mesh.volumes
    lap = mesh.laplacian()
    gap = _rate_ext(kin.rate_u, u) - _rate_ext(kin.rate_v, v)
    res_u = m * (u - u_prev) + dt * kin.diff_u * (lap @ u) \
        + dt * m * kin.alpha_hat * gap
    res_v = m * (v - v_prev) + dt * kin.diff_v * (lap @ v) \
        - dt * m * kin.beta_hat * gap
    return res_u, res_v


def _check_shapes(mesh, prev, guess):
    if prev.n_cells != mesh.n_cells or guess.n_cells != mesh.n_cells:
        raise ValueError("state size does not match the mesh")


def _make_solve_fn(mesh: Mesh, kin: Kinetics, dt: float):
    """Return solve_fn(z, r) computing the Newton correction for the coupled
    system; z stacks [u, v]."""
    from scipy.linalg import solve_banded

    n = mesh.n_cells
    m = mesh.volumes
    t = mesh.transmissibilities
    deg = mesh.deg
    a, b = kin.diff_u, kin.diff_v
    ah, bh = kin.alpha_hat, kin.beta_hat
    idx_u = np.arange(0, 2 * n, 2)
    idx_v = idx_u + 1

    def solve_fn(z, r):
        # Interleaved ordering (u_0, v_0, u_1, v_1, ...) makes the
        # Jacobian pentadiagonal; assemble it directly in banded form.
        u, v = z[:n], z[n:]
        rup = _rate_deriv_ext(kin.rate_u, u)
        rvp = _rate_deriv_ext(kin.rate_v, v)
        ab = np.zeros((5, 2 * n))
        ab[2, idx_u] = m + dt * a * deg + dt * m * ah * rup
        ab[2, idx_v] = m + dt * b * deg + dt * m * bh * rvp
        ab[1, idx_v] = -dt * m * ah * rvp      # d res_u / d v, same cell
        ab[3, idx_u] = -dt * m * bh * rup      # d res_v / d u, same cell
        ab[0, idx_u[1:]] = -dt * a * t         # u coupling to next cell
        ab[0, idx_v[1:]] = -dt * b * t
        ab[4, idx_u[:-1]] = -dt * a * t
        ab[4, idx_v[:-1]] = -dt * b * t
        rhs = np.empty(2 * n)
        rhs[idx_u] = r[:n]
        rhs[idx_v] = r[n:]
        sol = solve_banded((2, 2), ab, rhs)
        return np.concatenate([sol[idx_u], sol[idx_v]])

    return solve_fn


def _scaled_norm(mesh: Mesh):
    m = mesh.volumes
    n = mesh.n_cells

    def norm_fn(z, r):
        scale = np.concatenate([m * np.maximum(1.0, np.abs(z[:n])),
                                m * np.maximum(1.0, np.abs(z[n:]))])
        return float(np.max(np.abs(r) / scale))

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
        cfg = SolverConfig()
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    _check_shapes(mesh, prev, prev)
    n = mesh.n_cells

    def residual_fn(z):
        ru, rv = _residual_uv(mesh, kin, dt, prev.u, prev.v, z[:n], z[n:])
        return np.concatenate([ru, rv])

    result = damped_newton(np.concatenate([prev.u, prev.v]), residual_fn,
                           _make_solve_fn(mesh, kin, dt), _scaled_norm(mesh),
                           tol=cfg.newton_tol, max_iter=cfg.newton_max_iter)
    if not result.converged:
        raise _step_failure("coupled", prev, dt, kin, [
            ("previous-state", result.iterations, result.residual)])

    u_new, v_new = result.z[:n], result.z[n:]
    _check_step_bounds(kin, prev, u_new, v_new, cfg.newton_tol)
    state = State(u=u_new, v=v_new, level=prev.level + 1, time=prev.time + dt)
    stats = StepStats(level=state.level, dt=dt,
                      newton_iterations=result.iterations,
                      residual=result.residual)
    return state, stats


def _step_failure(what: str, prev, dt: float, kin: Kinetics,
                 attempts: list) -> NonConvergenceError:
    """The error for an implicit step none of whose attempts converged.

    ``attempts`` lists (guess, iterations, last scaled residual) in the
    order tried; the error carries the last attempt's numbers.
    """
    tried = ", ".join(f"{tag} (residual {res!r} after {its} iterations)"
                      for tag, its, res in attempts)
    _, its, res = attempts[-1]
    return NonConvergenceError(
        f"{what} step to level {prev.level + 1} at t = {prev.time + dt!r} "
        f"(dt = {dt!r}, k = {kin.rate_factor!r}) did not converge; "
        f"tried {tried}",
        iterations=its, residual=res)


def _check_step_bounds(kin, prev, u_new, v_new, newton_tol):
    """A converged step must stay inside the scheme's proven envelope:
    nonnegative, u below max(u_prev) + (alpha/beta) max(v_prev) and v below
    the symmetric bound, all within 10 * newton_tol slack."""
    cap_u = float(np.max(prev.u)) + (kin.alpha / kin.beta) * float(np.max(prev.v))
    cap_v = float(np.max(prev.v)) + (kin.beta / kin.alpha) * float(np.max(prev.u))
    slack_u = 10.0 * newton_tol * max(1.0, cap_u)
    slack_v = 10.0 * newton_tol * max(1.0, cap_v)
    if float(np.min(u_new)) < -slack_u or float(np.min(v_new)) < -slack_v:
        raise ConsistencyError(
            f"converged step produced negative concentrations "
            f"(min u = {float(np.min(u_new))!r}, min v = {float(np.min(v_new))!r})")
    if float(np.max(u_new)) > cap_u + slack_u or float(np.max(v_new)) > cap_v + slack_v:
        raise ConsistencyError(
            f"converged step escaped its comparison envelope "
            f"(max u = {float(np.max(u_new))!r} vs cap {cap_u!r}, "
            f"max v = {float(np.max(v_new))!r} vs cap {cap_v!r})")


# -- marching ---------------------------------------------------------------

def integrate(mesh: Mesh, kin: Kinetics, grid: TimeGrid, initial: State,
              cfg: SolverConfig | None = None,
              output_levels=None) -> Trajectory:
    """March the scheme over the whole time grid.

    output_levels: None records every level; otherwise an iterable of level
    indices to record (the final level is always included).
    """
    if initial.level != 0 or initial.time != 0.0:
        raise ValueError("integration starts from level 0 at time 0")
    if initial.n_cells != mesh.n_cells:
        raise ValueError("initial state size does not match the mesh")
    if np.any(initial.u < 0) or np.any(initial.v < 0):
        raise ValueError("initial state must be nonnegative")
    keep = _output_set(output_levels, grid.n_steps)
    states: list[State] = []
    stats: list[StepStats] = []
    state = initial
    if 0 in keep:
        states.append(state)
    for dt in grid.steps:
        state, st = step(mesh, kin, float(dt), state, cfg)
        stats.append(st)
        if state.level in keep:
            states.append(state)
    return Trajectory(states=states, stats=stats)


def _output_set(output_levels, n_steps: int) -> set[int]:
    if output_levels is None:
        return set(range(n_steps + 1))
    keep = set()
    for lv in output_levels:
        if int(lv) != lv or lv < 0 or lv > n_steps:
            raise ValueError(f"output level {lv!r} outside 0..{n_steps}")
        keep.add(int(lv))
    keep.add(n_steps)
    return keep


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
    cell = build_uniform_1d(1.0, 1)
    state = State(u=[float(u_bound)], v=[float(v_bound)], level=0, time=0.0)
    ubar = np.empty(grid.n_steps + 1)
    vbar = np.empty(grid.n_steps + 1)
    ubar[0], vbar[0] = u_bound, v_bound
    for i, dt in enumerate(grid.steps, start=1):
        state, _ = step(cell, kin, float(dt), state, cfg)
        ubar[i] = state.u[0]
        vbar[i] = state.v[0]
    return ubar, vbar


# -- CSV export --------------------------------------------------------------

def write_trajectory_csv(mesh: Mesh, traj: Trajectory, path) -> None:
    """Write recorded states as rows (level, t, cell_id, x, u, v)."""
    _write_cell_csv(mesh, traj.states, ("u", "v"), path)


def _write_cell_csv(mesh: Mesh, states, names, path) -> None:
    """Write one row (level, t, cell_id, x, *names) per state and cell; each
    name is also the state attribute that holds that column.

    The bytes are those ``csv.writer`` writes for the same rows of repr'd
    floats: no field needs quoting, and rows end in its default "\r\n".
    Each state goes out as one string, and the cell_id,x prefixes are
    formatted once per file.
    """
    cells = [f"{k},{xk!r}" for k, xk in enumerate(mesh.x.tolist())]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(("level", "t", "cell_id", "x", *names)) + "\r\n")
        for s in states:
            head = f"{s.level},{float(s.time)!r},"
            fields = [[head + c for c in cells]]
            fields += [list(map(repr, getattr(s, name).tolist()))
                       for name in names]
            fh.write("".join([row + "\r\n"
                              for row in map(",".join, zip(*fields))]))


def write_stats_csv(traj: Trajectory, path) -> None:
    """Write per-step solver statistics as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", "dt", "newton_iterations", "residual",
                         "fallback"])
        for st in traj.stats:
            writer.writerow([st.level, repr(float(st.dt)), st.newton_iterations,
                             repr(float(st.residual)), st.fallback])
