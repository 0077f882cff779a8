"""Structure-preservation diagnostics for computed trajectories.

Everything here measures; nothing corrects.  The solvers are supposed to
conserve mass, contract differences, dissipate the convex entropy and stay
inside their comparison envelope -- these functionals quantify how well a
given run actually did, and the report bundles them for export.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._csv import write_rows
from .kinetics import Kinetics, RateLaw
from .mesh import Mesh, TimeGrid
from .scheme import State, Trajectory

__all__ = [
    "conserved_mass",
    "l1_distance",
    "gradient_energy",
    "reaction_defect",
    "lyapunov",
    "lyapunov_series",
    "compare_to_limit",
    "translate_seminorms",
    "DiagnosticsReport",
    "diagnostics_report",
]


def conserved_mass(mesh: Mesh, kin: Kinetics, state) -> float:
    """sum_K m_K w_K with w = u/alpha + v/beta (or w directly)."""
    if hasattr(state, "w"):
        w = state.w
    else:
        w = state.u / kin.alpha + state.v / kin.beta
    return float(np.sum(mesh.volumes * w))


def l1_distance(mesh: Mesh, kin: Kinetics, s1: State, s2: State) -> float:
    """Weighted L1 distance sum_K m_K (|u1-u2|/alpha_hat + |v1-v2|/beta_hat).

    The scheme contracts this distance between any two of its solutions.
    With the reaction switched off (rate_factor = 0) the hatted weights
    degenerate, so the unhatted alpha, beta are used instead; both species
    then contract separately and the common factor 1/k is immaterial.
    """
    if s1.n_cells != mesh.n_cells or s2.n_cells != mesh.n_cells:
        raise ValueError("state size does not match the mesh")
    if kin.rate_factor > 0:
        wa, wb = kin.alpha_hat, kin.beta_hat
    else:
        wa, wb = kin.alpha, kin.beta
    return float(np.sum(mesh.volumes * (np.abs(s1.u - s2.u) / wa
                                        + np.abs(s1.v - s2.v) / wb)))


def _require_complete(grid: TimeGrid, levels) -> None:
    if list(levels) != list(range(grid.n_steps + 1)):
        raise ValueError(
            "this diagnostic needs a trajectory recorded at every level")


def gradient_energy(mesh: Mesh, grid: TimeGrid,
                    traj: Trajectory) -> tuple[float, float]:
    """Discrete space-time gradient energy of each species:

        E_f = sum_n dt_n sum_faces T (f_L^{n+1} - f_K^{n+1})^2

    with each interior face counted once.  Bounded uniformly in the rate
    factor; this is the compactness workhorse.
    """
    _require_complete(grid, traj.levels)
    _, _, u, v = traj.arrays()
    if mesh.n_faces == 0 or grid.n_steps == 0:
        return 0.0, 0.0
    t = mesh.transmissibilities
    dt = grid.steps
    du = u[1:, 1:] - u[1:, :-1]          # (n_steps, n_faces)
    dv = v[1:, 1:] - v[1:, :-1]
    e_u = float(np.sum(dt[:, None] * t[None, :] * du ** 2))
    e_v = float(np.sum(dt[:, None] * t[None, :] * dv ** 2))
    return e_u, e_v


def reaction_defect(mesh: Mesh, grid: TimeGrid, kin: Kinetics,
                    traj: Trajectory) -> float:
    """Rate-weighted squared distance from chemical equilibrium:

        R = k sum_n dt_n sum_K m_K (r_u(u_K^{n+1}) - r_v(v_K^{n+1}))^2.

    Testing the scheme's rows with r_u(u^{n+1})/alpha and r_v(v^{n+1})/beta
    gives the discrete energy inequality

        R + F(u^N, v^N) <= F(u^0, v^0),
        F(u, v) = sum_K m_K (Phi_u(u_K)/alpha + Phi_v(v_K)/beta),

    with Phi = int_0^s r the convex antiderivative of each rate law.  The
    bound depends on the initial data alone, not on the rate factor, which
    is what forces the fast-reaction solutions onto the equilibrium
    manifold.  As k -> 0, R is O(k).
    """
    _require_complete(grid, traj.levels)
    if grid.n_steps == 0:
        return 0.0
    _, _, u, v = traj.arrays()
    gap = (np.asarray(kin.rate_u.value(np.maximum(u[1:], 0.0)), dtype=float)
           - np.asarray(kin.rate_v.value(np.maximum(v[1:], 0.0)), dtype=float))
    dt = grid.steps
    return float(kin.rate_factor
                 * np.sum(dt[:, None] * mesh.volumes[None, :] * gap ** 2))


# -- convex entropy ----------------------------------------------------------

def _entropy_fn(law: RateLaw, weight: float, ref: float, s: np.ndarray):
    """The entropy density at each entry of s >= 0,

        V(s) = (1/weight) [ s ln(r(s)/r(ref)) + int_s^ref sigma r'(sigma)/r(sigma) d sigma ].

    V is convex, nonnegative and vanishes at s = ref.  For the power law
    r(s) = c s^p the integrand is the constant p, so

        V(s) = (p/weight) (s ln(s/ref) - s + ref),   V(0) = (p/weight) ref,

    one array expression.
    """
    if not ref > 0:
        raise ValueError("entropy reference value must be positive")
    # s ln(s/ref) -> 0 as s -> 0; the where keeps log(0) out
    return (law.exponent / weight) * (
        s * np.log(np.where(s > 0, s, ref) / ref) - s + ref)


def _resolve_reference(mesh: Mesh, kin: Kinetics, state0: State,
                       reference) -> tuple[float, float]:
    if reference is None:
        a = float(np.sum(mesh.volumes * state0.u) / np.sum(mesh.volumes))
        if not a > 0:
            raise ValueError(
                "default entropy reference needs mean(u_0) > 0; pass an "
                "explicit reference pair instead")
        return a, float(kin.v_from_u(a))
    a, b = float(reference[0]), float(reference[1])
    ra = float(kin.rate_u.value(np.asarray(a, dtype=float)))
    rb = float(kin.rate_v.value(np.asarray(b, dtype=float)))
    if abs(ra - rb) > 1e-8 * (abs(ra) + abs(rb)):
        raise ValueError(
            f"entropy reference pair must balance the rates: "
            f"r_u({a!r}) = {ra!r} vs r_v({b!r}) = {rb!r}")
    return a, b


def _entropy(mesh: Mesh, kin: Kinetics, ref: tuple[float, float],
             u: np.ndarray, v: np.ndarray):
    """sum_K m_K (V_u(u_K) + V_v(v_K)) along the last axis of u and v, with
    negative concentrations clipped to 0.  Summed row by row (not a
    matrix product), so one state gets the bits it gets inside a series."""
    density = (_entropy_fn(kin.rate_u, kin.alpha, ref[0], np.maximum(u, 0.0))
               + _entropy_fn(kin.rate_v, kin.beta, ref[1], np.maximum(v, 0.0)))
    return np.sum(density * mesh.volumes, axis=-1)


def lyapunov(mesh: Mesh, kin: Kinetics, state: State,
             reference=None) -> float:
    """Convex entropy sum_K m_K (V_u(u_K) + V_v(v_K)) relative to a
    rate-balanced reference pair (a, b).

    Defaults: a is the measure-weighted mean of the state's u, b balances
    it.  The scheme never increases this functional.  V is evaluated in
    closed form from each rate law's exponent (see ``_entropy_fn``).
    """
    ref = _resolve_reference(mesh, kin, state, reference)
    return float(_entropy(mesh, kin, ref, state.u, state.v))


def lyapunov_series(mesh: Mesh, kin: Kinetics, traj: Trajectory,
                    reference=None) -> np.ndarray:
    """Entropy per recorded state, sharing one reference pair (resolved from
    the first recorded state when not given, so the series is comparable).
    The whole trajectory is evaluated in one array expression."""
    if not traj.states:
        raise ValueError("empty trajectory")
    ref = _resolve_reference(mesh, kin, traj.states[0], reference)
    _, _, u, v = traj.arrays()
    return _entropy(mesh, kin, ref, u, v)


# -- distance to the fast-reaction limit ------------------------------------

def compare_to_limit(kin: Kinetics, traj: Trajectory,
                     wtraj: Trajectory) -> dict:
    """Max-norm distance between the coupled final state and the equilibrium
    state of the limit solver's final level:

        J_u = max_K |u_K - u_from_w(w_K)|,  J_v = max_K |v_K - v_from_w(w_K)|,

    with (u, v) taken from the level's equilibrium unknown z, so only a
    state built from w alone is inverted.
    """
    fin = traj.final
    wfin = wtraj.final
    if fin.n_cells != wfin.n_cells:
        raise ValueError("trajectories live on different meshes")
    if abs(fin.time - wfin.time) > 1e-9 * max(1.0, abs(fin.time)):
        raise ValueError(
            f"final times differ: {fin.time!r} vs {wfin.time!r}")
    z = kin.z_from_w(np.maximum(wfin.w, 0.0)) if wfin.z is None else wfin.z
    u_lim, v_lim = kin.uv_from_z(np.maximum(z, 0.0))
    return {
        "final_time": float(fin.time),
        "J_u": float(np.max(np.abs(fin.u - u_lim))),
        "J_v": float(np.max(np.abs(fin.v - v_lim))),
    }


# -- translate seminorms -----------------------------------------------------

def translate_seminorms(mesh: Mesh, grid: TimeGrid, traj: Trajectory,
                        kin: Kinetics, shifts=(), lags=()) -> list[dict]:
    """Exact space/time translate seminorms of the piecewise-constant
    reconstruction, for fields u, v and w = u/alpha + v/beta.

    Space, shift xi >= 0:   sum_n dt_n int_0^{X-xi} (f(x+xi) - f(x))^2 dx
    Time, lag tau >= 0:     sum_K m_K int_0^{T-tau} (f_K(t+tau) - f_K(t))^2 dt

    Equicontinuity in translation is what compactness arguments lean on;
    the values here are computed exactly by merged-breakpoint integration,
    no sampling involved.  Returns one record per (field, kind, displacement).
    """
    _require_complete(grid, traj.levels)
    length = float(mesh.edges[-1] - mesh.edges[0])
    for xi in shifts:
        if not 0.0 <= xi <= length:
            raise ValueError(
                f"shift {xi!r} outside the domain extent {length!r}")
    for tau in lags:
        if not 0.0 <= tau <= grid.final_time:
            raise ValueError(
                f"lag {tau!r} exceeds the final time {grid.final_time!r}")
    _, _, u, v = traj.arrays()
    w = u / kin.alpha + v / kin.beta
    fields = {"u": u, "v": v, "w": w}
    out: list[dict] = []
    for name, f in fields.items():
        for xi in shifts:
            out.append({"field": name, "kind": "space",
                        "displacement": float(xi),
                        "value": _space_seminorm(mesh, grid, f, float(xi))})
        for tau in lags:
            out.append({"field": name, "kind": "time",
                        "displacement": float(tau),
                        "value": _time_seminorm(mesh, grid, f, float(tau))})
    return out


def _space_seminorm(mesh: Mesh, grid: TimeGrid, f: np.ndarray,
                    xi: float) -> float:
    if xi < 0:
        raise ValueError("shift must be nonnegative")
    edges = mesh.edges
    domain = edges[-1] - edges[0]
    if xi == 0.0 or xi >= domain or grid.n_steps == 0:
        return 0.0
    x_hi = edges[-1] - xi
    # Breakpoints where either f(x) or f(x + xi) can jump.
    pts = np.concatenate([edges, edges - xi])
    pts = np.unique(np.clip(pts, edges[0], x_hi))
    mids = 0.5 * (pts[:-1] + pts[1:])
    seg = np.diff(pts)
    keep = seg > 0
    mids, seg = mids[keep], seg[keep]
    idx = np.searchsorted(edges, mids, side="right") - 1
    idx_sh = np.searchsorted(edges, mids + xi, side="right") - 1
    idx = np.clip(idx, 0, f.shape[1] - 1)
    idx_sh = np.clip(idx_sh, 0, f.shape[1] - 1)
    diff2 = (f[1:, idx_sh] - f[1:, idx]) ** 2        # (n_steps, n_segments)
    per_level = diff2 @ seg
    return float(np.sum(grid.steps * per_level))


def _time_seminorm(mesh: Mesh, grid: TimeGrid, f: np.ndarray,
                   tau: float) -> float:
    if tau < 0:
        raise ValueError("lag must be nonnegative")
    t = grid.levels
    horizon = t[-1] - tau
    if tau == 0.0 or horizon <= 0 or grid.n_steps == 0:
        return 0.0
    pts = np.concatenate([t, t - tau])
    pts = np.unique(np.clip(pts, 0.0, horizon))
    mids = 0.5 * (pts[:-1] + pts[1:])
    seg = np.diff(pts)
    keep = seg > 0
    mids, seg = mids[keep], seg[keep]
    # On (t^n, t^{n+1}] the reconstruction takes the level n+1 values.
    idx = np.searchsorted(t, mids, side="left")
    idx_sh = np.searchsorted(t, mids + tau, side="left")
    idx = np.clip(idx, 1, f.shape[0] - 1)
    idx_sh = np.clip(idx_sh, 1, f.shape[0] - 1)
    diff2 = (f[idx_sh, :] - f[idx, :]) ** 2          # (n_segments, n_cells)
    return float(seg @ diff2 @ mesh.volumes)


# -- bundled report -----------------------------------------------------------

@dataclass(eq=False)
class DiagnosticsReport:
    """Per-level series plus scalar totals for one coupled run."""

    levels: np.ndarray
    times: np.ndarray
    mass_w: np.ndarray
    u_min: np.ndarray
    u_max: np.ndarray
    v_min: np.ndarray
    v_max: np.ndarray
    entropy: np.ndarray | None
    gradient_energy_u: float
    gradient_energy_v: float
    reaction_defect: float
    compare: dict | None = None
    translates: list[dict] | None = None

    def write_csv(self, path) -> None:
        names = ["mass_w", "u_min", "u_max", "v_min", "v_max"]
        if self.entropy is not None:
            names.append("entropy")
        write_rows(path, ("level", "t", *names),
                   [[list(map(str, self.levels.tolist())),
                     *(list(map(repr, getattr(self, name).tolist()))
                       for name in ("times", *names))]])

    def write_translates_csv(self, path) -> None:
        if self.translates is None:
            raise ValueError("no translate seminorms were computed")
        rows = [(r["field"], r["kind"], repr(float(r["displacement"])),
                 repr(float(r["value"]))) for r in self.translates]
        write_rows(path, ("field", "kind", "displacement", "value"),
                   [list(zip(*rows))])

    def summary(self) -> str:
        m0 = float(self.mass_w[0])
        drift = float(np.max(np.abs(self.mass_w - m0)))
        rel = drift / abs(m0) if m0 != 0 else drift
        lines = [
            "diagnostics summary",
            f"  levels recorded : {self.levels.size} "
            f"(t = 0 .. {float(self.times[-1])!r})",
            f"  mass_w          : {m0!r}, max drift {drift:.3e} "
            f"(relative {rel:.3e})",
            f"  u range         : [{float(self.u_min.min()):.6e}, "
            f"{float(self.u_max.max()):.6e}]",
            f"  v range         : [{float(self.v_min.min()):.6e}, "
            f"{float(self.v_max.max()):.6e}]",
        ]
        if self.entropy is not None:
            inc = float(np.max(np.diff(self.entropy))) if self.entropy.size > 1 else 0.0
            lines.append(f"  entropy         : {float(self.entropy[0]):.6e} -> "
                         f"{float(self.entropy[-1]):.6e} "
                         f"(max per-step increase {inc:.3e})")
        lines.append(f"  gradient energy : E_u = {self.gradient_energy_u:.6e}, "
                     f"E_v = {self.gradient_energy_v:.6e}")
        lines.append(f"  reaction defect : R = {self.reaction_defect:.6e}")
        if self.compare is not None:
            c = self.compare
            lines.append(f"  vs limit        : J_u = {c['J_u']:.6e}, "
                         f"J_v = {c['J_v']:.6e}")
        if self.translates:
            lines.append(f"  translates      : {len(self.translates)} "
                         "seminorm values (see translates CSV)")
        return "\n".join(lines)


def diagnostics_report(mesh: Mesh, grid: TimeGrid, kin: Kinetics,
                       traj: Trajectory, wtraj: Trajectory | None = None,
                       entropy: bool = True, reference=None,
                       shifts=(), lags=()) -> DiagnosticsReport:
    """Assemble the full report for a coupled trajectory recorded at every
    level (and, optionally, its limit companion)."""
    shifts, lags = tuple(shifts), tuple(lags)
    _require_complete(grid, traj.levels)
    levels, times, u, v = traj.arrays()
    mass = (u / kin.alpha + v / kin.beta) @ mesh.volumes
    e_u, e_v = gradient_energy(mesh, grid, traj)
    report = DiagnosticsReport(
        levels=levels,
        times=times,
        mass_w=mass,
        u_min=u.min(axis=1), u_max=u.max(axis=1),
        v_min=v.min(axis=1), v_max=v.max(axis=1),
        entropy=lyapunov_series(mesh, kin, traj, reference=reference)
        if entropy else None,
        gradient_energy_u=e_u,
        gradient_energy_v=e_v,
        reaction_defect=reaction_defect(mesh, grid, kin, traj),
        compare=compare_to_limit(kin, traj, wtraj) if wtraj is not None else None,
        translates=translate_seminorms(mesh, grid, traj, kin, shifts, lags)
        if (shifts or lags) else None,
    )
    return report
