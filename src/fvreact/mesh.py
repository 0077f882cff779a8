"""Cell-centered 1D meshes and time grids.

A mesh is a chain of cells on an interval: face i joins cells i and i + 1,
so every implicit step's Jacobian is banded.  All arrays are immutable by
convention after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._csv import write_rows

__all__ = [
    "Mesh",
    "TimeGrid",
    "build_uniform_1d",
    "build_time_grid_uniform",
    "build_time_grid_ramped",
    "write_mesh_csv",
]


@dataclass(eq=False)
class Mesh:
    """A chain of cells on an interval; face i joins cells i and i + 1.

    Args:
        edges: cell boundary coordinates, shape (n_cells + 1,).
        volumes: cell measures, shape (n_cells,).
        transmissibilities: face measure / center distance per interior
            face, shape (n_cells - 1,).

    Derived on construction: ``x``, the cell centers, and ``deg``, the sum
    of the transmissibilities of each cell's faces (the diagonal of the
    Laplacian).
    """

    edges: np.ndarray
    volumes: np.ndarray
    transmissibilities: np.ndarray
    x: np.ndarray = field(init=False, repr=False)
    deg: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=float)
        self.volumes = np.asarray(self.volumes, dtype=float)
        self.transmissibilities = np.asarray(self.transmissibilities,
                                             dtype=float)
        n = self.n_cells
        if n == 0:
            raise ValueError("mesh needs at least one cell")
        if not np.all(np.isfinite(self.volumes)) or np.any(self.volumes <= 0):
            raise ValueError("cell measures must be positive and finite")
        if self.edges.shape != (n + 1,):
            raise ValueError(f"edges must have {n + 1} entries for {n} cells")
        if self.transmissibilities.shape != (n - 1,):
            raise ValueError(
                f"transmissibilities must have {n - 1} entries for {n} cells")
        self.x = 0.5 * (self.edges[:-1] + self.edges[1:])
        t = self.transmissibilities
        self.deg = np.zeros(n)
        self.deg[:-1] += t
        self.deg[1:] += t

    @property
    def n_cells(self) -> int:
        return self.volumes.shape[0]

    @property
    def n_faces(self) -> int:
        return self.n_cells - 1

    @property
    def size(self) -> float:
        """Mesh size: the largest cell measure."""
        return float(self.volumes.max())

    def apply_laplacian(self, f: np.ndarray) -> np.ndarray:
        """The discrete diffusion operator L f, where
        (L f)_K = -sum over neighbors L of T_{K|L} (f_L - f_K).

        Each row adds left neighbour, diagonal, right neighbour in that
        order, as a CSR matrix-vector product does; the order fixes the
        last bit of every residual, and so of every output file.
        """
        t = self.transmissibilities
        out = self.deg * f
        out[1:] = (-t) * f[:-1] + out[1:]
        out[:-1] += (-t) * f[1:]
        return out


@dataclass(eq=False)
class TimeGrid:
    """Discrete time levels 0 = t^(0) < t^(1) < ... < t^(N+1) = final time."""

    levels: np.ndarray

    def __post_init__(self):
        self.levels = np.asarray(self.levels, dtype=float)
        if self.levels.ndim != 1 or self.levels.size == 0:
            raise ValueError("levels must be a nonempty 1D array")
        if self.levels[0] != 0.0:
            raise ValueError("time grids start at t = 0")
        if np.any(np.diff(self.levels) <= 0):
            raise ValueError("time levels must be strictly increasing")

    @property
    def n_steps(self) -> int:
        return self.levels.size - 1

    @property
    def final_time(self) -> float:
        return float(self.levels[-1])

    @property
    def steps(self) -> np.ndarray:
        """Step sizes t^(n+1) - t^(n), shape (n_steps,)."""
        return np.diff(self.levels)


def build_uniform_1d(length: float, n_cells: int) -> Mesh:
    """Uniform mesh of n_cells intervals on [0, length].

    Cell measures are length / n_cells, interior faces are points (measure 1),
    and transmissibilities come out as n_cells / length.
    """
    if length <= 0:
        raise ValueError(f"domain length must be positive, got {length}")
    if int(n_cells) != n_cells or n_cells < 1:
        raise ValueError(f"n_cells must be a positive integer, got {n_cells}")
    n = int(n_cells)
    h = length / n
    return Mesh(edges=np.linspace(0.0, length, n + 1),
                volumes=np.full(n, h),
                transmissibilities=np.full(n - 1, 1.0 / h))


def build_time_grid_uniform(final_time: float, n_steps: int) -> TimeGrid:
    if final_time <= 0:
        raise ValueError(f"final time must be positive, got {final_time}")
    if int(n_steps) != n_steps or n_steps < 1:
        raise ValueError(f"n_steps must be a positive integer, got {n_steps}")
    return TimeGrid(np.linspace(0.0, final_time, int(n_steps) + 1))


def build_time_grid_ramped(initial_step: float, growth: float,
                           final_time: float) -> TimeGrid:
    """Geometrically growing steps, capped so the last level lands on final_time.

    Steps run initial_step, initial_step * growth, ... and the final step is
    shortened to hit final_time exactly.  A sliver smaller than 1e-9 of the
    last step taken is merged into that step instead of producing a
    degenerate level.
    """
    if initial_step <= 0:
        raise ValueError(f"initial step must be positive, got {initial_step}")
    if growth < 1.0:
        raise ValueError(f"growth factor must be >= 1, got {growth}")
    if final_time < initial_step:
        raise ValueError("final time must be at least the initial step")
    levels = [0.0]
    t, dt = 0.0, float(initial_step)
    while t + dt < final_time:
        t += dt
        levels.append(t)
        dt *= growth
    if len(levels) > 1 and final_time - t < 1e-9 * (t - levels[-2]):
        levels[-1] = final_time
    else:
        levels.append(final_time)
    return TimeGrid(np.asarray(levels))


def write_mesh_csv(mesh: Mesh, path) -> None:
    """Dump a cell summary (id, center coordinate, measure) as CSV."""
    write_rows(path, ("cell_id", "x", "measure"),
               [[list(map(str, range(mesh.n_cells))),
                 list(map(repr, mesh.x.tolist())),
                 list(map(repr, mesh.volumes.tolist()))]])
