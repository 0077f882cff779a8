"""Experiment configuration, presets, orchestration and file outputs.

A JSON config fully describes one experiment: mesh, time grid, kinetics,
initial data, solver knobs, diagnostics options and an optional sweep over
the rate factor.  ``run`` executes the coupled problem next to its
fast-reaction limit companion, writes CSVs plus a manifest, and returns the
diagnostics report; ``sweep`` repeats that over the rate factors as
independent jobs and tabulates the distances to the limit.

All numeric output is written via ``repr`` so reruns of the same build are
byte-identical (the manifest, which carries wall-clock timings, is the one
documented exception).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
import time as _time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .diagnostics import DiagnosticsReport, diagnostics_report
from .errors import ConfigError
from .kinetics import Kinetics, kinetics_from_dict
from .limit import integrate_w, project_initial_w, write_w_csv
from .mesh import (Mesh, TimeGrid, build_time_grid_ramped,
                   build_time_grid_uniform, build_uniform_1d, write_mesh_csv)
from .scheme import (SolverConfig, integrate, project_initial,
                     write_stats_csv, write_trajectory_csv)

__all__ = [
    "ExperimentConfig",
    "load_config",
    "preset_config",
    "preset_names",
    "run",
    "sweep",
    "emit_plot_data",
]

_PRESET_IC = "demo-bands"

# Upper bounds on a config's work, checked before anything is allocated:
# far beyond any useful run, and below sizes that crash the allocation.
# MAX_STEPS bounds the steps of every time grid, uniform or ramped.
MAX_STEPS = 10 ** 6
MAX_QUADRATURE_POINTS = 100

# Reversible dimerisation demo: a silane monomer/dimer pair.
_DEMO_KINETICS = {
    "name": "dimerisation",
    "k1": 1.072e-4,   # forward rate constant
    "k2": 2.363e-6,   # backward rate constant
    "a": 1.579e-9,    # monomer diffusivity [m^2/s]
    "b": 1.042e-9,    # dimer diffusivity [m^2/s]
    "k": 1.0,
}


def _demo_bands_u0(x):
    x = np.asarray(x, dtype=float)
    profile = np.where(x <= 0.03, 0.0,
                       0.5 * np.sin(50.0 * np.pi / 7.0 * (x - 0.03)))
    # the bands vanish at their edges; clamp away rounding dust like
    # cos(pi/2) ~ -1e-16 so projection sees genuinely nonnegative data
    return np.maximum(profile, 0.0)


def _demo_bands_v0(x):
    x = np.asarray(x, dtype=float)
    profile = np.where(x <= 0.07,
                       0.25 * np.cos(50.0 * np.pi / 7.0 * x), 0.0)
    return np.maximum(profile, 0.0)


def preset_names() -> list[str]:
    return ["dimerisation-tmax1", "dimerisation-tmax2", "dimerisation-sweep"]


def preset_config(name: str) -> dict:
    """Built-in experiment configs (as plain dicts, ready to serialize)."""
    base = {
        "mesh": {"domain_length": 0.1, "n_cells": 50},
        "time": {"kind": "ramped", "final_time": 1e5,
                 "initial_step": 1e-8, "growth": 1.05,
                 "limit_initial_step": 1e-6},
        "kinetics": dict(_DEMO_KINETICS),
        "initial": {"preset": _PRESET_IC},
        "solver": {},
        "quadrature_points": 1,
        "output": {"levels": "all"},
        "diagnostics": {"entropy": True},
    }
    if name == "dimerisation-tmax1":
        return base
    if name == "dimerisation-tmax2":
        base["time"]["final_time"] = 1e11
        return base
    if name == "dimerisation-sweep":
        base["time"]["final_time"] = 1e11
        base["diagnostics"]["entropy"] = False  # per-job speed; runs are many
        base["sweep"] = [10.0 ** e for e in range(-7, 1)]
        return base
    raise ConfigError(
        f"unknown preset {name!r}; available: {preset_names()}")


@dataclass(eq=False)
class ExperimentConfig:
    """Validated, normalized experiment description."""

    domain_length: float
    n_cells: int
    time_kind: str
    final_time: float
    n_steps: int | None
    initial_step: float | None
    growth: float | None
    limit_initial_step: float | None
    kinetics_spec: dict
    initial_spec: dict
    solver: SolverConfig
    sweep_values: tuple | None
    quadrature_points: int
    output_levels: tuple | None   # None = every level
    entropy: bool
    translate_shifts: tuple
    translate_lags: tuple

    # -- construction -------------------------------------------------

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        known = {"mesh", "time", "kinetics", "initial", "solver", "sweep",
                 "quadrature_points", "output", "diagnostics"}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"unknown config sections: {unknown}")
        for req in ("mesh", "time", "kinetics", "initial"):
            if req not in raw:
                raise ConfigError(f"missing config section {req!r}")

        mesh_d = _section(raw, "mesh", {"domain_length", "n_cells"},
                          required={"domain_length", "n_cells"})
        length = _number(mesh_d, "mesh.domain_length", positive=True)
        n_cells = _integer(mesh_d, "mesh.n_cells", minimum=1)

        time_d = _section(raw, "time",
                          {"kind", "final_time", "n_steps", "initial_step",
                           "growth", "limit_initial_step"},
                          required={"kind", "final_time"})
        kind = time_d["kind"]
        final_time = _number(time_d, "time.final_time", positive=True)
        n_steps = initial_step = growth = limit_t0 = None
        if kind == "uniform":
            if "n_steps" not in time_d:
                raise ConfigError("time.n_steps is required for uniform grids")
            for bad in ("initial_step", "growth", "limit_initial_step"):
                if bad in time_d:
                    raise ConfigError(f"time.{bad} does not apply to uniform grids")
            n_steps = _integer(time_d, "time.n_steps", minimum=1,
                               maximum=MAX_STEPS)
        elif kind == "ramped":
            if "n_steps" in time_d:
                raise ConfigError("time.n_steps does not apply to ramped grids")
            if "initial_step" not in time_d:
                raise ConfigError("time.initial_step is required for ramped grids")
            initial_step = _number(time_d, "time.initial_step", positive=True)
            growth = _number(time_d, "time.growth", positive=True) \
                if "growth" in time_d else 1.05
            if growth < 1.0:
                raise ConfigError("time.growth must be >= 1")
            limit_t0 = _number(time_d, "time.limit_initial_step",
                               positive=True) \
                if "limit_initial_step" in time_d else initial_step
            if initial_step > final_time or limit_t0 > final_time:
                raise ConfigError("time.initial_step exceeds time.final_time")
            for name, dt0 in (("initial_step", initial_step),
                              ("limit_initial_step", limit_t0)):
                steps = _ramped_steps(dt0, growth, final_time)
                if steps > MAX_STEPS:
                    raise ConfigError(
                        f"time.{name} and time.growth give {steps:.3g} steps "
                        f"to time.final_time, more than {MAX_STEPS}")
        else:
            raise ConfigError(
                f"time.kind must be 'uniform' or 'ramped', got {kind!r}")

        kin_d = raw["kinetics"]
        try:
            kinetics_from_dict(kin_d)  # validate now, rebuild per job later
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"kinetics: {exc}") from exc

        init_d = raw["initial"]
        _validate_initial(init_d)

        solver_d = _section(raw, "solver",
                            {"newton_tol", "newton_max_iter"}) \
            if "solver" in raw else {}
        try:
            solver = SolverConfig(**solver_d)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"solver: {exc}") from exc

        sweep_values = None
        if "sweep" in raw:
            if not isinstance(raw["sweep"], list) or not raw["sweep"]:
                raise ConfigError("sweep must be a nonempty list of rate factors")
            sweep_values = _float_list(raw["sweep"], "sweep")

        quad = _integer(raw, "quadrature_points", 1, MAX_QUADRATURE_POINTS) \
            if "quadrature_points" in raw else 1

        out_d = _section(raw, "output", {"levels"}) if "output" in raw else {}
        levels = out_d.get("levels", "all")
        if levels == "all":
            output_levels = None
        elif isinstance(levels, list) and levels \
                and all(isinstance(l, int) and not isinstance(l, bool)
                        and l >= 0 for l in levels):
            output_levels = tuple(sorted(set(levels)))
        else:
            raise ConfigError(
                "output.levels must be 'all' or a nonempty list of level indices")

        diag_d = _section(raw, "diagnostics",
                          {"entropy", "translate_shifts", "translate_lags"}) \
            if "diagnostics" in raw else {}
        entropy = diag_d.get("entropy", True)
        if not isinstance(entropy, bool):
            raise ConfigError("diagnostics.entropy must be a boolean")
        shifts = _float_list(diag_d.get("translate_shifts", []),
                             "diagnostics.translate_shifts")
        lags = _float_list(diag_d.get("translate_lags", []),
                           "diagnostics.translate_lags")

        return cls(
            domain_length=length, n_cells=n_cells,
            time_kind=kind, final_time=final_time, n_steps=n_steps,
            initial_step=initial_step, growth=growth,
            limit_initial_step=limit_t0,
            kinetics_spec=dict(kin_d), initial_spec=_normalize_initial(init_d),
            solver=solver, sweep_values=sweep_values,
            quadrature_points=quad, output_levels=output_levels,
            entropy=entropy, translate_shifts=shifts, translate_lags=lags)

    def to_dict(self) -> dict:
        """Fully explicit dict form; from_dict(to_dict(c)) reproduces c."""
        time_d: dict = {"kind": self.time_kind, "final_time": self.final_time}
        if self.time_kind == "uniform":
            time_d["n_steps"] = self.n_steps
        else:
            time_d["initial_step"] = self.initial_step
            time_d["growth"] = self.growth
            time_d["limit_initial_step"] = self.limit_initial_step
        out: dict = {
            "mesh": {"domain_length": self.domain_length,
                     "n_cells": self.n_cells},
            "time": time_d,
            "kinetics": dict(self.kinetics_spec),
            "initial": json.loads(json.dumps(self.initial_spec)),
            "solver": {
                "newton_tol": self.solver.newton_tol,
                "newton_max_iter": self.solver.newton_max_iter,
            },
            "quadrature_points": self.quadrature_points,
            "output": {"levels": "all" if self.output_levels is None
                       else list(self.output_levels)},
            "diagnostics": {
                "entropy": self.entropy,
                "translate_shifts": list(self.translate_shifts),
                "translate_lags": list(self.translate_lags),
            },
        }
        if self.sweep_values is not None:
            out["sweep"] = list(self.sweep_values)
        return out

    # -- builders -------------------------------------------------------

    def build_mesh(self) -> Mesh:
        return build_uniform_1d(self.domain_length, self.n_cells)

    def build_kinetics(self, rate_factor: float | None = None) -> Kinetics:
        spec = dict(self.kinetics_spec)
        if rate_factor is not None:
            spec["k"] = rate_factor
        return kinetics_from_dict(spec)

    def build_grid(self) -> TimeGrid:
        if self.time_kind == "uniform":
            return build_time_grid_uniform(self.final_time, self.n_steps)
        return build_time_grid_ramped(self.initial_step, self.growth,
                                      self.final_time)

    def build_limit_grid(self) -> TimeGrid:
        if self.time_kind == "uniform":
            return build_time_grid_uniform(self.final_time, self.n_steps)
        return build_time_grid_ramped(self.limit_initial_step, self.growth,
                                      self.final_time)

    def initial_profiles(self):
        spec = self.initial_spec
        if "preset" in spec:
            return _demo_bands_u0, _demo_bands_v0
        tab = spec["tabulated"]
        xs = np.asarray(tab["x"], dtype=float)
        us = np.asarray(tab["u"], dtype=float)
        vs = np.asarray(tab["v"], dtype=float)
        return (lambda x: np.interp(x, xs, us),
                lambda x: np.interp(x, xs, vs))


def _section(raw: dict, name: str, allowed: set, required: set = frozenset()
             ) -> dict:
    d = raw[name]
    if not isinstance(d, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"{name}: unknown fields {unknown}")
    missing = sorted(required - set(d))
    if missing:
        raise ConfigError(f"{name}: missing fields {missing}")
    return d


def _number(d: dict, path: str, positive: bool = False) -> float:
    val = d[path.split(".")[-1]]
    if not isinstance(val, (int, float)) or isinstance(val, bool) \
            or not math.isfinite(val):
        raise ConfigError(f"{path} must be a finite number")
    if positive and val <= 0:
        raise ConfigError(f"{path} must be positive")
    return float(val)


def _integer(d: dict, path: str, minimum: int, maximum=math.inf) -> int:
    val = d[path.split(".")[-1]]
    if not isinstance(val, int) or isinstance(val, bool) \
            or not minimum <= val <= maximum:
        raise ConfigError(
            f"{path} must be an integer in [{minimum}, {maximum}]")
    return val


def _ramped_steps(dt0: float, growth: float, final_time: float) -> float:
    """Step count of ``build_time_grid_ramped`` in closed form, before the
    ceiling: the least n with dt0 (g^n - 1)/(g - 1) >= T is the ceiling of
    log(1 + T (g - 1)/dt0)/log g, or of T/dt0 when g = 1.  Left a float, so
    a count past any bound compares as inf instead of raising."""
    if growth == 1.0:
        return final_time / dt0
    x = final_time / dt0 * (growth - 1.0)
    if math.isinf(x):  # log(1 + x) = log x to working precision
        return (math.log(final_time) - math.log(dt0)
                + math.log(growth - 1.0)) / math.log(growth)
    return math.log1p(x) / math.log(growth)


def _float_list(vals, path: str) -> tuple:
    if not isinstance(vals, list):
        raise ConfigError(f"{path} must be a list of numbers")
    out = []
    for i, val in enumerate(vals):
        if not isinstance(val, (int, float)) or isinstance(val, bool) \
                or not math.isfinite(val) or val < 0:
            raise ConfigError(f"{path}[{i}] must be a finite number >= 0")
        out.append(float(val))
    return tuple(out)


def _validate_initial(spec) -> None:
    if not isinstance(spec, dict):
        raise ConfigError("initial must be an object")
    keys = set(spec)
    if keys == {"preset"}:
        if spec["preset"] != _PRESET_IC:
            raise ConfigError(
                f"initial.preset must be {_PRESET_IC!r}, got {spec['preset']!r}")
        return
    if keys == {"tabulated"}:
        tab = spec["tabulated"]
        if not isinstance(tab, dict) or set(tab) != {"x", "u", "v"}:
            raise ConfigError("initial.tabulated needs exactly x, u, v arrays")
        try:
            xs = np.asarray(tab["x"], dtype=float)
            us = np.asarray(tab["u"], dtype=float)
            vs = np.asarray(tab["v"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"initial.tabulated: {exc}") from exc
        if xs.ndim != 1 or xs.size < 2 or us.shape != xs.shape \
                or vs.shape != xs.shape:
            raise ConfigError(
                "initial.tabulated arrays must be 1D, equal length, >= 2 points")
        if np.any(np.diff(xs) <= 0):
            raise ConfigError("initial.tabulated x must be strictly increasing")
        if np.any(us < 0) or np.any(vs < 0):
            raise ConfigError("initial.tabulated values must be nonnegative")
        return
    raise ConfigError(
        "initial must contain exactly one of 'preset' or 'tabulated'")


def _normalize_initial(spec: dict) -> dict:
    if "preset" in spec:
        return {"preset": spec["preset"]}
    tab = spec["tabulated"]
    return {"tabulated": {"x": [float(x) for x in tab["x"]],
                          "u": [float(u) for u in tab["u"]],
                          "v": [float(v) for v in tab["v"]]}}


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    return ExperimentConfig.from_dict(raw)


# -- orchestration -----------------------------------------------------------

def run(cfg: ExperimentConfig, outdir, write_mesh: bool = False,
        echo=print) -> DiagnosticsReport:
    """Execute one experiment: coupled problem, limit companion, diagnostics,
    CSV outputs and a manifest, all under ``outdir``."""
    if cfg.sweep_values is not None:
        raise ConfigError("config defines a sweep; use sweep() for it")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    mesh = cfg.build_mesh()
    kin = cfg.build_kinetics()
    grid = cfg.build_grid()
    wgrid = cfg.build_limit_grid()
    u0, v0 = cfg.initial_profiles()
    init = project_initial(mesh, u0, v0, n_quad=cfg.quadrature_points)
    winit = project_initial_w(mesh, kin, u0, v0, n_quad=cfg.quadrature_points)

    timings: dict[str, float] = {}
    tic = _time.perf_counter()
    traj = integrate(mesh, kin, grid, init, cfg.solver)
    timings["coupled_integrate"] = _time.perf_counter() - tic
    tic = _time.perf_counter()
    wtraj = integrate_w(mesh, kin, wgrid, winit, cfg.solver)
    timings["limit_integrate"] = _time.perf_counter() - tic

    tic = _time.perf_counter()
    report = diagnostics_report(
        mesh, grid, kin, traj, wtraj=wtraj, entropy=cfg.entropy,
        shifts=cfg.translate_shifts, lags=cfg.translate_lags)
    timings["diagnostics"] = _time.perf_counter() - tic

    files = _write_outputs(cfg, mesh, traj, wtraj, report, outdir, write_mesh)
    _write_manifest(cfg, outdir, files, timings, report)
    if echo is not None:
        echo(report.summary())
    return report


def _subset(traj, keep: set):
    return replace(traj, states=[s for s in traj.states if s.level in keep])


def _write_outputs(cfg, mesh, traj, wtraj, report, outdir: Path,
                   write_mesh: bool) -> list[Path]:
    files = []

    def keep_set(n_steps: int) -> set:
        if cfg.output_levels is None:
            return set(range(n_steps + 1))
        return {l for l in cfg.output_levels if l <= n_steps} | {n_steps}

    path = outdir / "trajectory.csv"
    write_trajectory_csv(mesh, _subset(traj, keep_set(traj.final.level)), path)
    files.append(path)
    path = outdir / "trajectory_w.csv"
    write_w_csv(mesh, _subset(wtraj, keep_set(wtraj.final.level)), path)
    files.append(path)
    path = outdir / "stats.csv"
    write_stats_csv(traj, path)
    files.append(path)
    path = outdir / "stats_w.csv"
    write_stats_csv(wtraj, path)
    files.append(path)
    path = outdir / "diagnostics.csv"
    report.write_csv(path)
    files.append(path)
    if report.translates is not None:
        path = outdir / "translates.csv"
        report.write_translates_csv(path)
        files.append(path)
    if write_mesh:
        path = outdir / "mesh.csv"
        write_mesh_csv(mesh, path)
        files.append(path)
    path = outdir / "config.json"
    path.write_text(canonical_config_json(cfg) + "\n")
    files.append(path)
    return files


def canonical_config_json(cfg: ExperimentConfig) -> str:
    return json.dumps(cfg.to_dict(), indent=2, sort_keys=True)


def _write_manifest(cfg, outdir: Path, files: list[Path], timings: dict,
                    report: DiagnosticsReport) -> Path:
    import scipy

    config_json = canonical_config_json(cfg)
    lines = [
        "fvreact run manifest",
        "version: 0.1.0",
        f"created: {_time.strftime('%Y-%m-%dT%H:%M:%SZ', _time.gmtime())}",
        f"python: {sys.version.split()[0]}",
        f"numpy: {np.__version__}  scipy: {scipy.__version__}",
        f"config sha256: {hashlib.sha256(config_json.encode()).hexdigest()}",
        "",
        "--- config (rerun with: fvreact run -c config.json) ---",
        config_json,
        "",
        "--- outputs ---",
    ]
    for path in files:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{path.name} sha256={digest} bytes={path.stat().st_size}")
    lines.append("")
    lines.append("--- timings [s] ---")
    for name, dt in timings.items():
        lines.append(f"{name}: {dt:.3f}")
    lines.append("")
    lines.append("--- summary ---")
    lines.append(report.summary())
    path = outdir / "manifest.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


def sweep(cfg: ExperimentConfig, outdir, jobs: int = 1,
          write_mesh: bool = False, echo=print) -> list[dict]:
    """Run each rate factor of cfg.sweep_values as an independent job in
    ``outdir/k_<value>/`` and tabulate the results in sweep_summary.csv.

    Jobs share nothing; with jobs > 1 they run in a thread pool.
    """
    if cfg.sweep_values is None:
        raise ConfigError("config defines no sweep list")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    base = cfg.to_dict()
    base.pop("sweep")

    def job(k: float) -> dict:
        sub_raw = json.loads(json.dumps(base))
        sub_raw["kinetics"]["k"] = k
        sub = ExperimentConfig.from_dict(sub_raw)
        subdir = outdir / f"k_{k:.3e}"
        report = run(sub, subdir, write_mesh=write_mesh, echo=None)
        rec = {"k": k,
               "E_u": report.gradient_energy_u,
               "E_v": report.gradient_energy_v,
               "R": report.reaction_defect}
        rec.update(report.compare)
        rec.pop("final_time", None)
        return rec

    ks = sorted(cfg.sweep_values)
    if jobs == 1:
        records = [job(k) for k in ks]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(job, ks))

    columns = ["k", "J_u", "J_v", "E_u", "E_v", "R"]
    path = outdir / "sweep_summary.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for rec in records:
            writer.writerow([repr(float(rec[c])) for c in columns])
    if echo is not None:
        echo(f"swept {len(records)} rate factors -> {path}")
        for rec in records:
            echo(f"  k = {rec['k']:.3e}: J_u = {rec['J_u']:.6e}, "
                 f"J_v = {rec['J_v']:.6e}")
    return records


# -- gnuplot-ready per-level files -------------------------------------------

def emit_plot_data(trajectory_csv, outdir, levels=None) -> list[Path]:
    """Split a trajectory CSV into per-level columnar files.

    Accepts both the coupled schema (level,t,cell_id,x,u,v) and the limit
    schema (level,t,cell_id,x,w).  Writes level_<n>.dat files with a comment
    header; whitespace-separated columns, ready for gnuplot.
    """
    src = Path(trajectory_csv)
    try:
        fh = open(src, newline="")
    except OSError as exc:
        raise ConfigError(f"cannot read {src}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{src}: empty file") from None
        if header[:4] != ["level", "t", "cell_id", "x"] or len(header) < 5:
            raise ConfigError(
                f"{src}: not a trajectory CSV (header {header!r})")
        value_cols = header[4:]
        data: dict[int, dict] = {}
        for ln, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ConfigError(f"{src}:{ln}: expected {len(header)} fields")
            try:
                level = int(row[0])
                t = float(row[1])
                cell = int(row[2])
                x = float(row[3])
                vals = [float(c) for c in row[4:]]
            except ValueError as exc:
                raise ConfigError(f"{src}:{ln}: {exc}") from exc
            entry = data.setdefault(level, {"t": t, "rows": []})
            entry["rows"].append((cell, x, vals))
    if not data:
        raise ConfigError(f"{src}: no data rows")

    wanted = sorted(data) if levels is None else sorted(set(int(l) for l in levels))
    missing = [l for l in wanted if l not in data]
    if missing:
        raise ConfigError(f"{src}: levels {missing} not present")

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for level in wanted:
        entry = data[level]
        path = outdir / f"level_{level:06d}.dat"
        with open(path, "w") as out:
            out.write(f"# level {level}, t = {entry['t']!r}\n")
            out.write("# x " + " ".join(value_cols) + "\n")
            for cell, x, vals in sorted(entry["rows"]):
                out.write(" ".join([repr(x)] + [repr(v) for v in vals]) + "\n")
        written.append(path)
    return written
