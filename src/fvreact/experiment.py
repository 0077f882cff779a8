"""Experiment configuration, presets, orchestration and file outputs.

A JSON config fully describes one experiment: mesh, time grid, kinetics,
initial data, solver knobs, diagnostics options and an optional sweep over
the rate factor.  ``run`` executes the coupled problem next to its
fast-reaction limit companion, writes CSVs plus a manifest, and returns the
diagnostics report; ``sweep`` repeats that for each rate factor in turn,
each in its own directory, and tabulates the distances to the limit.

All numeric output is written via ``repr`` so reruns of the same build are
byte-identical (the manifest, which carries wall-clock timings, is the one
documented exception).
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
import sys
import time as _time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from types import UnionType
from typing import Literal, NamedTuple, Union, get_args, get_origin

import numpy as np

from ._csv import write_rows
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
# MAX_WORK bounds (steps + 1) * n_cells on the larger of the two time grids:
# a run keeps every level, u and v on the coupled grid and w and z on the
# limit grid, 8 bytes each, so it bounds the stored states by 0.32 GB.
MAX_WORK = 10 ** 7

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
        base["diagnostics"]["entropy"] = False  # per-run speed; runs are many
        base["sweep"] = [10.0 ** e for e in range(-7, 1)]
        return base
    raise ConfigError(
        f"unknown preset {name!r}; available: {preset_names()}")


# -- config schema ----------------------------------------------------------

_REQUIRED = object()
_ANY = "(-inf, inf)"


class Field(NamedTuple):
    """One config field: its type, the interval that its numbers (list
    entries too) lie in, and its default.  A field without a default is
    required; a default of None leaves it out when absent.  A list may be
    empty only where its default is the empty list."""

    type: object
    bounds: str = _ANY
    default: object = _REQUIRED


_POSITIVE = Field(float, "(0, inf)")
_NONNEGATIVE = "[0, inf)"

# One table per kind of time grid and per form of initial data.

_TIME = {
    "uniform": {"kind": Field(Literal["uniform"]), "final_time": _POSITIVE,
                "n_steps": Field(int, f"[1, {MAX_STEPS}]")},
    "ramped": {"kind": Field(Literal["ramped"]), "final_time": _POSITIVE,
               "initial_step": _POSITIVE,
               "growth": Field(float, "[1, inf)", 1.05),
               # absent: from_dict sets it to initial_step
               "limit_initial_step": Field(float, "(0, inf)", None)},
}

_INITIAL = {
    "preset": {"preset": Field(Literal[_PRESET_IC])},
    "tabulated": {"tabulated": {"x": Field(list[float]),
                                "u": Field(list[float], _NONNEGATIVE),
                                "v": Field(list[float], _NONNEGATIVE)}},
}


def _time_section(d) -> dict:
    if not isinstance(d, dict) or d.get("kind") not in tuple(_TIME):
        raise ConfigError(f"time.kind must be one of {tuple(_TIME)}")
    return _walk(d, _TIME[d["kind"]], "time")


def _initial_section(d) -> dict:
    key = next(iter(d)) if isinstance(d, dict) and len(d) == 1 else None
    if key not in _INITIAL:
        raise ConfigError(
            "initial must contain exactly one of 'preset' or 'tabulated'")
    spec = _walk(d, _INITIAL[key], "initial")
    if key == "tabulated":
        x, u, v = spec["tabulated"].values()
        if len(x) < 2 or len(u) != len(x) or len(v) != len(x):
            raise ConfigError(
                "initial.tabulated arrays must have equal length, >= 2 points")
        if any(b <= a for a, b in zip(x, x[1:])):
            raise ConfigError("initial.tabulated.x must increase strictly")
    return spec


def _kinetics_section(d) -> dict:
    try:
        kinetics_from_dict(d)  # validate now, rebuild per run later
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"kinetics: {exc}") from exc
    return dict(d)


def _solver_section(d) -> dict:
    try:
        return asdict(SolverConfig(**d))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"solver: {exc}") from exc


# The whole config.  Each section is a table of fields, or a function that
# checks it and returns its normalized form: kinetics_from_dict and
# SolverConfig own the fields of theirs.

_SCHEMA = {
    "mesh": {"domain_length": _POSITIVE, "n_cells": Field(int, "[1, inf)")},
    "time": _time_section,
    "kinetics": _kinetics_section,
    "initial": _initial_section,
    "solver": _solver_section,
    "quadrature_points": Field(int, f"[1, {MAX_QUADRATURE_POINTS}]", 1),
    "output": {"levels": Field(Literal["all"] | list[int], _NONNEGATIVE,
                               "all")},
    "diagnostics": {"entropy": Field(bool, default=True),
                    "translate_shifts": Field(list[float], _NONNEGATIVE, []),
                    "translate_lags": Field(list[float], _NONNEGATIVE, [])},
    "sweep": Field(list[float], _NONNEGATIVE, None),
}


def _walk(raw, table: dict, path: str) -> dict:
    """Check ``raw`` against ``table`` and return it normalized, with every
    default filled in.  An absent section is checked as an empty one."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'config root'} must be an object")
    unknown = sorted(set(raw) - set(table))
    if unknown:
        raise ConfigError(f"{path or 'config'}: unknown fields {unknown}")
    out = {}
    for name, entry in table.items():
        where = f"{path}.{name}" if path else name
        if callable(entry):
            out[name] = entry(raw.get(name, {}))
        elif isinstance(entry, dict):
            out[name] = _walk(raw.get(name, {}), entry, where)
        elif name in raw:
            empty_ok = entry.default == []
            out[name] = _value(raw[name], entry.type, entry.bounds, empty_ok)
            if out[name] is None:
                tail = "" if entry.bounds == _ANY else f" in {entry.bounds}"
                raise ConfigError(
                    f"{where} must be {_describe(entry.type, empty_ok)}{tail}")
        elif entry.default is _REQUIRED:
            raise ConfigError(f"{where} is required")
        elif entry.default is not None:
            out[name] = copy.copy(entry.default)
    return out


def _value(val, kind, bounds: str, empty_ok: bool):
    """``val`` as a value of type ``kind`` within ``bounds`` (ints become
    floats where the type is float), or None if it is not one."""
    origin, args = get_origin(kind), get_args(kind)
    if origin is Literal:
        return val if isinstance(val, str) and val in args else None
    if origin in (Union, UnionType):
        outs = (_value(val, alt, bounds, empty_ok) for alt in args)
        return next((out for out in outs if out is not None), None)
    if origin is list:
        if not isinstance(val, list) or not (val or empty_ok):
            return None
        out = [_value(item, args[0], bounds, False) for item in val]
        return None if None in out else out
    if kind is bool:
        return val if isinstance(val, bool) else None
    if isinstance(val, bool) or not isinstance(val, (int, float)) \
            or kind is int and not isinstance(val, int) \
            or kind is float and not abs(val) <= sys.float_info.max:
        return None
    low, high = (float(end) for end in bounds[1:-1].split(","))
    inside = (low < val if bounds[0] == "(" else low <= val) \
        and (val < high if bounds[-1] == ")" else val <= high)
    return kind(val) if inside else None


def _describe(kind, empty_ok: bool) -> str:
    if get_origin(kind) in (Literal, Union, UnionType):
        return " or ".join(repr(alt) if isinstance(alt, str)
                           else _describe(alt, empty_ok)
                           for alt in get_args(kind))
    if get_origin(kind) is list:
        items = "integers" if get_args(kind)[0] is int else "finite numbers"
        return f"a {'' if empty_ok else 'nonempty '}list of {items}"
    return {float: "a finite number", int: "an integer",
            bool: "true or false"}[kind]


@dataclass(eq=False)
class ExperimentConfig:
    """A validated experiment: ``spec`` is the config dict that
    ``from_dict`` checked against the schema, with every default filled in.
    """

    spec: dict

    def __post_init__(self):
        self.solver = SolverConfig(**self.spec["solver"])
        self.quadrature_points = self.spec["quadrature_points"]
        sweep = self.spec.get("sweep")
        self.sweep_values = None if sweep is None else tuple(sweep)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Check each field against the schema, then the bounds that join
        fields: each time grid's steps, the run's work and the translates;
        and that no two sweep factors share an output directory."""
        spec = _walk(raw, _SCHEMA, "")
        mesh, time = spec["mesh"], spec["time"]
        steps = time.get("n_steps", 0)
        if time["kind"] == "ramped":
            time.setdefault("limit_initial_step", time["initial_step"])
            for name in ("initial_step", "limit_initial_step"):
                if time[name] > time["final_time"]:
                    raise ConfigError(f"time.{name} exceeds time.final_time")
                n = _ramped_steps(time[name], time["growth"],
                                  time["final_time"])
                if n > MAX_STEPS:
                    raise ConfigError(
                        f"time.{name} and time.growth give {n:.3g} steps "
                        f"to time.final_time, more than {MAX_STEPS}")
                steps = max(steps, math.ceil(n))
        work = (steps + 1) * mesh["n_cells"]
        if work > MAX_WORK:
            raise ConfigError(
                f"mesh.n_cells times the time levels is {work}, "
                f"more than {MAX_WORK}")
        diag = spec["diagnostics"]
        if any(s > mesh["domain_length"] for s in diag["translate_shifts"]):
            raise ConfigError(
                "diagnostics.translate_shifts exceed mesh.domain_length")
        if any(lag > time["final_time"] for lag in diag["translate_lags"]):
            raise ConfigError(
                "diagnostics.translate_lags exceed time.final_time")
        if spec["output"]["levels"] != "all":
            spec["output"]["levels"] = sorted(set(spec["output"]["levels"]))
        seen: dict[str, float] = {}
        for k in spec.get("sweep") or []:
            name = _sweep_dir(k)
            if name in seen:
                raise ConfigError(
                    f"sweep factors {seen[name]!r} and {k!r} share the "
                    f"output directory {name}")
            seen[name] = k
        return cls(spec)

    def to_dict(self) -> dict:
        """Fully explicit dict form; from_dict(to_dict(c)) reproduces c."""
        return copy.deepcopy(self.spec)

    def build_mesh(self) -> Mesh:
        mesh = self.spec["mesh"]
        return build_uniform_1d(mesh["domain_length"], mesh["n_cells"])

    def build_kinetics(self, rate_factor: float | None = None) -> Kinetics:
        spec = dict(self.spec["kinetics"])
        if rate_factor is not None:
            spec["k"] = rate_factor
        return kinetics_from_dict(spec)

    def build_grid(self) -> TimeGrid:
        return self._grid("initial_step")

    def build_limit_grid(self) -> TimeGrid:
        return self._grid("limit_initial_step")

    def _grid(self, first_step: str) -> TimeGrid:
        time = self.spec["time"]
        if time["kind"] == "uniform":
            return build_time_grid_uniform(time["final_time"], time["n_steps"])
        return build_time_grid_ramped(time[first_step], time["growth"],
                                      time["final_time"])

    def initial_profiles(self):
        if "preset" in self.spec["initial"]:
            return _demo_bands_u0, _demo_bands_v0
        xs, us, vs = (np.asarray(values, dtype=float) for values
                      in self.spec["initial"]["tabulated"].values())
        return (lambda x: np.interp(x, xs, us),
                lambda x: np.interp(x, xs, vs))


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


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 text
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except ValueError as exc:  # an integer longer than Python converts
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
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
    diag = cfg.spec["diagnostics"]
    report = diagnostics_report(
        mesh, grid, kin, traj, wtraj=wtraj, entropy=diag["entropy"],
        shifts=diag["translate_shifts"], lags=diag["translate_lags"])
    timings["diagnostics"] = _time.perf_counter() - tic

    tic = _time.perf_counter()
    files = _write_outputs(cfg, mesh, traj, wtraj, report, outdir, write_mesh)
    timings["outputs"] = _time.perf_counter() - tic
    _write_manifest(cfg, outdir, files, timings, report)
    if echo is not None:
        echo(report.summary())
    return report


def _write_outputs(cfg, mesh, traj, wtraj, report, outdir: Path,
                   write_mesh: bool) -> list[Path]:
    """Write each output in manifest order and return the paths written.
    The writers are looked up when this runs, so a patched one is used."""
    levels = cfg.spec["output"]["levels"]

    def kept(t):
        """``t`` cut to the configured levels and its own final level."""
        if levels == "all":
            return t
        keep = set(levels) | {t.final.level}
        return replace(t, states=[s for s in t.states if s.level in keep])

    writers = {
        "trajectory.csv": lambda p: write_trajectory_csv(mesh, kept(traj), p),
        "trajectory_w.csv": lambda p: write_w_csv(mesh, kept(wtraj), p),
        "stats.csv": lambda p: write_stats_csv(traj, p),
        "stats_w.csv": lambda p: write_stats_csv(wtraj, p),
        "diagnostics.csv": report.write_csv,
        "translates.csv": report.write_translates_csv
        if report.translates is not None else None,
        "mesh.csv": (lambda p: write_mesh_csv(mesh, p)) if write_mesh else None,
        "config.json": lambda p: p.write_text(canonical_config_json(cfg)
                                              + "\n"),
    }
    files = [outdir / name for name, write in writers.items() if write]
    for path in files:
        writers[path.name](path)
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


def _sweep_dir(k: float) -> str:
    """The directory, under a sweep's output directory, of rate factor k."""
    return f"k_{k:.3e}"


def sweep(cfg: ExperimentConfig, outdir, jobs: int = 1,
          write_mesh: bool = False, echo=print) -> list[dict]:
    """Run each rate factor of cfg.sweep_values in turn, in increasing
    order, in ``outdir/k_<value>/`` (``_sweep_dir``), and tabulate the
    results in sweep_summary.csv.

    ``jobs`` must be 1: it remains only for callers that still pass it.
    """
    if cfg.sweep_values is None:
        raise ConfigError("config defines no sweep list")
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs!r}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    base = {name: spec for name, spec in cfg.spec.items() if name != "sweep"}

    def job(k: float) -> dict:
        sub = ExperimentConfig({**base, "kinetics": {**base["kinetics"],
                                                     "k": k}})
        report = run(sub, outdir / _sweep_dir(k), write_mesh=write_mesh,
                     echo=None)
        rec = {"k": k,
               "E_u": report.gradient_energy_u,
               "E_v": report.gradient_energy_v,
               "R": report.reaction_defect}
        rec.update(report.compare)
        rec.pop("final_time", None)
        return rec

    records = [job(k) for k in sorted(cfg.sweep_values)]

    columns = ("k", "J_u", "J_v", "E_u", "E_v", "R")
    path = outdir / "sweep_summary.csv"
    write_rows(path, columns, [[[repr(float(rec[c])) for rec in records]
                                for c in columns]])
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
