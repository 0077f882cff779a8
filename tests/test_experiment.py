import copy
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fvreact.errors import ConfigError
from fvreact.experiment import (ExperimentConfig, emit_plot_data, load_config,
                                preset_config, preset_names, run, sweep)
from fvreact.mesh import build_time_grid_ramped


def tiny_config(**overrides):
    raw = {
        "mesh": {"domain_length": 0.1, "n_cells": 8},
        "time": {"kind": "ramped", "final_time": 1e-4,
                 "initial_step": 1e-7, "growth": 1.3,
                 "limit_initial_step": 1e-6},
        "kinetics": {"name": "dimerisation", "k1": 1.072e-4, "k2": 2.363e-6,
                     "a": 1.579e-9, "b": 1.042e-9, "k": 1.0},
        "initial": {"preset": "demo-bands"},
    }
    raw.update(overrides)
    return raw


# -- config parsing ------------------------------------------------------------

def test_round_trip_is_identity():
    cfg = ExperimentConfig.from_dict(tiny_config())
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert cfg.to_dict() == again.to_dict()


def test_round_trip_preserves_every_preset():
    for name in preset_names():
        cfg = ExperimentConfig.from_dict(preset_config(name))
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert cfg.to_dict() == again.to_dict(), name


def test_uniform_time_config():
    raw = tiny_config(time={"kind": "uniform", "final_time": 1.0, "n_steps": 5})
    cfg = ExperimentConfig.from_dict(raw)
    grid = cfg.build_grid()
    assert grid.n_steps == 5
    assert cfg.build_limit_grid().n_steps == 5


def test_limit_grid_uses_its_own_initial_step():
    cfg = ExperimentConfig.from_dict(tiny_config())
    assert cfg.build_grid().steps[0] == pytest.approx(1e-7)
    assert cfg.build_limit_grid().steps[0] == pytest.approx(1e-6)


def test_tabulated_initial_interpolates():
    raw = tiny_config(initial={"tabulated": {
        "x": [0.0, 0.05, 0.1], "u": [0.0, 1.0, 0.0], "v": [0.5, 0.5, 0.5]}})
    cfg = ExperimentConfig.from_dict(raw)
    u0, v0 = cfg.initial_profiles()
    assert u0(0.025) == pytest.approx(0.5)
    assert v0(0.08) == pytest.approx(0.5)
    # constant extrapolation beyond the table
    assert u0(0.2) == pytest.approx(0.0)


@pytest.mark.parametrize("mangle,needle", [
    (lambda r: r.pop("mesh"), "mesh"),
    (lambda r: r.__setitem__("typo", {}), "unknown"),
    (lambda r: r["mesh"].__setitem__("n_cells", 0), "n_cells"),
    (lambda r: r["mesh"].__setitem__("n_cells", 2.5), "n_cells"),
    (lambda r: r["time"].__setitem__("kind", "exotic"), "kind"),
    (lambda r: r["time"].__setitem__("growth", 0.5), "growth"),
    (lambda r: r["time"].pop("initial_step"), "initial_step"),
    (lambda r: r["time"].__setitem__("n_steps", 3), "n_steps"),
    (lambda r: r["kinetics"].pop("k1"), "kinetics"),
    (lambda r: r.__setitem__("initial", {"preset": "nope"}), "preset"),
    (lambda r: r.__setitem__("initial", {}), "initial"),
    (lambda r: r.__setitem__("sweep", []), "sweep"),
    (lambda r: r.__setitem__("sweep", [1.0, -2.0]), "sweep"),
    # both factors would write to k_1.000e+00
    (lambda r: r.__setitem__("sweep", [1.0, 1.00001]), "sweep"),
    (lambda r: r.__setitem__("quadrature_points", 0), "quadrature"),
    pytest.param(lambda r: r.__setitem__("quadrature_points", 101),
                 "quadrature", id="quadrature-bound"),
    pytest.param(lambda r: r.__setitem__("time", {
        "kind": "uniform", "final_time": 1.0, "n_steps": 10 ** 6 + 1}),
        "n_steps", id="n_steps-bound"),
    (lambda r: r.__setitem__("output", {"levels": []}), "levels"),
    (lambda r: r.__setitem__("diagnostics", {"entropy": "yes"}), "entropy"),
    (lambda r: r.__setitem__("solver", {"newton_tol": -1.0}), "solver"),
    (lambda r: r.__setitem__("solver", {"linear_solver": "dense-direct"}),
     "linear_solver"),
    (lambda r: r.__setitem__("solver", {"linesearch": False}), "linesearch"),
    pytest.param(lambda r: r.__setitem__("solver", {"newton_tol": math.inf}),
                 "newton_tol", id="newton_tol-inf"),
    pytest.param(lambda r: r.__setitem__("solver", {"newton_tol": math.nan}),
                 "newton_tol", id="newton_tol-nan"),
    pytest.param(lambda r: r.__setitem__("solver", {"newton_tol": True}),
                 "newton_tol", id="newton_tol-true"),
    # the residual is scaled: a tolerance of 1 or more stops at once
    pytest.param(lambda r: r.__setitem__("solver", {"newton_tol": 1e300}),
                 "newton_tol", id="newton_tol-1e300"),
    pytest.param(lambda r: r.__setitem__("solver", {"newton_tol": 1}),
                 "newton_tol", id="newton_tol-1"),
    pytest.param(lambda r: r.__setitem__("solver", {"newton_max_iter": 2.5}),
                 "newton_max_iter", id="newton_max_iter-2.5"),
    pytest.param(lambda r: r["kinetics"].__setitem__("k", "1e3"),
                 "kinetics", id="k-string"),
    pytest.param(lambda r: r["kinetics"].__setitem__("k", True),
                 "kinetics", id="k-true"),
    pytest.param(lambda r: r.__setitem__("initial", {"tabulated": {
        "x": [0.0, 0.1], "u": [0.0, math.nan], "v": [0.0, 0.0]}}),
        "tabulated", id="tabulated-nan"),
    pytest.param(lambda r: r.__setitem__("initial", {"tabulated": {
        "x": [0.0, 0.1], "u": [0.0, 0.0], "v": [math.inf, 0.0]}}),
        "tabulated", id="tabulated-inf"),
    pytest.param(lambda r: r.__setitem__("diagnostics",
                                         {"translate_shifts": [0.2]}),
                 "translate_shifts", id="shift-above-domain"),
    pytest.param(lambda r: r.__setitem__("diagnostics",
                                         {"translate_lags": [1e-3]}),
                 "translate_lags", id="lag-above-final-time"),
    pytest.param(lambda r: r["mesh"].__setitem__("n_cells", 2 ** 62),
                 "n_cells", id="work-bound"),
])
def test_validation_errors_name_the_field(mangle, needle):
    raw = tiny_config()
    mangle(raw)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(raw)
    assert needle in str(err.value)


def test_work_bound_counts_cells_times_levels_of_the_larger_grid():
    # MAX_WORK bounds (steps + 1) * n_cells before anything is allocated
    from fvreact.experiment import MAX_WORK

    uniform = {"kind": "uniform", "final_time": 1.0, "n_steps": 9}
    n_cells = MAX_WORK // 10
    ExperimentConfig.from_dict(tiny_config(
        time=uniform, mesh={"domain_length": 0.1, "n_cells": n_cells}))
    with pytest.raises(ConfigError, match="n_cells"):
        ExperimentConfig.from_dict(tiny_config(
            time=uniform, mesh={"domain_length": 0.1, "n_cells": n_cells + 1}))
    # the ramped grids of tiny_config have 22 (coupled) and 14 (limit) steps
    cfg = ExperimentConfig.from_dict(tiny_config())
    assert cfg.build_grid().n_steps == 22
    n_cells = MAX_WORK // 23
    ExperimentConfig.from_dict(tiny_config(
        mesh={"domain_length": 0.1, "n_cells": n_cells}))
    with pytest.raises(ConfigError, match="n_cells"):
        ExperimentConfig.from_dict(tiny_config(
            mesh={"domain_length": 0.1, "n_cells": n_cells + 1}))


def test_tabulated_initial_validation():
    bad = {"tabulated": {"x": [0.0, 0.0], "u": [0.0, 0.0], "v": [0.0, 0.0]}}
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(tiny_config(initial=bad))
    neg = {"tabulated": {"x": [0.0, 1.0], "u": [0.0, -1.0], "v": [0.0, 0.0]}}
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(tiny_config(initial=neg))


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"mesh": \n  oops}')
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert ":2:" in str(err.value)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")


def test_preset_config_unknown_name():
    with pytest.raises(ConfigError):
        preset_config("nonexistent")


# -- run orchestration -----------------------------------------------------------

EXPECTED_FILES = {"trajectory.csv", "trajectory_w.csv", "stats.csv",
                  "stats_w.csv", "diagnostics.csv", "config.json",
                  "manifest.txt"}


def test_run_writes_all_outputs(tmp_path):
    cfg = ExperimentConfig.from_dict(tiny_config(
        diagnostics={"entropy": True, "translate_shifts": [0.02],
                     "translate_lags": [1e-5]}))
    report = run(cfg, tmp_path / "out", write_mesh=True, echo=None)
    names = {p.name for p in (tmp_path / "out").iterdir()}
    assert EXPECTED_FILES | {"mesh.csv", "translates.csv"} <= names
    assert report.compare is not None

    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "config sha256:" in manifest
    assert "trajectory.csv sha256=" in manifest
    assert "J_u" in manifest
    # the config echo inside the manifest is itself valid JSON
    echoed = (tmp_path / "out" / "config.json").read_text()
    assert ExperimentConfig.from_dict(json.loads(echoed)).to_dict() == cfg.to_dict()


def test_run_is_deterministic(tmp_path):
    cfg = ExperimentConfig.from_dict(tiny_config())
    run(cfg, tmp_path / "a", echo=None)
    run(cfg, tmp_path / "b", echo=None)
    for name in EXPECTED_FILES - {"manifest.txt"}:  # manifest carries timings
        ha = hashlib.sha256((tmp_path / "a" / name).read_bytes()).hexdigest()
        hb = hashlib.sha256((tmp_path / "b" / name).read_bytes()).hexdigest()
        assert ha == hb, name


def test_run_rejects_sweep_config(tmp_path):
    cfg = ExperimentConfig.from_dict(tiny_config(sweep=[0.1, 1.0]))
    with pytest.raises(ConfigError):
        run(cfg, tmp_path / "out", echo=None)


def test_run_respects_output_level_subset(tmp_path):
    def written(outdir, name):
        rows = (outdir / name).read_text().strip().splitlines()
        return sorted({int(r.split(",")[0]) for r in rows[1:]})

    cfg = ExperimentConfig.from_dict(tiny_config(output={"levels": [0]}))
    run(cfg, tmp_path / "out", echo=None)
    levels = written(tmp_path / "out", "trajectory.csv")
    assert 0 in levels
    assert len(levels) == 2  # level 0 plus the always-kept final level

    # each file applies the levels to its own grid: a level past the limit
    # grid's last step is written for the coupled run only, and each file
    # keeps its own final level
    n, n_w = cfg.build_grid().n_steps, cfg.build_limit_grid().n_steps
    late = (n + n_w) // 2
    assert n_w < late < n
    cfg = ExperimentConfig.from_dict(
        tiny_config(output={"levels": [0, late]}))
    run(cfg, tmp_path / "late", echo=None)
    assert written(tmp_path / "late", "trajectory.csv") == [0, late, n]
    assert written(tmp_path / "late", "trajectory_w.csv") == [0, n_w]


def test_sweep_tabulates(tmp_path):
    cfg = ExperimentConfig.from_dict(tiny_config(sweep=[1e-3, 1.0]))
    with pytest.raises(ValueError, match="jobs"):
        sweep(cfg, tmp_path / "s", jobs=2, echo=None)
    records = sweep(cfg, tmp_path / "s", echo=None)
    assert [r["k"] for r in records] == [1e-3, 1.0]
    sub = {p.name for p in (tmp_path / "s").iterdir()}
    assert "sweep_summary.csv" in sub
    assert "k_1.000e-03" in sub and "k_1.000e+00" in sub
    lines = (tmp_path / "s" / "sweep_summary.csv").read_text().strip().splitlines()
    assert lines[0].split(",")[:3] == ["k", "J_u", "J_v"]
    assert len(lines) == 3
    for rec in records:
        assert rec["J_u"] >= 0 and np.isfinite(rec["R"])


def test_sweep_requires_sweep_list(tmp_path):
    cfg = ExperimentConfig.from_dict(tiny_config())
    with pytest.raises(ConfigError):
        sweep(cfg, tmp_path / "s", echo=None)


# -- plot data -----------------------------------------------------------------

def test_emit_plot_data_splits_levels(tmp_path):
    cfg = ExperimentConfig.from_dict(tiny_config())
    run(cfg, tmp_path / "out", echo=None)
    files = emit_plot_data(tmp_path / "out" / "trajectory.csv",
                           tmp_path / "plots")
    assert len(files) == cfg.build_grid().n_steps + 1
    text = files[0].read_text().splitlines()
    assert text[0].startswith("# level 0")
    assert text[1] == "# x u v"
    assert len(text) == 2 + 8
    # limit trajectories work through the same path
    wfiles = emit_plot_data(tmp_path / "out" / "trajectory_w.csv",
                            tmp_path / "wplots", levels=[0])
    assert len(wfiles) == 1
    assert wfiles[0].read_text().splitlines()[1] == "# x w"


def test_emit_plot_data_rejects_bad_inputs(tmp_path):
    with pytest.raises(ConfigError):
        emit_plot_data(tmp_path / "missing.csv", tmp_path / "p")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ConfigError):
        emit_plot_data(empty, tmp_path / "p")
    headers_only = tmp_path / "headers.csv"
    headers_only.write_text("level,t,cell_id,x,u,v\n")
    with pytest.raises(ConfigError):
        emit_plot_data(headers_only, tmp_path / "p")
    malformed = tmp_path / "bad.csv"
    malformed.write_text("level,t,cell_id,x,u,v\n0,0.0,0,0.5,oops,1\n")
    with pytest.raises(ConfigError):
        emit_plot_data(malformed, tmp_path / "p")
    wrong = tmp_path / "wrong.csv"
    wrong.write_text("a,b\n1,2\n")
    with pytest.raises(ConfigError):
        emit_plot_data(wrong, tmp_path / "p")
    # requesting a level that is not present
    good = tmp_path / "good.csv"
    good.write_text("level,t,cell_id,x,u,v\n0,0.0,0,0.5,0.1,0.2\n")
    with pytest.raises(ConfigError):
        emit_plot_data(good, tmp_path / "p", levels=[7])
    # nothing half-written on failure
    assert not (tmp_path / "p").exists()


# -- command line ------------------------------------------------------------------

def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "fvreact.cli", *args],
                          capture_output=True, text=True)


def test_cli_validate_config_ok(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(tiny_config()))
    proc = run_cli("validate-config", "-c", str(cfg_path))
    assert proc.returncode == 0
    assert "config OK" in proc.stdout


@pytest.mark.parametrize("field, value", [("k", float("nan")),
                                          ("k", float("inf")),
                                          ("a", float("inf"))])
def test_cli_validate_config_non_finite_kinetics(tmp_path, field, value):
    raw = tiny_config()
    raw["kinetics"][field] = value
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(raw))   # written as NaN / Infinity
    proc = run_cli("validate-config", "-c", str(cfg_path))
    assert proc.returncode == 2
    assert "config OK" not in proc.stdout
    assert proc.stderr.startswith("config error: kinetics: ")


def test_cli_validate_config_bad_field(tmp_path):
    raw = tiny_config()
    raw["mesh"]["n_cells"] = -3
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(raw))
    proc = run_cli("validate-config", "-c", str(cfg_path))
    assert proc.returncode == 2
    assert "n_cells" in proc.stderr


def test_cli_run_and_plot_data(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(tiny_config()))
    out = tmp_path / "out"
    proc = run_cli("run", "-c", str(cfg_path), "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "trajectory.csv").exists()
    assert "J_u" in proc.stdout

    plots = tmp_path / "plots"
    proc2 = run_cli("plot-data", str(out / "trajectory.csv"), "-o", str(plots))
    assert proc2.returncode == 0
    assert list(plots.glob("level_*.dat"))


def test_cli_run_preset_requires_exactly_one_source():
    proc = run_cli("run", "-o", "/tmp/nowhere")
    assert proc.returncode == 2


@pytest.mark.parametrize("field,value", [
    ("quadrature_points", 2 ** 63),
    ("time", {"kind": "uniform", "final_time": 1.0, "n_steps": 2 ** 62})])
def test_cli_rejects_oversized_integers(tmp_path, capsys, field, value):
    # both once passed validation and then crashed run with exit 1
    # (OverflowError from leggauss, ValueError from the grid allocation);
    # now from_dict rejects them against a documented bound, so both
    # commands exit 2 before anything is allocated
    from fvreact.cli import main

    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(tiny_config(**{field: value})))
    assert main(["validate-config", "-c", str(cfg_path)]) == 2
    assert main(["run", "-c", str(cfg_path), "-o", str(tmp_path / "o")]) == 2
    assert "must be an integer in [1, " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("final_time", [100.0, 1e11])
def test_ramped_grid_with_growth_1_is_rejected(tmp_path, capsys, final_time):
    # growth 1 from a 1e-8 s first step needs 1e10 (T = 100 s) or 1e19
    # (T = 1e11 s) levels; this once passed validation, and run appended
    # levels until memory ran out.  from_dict must reject it first, so the
    # grid is never built
    from fvreact.cli import main

    raw = tiny_config(time={"kind": "ramped", "final_time": final_time,
                            "initial_step": 1e-8, "growth": 1,
                            "limit_initial_step": 1e-6})
    with pytest.raises(ConfigError, match="more than 1000000"):
        ExperimentConfig.from_dict(raw)
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["validate-config", "-c", str(cfg_path)]) == 2
    assert main(["run", "-c", str(cfg_path), "-o", str(tmp_path / "o")]) == 2
    assert "time.initial_step and time.growth give" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_ramped_step_count_matches_the_built_grid():
    # the closed form from_dict checks against MAX_STEPS counts the steps
    # build_time_grid_ramped makes: exactly on every preset, and within the
    # one step a merged end sliver saves on seeded random grids
    from fvreact.experiment import _ramped_steps

    for name in preset_names():
        cfg = ExperimentConfig.from_dict(preset_config(name))
        time = cfg.to_dict()["time"]
        for dt0, grid in ((time["initial_step"], cfg.build_grid()),
                          (time["limit_initial_step"], cfg.build_limit_grid())):
            steps = math.ceil(_ramped_steps(dt0, time["growth"],
                                            time["final_time"]))
            assert steps == grid.n_steps, name
    # T (g - 1)/dt0 overflows; the end sliver is compared with the step
    # just taken, not the grown one, so the first step stays 1e-8 s
    grid = build_time_grid_ramped(1e-8, 1e300, 1e10)
    assert grid.steps[0] == 1e-8
    assert grid.n_steps == math.ceil(_ramped_steps(1e-8, 1e300, 1e10)) == 2
    rng = np.random.default_rng(25)
    cases = []
    for _ in range(200):
        dt0 = 10.0 ** rng.uniform(-9, 0)
        growth = float(rng.choice([1.0, 1.0 + 10.0 ** rng.uniform(-4, 0)]))
        cases.append((dt0, growth, dt0 * 10.0 ** rng.uniform(0, 3.5)))
    for dt0, growth, final_time in cases:
        grid = build_time_grid_ramped(dt0, growth, final_time)
        steps = math.ceil(_ramped_steps(dt0, growth, final_time))
        assert 0 <= steps - grid.n_steps <= 1, (dt0, growth, final_time)


def test_cli_solver_failure_exit_code(tmp_path):
    # one Newton iteration cannot finish a 1e4 s first step (residual 0.06)
    raw = tiny_config(time={"kind": "uniform", "final_time": 2e4,
                            "n_steps": 2},
                      solver={"newton_max_iter": 1})
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(raw))
    proc = run_cli("run", "-c", str(cfg_path), "-o", str(tmp_path / "out"))
    assert proc.returncode == 3
    assert "solver error: coupled step to level 1 at t = 10000.0" in proc.stderr
    for part in ("dt = 10000.0", "k = 1.0", "tried previous-state (residual",
                 "after 1 iterations)"):
        assert part in proc.stderr
    assert proc.stderr.count("(residual ") == 1
    assert "equilibrium-guess" not in proc.stderr
    assert "splitting" not in proc.stderr


def test_cli_io_failure_exit_code(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(tiny_config()))
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    proc = run_cli("run", "-c", str(cfg_path), "-o", str(blocker))
    assert proc.returncode == 4
    assert "i/o error" in proc.stderr


def test_cli_sweep(tmp_path):
    raw = tiny_config(sweep=[1e-2, 1.0])
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "s"
    proc = run_cli("sweep", "-c", str(cfg_path), "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "sweep_summary.csv").exists()
    assert "swept 2 rate factors" in proc.stdout
    # the factors run serially: there is no --jobs option
    proc = run_cli("sweep", "-c", str(cfg_path), "-o", str(out), "--jobs", "2")
    assert proc.returncode == 2


# -- the CLI contract under config mutations ---------------------------------

def _small_bases() -> dict:
    """Each preset in its normalized form, on 4 cells with steps growing
    1.5x (the sweep over the two ends of its rate factors), plus the first
    with tabulated initial data: small enough to run in milliseconds."""
    bases = {}
    for name in preset_names():
        raw = ExperimentConfig.from_dict(preset_config(name)).to_dict()
        raw["mesh"]["n_cells"] = 4
        raw["time"]["growth"] = 1.5
        if "sweep" in raw:
            raw["sweep"] = [raw["sweep"][0], raw["sweep"][-1]]
        bases[name] = raw
    tab = copy.deepcopy(bases["dimerisation-tmax1"])
    tab["initial"] = {"tabulated": {"x": [0.0, 0.05, 0.1],
                                    "u": [0.0, 0.5, 0.0],
                                    "v": [0.25, 0.0, 0.0]}}
    bases["tabulated"] = tab
    return bases


def _paths(node, path=()):
    """The path of every field, section and list entry below ``node``."""
    items = node.items() if isinstance(node, dict) \
        else enumerate(node) if isinstance(node, list) else ()
    for key, val in items:
        yield path + (key,)
        yield from _paths(val, path + (key,))


def _edited(raw, path, change):
    out = copy.deepcopy(raw)
    node = out
    for key in path[:-1]:
        node = node[key]
    change(node, path[-1])
    return out


def _mutants(raw):
    """(kind, path, config) for each mutation of ``raw``.  Every kind but
    "drop" must be rejected."""
    for path in _paths(raw):
        node = raw
        for key in path:
            node = node[key]
        yield "drop", path, _edited(raw, path, lambda n, k: n.pop(k))
        if isinstance(node, bool):
            others = [1, "true"]
        elif isinstance(node, (int, float)):
            # bool is the sneakiest: Python takes it for the integer 0 or 1
            others = [True, str(node)] + ([node + 0.5]
                                          if isinstance(node, int) else [])
            for value in (math.nan, math.inf, -math.inf):
                yield "non-finite", path, _edited(
                    raw, path, lambda n, k: n.__setitem__(k, value))
            if node > 0:
                yield "range", path, _edited(
                    raw, path, lambda n, k: n.__setitem__(k, -node))
        else:
            others = [1, None, []] if isinstance(node, str) else ["x", []] \
                if isinstance(node, dict) else ["x", {}]
        for value in others:
            yield "type", path, _edited(
                raw, path, lambda n, k: n.__setitem__(k, value))
        if isinstance(node, dict):
            yield "unknown", path, _edited(
                raw, path, lambda n, k: n[k].__setitem__("unknown_field", 1))
    yield "unknown", (), {**raw, "unknown_section": {}}
    # bounds that join fields, and a float past the double range
    for path, value in [(("mesh", "n_cells"), 2 ** 62),
                        (("mesh", "domain_length"), 10 ** 400),
                        (("diagnostics", "translate_shifts"), [0.2]),
                        (("diagnostics", "translate_lags"), [2e11]),
                        (("time", "initial_step"), 2e11),
                        (("quadrature_points",), 101)]:
        yield "range", path, _edited(
            raw, path, lambda n, k: n.__setitem__(k, value))


def test_cli_contract_under_config_mutations(tmp_path, capsys):
    # every mutant of every preset exits 0, 2, 3 or 4 and never raises:
    # validate-config rejects each mutant that is not a dropped field with
    # exit 2, and a seeded sample of the accepted ones also runs
    from fvreact.cli import main

    def exit_code(*argv):
        try:
            return main(list(argv))
        except Exception as exc:  # the contract under test: never raise
            return repr(exc)

    rng = np.random.default_rng(26)
    cfg_path = tmp_path / "c.json"
    failures = []
    for base, raw in _small_bases().items():
        accepted = []
        for kind, path, mutant in _mutants(raw):
            cfg_path.write_text(json.dumps(mutant))
            code = exit_code("validate-config", "-c", str(cfg_path))
            if code not in ((0, 2) if kind == "drop" else (2,)):
                failures.append((base, kind, path, code))
            if code == 0:
                accepted.append(mutant)
        for i in rng.choice(len(accepted), size=2, replace=False):
            cfg_path.write_text(json.dumps(accepted[i]))
            command = "sweep" if "sweep" in accepted[i] else "run"
            code = exit_code(command, "-c", str(cfg_path),
                             "-o", str(tmp_path / f"{base}-{i}"))
            if code not in (0, 2, 3, 4):
                failures.append((base, command, accepted[i], code))
    # files that are not a JSON config at all
    for text in (b"\xff\xfe{", b'{"mesh": ' + b"1" * 5000 + b"}"):
        cfg_path.write_bytes(text)
        code = exit_code("validate-config", "-c", str(cfg_path))
        if code != 2:
            failures.append((text[:12], code))
    capsys.readouterr()
    assert not failures, failures
