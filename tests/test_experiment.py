import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fvreact.errors import ConfigError
from fvreact.experiment import (ExperimentConfig, emit_plot_data, load_config,
                                preset_config, preset_names, run, sweep)


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
    (lambda r: r.__setitem__("quadrature_points", 0), "quadrature"),
    (lambda r: r.__setitem__("output", {"levels": []}), "levels"),
    (lambda r: r.__setitem__("diagnostics", {"entropy": "yes"}), "entropy"),
    (lambda r: r.__setitem__("solver", {"newton_tol": -1.0}), "solver"),
    (lambda r: r.__setitem__("solver", {"linear_solver": "dense-direct"}),
     "linear_solver"),
    (lambda r: r.__setitem__("solver", {"linesearch": False}), "linesearch"),
])
def test_validation_errors_name_the_field(mangle, needle):
    raw = tiny_config()
    mangle(raw)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(raw)
    assert needle in str(err.value)


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
    cfg = ExperimentConfig.from_dict(tiny_config(output={"levels": [0]}))
    run(cfg, tmp_path / "out", echo=None)
    rows = (tmp_path / "out" / "trajectory.csv").read_text().strip().splitlines()
    levels = {int(r.split(",")[0]) for r in rows[1:]}
    assert 0 in levels
    assert len(levels) == 2  # level 0 plus the always-kept final level


def test_sweep_runs_jobs_and_tabulates(tmp_path):
    cfg = ExperimentConfig.from_dict(tiny_config(sweep=[1e-3, 1.0]))
    records = sweep(cfg, tmp_path / "s", jobs=2, echo=None)
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
    proc = run_cli("sweep", "-c", str(cfg_path), "-o", str(out), "--jobs", "2")
    assert proc.returncode == 0, proc.stderr
    assert (out / "sweep_summary.csv").exists()
    assert "swept 2 rate factors" in proc.stdout
