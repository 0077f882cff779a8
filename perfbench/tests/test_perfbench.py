"""The benchmark's own tests: reduced-size smoke runs, checks that fire on
corrupted outputs, and counts that agree between traced and untraced runs.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, harness  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
COUNT_UNITS = ("count", "bytes")


def _run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600)


def _small_pass(name, seed=3):
    wl = WORKLOADS[name](seed, small=True)
    wl.setup()
    return wl


# -- contract of the command line -------------------------------------------

@pytest.mark.parametrize("trace, units", [(0, END_TO_END), (1, PER_LAYER)])
def test_smoke_every_metric_with_its_unit(trace, units):
    proc = _run_cli("--workload", "all", "--seed", "2", "--seconds", "0",
                    "--trace", str(trace), "--small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    for wl in WORKLOADS:
        for name, unit in units.items():
            metric = result["metrics"][f"{wl}/{name}"]
            assert metric["unit"] == unit
            assert isinstance(metric["value"], (int, float))


def test_single_workload_line_has_exactly_the_end_to_end_metrics():
    proc = _run_cli("--workload", "stiff-steps", "--seed", "2",
                    "--seconds", "0", "--trace", "0", "--small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(result["metrics"]) == list(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: no result, nonzero."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run_cli("--workload", "run-tmax1", "--seed", "1", "--seconds",
                    "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_benchmark_json_matches_the_harness():
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(WORKLOADS)
    assert "setup_s" in END_TO_END
    setup_bound = next(m["bound"] for m in BENCH["end_to_end"]
                       if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound for m in BENCH["end_to_end"])
    mapping = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    assert set(mapping["workloads"]) == set(WORKLOADS)
    assert mapping["development_seed"] != mapping["holdout_seed"]
    for spec in mapping["workloads"].values():
        for entry in spec["moves"]:
            assert set(entry["per_layer"]) <= set(PER_LAYER)
            assert set(entry["end_to_end"]) <= set(END_TO_END)
        assert set(spec.get("no_change_expected", [])) <= set(PER_LAYER)


# -- inputs ------------------------------------------------------------------

@pytest.mark.parametrize("name", ["ensemble-pairs", "stiff-steps"])
def test_inputs_depend_only_on_the_seed(name):
    def flat(seed):
        wl = WORKLOADS[name](seed)
        rows = wl.inputs()
        return np.concatenate([np.atleast_1d(np.asarray(x, dtype=float))
                               for row in rows for x in row])
    assert np.array_equal(flat(5), flat(5))
    assert not np.array_equal(flat(5), flat(6))


def test_stiff_inputs_cover_the_stated_ranges():
    wl = WORKLOADS["stiff-steps"](4)
    probes = wl.inputs()
    ks = [p[0] for p in probes]
    assert ks[:5] == list(wl.rate_factors)
    assert len(probes) == 5 * wl.probes_per_k
    dts = np.array([p[1] for p in probes])
    assert dts.min() >= 1.0 and dts.max() <= 1e12
    assert dts.min() < 10.0 and dts.max() > 1e11


def test_tail_has_ten_samples_beyond_it():
    samples = list(range(100))
    value, pct = harness.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(90.0)
    assert harness.tail([3.0, 1.0]) == (3.0, 100.0)


# -- the checks fire on corrupted outputs -------------------------------------

def test_mass_check_fires_on_perturbed_mass():
    mass = np.full(20, 3.0)
    checks.mass_drift(mass)
    mass[7] *= 1.0 + 1e-9
    with pytest.raises(checks.CheckFailed):
        checks.mass_drift(mass)


def test_entropy_check_fires_on_an_increase():
    entropy = np.linspace(5.0, 1.0, 30)
    checks.entropy_nonincreasing(entropy, 50)
    entropy[12] = entropy[10]
    with pytest.raises(checks.CheckFailed):
        checks.entropy_nonincreasing(entropy, 50)


def test_reference_check_fires_on_a_drifted_value():
    ref = {"J_u": 0.0056, "J_v": 0.0037, "R": 6.2e-8}
    checks.against_reference(dict(ref), ref)
    checks.against_reference(dict(ref, J_u=0.0056 + 1e-12), ref)
    with pytest.raises(checks.CheckFailed):
        checks.against_reference(dict(ref, R=6.2e-8 * (1 + 1e-5)), ref)


def test_pair_check_fires_on_a_swapped_pair():
    m = np.full(4, 0.25)
    lo = np.array([[0.1] * 8, [0.1] * 8])
    hi = lo + np.array([[0.3] * 8, [0.2] * 8])
    checks.ordered_and_contracting(lo, hi, m, 2.0, 1.0, 1e-11)
    with pytest.raises(checks.CheckFailed, match="ordering"):
        checks.ordered_and_contracting(hi, lo, m, 2.0, 1.0, 1e-11)
    with pytest.raises(checks.CheckFailed, match="L1"):
        checks.ordered_and_contracting(lo, hi[::-1], m, 2.0, 1.0, 1e-11)


def test_envelope_checks_fire_outside_the_envelope():
    u0, v0 = np.array([0.4, 0.1]), np.array([0.2, 0.0])
    checks.coupled_envelope(u0, v0, u0, v0, 2.0, 1e-11)
    with pytest.raises(checks.CheckFailed, match="negative"):
        checks.coupled_envelope(u0, v0, u0 - 0.2, v0, 2.0, 1e-11)
    with pytest.raises(checks.CheckFailed, match="above"):
        checks.coupled_envelope(u0, v0, u0 + 0.5, v0, 2.0, 1e-11)
    w0 = u0 / 2 + v0
    checks.limit_envelope(w0, np.full(2, w0.mean()), 1e-11)
    with pytest.raises(checks.CheckFailed):
        checks.limit_envelope(w0, w0 * 1.01, 1e-11)


def test_workload_checks_fire_on_corrupted_passes(tmp_path):
    run = _small_pass("run-tmax1")
    p = run.run_pass(tmp_path)
    assert run.check(p).ok
    p.outputs["result"].mass_w[3] *= 1.0 + 1e-8
    assert not run.check(p).ok

    pairs = _small_pass("ensemble-pairs")
    p = pairs.run_pass(tmp_path)
    assert pairs.check(p).ok
    k, los, his = p.outputs["traces"][2]
    p.outputs["traces"][2] = (k, his, los)
    report = pairs.check(p)
    assert report.failed_ops == {2}

    stiff = _small_pass("stiff-steps")
    p = stiff.run_pass(tmp_path)
    assert stiff.check(p).ok
    op = next(i for i, (c, _) in enumerate(p.outputs["outcomes"])
              if not isinstance(c, str))
    u, v = p.outputs["outcomes"][op][0]
    p.outputs["outcomes"][op] = ((u + 10.0, v), p.outputs["outcomes"][op][1])
    assert stiff.check(p).failed_ops == {op}


# -- traced and untraced runs agree -------------------------------------------

@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat_and_match_untraced(name, tmp_path):
    plain = harness.measure(name, 2, 0, trace=False, small=True,
                            setup_repeats=1, results=tmp_path)
    first = harness.measure(name, 2, 0, trace=True, small=True,
                            results=tmp_path)
    second = harness.measure(name, 2, 0, trace=True, small=True,
                             results=tmp_path)
    assert plain["correct"] and first["correct"] and second["correct"]
    assert set(first["metrics"]) >= set(PER_LAYER)
    for metric, unit in PER_LAYER.items():
        if unit in COUNT_UNITS:
            assert first["metrics"][metric] == second["metrics"][metric], \
                metric
    per_pass = plain["steps"] // plain["passes"]
    assert first["steps"] == per_pass
    assert first["attempted"] == plain["attempted"] // plain["passes"]
    assert first["raised"] == plain["raised"] // plain["passes"]
