"""Measure one workload: set-up probes, timed passes, checks, metrics.

An untraced run (``trace=False``) repeats the workload's fixed work until
the next pass would end past ``seconds`` and reports the end-to-end
metrics.  A traced run makes one untraced pass and one traced pass of the
same work, checks that both give the same outputs and counts, and reports
the per-layer metrics, the tracing overhead and the self-time table.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from . import THREAD_VARS, tracer as tracing
from .workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "perfbench" / "results"
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120

_clock = time.perf_counter


def git_commit(root: Path = ROOT) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def setup_seconds(name: str, seed: int, small: bool) -> float:
    """Set-up time of one fresh interpreter (see setup_probe.py)."""
    probe = ROOT / "perfbench" / "setup_probe.py"
    proc = subprocess.run(
        [sys.executable, str(probe), name, str(seed)]
        + (["small"] if small else []),
        cwd=ROOT, capture_output=True, text=True, check=True,
        timeout=PROBE_TIMEOUT_S)
    return float(proc.stdout.strip().splitlines()[-1])


def tail(samples: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _check_pass(wl, p, want_fingerprint, label, failures) -> tuple[int, str]:
    """Run the workload's checks on one pass; returns (failed ops,
    fingerprint) and appends messages to ``failures``."""
    rep = wl.check(p)
    fingerprint = wl.fingerprint(p)
    failures.extend(f"{label}: {msg}" for msg in rep.failures)
    if want_fingerprint is not None and fingerprint != want_fingerprint:
        failures.append(f"{label}: outputs differ from the first pass")
        return max(len(rep.failed_ops), 1), fingerprint
    return len(rep.failed_ops), fingerprint


def _warm_up(name: str, seed: int, workdir: Path) -> None:
    """One pass of the reduced-size workload, untimed: lazy imports and
    first-call costs are paid before anything is measured."""
    small = WORKLOADS[name](seed, small=True)
    small.setup()
    small.discard(small.run_pass(workdir))


def measure(name: str, seed: int, seconds: float, trace: bool,
            small: bool = False, setup_repeats: int = SETUP_REPEATS,
            results: Path = RESULTS) -> dict:
    """Run one workload and return its result record (see README)."""
    wl = WORKLOADS[name](seed, small=small)
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "small": small,
              "environment": environment(), "op": wl.op_name}
    results.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=results))
    try:
        wl.setup()
        _warm_up(name, seed, workdir)
        if trace:
            _traced(wl, workdir, record, results)
        else:
            probe = lambda: setup_seconds(name, seed, small)  # noqa: E731
            _untraced(wl, workdir, seconds, probe, setup_repeats, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not trace:
        record["metrics"]["peak_rss_mb"] = record["peak_rss_mb"]
    tag = f"{name}-seed{seed}-trace{int(trace)}" + ("-small" if small else "")
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def _untraced(wl, workdir, seconds, probe, setup_repeats, record) -> None:
    """Timed passes until the next one would end past ``seconds``.  One
    set-up probe runs before each pass (the rest after the last), so the
    set-up samples are spread over the run like the passes."""
    failures: list[str] = []
    passes, failed, first, setup = [], 0, None, []
    start = _clock()
    while True:
        if len(setup) < setup_repeats:
            setup.append(probe())
        p = wl.run_pass(workdir)
        bad, fingerprint = _check_pass(wl, p, first, f"pass {len(passes)}",
                                       failures)
        first = first or fingerprint
        failed += bad
        wl.discard(p)
        p.outputs = {}
        passes.append(p)
        typical = statistics.median(q.wall_s for q in passes)
        if _clock() - start + typical > seconds:
            break
    setup += [probe() for _ in range(setup_repeats - len(setup))]
    samples = [s for p in passes for s in p.op_s]
    tail_s, tail_pct = tail(samples)
    attempted = sum(p.attempted for p in passes)
    raised = sum(p.raised for p in passes)
    record.update(
        setup_s=setup, passes=len(passes), pass_wall_s=[p.wall_s for p in passes],
        attempted=attempted, failed=failed, raised=raised,
        steps=sum(p.steps for p in passes), op_samples=len(samples),
        op_tail_percentile=tail_pct, fingerprint=first,
        recorded_fingerprint=wl.recorded_fingerprint(), failures=failures,
        pass_op_s=[p.op_s for p in passes],
        correct=not failures and failed == 0,
        metrics={
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p.wall_s for p in passes),
            "steps_per_s": sum(p.steps for p in passes)
            / sum(p.wall_s for p in passes),
            "op_p50_ms": 1e3 * statistics.median(samples),
            "op_tail_ms": 1e3 * tail_s,
            "converged_ratio": 1.0 - raised / attempted,
        })


def _traced(wl, workdir, record, results) -> None:
    failures: list[str] = []
    plain = wl.run_pass(workdir)
    failed, first = _check_pass(wl, plain, None, "untraced pass", failures)
    wl.discard(plain)
    tr = tracing.Tracer()
    with tracing.patched(tracing.install(tr)):
        traced = wl.run_pass(workdir, tr)
    bad, _ = _check_pass(wl, traced, first, "traced pass", failures)
    failed += bad
    layers = tracing.layer_metrics(tr)
    layers["experiment.bytes_written"] = wl.bytes_written(traced)
    wl.discard(traced)
    layers["trace.wall_s"] = traced.wall_s
    layers["trace.overhead_s"] = traced.wall_s - plain.wall_s
    layers["trace.spans"] = len(tr.spans)
    # the same work, counted from outside and from the spans
    completed = (layers["scheme.steps"] - layers["scheme.failed"]
                 + layers["limit.steps"] - layers["limit.failed"])
    for label, a, b in (("attempted", plain.attempted, traced.attempted),
                        ("raised", plain.raised, traced.raised),
                        ("steps", plain.steps, traced.steps),
                        ("steps seen by the tracer", traced.steps, completed)):
        if a != b:
            failures.append(f"count mismatch, {label}: {a} vs {b}")
    tag = f"{record['workload']}-seed{record['seed']}" + (
        "-small" if record["small"] else "")
    spans_path = results / f"{tag}-spans.csv.gz"
    tr.write_spans(spans_path)
    record.update(
        attempted=traced.attempted, failed=failed, raised=traced.raised,
        steps=traced.steps, untraced_wall_s=plain.wall_s,
        spans_file=os.path.relpath(spans_path, ROOT),
        self_time=[{"span": n, "calls": c, "self_s": s}
                   for n, c, s in tr.self_time_table()],
        failures=failures, correct=not failures and failed == 0,
        metrics=layers)


def result_line(record: dict, units: dict) -> dict:
    """The final stdout line: correct, attempted, failed and the metrics
    named in ``units`` with their units."""
    metrics = record["metrics"]
    return {"correct": bool(record["correct"]),
            "attempted": int(record["attempted"]),
            "failed": int(record["failed"]),
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}
