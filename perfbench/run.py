#!/usr/bin/env python3
"""fvreact benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of run-tmax1, sweep-k, ensemble-pairs, stiff-steps, or ``all``
to run the four one after another in this process.  With ``--trace 0`` the
last stdout line is a JSON object with the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics.  The
lines above it are a human-readable report; the full record (environment,
samples, checks, self-time table) goes to perfbench/results/.

Exit status: 0 when every output check passed, 1 when a check failed or an
unexpected exception aborted the run, 2 when the fvreact sources are
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced-size inputs, for smoke tests")
    return parser.parse_args(argv)


def _report(record: dict, units: dict) -> list[str]:
    env = record["environment"]
    lines = [
        f"== {record['workload']}  seed {record['seed']}  "
        f"trace {record['trace']}",
        "env: " + "  ".join(f"{k}={v}" for k, v in env.items()),
    ]
    metrics = record["metrics"]
    if record["trace"]:
        lines.append(f"untraced pass {record['untraced_wall_s']:.3f} s; "
                     f"spans in {record['spans_file']}")
        lines.append(f"{'self time by span':40s} {'calls':>9s} "
                     f"{'self s':>10s}")
        for row in record["self_time"]:
            lines.append(f"  {row['span']:38s} {row['calls']:9d} "
                         f"{row['self_s']:10.4f}")
    else:
        lines.append(
            f"passes {record['passes']} (wall "
            + " ".join(f"{w:.3f}" for w in record["pass_wall_s"])
            + f" s); op = {record['op']}; {record['op_samples']} op samples, "
            f"tail = p{record['op_tail_percentile']:.2f}; setup from "
            f"{len(record['setup_s'])} fresh interpreters")
        lines.append(f"failed_ratio {record['raised'] / record['attempted']:.4f}"
                     f" ({record['raised']} of {record['attempted']} ops raised"
                     " a solver error)")
        recorded = record["recorded_fingerprint"]
        lines.append(f"fingerprint {record['fingerprint']}" + (
            "" if recorded is None else " (recorded: "
            + ("same" if recorded == record["fingerprint"] else recorded)
            + ")"))
    for name, unit in units.items():
        lines.append(f"  {name:38s} {metrics[name]:14.6g} {unit}")
    lines.append(f"checks: {'pass' if record['correct'] else 'FAIL'}")
    lines.extend("  " + msg for msg in record["failures"][:20])
    return lines


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "fvreact" / "__init__.py").is_file():
        print(f"error: no fvreact sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import THREAD_VARS

    for var in THREAD_VARS:      # before numpy is first imported
        os.environ[var] = "1"
    import fvreact

    from perfbench.harness import measure, result_line
    from perfbench.workloads import WORKLOADS

    if Path(fvreact.__file__).resolve().parents[1] != ROOT / "src":
        print(f"error: fvreact imported from {fvreact.__file__}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}

    lines = []
    for name in names:
        record = measure(name, args.seed, args.seconds, bool(args.trace),
                         small=args.small)
        print("\n".join(_report(record, units)), flush=True)
        lines.append((name, result_line(record, units)))
    if len(lines) == 1:
        result = lines[0][1]
    else:
        if not args.trace:
            _summary(lines, units)
        result = {
            "correct": all(r["correct"] for _, r in lines),
            "attempted": sum(r["attempted"] for _, r in lines),
            "failed": sum(r["failed"] for _, r in lines),
            "metrics": {f"{name}/{m}": v for name, r in lines
                        for m, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _summary(lines, units) -> None:
    """One table, a row per workload, for ``--workload all --trace 0``;
    failed_ratio is shown next to the converged_ratio it complements."""
    names = list(units)
    print("\n" + f"{'workload':16s}" + "".join(f"{n:>18s}" for n in names)
          + f"{'failed_ratio':>18s}")
    for wl, result in lines:
        values = [result["metrics"][n]["value"] for n in names]
        values.append(1.0 - result["metrics"]["converged_ratio"]["value"])
        print(f"{wl:16s}" + "".join(f"{v:18.6g}" for v in values))
    print(f"{'unit':16s}" + "".join(f"{units[n]:>18s}" for n in names)
          + f"{'ratio':>18s}")

if __name__ == "__main__":
    sys.exit(main())
