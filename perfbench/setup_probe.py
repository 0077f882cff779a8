"""Time one workload's set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed> [small]

The clock starts before anything beyond ``sys`` and ``time`` is imported,
and stops once fvreact is imported, the config validated and the mesh,
kinetics, time grids and initial projection built.  Prints the seconds.
"""

import sys
import time

start = time.perf_counter()

if __name__ == "__main__":
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench.workloads import WORKLOADS

    name, seed = sys.argv[1], int(sys.argv[2])
    WORKLOADS[name](seed, small=sys.argv[3:] == ["small"]).setup()
    print(repr(time.perf_counter() - start))
