"""Output checks the benchmark applies outside its timed region.

Each check takes plain numbers or arrays and raises :class:`CheckFailed`
with the measured values when the outputs break the property it guards.
:class:`Report` runs a list of checks and keeps every failure message.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

MASS_RTOL = 1e-10        # relative drift of sum m * w over a run
REF_RTOL = 1e-6          # J_u, J_v and R against the recorded values
REF_ATOL = {"J_u": 1e-9, "J_v": 1e-9, "R": 0.0}   # floors for J near 0

_REFERENCE = Path(__file__).with_name("reference.json")


class CheckFailed(AssertionError):
    pass


class Report:
    """Counts checks run and collects the messages of those that failed,
    with the ids of the ops whose outputs they rejected."""

    def __init__(self):
        self.passed = 0
        self.failures: list[str] = []
        self.failed_ops: set[int] = set()

    def run(self, label, check, *args, op: int = 0) -> None:
        try:
            check(*args)
        except CheckFailed as exc:
            self.failures.append(f"op {op}: {label}: {exc}")
            self.failed_ops.add(op)
        else:
            self.passed += 1

    @property
    def ok(self) -> bool:
        return not self.failures


def reference() -> dict:
    """J_u, J_v and R of the two preset workloads, recorded when the
    benchmark was defined, and the output fingerprints of that commit."""
    return json.loads(_REFERENCE.read_text())


def mass_drift(mass) -> None:
    mass = np.asarray(mass, dtype=float)
    drift = float(np.max(np.abs(mass - mass[0]))) / abs(float(mass[0]))
    if not drift < MASS_RTOL:
        raise CheckFailed(f"relative drift {drift:.3e} >= {MASS_RTOL:.0e}")


def entropy_nonincreasing(entropy, n_cells: int, tol: float = 1e-12) -> None:
    """Per-step increases stay below 10 * newton_tol * n_cells."""
    worst = float(np.max(np.diff(np.asarray(entropy, dtype=float))))
    allowed = 10.0 * tol * n_cells
    if not worst <= allowed:
        raise CheckFailed(f"entropy rose by {worst:.3e} (> {allowed:.1e})")


def against_reference(got: dict, ref: dict) -> None:
    bad = []
    for name, want in ref.items():
        val = float(got[name])
        if not abs(val - want) <= REF_RTOL * abs(want) + REF_ATOL[name]:
            bad.append(f"{name} = {val!r}, recorded {want!r}")
    if bad:
        raise CheckFailed("; ".join(bad))


def count_equal(got: int, want: int) -> None:
    if got != want:
        raise CheckFailed(f"{got} != {want}")


def ordered_and_contracting(lo, hi, volumes, wa, wb, slack) -> None:
    """lo and hi are (levels, 2 n) arrays stacking [u, v] per level: each
    level must keep lo <= hi, and the weighted L1 distance
    sum m (|du|/wa + |dv|/wb) must not grow from one level to the next."""
    n = volumes.size
    order_gap = float(np.max(lo - hi))
    if order_gap > slack:
        raise CheckFailed(f"ordering violated by {order_gap:.3e}")
    diff = np.abs(hi - lo)
    dist = diff[:, :n] @ volumes / wa + diff[:, n:] @ volumes / wb
    growth = float(np.max(np.diff(dist), initial=0.0))
    if growth > slack:
        raise CheckFailed(f"L1 distance grew by {growth:.3e}")


def coupled_envelope(u0, v0, u, v, ratio, slack) -> None:
    """0 <= u <= max u0 + ratio max v0 and 0 <= v <= max v0 + max u0 / ratio
    (ratio = alpha / beta), with slack relative to each cap."""
    cap_u = float(np.max(u0)) + ratio * float(np.max(v0))
    cap_v = float(np.max(v0)) + float(np.max(u0)) / ratio
    tol_u = slack * max(1.0, cap_u)
    tol_v = slack * max(1.0, cap_v)
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise CheckFailed("non-finite concentrations")
    if float(np.min(u)) < -tol_u or float(np.min(v)) < -tol_v:
        raise CheckFailed(f"negative concentration (min u {np.min(u)!r}, "
                          f"min v {np.min(v)!r})")
    if float(np.max(u)) > cap_u + tol_u or float(np.max(v)) > cap_v + tol_v:
        raise CheckFailed(f"above the envelope (max u {np.max(u)!r} vs "
                          f"{cap_u!r}, max v {np.max(v)!r} vs {cap_v!r})")


def limit_envelope(w0, w, slack) -> None:
    """Discrete maximum principle: min w0 <= w <= max w0, within slack."""
    tol = slack * max(1.0, float(np.max(np.abs(w0))))
    if not np.all(np.isfinite(w)):
        raise CheckFailed("non-finite w")
    if float(np.min(w)) < float(np.min(w0)) - tol \
            or float(np.max(w)) > float(np.max(w0)) + tol:
        raise CheckFailed(f"w range [{np.min(w)!r}, {np.max(w)!r}] leaves "
                          f"[{np.min(w0)!r}, {np.max(w0)!r}]")
