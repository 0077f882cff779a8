"""The benchmark's workloads: seeded inputs, one pass of fixed work each,
and the output checks that pass must satisfy.

A workload is set up once (:meth:`Workload.setup`), then
:meth:`Workload.run_pass` performs its fixed work and returns a
:class:`Pass` with the wall time, per-op latencies, counts and the outputs
the checks read.  Inputs depend only on the seed, so every pass of one run
does identical work.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import checks

_clock = time.perf_counter

# Demo dimerisation constants, as in the bundled presets.
K1, K2 = 1.072e-4, 2.363e-6
DIFF_U, DIFF_V = 1.579e-9, 1.042e-9
ALPHA, BETA = 2.0, 1.0


@dataclass
class Pass:
    """One pass of a workload's fixed work."""

    wall_s: float
    op_s: list            # per-op latencies [s]
    attempted: int        # ops attempted
    raised: int           # ops in which a solver step raised
    steps: int            # implicit steps completed, coupled and limit
    outputs: dict = field(default_factory=dict)


class Workload:
    name = ""
    op_name = ""          # what one latency sample times

    def __init__(self, seed: int, small: bool = False):
        self.seed = int(seed)
        self.small = small

    def setup(self) -> None:
        """Import fvreact and build everything the passes share."""
        raise NotImplementedError

    def run_pass(self, workdir: Path, tracer=None) -> Pass:
        """Do the fixed work once.  ``tracer`` is None on untraced
        passes; when given, op ids are set on it as ops start."""
        raise NotImplementedError

    def check(self, p: Pass) -> checks.Report:
        raise NotImplementedError

    def fingerprint(self, p: Pass) -> str:
        """Digest of the pass's deterministic outputs."""
        raise NotImplementedError

    def recorded_fingerprint(self) -> str | None:
        """The fingerprint recorded in reference.json, if there is one."""
        return None

    def bytes_written(self, p: Pass) -> int:
        """Bytes of deterministic output files the pass wrote."""
        return 0

    def discard(self, p: Pass) -> None:
        """Release what a pass left on disk."""


# -- the two preset workloads ------------------------------------------------

def _csv_rows(path: Path) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def _tree_digest(root: Path) -> tuple[str, int]:
    """SHA-256 over every output file except the timed manifest, and the
    number of bytes those files hold."""
    digest = hashlib.sha256()
    total = 0
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "manifest.txt":
            data = path.read_bytes()
            digest.update(str(path.relative_to(root)).encode() + b"\0")
            digest.update(hashlib.sha256(data).digest())
            total += len(data)
    return digest.hexdigest(), total


def _w_mass(path: Path, volumes: np.ndarray) -> np.ndarray:
    """Per-level sum m * w read back from a trajectory_w.csv."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 2, 4))
    levels = data[:, 0].astype(int)
    cells = data[:, 1].astype(int)
    return np.bincount(levels, weights=volumes[cells] * data[:, 2])


class _PresetWorkload(Workload):
    op_name = "the whole pass"
    preset = ""

    def config_dict(self) -> dict:
        from fvreact.experiment import preset_config

        raw = preset_config(self.preset)
        if self.small:
            raw["mesh"]["n_cells"] = 10
            raw["time"].update(final_time=2e-7, limit_initial_step=1e-8)
        return raw

    def setup(self) -> None:
        from fvreact import experiment, project_initial, project_initial_w

        cfg = experiment.ExperimentConfig.from_dict(self.config_dict())
        mesh = cfg.build_mesh()
        ks = cfg.sweep_values or (None,)
        kins = [cfg.build_kinetics(k) for k in ks]
        cfg.build_grid()
        cfg.build_limit_grid()
        u0, v0 = cfg.initial_profiles()
        project_initial(mesh, u0, v0, n_quad=cfg.quadrature_points)
        for kin in kins:
            project_initial_w(mesh, kin, u0, v0, n_quad=cfg.quadrature_points)
        self.cfg = cfg
        self.volumes = mesh.volumes

    def reference(self) -> dict | None:
        return None if self.small else checks.reference()[self.name]

    def recorded_fingerprint(self):
        ref = self.reference()
        return ref and ref["fingerprint"]

    def _timed(self, workdir, fn) -> Pass:
        """Run ``fn(outdir)`` once, as the pass's single op."""
        outdir = Path(tempfile.mkdtemp(prefix=self.name + "-", dir=workdir))
        start = _clock()
        result = fn(outdir)
        wall = _clock() - start
        steps = sum(_csv_rows(path) for path in outdir.rglob("stats*.csv"))
        return Pass(wall_s=wall, op_s=[wall], attempted=1, raised=0,
                    steps=steps, outputs={"dir": outdir, "result": result})

    def fingerprint(self, p: Pass) -> str:
        return _tree_digest(p.outputs["dir"])[0]

    def bytes_written(self, p: Pass) -> int:
        return _tree_digest(p.outputs["dir"])[1]

    def discard(self, p: Pass) -> None:
        shutil.rmtree(p.outputs["dir"], ignore_errors=True)


class RunTmax1(_PresetWorkload):
    """One ``experiment.run`` of preset dimerisation-tmax1, entropy on."""

    name = "run-tmax1"
    preset = "dimerisation-tmax1"

    def run_pass(self, workdir, tracer=None):
        from fvreact import experiment

        return self._timed(workdir, lambda outdir: experiment.run(
            self.cfg, outdir, echo=None))

    def check(self, p):
        report = p.outputs["result"]
        rep = checks.Report()
        rep.run("coupled mass drift", checks.mass_drift, report.mass_w)
        rep.run("limit mass drift", checks.mass_drift,
                _w_mass(p.outputs["dir"] / "trajectory_w.csv", self.volumes))
        rep.run("entropy nonincreasing", checks.entropy_nonincreasing,
                report.entropy, len(self.volumes))
        ref = self.reference()
        if ref is not None:
            got = {"J_u": report.compare["J_u"], "J_v": report.compare["J_v"],
                   "R": report.reaction_defect}
            rep.run("J_u, J_v, R vs reference", checks.against_reference,
                    got, ref["values"])
        return rep


class SweepK(_PresetWorkload):
    """One ``experiment.sweep`` of preset dimerisation-sweep, jobs=1, over
    the two ends of the preset's rate factors.

    All eight factors take 17-28 s on a 2-vCPU shared host: a single pass
    per run, whose time swings with the host's slow stretches.  The two
    ends keep the sweep's structure (one limit solve and one set of CSVs
    per factor) in passes short enough to take a median over.
    """

    name = "sweep-k"
    preset = "dimerisation-sweep"
    rate_factors = [1e-7, 1.0]

    def config_dict(self) -> dict:
        raw = super().config_dict()
        raw["sweep"] = [1e-3, 1.0] if self.small else self.rate_factors
        return raw

    def run_pass(self, workdir, tracer=None):
        from fvreact import experiment

        return self._timed(workdir, lambda outdir: experiment.sweep(
            self.cfg, outdir, jobs=1, echo=None))

    def check(self, p):
        rep = checks.Report()
        for sub in sorted(p.outputs["dir"].glob("k_*")):
            masses = np.loadtxt(sub / "diagnostics.csv", delimiter=",",
                                skiprows=1, usecols=2, ndmin=1)
            rep.run(f"{sub.name} coupled mass drift", checks.mass_drift,
                    masses)
            rep.run(f"{sub.name} limit mass drift", checks.mass_drift,
                    _w_mass(sub / "trajectory_w.csv", self.volumes))
        ref = self.reference()
        if ref is not None:
            for rec in p.outputs["result"]:
                key = repr(float(rec["k"]))
                got = {name: rec[name] for name in ("J_u", "J_v", "R")}
                rep.run(f"k={key} J_u, J_v, R vs reference",
                        checks.against_reference, got, ref["values"][key])
        return rep


# -- the two seeded-array workloads -------------------------------------------

def _stratified_log_uniform(rng, count: int, lo_exp: float, hi_exp: float):
    """count values log-uniform on [10^lo_exp, 10^hi_exp], one in each of
    count equal slices of the exponent range, in random order."""
    u = (np.arange(count) + rng.uniform(0.0, 1.0, count)) / count
    return 10.0 ** rng.permutation(lo_exp + (hi_exp - lo_exp) * u)


class EnsemblePairs(Workload):
    """Componentwise-ordered pairs marched with ``scheme.step``."""

    name = "ensemble-pairs"
    op_name = "pair (two 50-step marches)"
    n_cells = 16

    def inputs(self):
        """k cycles over {0, 1, 1e3} in groups of 34, 33, 33 as in the
        acceptance suite's randomized trials; dt is log-uniform in
        [1, 1e4] s, stratified within each group."""
        groups = ((0.0, 2), (1.0, 2), (1e3, 2)) if self.small else \
            ((0.0, 34), (1.0, 33), (1e3, 33))
        rng = np.random.default_rng([self.seed, 1])
        pairs = []
        n = self.n_cells
        for k, count in groups:
            dts = _stratified_log_uniform(rng, count, 0.0, 4.0)
            for dt in dts:
                u_lo = rng.uniform(0.0, 0.5, n)
                v_lo = rng.uniform(0.0, 0.25, n)
                u_hi = u_lo + rng.uniform(0.0, 0.3, n)
                v_hi = v_lo + rng.uniform(0.0, 0.2, n)
                pairs.append((k, float(dt), u_lo, v_lo, u_hi, v_hi))
        return pairs

    def setup(self):
        from fvreact import SolverConfig, build_uniform_1d, \
            dimerisation_kinetics

        self.n_steps = 5 if self.small else 50
        self.pairs = self.inputs()
        self.mesh = build_uniform_1d(0.1, self.n_cells)
        self.kins = {k: dimerisation_kinetics(K1, K2, DIFF_U, DIFF_V,
                                              rate_factor=k)
                     for k in sorted({p[0] for p in self.pairs})}
        self.tol = SolverConfig().newton_tol

    def run_pass(self, workdir, tracer=None):
        from fvreact import State, scheme
        from fvreact.errors import ConsistencyError, NonConvergenceError

        mesh, n_steps = self.mesh, self.n_steps
        lat, traces = [], []
        raised = steps = 0
        start = _clock()
        for op, (k, dt, u_lo, v_lo, u_hi, v_hi) in enumerate(self.pairs):
            if tracer is not None:
                tracer.op = op
            kin = self.kins[k]
            t0 = _clock()
            lo = State(u=u_lo, v=v_lo, level=0, time=0.0)
            hi = State(u=u_hi, v=v_hi, level=0, time=0.0)
            los, his = [lo], [hi]
            try:
                for _ in range(n_steps):
                    lo, _ = scheme.step(mesh, kin, dt, lo)
                    hi, _ = scheme.step(mesh, kin, dt, hi)
                    los.append(lo)
                    his.append(hi)
            except (NonConvergenceError, ConsistencyError):
                raised += 1
            lat.append(_clock() - t0)
            steps += 2 * (len(los) - 1)
            traces.append((k, los, his))
        wall = _clock() - start
        return Pass(wall_s=wall, op_s=lat, attempted=len(self.pairs),
                    raised=raised, steps=steps, outputs={"traces": traces})

    def check(self, p):
        rep = checks.Report()
        slack = 10.0 * self.tol
        m = self.mesh.volumes
        for op, (k, los, his) in enumerate(p.outputs["traces"]):
            rep.run("steps completed", checks.count_equal,
                    min(len(los), len(his)) - 1, self.n_steps, op=op)
            wa, wb = (ALPHA * k, BETA * k) if k > 0 else (ALPHA, BETA)
            n = min(len(los), len(his))
            lo = np.array([np.concatenate([s.u, s.v]) for s in los[:n]])
            hi = np.array([np.concatenate([s.u, s.v]) for s in his[:n]])
            rep.run("ordering and L1 contraction",
                    checks.ordered_and_contracting, lo, hi, m, wa, wb, slack,
                    op=op)
        return rep

    def fingerprint(self, p):
        digest = hashlib.sha256()
        for _, los, his in p.outputs["traces"]:
            for s in (los[-1], his[-1]):
                digest.update(s.u.tobytes() + s.v.tobytes())
        return digest.hexdigest()


class StiffSteps(Workload):
    """Single steps from rough random data over wide dt and k ranges."""

    name = "stiff-steps"
    op_name = "probe (scheme.step, plus limit.step_w when k > 0)"
    n_cells = 50
    rate_factors = (0.0, 1.0, 1e3, 1e6, 1e9)
    probes_per_k = 40

    def inputs(self):
        """k cycles over rate_factors; dt is log-uniform in [1, 1e12] s,
        stratified within each k; u, v are i.i.d. uniform per cell."""
        per_k = 2 if self.small else self.probes_per_k
        rng = np.random.default_rng([self.seed, 2])
        ks = len(self.rate_factors)
        dts = [_stratified_log_uniform(rng, per_k, 0.0, 12.0)
               for _ in range(ks)]
        probes = []
        for i in range(per_k * ks):
            u = rng.uniform(0.0, 0.5, self.n_cells)
            v = rng.uniform(0.0, 0.25, self.n_cells)
            probes.append((self.rate_factors[i % ks], float(dts[i % ks][i // ks]),
                           u, v))
        return probes

    def setup(self):
        from fvreact import SolverConfig, build_uniform_1d, \
            dimerisation_kinetics

        self.probes = self.inputs()
        self.mesh = build_uniform_1d(0.1, self.n_cells)
        self.kins = {k: dimerisation_kinetics(K1, K2, DIFF_U, DIFF_V,
                                              rate_factor=k)
                     for k in self.rate_factors}
        self.tol = SolverConfig().newton_tol

    def run_pass(self, workdir, tracer=None):
        from fvreact import State, WState, limit, scheme
        from fvreact.errors import ConsistencyError, NonConvergenceError

        failures = (NonConvergenceError, ConsistencyError)
        mesh = self.mesh
        lat, outcomes = [], []
        raised = steps = 0
        start = _clock()
        for op, (k, dt, u, v) in enumerate(self.probes):
            if tracer is not None:
                tracer.op = op
            kin = self.kins[k]
            t0 = _clock()
            try:
                new, _ = scheme.step(mesh, kin, dt,
                                     State(u=u, v=v, level=0, time=0.0))
                coupled = (new.u, new.v)
            except failures as exc:
                coupled = type(exc).__name__
            w_new = None
            if k > 0:
                try:
                    w_state, _ = limit.step_w(
                        mesh, kin, dt,
                        WState(w=u / ALPHA + v / BETA, level=0, time=0.0))
                    w_new = w_state.w
                except failures as exc:
                    w_new = type(exc).__name__
            lat.append(_clock() - t0)
            ok = [not isinstance(x, str) for x in (coupled, w_new)
                  if x is not None]
            steps += sum(ok)
            raised += not all(ok)
            outcomes.append((coupled, w_new))
        wall = _clock() - start
        return Pass(wall_s=wall, op_s=lat, attempted=len(self.probes),
                    raised=raised, steps=steps, outputs={"outcomes": outcomes})

    def check(self, p):
        rep = checks.Report()
        slack = 10.0 * self.tol
        for op, ((k, dt, u, v), (coupled, w_new)) in enumerate(
                zip(self.probes, p.outputs["outcomes"])):
            if not isinstance(coupled, str):
                rep.run("coupled step inside its envelope",
                        checks.coupled_envelope, u, v, coupled[0], coupled[1],
                        ALPHA / BETA, slack, op=op)
            if w_new is not None and not isinstance(w_new, str):
                rep.run("limit step inside its envelope",
                        checks.limit_envelope, u / ALPHA + v / BETA, w_new,
                        slack, op=op)
        return rep

    def fingerprint(self, p):
        digest = hashlib.sha256()
        for coupled, w_new in p.outputs["outcomes"]:
            for part in (coupled, w_new):
                if isinstance(part, tuple):
                    digest.update(part[0].tobytes() + part[1].tobytes())
                elif isinstance(part, np.ndarray):
                    digest.update(part.tobytes())
                else:
                    digest.update(str(part).encode())
        return digest.hexdigest()


WORKLOADS = {cls.name: cls for cls in (RunTmax1, SweepK, EnsemblePairs,
                                       StiffSteps)}
