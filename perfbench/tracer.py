"""Span tracing for the benchmark, installed from outside the program.

Every layer boundary is traced by replacing a public function at the place
where its caller looks it up (a module global, a class attribute or a scipy
module attribute) for the duration of a ``with`` block, and restoring it on
exit.  Nothing under ``src/`` changes.

A span records its id, its parent's id, the op id of the benchmark op that
caused it, its name and its start and end on ``time.perf_counter``.  Spans
stay in memory until :meth:`Tracer.write_spans` writes them out.  A span's
self time is its duration minus the time its direct child spans cover, so
the self times of all spans partition the traced wall time.
"""

from __future__ import annotations

import gzip
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

_clock = time.perf_counter


@contextmanager
def patched(replacements):
    """Set ``(owner, attribute, value)`` triples; restore them on exit."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class Tracer:
    """In-memory span recorder plus the counters measured at span edges."""

    def __init__(self):
        self.spans: list[tuple] = []   # (sid, parent, op, name, start, end)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[list] = []   # open spans: [sid, child seconds]
        self._newton: list[str] = []   # callers of the open Newton solves

    def call(self, name, fn, args, kwargs):
        """Run ``fn`` inside a span; returns (result, duration)."""
        stack = self._stack
        sid = len(self.spans) + len(stack)
        parent = stack[-1][0] if stack else -1
        frame = [sid, 0.0]
        stack.append(frame)
        start = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            dur = end - start
            if stack:
                stack[-1][1] += dur
            self.self_s[name] += dur - frame[1]
            self.calls[name] += 1
            self.spans.append((sid, parent, self.op, name, start, end))
        return result, dur

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)[0]
        return traced

    def wrap_op(self, name, fn):
        """Trace ``fn`` as the start of a new benchmark op."""
        def traced(*args, **kwargs):
            self.op += 1
            return self.call(name, fn, args, kwargs)[0]
        return traced

    # -- wrappers with counters -------------------------------------------

    def wrap_step(self, layer, fn, failures, fallback_names):
        """Trace an implicit step; count failures and fallbacks by kind."""
        counts = self.counts

        def traced(*args, **kwargs):
            start = _clock()
            try:
                (state, stats), dur = self.call(layer + ".step", fn,
                                                args, kwargs)
            except failures:
                counts[layer + ".failed"] += 1
                counts[layer + ".failed_s"] += _clock() - start
                raise
            if stats.fallback:
                counts[layer + "." + fallback_names[stats.fallback]] += 1
                counts[layer + ".fallback_s"] += dur
            else:
                counts[layer + ".first_guess"] += 1
            return state, stats
        return traced

    def wrap_newton(self, caller, fn):
        """Trace damped_newton for one caller, and the residual and
        Jacobian-solve callbacks it is handed."""
        key = "newton." + caller
        counts = self.counts

        def residual(fn_r):
            def traced_residual(z):
                counts[key + ".residual_evals"] += 1
                return self.call(key + ".residual", fn_r, (z,), {})[0]
            return traced_residual

        def solve(fn_s):
            def traced_solve(z, r):
                counts[key + ".linear_solves"] += 1
                delta = self.call(key + ".jacobian", fn_s, (z, r), {})[0]
                if np.all(np.isfinite(delta)):
                    counts[key + ".finite_solves"] += 1
                return delta
            return traced_solve

        def traced(z0, residual_fn, solve_fn, norm_fn, *args, **kwargs):
            self._newton.append(caller)
            try:
                result = self.call(
                    key, fn,
                    (z0, residual(residual_fn), solve(solve_fn), norm_fn)
                    + args, kwargs)[0]
            finally:
                self._newton.pop()
            counts[key + ".iterations"] += result.iterations
            counts[key + ".converged"] += int(result.converged)
            return result
        return traced

    def wrap_banded(self, fn):
        """Trace scipy's banded solve, attributed to the open Newton caller."""
        def traced(*args, **kwargs):
            caller = self._newton[-1] if self._newton else "other"
            return self.call(f"newton.{caller}.banded_solve", fn,
                             args, kwargs)[0]
        return traced

    def wrap_counted(self, name, fn, calls_key, cells_key=None):
        """Trace ``fn`` and count its calls; with ``cells_key``, also count
        the elements of its first argument after ``self``."""
        counts = self.counts

        def traced(*args, **kwargs):
            counts[calls_key] += 1
            if cells_key is not None:
                counts[cells_key] += int(np.size(args[1]))
            return self.call(name, fn, args, kwargs)[0]
        return traced

    # -- output ------------------------------------------------------------

    def self_time_table(self) -> list[tuple[str, int, float]]:
        """(name, calls, self seconds), largest self time first."""
        rows = [(name, self.calls[name], self.self_s[name])
                for name in self.calls]
        return sorted(rows, key=lambda row: -row[2])

    def write_spans(self, path) -> None:
        """Write every span as gzipped CSV: id, parent, op, name, start, end
        (seconds since the first span started)."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,op,name,start_s,end_s\n")
            for sid, parent, op, name, start, end in sorted(self.spans):
                fh.write(f"{sid},{parent},{op},{name},"
                         f"{start - origin:.9f},{end - origin:.9f}\n")


def install(tracer: Tracer):
    """Replacement triples that route every traced layer through ``tracer``.

    Each entry replaces a function where its caller looks it up:
    ``experiment.run`` is looked up by ``sweep`` (and by the benchmark),
    ``scheme.step`` by ``integrate``, ``damped_newton`` by ``step`` and
    ``step_w``, ``scipy.linalg.solve_banded`` by the solve closures,
    ``scipy.integrate.quad`` by ``_entropy_fn``, and so on.
    """
    import scipy.integrate
    import scipy.linalg

    from fvreact import diagnostics, experiment, kinetics, limit, scheme
    from fvreact.errors import ConsistencyError, NonConvergenceError

    failures = (NonConvergenceError, ConsistencyError)
    t = tracer
    kin_cls = kinetics.Kinetics
    report_cls = diagnostics.DiagnosticsReport
    flux = "kinetics.flux_potential"
    reps = [
        (experiment, "sweep", t.wrap("experiment.sweep", experiment.sweep)),
        (experiment, "run", t.wrap_op("experiment.run", experiment.run)),
        (experiment, "integrate",
         t.wrap("scheme.integrate", experiment.integrate)),
        (experiment, "integrate_w",
         t.wrap("limit.integrate_w", experiment.integrate_w)),
        (scheme, "step", t.wrap_step(
            "scheme", scheme.step, failures,
            {"equilibrium-guess": "fallback_equilibrium",
             "splitting": "fallback_splitting"})),
        (limit, "step_w", t.wrap_step(
            "limit", limit.step_w, failures, {"mean-guess": "fallback_mean"})),
        (scheme, "damped_newton",
         t.wrap_newton("coupled", scheme.damped_newton)),
        (limit, "damped_newton", t.wrap_newton("limit", limit.damped_newton)),
        (scipy.linalg, "solve_banded",
         t.wrap_banded(scipy.linalg.solve_banded)),
        (kin_cls, "u_from_w", t.wrap_counted(
            "kinetics.u_from_w", kin_cls.u_from_w,
            "kinetics.u_from_w_calls", "kinetics.u_from_w_cells")),
        (kin_cls, "flux_potential", t.wrap(flux, kin_cls.flux_potential)),
        (kin_cls, "flux_potential_deriv",
         t.wrap(flux, kin_cls.flux_potential_deriv)),
        (experiment, "diagnostics_report",
         t.wrap("diagnostics.report", experiment.diagnostics_report)),
        (diagnostics, "lyapunov_series",
         t.wrap("diagnostics.entropy", diagnostics.lyapunov_series)),
        (diagnostics, "compare_to_limit",
         t.wrap("diagnostics.compare", diagnostics.compare_to_limit)),
        (scipy.integrate, "quad", t.wrap_counted(
            "diagnostics.quad", scipy.integrate.quad,
            "diagnostics.quad_calls")),
    ]
    for name in ("write_trajectory_csv", "write_w_csv", "write_stats_csv",
                 "write_mesh_csv"):
        reps.append((experiment, name,
                     t.wrap("experiment.csv", getattr(experiment, name))))
    for name in ("write_csv", "write_translates_csv"):
        reps.append((report_cls, name,
                     t.wrap("experiment.csv", getattr(report_cls, name))))
    for name in ("build_uniform_1d", "build_time_grid_ramped",
                 "build_time_grid_uniform"):
        reps.append((experiment, name,
                     t.wrap("mesh.build", getattr(experiment, name))))
    return reps


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by name (see README)."""
    s, c, n = tracer.self_s, tracer.counts, tracer.calls
    out: dict[str, float] = {}

    def ratio(num, den):
        return num / den if den else 0.0

    steps = n["scheme.step"]
    out["scheme.steps"] = steps
    out["scheme.step_self_s"] = s["scheme.step"]
    out["scheme.first_guess_ratio"] = ratio(c["scheme.first_guess"], steps)
    out["scheme.fallback_equilibrium"] = c["scheme.fallback_equilibrium"]
    out["scheme.fallback_splitting"] = c["scheme.fallback_splitting"]
    out["scheme.fallback_s"] = c["scheme.fallback_s"]
    out["scheme.failed"] = c["scheme.failed"]
    out["scheme.failed_s"] = c["scheme.failed_s"]
    out["scheme.integrate_self_s"] = s["scheme.integrate"]
    for caller in ("coupled", "limit"):
        key = "newton." + caller
        calls = n[key]
        out[key + ".calls"] = calls
        out[key + ".iterations"] = c[key + ".iterations"]
        out[key + ".residual_evals"] = c[key + ".residual_evals"]
        # every finite correction is tried once at full length; each
        # further residual evaluation after the first is a halving
        out[key + ".backtracks"] = (c[key + ".residual_evals"] - calls
                                    - c[key + ".finite_solves"])
        out[key + ".linear_solves"] = c[key + ".linear_solves"]
        out[key + ".converged_ratio"] = ratio(c[key + ".converged"], calls)
        out[key + ".residual_s"] = s[key + ".residual"]
        out[key + ".jacobian_s"] = s[key + ".jacobian"]
        out[key + ".banded_solve_s"] = s[key + ".banded_solve"]
        out[key + ".self_s"] = s[key]
    out["limit.steps"] = n["limit.step"]
    out["limit.step_self_s"] = s["limit.step"]
    out["limit.fallback_mean"] = c["limit.fallback_mean"]
    out["limit.failed"] = c["limit.failed"]
    out["limit.integrate_self_s"] = s["limit.integrate_w"]
    out["kinetics.u_from_w_calls"] = c["kinetics.u_from_w_calls"]
    out["kinetics.u_from_w_cells"] = c["kinetics.u_from_w_cells"]
    out["kinetics.u_from_w_s"] = s["kinetics.u_from_w"]
    out["kinetics.flux_potential_s"] = s["kinetics.flux_potential"]
    out["diagnostics.report_s"] = s["diagnostics.report"]
    out["diagnostics.entropy_s"] = (s["diagnostics.entropy"]
                                    + s["diagnostics.quad"])
    out["diagnostics.quad_calls"] = c["diagnostics.quad_calls"]
    out["diagnostics.compare_s"] = s["diagnostics.compare"]
    out["experiment.run_self_s"] = s["experiment.run"]
    out["experiment.sweep_self_s"] = s["experiment.sweep"]
    out["experiment.csv_s"] = s["experiment.csv"]
    out["mesh.build_s"] = s["mesh.build"]
    return out
