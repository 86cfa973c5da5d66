"""Per-layer tracing by wrapping groupfuse's functions from outside.

Each function is wrapped under the name its callers inside groupfuse look
up: ``solver.prox_check`` is the name bound in ``solver``, and
``scipy.linalg.cho_solve`` is the attribute ``solver`` reads at each call.
Spans (runs, instances, fits, commands, CSV loads) keep one record per
call; per-iteration kernels are only summed, so memory stays flat.  A
call's self time is its duration minus the wrapped calls inside it.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter

import scipy.linalg

from groupfuse import cli, detection, penalties, simulation, solver
from groupfuse.model import GroupedCoefficients, GroupedDesign

ESTIMATOR_OF = {("ls", "uniform"): "fused_ls",
                ("ls", "adaptive"): "adaptive_ls",
                ("quantile", "uniform"): "fused_quantile",
                ("quantile", "adaptive"): "adaptive_quantile"}


class Tracer:
    """Spans and kernel totals of the calls made while installed."""

    def __init__(self):
        self._stack: list[float] = []  # child time of each open span
        self.kernels = defaultdict(lambda: [0, 0.0])  # name -> [calls, s]
        self.spans = defaultdict(list)  # name -> [(label, s, self s)]
        self.fits: list[tuple[str, int, bool]] = []  # est, iters, converged
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, label=None):
        """Call ``fn()`` as a span; returns its result."""
        self._stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn()
        finally:
            dt = perf_counter() - t0
            child = self._stack.pop()
            if self._stack:
                self._stack[-1] += dt
            self.spans[name].append((label, dt, dt - child))

    def _kernel(self, name: str, fn):
        rec = self.kernels[name]
        stack = self._stack

        def wrapped(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                rec[0] += 1
                rec[1] += dt
                if stack:
                    stack[-1] += dt
        return wrapped

    def _span_fn(self, name: str, fn):
        def wrapped(*args, **kwargs):
            return self.span(name, lambda: fn(*args, **kwargs))
        return wrapped

    def _fit_fn(self, fn):
        def wrapped(design, spec, *args, **kwargs):
            est = ESTIMATOR_OF[(spec.loss, spec.weight_mode)]
            res = self.span("solver.fit",
                            lambda: fn(design, spec, *args, **kwargs), est)
            self.fits.append((est, res.iterations, res.converged))
            return res
        return wrapped

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for owner in (simulation, cli):
            self._patch(owner, "fit", self._fit_fn(owner.fit))
        self._patch(simulation, "generate_instance", self._span_fn(
            "simulation.generate_instance", simulation.generate_instance))
        self._patch(cli, "load_dataset", self._span_fn(
            "datasets.load_dataset", cli.load_dataset))
        self._patch(cli, "standardize_columns", self._span_fn(
            "datasets.standardize_columns", cli.standardize_columns))
        kernels = [
            (simulation, "evaluate_detection",
             "detection.evaluate_detection"),
            (solver, "prox_check", "losses.prox_check"),
            (penalties, "prox_block_norms", "penalties.prox_block_norms"),
            (penalties, "block_norms", "penalties.block_norms"),
            (penalties, "adaptive_weights", "penalties.adaptive_weights"),
            (detection, "detect_from_diffs", "detection.detect_from_diffs"),
            (scipy.linalg, "cho_factor", "solver.cho_factor"),
            (scipy.linalg, "cho_solve", "solver.cho_solve"),
            (GroupedDesign, "__init__", "model.GroupedDesign"),
        ]
        for owner, attr, name in kernels:
            self._patch(owner, attr, self._kernel(name, getattr(owner, attr)))
        from_flat = GroupedCoefficients.__dict__["from_flat"].__func__
        self._patch(GroupedCoefficients, "from_flat", classmethod(
            self._kernel("model.GroupedCoefficients.from_flat", from_flat)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def _kernel_metrics(tr: Tracer, rounds: int) -> dict:
    out = {}
    units = {"losses.prox_check": "us", "penalties.prox_block_norms": "us",
             "penalties.block_norms": "us", "solver.cho_solve": "us",
             "solver.cho_factor": "ms"}
    for name, unit in units.items():
        calls, total = tr.kernels[name]
        out[f"{name}.calls"] = (calls / rounds, "count")
        per = total / calls * (1e6 if unit == "us" else 1e3) if calls else 0.0
        out[f"{name}.{unit}_per_call"] = (per, unit)
    for name in ("penalties.adaptive_weights", "detection.detect_from_diffs",
                 "detection.evaluate_detection", "model.GroupedDesign",
                 "model.GroupedCoefficients.from_flat"):
        calls, total = tr.kernels[name]
        out[f"{name}.us_per_call"] = (total / calls * 1e6 if calls else 0.0,
                                      "us")
    return out


def _fit_metrics(tr: Tracer, rounds: int, estimators) -> dict:
    spans = tr.spans["solver.fit"]
    out = {"solver.fit.calls": (len(spans) / rounds, "count"),
           "solver.nonconverged": (
               sum(not f[2] for f in tr.fits) / rounds, "count")}
    for est in estimators:
        times = [s[1] for s in spans if s[0] == est]
        iters = [f[1] for f in tr.fits if f[0] == est]
        out[f"solver.fit.ms_p50.{est}"] = (
            statistics.median(times) * 1e3 if times else 0.0, "ms")
        out[f"solver.iters_per_fit.{est}"] = (
            sum(iters) / len(iters) if iters else 0.0, "count")
    for loss in ("ls", "quantile"):
        iters = sum(f[1] for f in tr.fits if f[0].endswith(loss))
        busy = sum(s[1] for s in spans if s[0].endswith(loss))
        out[f"solver.us_per_iter.{loss}"] = (
            busy / iters * 1e6 if iters else 0.0, "us")
    out["solver.self_ms_per_fit"] = (
        sum(s[2] for s in spans) / len(spans) * 1e3 if spans else 0.0, "ms")
    return out


def _mean_ms(records, per=None) -> float:
    if not records:
        return 0.0
    return sum(r[1] for r in records) / (per or len(records)) * 1e3


def layer_metrics(tr: Tracer, rounds: int, ops_per_round: int,
                  commands) -> dict:
    """Per-layer metrics; counts are per round, times per call.

    A metric of a layer the workload does not reach reads 0.
    """
    out = _fit_metrics(tr, rounds, ESTIMATOR_OF.values())
    out.update(_kernel_metrics(tr, rounds))
    runs = tr.spans["simulation.run_monte_carlo"]
    reps = ops_per_round * rounds
    out["simulation.run_monte_carlo.ms_per_rep"] = (_mean_ms(runs, reps),
                                                     "ms")
    out["simulation.self_ms_per_rep"] = (
        sum(r[2] for r in runs) / reps * 1e3 if runs else 0.0, "ms")
    out["simulation.generate_instance.ms_per_call"] = (
        _mean_ms(tr.spans["simulation.generate_instance"]), "ms")
    for name in ("datasets.load_dataset", "datasets.standardize_columns"):
        out[f"{name}.ms_per_call"] = (_mean_ms(tr.spans[name]), "ms")
    mains = tr.spans["cli.main"]
    for cmd in commands:
        times = [r[1] for r in mains if r[0] == cmd]
        out[f"cli.main.ms_p50.{cmd}"] = (
            statistics.median(times) * 1e3 if times else 0.0, "ms")
    out["cli.self_ms_per_cmd"] = (
        sum(r[2] for r in mains) / len(mains) * 1e3 if mains else 0.0, "ms")
    return out
