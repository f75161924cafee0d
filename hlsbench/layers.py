"""Per-layer tracing from outside the program.

Wrappers are installed around the public entry points of each
``repro`` layer, at every module attribute through which callers
resolve them (``repro.core.engine.plan_block`` as well as
``repro.datapath.plan.plan_block``), or on the class for methods.  Each
call records a span (layer metric, start, end, parent) in memory;
a span's self time is its duration minus its direct children's.  The
spans are cleared between repetitions, so the buffer stays bounded.

A target that no longer exists is reported as missing: its metrics
print as ``null`` and the run goes on.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable

SCHEDULER_CLASSES = {
    "asap": "repro.scheduling.asap:ASAPScheduler",
    "list": "repro.scheduling.list_scheduler:ListScheduler",
    "force-directed": "repro.scheduling.force_directed:ForceDirectedScheduler",
    "freedom-based": "repro.scheduling.freedom_based:FreedomBasedScheduler",
    "ysc": "repro.scheduling.transformational:YSCScheduler",
    "annealing": "repro.scheduling.annealing:SimulatedAnnealingScheduler",
}
ALLOCATOR_CLASSES = {
    "left-edge": "repro.allocation.left_edge:LeftEdgeRegisterAllocator",
    "clique": "repro.allocation.clique:CliqueAllocator",
    "greedy": "repro.allocation.greedy:GreedyDatapathAllocator",
    "coloring": "repro.allocation.coloring:ColoringRegisterAllocator",
    "rules": "repro.allocation.rules:RuleBasedAllocator",
}
#: Layers whose scaling exponent (log-log slope of self time against
#: ops) is reported.
EXPONENTS = ("scheduling.list", "scheduling.force-directed",
             "scheduling.freedom-based", "allocation.left-edge",
             "allocation.clique", "allocation.greedy", "allocation.coloring")
#: Modules outside ``repro`` whose imported names are patched too.
CALLERS = ("flows",)


def _block_ops(cdfg) -> int:
    return sum(len(block.ops) for block in cdfg.blocks())


@dataclass(frozen=True)
class Probe:
    """One wrapped entry point.

    ``metric`` receives the call's self time (``None`` for a wrapper
    that only counts); ``size`` gives the ops of a call for the scaling
    exponent; ``count`` returns ``{counter: increment}`` from
    ``(args, result)`` for the counters named in ``counters``.
    """

    target: str                 # "module:attr" or "module:Class.method"
    metric: str | None
    size: Callable | None = None
    count: Callable | None = None
    counters: tuple[str, ...] = ()

    def metrics(self) -> list[str]:
        names = [] if self.metric is None else [f"{self.metric}_s"]
        if self.metric in EXPONENTS:
            names.append(f"{self.metric}.exp")
        return names + list(self.counters)


def _probes() -> list[Probe]:
    probes = [
        Probe(path + ".schedule", f"scheduling.{name}",
              size=lambda args, _: len(args[0].problem.ops))
        for name, path in SCHEDULER_CLASSES.items()
    ]
    probes += [
        Probe(path + ".allocate", f"allocation.{name}",
              size=lambda args, _: len(args[0].schedule.problem.ops))
        for name, path in ALLOCATOR_CLASSES.items()
    ]
    cache_count = (lambda args, result:
                   {"core.cache_hits" if result is not None
                    else "core.cache_misses": 1})
    explore_count = (lambda args, result: {
        "explore.cells": result.funnel["exhaustive"],
        "explore.evaluated": result.funnel["configs_evaluated"],
        "explore.pruned": result.funnel["configs_pruned"],
        "explore.front_points": len(result.pareto),
    })
    probes += [
        Probe("repro.scheduling.base:SchedulingProblem.from_block",
              "scheduling.problem"),
        Probe("repro.scheduling.base:SchedulingProblem.with_constraints",
              "scheduling.problem"),
        Probe("repro.scheduling.base:Schedule.validate", "scheduling.validate"),
        Probe("repro.allocation.base:Allocation.validate", "allocation.validate"),
        Probe("repro.analysis.liveness:variable_liveness", "analysis.liveness",
              count=lambda args, result: {"analysis.liveness_solves": 1},
              counters=("analysis.liveness_solves",)),
        Probe("repro.datapath.plan:plan_block", "datapath.plan",
              count=lambda args, result: {"core.blocks": 1},
              counters=("core.blocks",)),
        Probe("repro.binding.binder:ModuleBinder.bind", "binding.bind"),
        Probe("repro.binding.binder:ModuleBinder.merge", "binding.bind"),
        Probe("repro.controller.fsm:synthesize_fsm", "controller.fsm",
              count=lambda args, result:
              {"controller.states": result.state_count},
              counters=("controller.states",)),
        Probe("repro.rtl.verilog:emit_verilog", "rtl.emit"),
        Probe("repro.lang.semantics:compile_source", "lang.compile",
              count=lambda args, result: {"lang.compiles": 1},
              counters=("lang.compiles",)),
        Probe("repro.transforms:optimize", "transforms.optimize",
              count=lambda args, result:
              {"ir.ops_optimized": _block_ops(args[0])},
              counters=("ir.ops_optimized",)),
        Probe("repro.transforms.narrow:RangeNarrowing.run", "transforms.narrow"),
        Probe("repro.verify.contracts:verify_design", "verify.contracts"),
        Probe("repro.sim.rtl_sim:RTLSimulator.run", "sim.rtl",
              count=lambda args, result: {"sim.rtl_cycles": args[0].cycles},
              counters=("sim.rtl_cycles",)),
        Probe("repro.sim.behavior:BehavioralSimulator.run", "sim.behavior"),
        Probe("repro.estimation.area:estimate_area", "estimation.area"),
        Probe("repro.estimation.timing:estimate_timing", "estimation.timing"),
        Probe("repro.estimation.qor:QoRModel.__init__", "estimation.qor"),
        Probe("repro.estimation.qor:QoRModel.estimate", "estimation.qor"),
        Probe("repro.explore.dse:measure_cycles", "explore.measure"),
        Probe("repro.core.engine:SynthesisCache.get", None, count=cache_count,
              counters=("core.cache_hits", "core.cache_misses")),
        Probe("repro.explore.directives:explore_directives", None,
              count=explore_count,
              counters=("explore.cells", "explore.evaluated", "explore.pruned",
                        "explore.front_points")),
    ]
    return probes


#: Per-layer metrics, with units, in the order they are printed.
TIME_METRICS = (
    [f"scheduling.{name}_s" for name in SCHEDULER_CLASSES]
    + ["scheduling.problem_s", "scheduling.validate_s"]
    + [f"allocation.{name}_s" for name in ALLOCATOR_CLASSES]
    + ["allocation.validate_s", "analysis.liveness_s", "datapath.plan_s",
       "binding.bind_s", "controller.fsm_s", "rtl.emit_s", "lang.compile_s",
       "transforms.optimize_s", "transforms.narrow_s", "verify.contracts_s",
       "sim.rtl_s", "sim.behavior_s", "estimation.area_s",
       "estimation.timing_s", "estimation.qor_s", "explore.measure_s",
       "unattributed_s", "trace_overhead_s"]
)
COUNT_METRICS = ("analysis.liveness_solves", "core.blocks", "controller.states",
                 "lang.compiles", "ir.ops_optimized", "sim.rtl_cycles",
                 "explore.cells", "explore.evaluated", "explore.pruned",
                 "explore.front_points", "core.cache_hits", "core.cache_misses")


def metric_units() -> dict[str, str]:
    units = {name: "s" for name in TIME_METRICS}
    units.update({f"{name}.exp": "slope" for name in EXPONENTS})
    units.update({name: "count" for name in COUNT_METRICS})
    units["sim.rtl_cycles"] = "cycles"
    return units


def _resolve(target: str):
    """(owner, attribute name, original) for a probe target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attribute = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    if isinstance(owner, type):
        # Look the method up along the MRO so inherited methods work;
        # the wrapper is installed on this class only.
        for klass in owner.__mro__:
            if attribute in vars(klass):
                return owner, attribute, vars(klass)[attribute]
        raise AttributeError(f"{target} not found")
    return owner, attribute, getattr(owner, attribute)


class LayerTracer:
    """Installs the probes, records spans, and turns a repetition's
    spans into per-layer metrics."""

    def __init__(self, probes: list[Probe] | None = None) -> None:
        self.probes = _probes() if probes is None else probes
        self.missing: dict[str, str] = {}     # metric -> reason
        self._patched: list[tuple[object, str, object, bool]] = []
        # Span columns: metric, start, end, parent index, ops.
        self._spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        resolved = []
        for probe in self.probes:
            try:
                resolved.append((probe, *_resolve(probe.target)))
            except (ImportError, AttributeError) as exc:
                for metric in probe.metrics():
                    self.missing[metric] = f"{probe.target}: {exc}"
        # Resolve every original before patching any, so a subclass
        # probe never wraps its parent's wrapper.
        for probe, owner, attribute, original in resolved:
            if isinstance(owner, type):
                self._patch_method(probe, owner, attribute, original)
            else:
                self._patch_function(probe, original)

    def uninstall(self) -> None:
        for owner, attribute, original, existed in reversed(self._patched):
            if existed:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._patched.clear()

    def _patch_method(self, probe, owner, attribute, original) -> None:
        existed = attribute in vars(owner)
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(probe, original.__func__))
        else:
            wrapped = self._wrap(probe, original)
        self._patched.append((owner, attribute, vars(owner).get(attribute),
                              existed))
        setattr(owner, attribute, wrapped)

    def _patch_function(self, probe, original) -> None:
        wrapped = self._wrap(probe, original)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name.startswith("repro")
                                      or module_name in CALLERS):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attribute, original, True))
                    setattr(module, attribute, wrapped)

    def _wrap(self, probe: Probe, function):
        spans, stack, counts = self._spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([probe.metric, clock(), 0.0,
                          stack[-1] if stack else -1, 0])
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if probe.size is not None:
                spans[index][4] = probe.size(args, result)
            if probe.count is not None:
                for name, amount in probe.count(args, result).items():
                    counts[name] = counts.get(name, 0) + amount
            return result

        wrapper.__wrapped__ = function
        return wrapper

    # -- per repetition ---------------------------------------------------

    def clear(self) -> None:
        self._spans.clear()
        self._stack.clear()
        self.counts.clear()

    def summarize(self, wall_s: float) -> dict[str, float | None]:
        """Per-layer metrics of the spans recorded since :meth:`clear`.

        Spans of count-only probes are transparent: their self time is
        left unattributed.
        """
        spans = self._spans
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time: dict[str, float] = {}
        samples: dict[str, list[tuple[int, float]]] = {}
        for index, (metric, start, end, _, size) in enumerate(spans):
            if metric is None:
                continue
            own = end - start - child_time[index]
            self_time[metric] = self_time.get(metric, 0.0) + own
            if size:
                samples.setdefault(metric, []).append((size, own))
        values: dict[str, float | None] = {
            name: self_time.get(name[:-2], 0.0) for name in TIME_METRICS}
        # explore.measure_s is inclusive: measurement's own cost is the
        # RTL simulation inside it.
        values["explore.measure_s"] = sum(
            end - start for metric, start, end, _, _ in spans
            if metric == "explore.measure")
        for name in EXPONENTS:
            values[f"{name}.exp"] = log_log_slope(samples.get(name, []))
        values.update({name: self.counts.get(name, 0)
                       for name in COUNT_METRICS})
        values["unattributed_s"] = wall_s - sum(self_time.values())
        values.update(dict.fromkeys(self.missing))
        return values


def log_log_slope(samples: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(ops); 0.0 when the
    calls cover fewer than two distinct sizes."""
    points = [(math.log(size), math.log(seconds))
              for size, seconds in samples if size > 0 and seconds > 0]
    if len({x for x, _ in points}) < 2:
        return 0.0
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    sxx = sum((x - mean_x) ** 2 for x, _ in points)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    return sxy / sxx
