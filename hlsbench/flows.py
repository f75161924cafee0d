"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``__init__`` (the
set-up the ``setup_s`` metric covers), runs one *round* of operations
per call to :meth:`run_round` (the timed part), and checks a round's
outputs in :meth:`check` against the computations in ``checks.py``
(outside the timed part).  A round always attempts the same
operations, so the share of failed operations is the same in every
run.

Only long-lived public entry points of ``repro`` are called:
``synthesize``, ``synthesize_cdfg``, ``explore_directives``,
``measure_cycles``, ``RTLSimulator``, ``run_behavior``,
``emit_verilog``, ``estimate_area`` and ``estimate_timing``.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from repro import SynthesisOptions, compile_source, synthesize, synthesize_cdfg
from repro.core import clear_synthesis_cache
from repro.estimation import estimate_area, estimate_timing
from repro.explore import DirectiveConfig, explore_directives, measure_cycles
from repro.rtl import emit_verilog
from repro.scheduling import ResourceConstraints
from repro.sim import RTLSimulator, run_behavior
from repro.workloads import (
    DIFFEQ_SOURCE,
    SQRT_SOURCE,
    RandomDFGSpec,
    ar_lattice_cdfg,
    build_dfg,
    dfg_recipe,
    ewf_cdfg,
    fir_source,
)

import checks


@dataclass
class Outcome:
    """What one operation produced (or the error it raised)."""

    label: str
    family: str = ""
    cycles: int = 0
    area: float = 0.0
    latency_ns: float = 0.0
    error: str | None = None
    data: dict = field(default_factory=dict)
    seconds: float = 0.0


def _guard(label: str, family: str, work) -> Outcome:
    """Run and time one operation; an exception becomes a failed
    outcome."""
    started = time.perf_counter()
    try:
        outcome = work()
    except Exception as exc:  # one failing design must not end the run
        outcome = Outcome(label, family, error=f"{type(exc).__name__}: {exc}")
    outcome.seconds = time.perf_counter() - started
    return outcome


def _grid(rng: random.Random, lo: float, hi: float, step: float) -> float:
    """A uniform sample of ``[lo, hi]`` on the grid of ``step``."""
    return rng.randint(math.ceil(lo / step), math.floor(hi / step)) * step


def _simulate(design, vectors) -> tuple[list[dict], int]:
    """RTL outputs per vector and the worst-case activation cycles."""
    outputs, worst = [], 0
    for inputs, memories in vectors:
        simulator = RTLSimulator(design)
        outputs.append(simulator.run(inputs, memories))
        worst = max(worst, simulator.cycles)
    return outputs, worst


class Workload:
    """What every workload shares: no fault is known by default."""

    def known_fault(self, outcome: Outcome, expected: dict) -> bool:
        """Whether ``outcome``'s failure is a documented fault of the
        program rather than a new one."""
        return False


# ----------------------------------------------------------------------
# dfg-scale
# ----------------------------------------------------------------------

#: Schedulers run with left-edge, allocators with list, each at these
#: sizes (ops); the last size is the algorithm's cap.  Branch-and-bound
#: is absent: it refuses regions over 24 resource-using ops.
SCHEDULER_SIZES = {
    "asap": (300, 1000),
    "list": (100, 1000, 3000),
    "force-directed": (100, 200),
    "freedom-based": (100, 300),
    "ysc": (300, 1000),
    "annealing": (50, 100),
}
ALLOCATOR_SIZES = {
    "clique": (30, 60),
    "greedy": (300, 1000),
    "coloring": (200, 600),
    "rules": (300, 1000),
}
DFG_FU_LIMIT = 4
DFG_WIDTH = 32
DFG_VECTORS = 2


class DfgScale(Workload):
    """Seeded random DFGs, one huge block each, across the plus-shaped
    scheduler x allocator matrix."""

    name = "dfg-scale"

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.cases = [(s, "left-edge", n)
                      for s, sizes in SCHEDULER_SIZES.items() for n in sizes]
        self.cases += [("list", a, n)
                       for a, sizes in ALLOCATOR_SIZES.items() for n in sizes]
        sizes = sorted({n for _, _, n in self.cases})
        # Every pair at one size synthesizes the same recipe, so each
        # size is a family of alternative designs for front_hv.
        self.recipes = {
            n: replace(dfg_recipe(RandomDFGSpec(ops=n, seed=rng.randrange(1, 2**31))),
                       width=DFG_WIDTH, domain="int")
            for n in sizes
        }
        bound = 1 << (DFG_WIDTH - 1)
        self.vectors = {
            n: [[rng.randrange(-bound, bound) for _ in range(recipe.inputs)]
                for _ in range(DFG_VECTORS)]
            for n, recipe in self.recipes.items()
        }

    @staticmethod
    def limit(scheduler: str) -> int | None:
        # ASAP ignores resources by definition; it runs unconstrained.
        return None if scheduler == "asap" else DFG_FU_LIMIT

    def run_round(self) -> list[Outcome]:
        return [
            _guard(f"{s}/{a}/{n}", str(n),
                   lambda s=s, a=a, n=n: self._design(s, a, n))
            for s, a, n in self.cases
        ]

    def _design(self, scheduler: str, allocator: str, size: int) -> Outcome:
        limit = self.limit(scheduler)
        options = SynthesisOptions(
            scheduler=scheduler, allocator=allocator,
            constraints=None if limit is None
            else ResourceConstraints({"fu": limit}),
        )
        design = synthesize_cdfg(build_dfg(self.recipes[size]), options)
        vectors = [({f"in{i}": v for i, v in enumerate(vector)}, None)
                   for vector in self.vectors[size]]
        outputs, cycles = _simulate(design, vectors)
        timing = estimate_timing(design, cycles)
        return Outcome(
            f"{scheduler}/{allocator}/{size}", str(size), cycles,
            estimate_area(design).total, timing.latency_ns,
            data={"outputs": outputs,
                  "fus": max(a.fu_count() for a in design.allocations.values())},
        )

    def expected(self) -> dict:
        return {n: [checks.interpret_recipe(self.recipes[n], vector)
                    for vector in self.vectors[n]]
                for n in self.recipes}

    def check(self, outcome: Outcome, expected: dict) -> list[str]:
        scheduler, _, size = outcome.label.split("/")
        errors = []
        for index, (got, want) in enumerate(
                zip(outcome.data["outputs"], expected[int(size)])):
            errors += checks.output_errors(f"{outcome.label} vector {index}",
                                           got, want)
        limit = self.limit(scheduler)
        if limit is not None and outcome.data["fus"] > limit:
            errors.append(f"{outcome.label}: {outcome.data['fus']} FUs "
                          f"exceed the limit {limit}")
        return errors

    def box(self, family: str) -> tuple[float, float]:
        # front_hv reference box of size n: (area, latency_ns) =
        # (250 n + 30000, 50 n), about twice the designs' own figures.
        ops = int(family)
        return (250.0 * ops + 30000.0, 50.0 * ops)


# ----------------------------------------------------------------------
# kernel-flow
# ----------------------------------------------------------------------

#: Input contracts the narrowing directive may assume.
SQRT_CONTRACT = (("X", 0.0625, 1.0),)
DIFFEQ_CONTRACT = (("x0", 0.0, 1.0), ("y0", 0.0, 1.0), ("u0", 0.0, 1.0),
                   ("dx", 0.0625, 0.125), ("a", 0.0, 1.0))
FIR_TAPS = (8, 16, 32)
LATTICE_STAGES = 8
TRANSFORM_COMBOS = [(u, t, i) for u in (False, True) for t in (False, True)
                    for i in (False, True)]

#: front_hv reference box per kernel: (area, latency_ns).
KERNEL_BOXES = {
    "sqrt": (12000.0, 1200.0),
    "diffeq": (40000.0, 8000.0),
    "fir8": (20000.0, 4000.0),
    "fir16": (30000.0, 8000.0),
    "fir32": (50000.0, 16000.0),
    "ewf": (25000.0, 3000.0),
    "ar_lattice": (60000.0, 1200.0),
}

#: Kernels whose tree-height reduction reassociates a fixed-point
#: multiply chain (diffeq's 3.0 * x * u * dx).  Rounding is not
#: associative, so with the pass on their RTL is compared exactly with
#: the behavior of the optimized CDFG instead of the unoptimized one
#: (which it misses by one LSB on some inputs); the kernel's own
#: reference check still applies.
REASSOCIATED = frozenset({"diffeq"})


@dataclass
class Kernel:
    name: str
    source: str | None          # behavioral source, or None for builders
    builder: Callable | None    # CDFG factory when source is None
    contract: tuple             # input contract for narrowing, or ()
    vectors: list               # [(inputs, memories)]


def _fixed_vector(rng, names, lo, hi, step):
    return {name: _grid(rng, lo, hi, step) for name in names}


class KernelFlow(Workload):
    """The paper's kernels from behavioral source to simulated RTL,
    under every transform-directive combination."""

    name = "kernel-flow"

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        g16 = 2.0 ** -16
        kernels = [
            Kernel("sqrt", SQRT_SOURCE, None, SQRT_CONTRACT,
                   [({"X": _grid(rng, 0.0625, 1.0, g16)}, None)
                    for _ in range(12)]),
            Kernel("diffeq", DIFFEQ_SOURCE, None, DIFFEQ_CONTRACT,
                   [({"x0": _grid(rng, 0.0, 0.5, g16),
                      "y0": _grid(rng, 0.0, 1.0, g16),
                      "u0": _grid(rng, 0.0, 1.0, g16),
                      "dx": _grid(rng, 0.0625, 0.125, g16),
                      "a": _grid(rng, 0.5, 1.0, g16)}, None)
                    for _ in range(6)]
                   # The contract's longest activation (16 steps), so
                   # worst-case cycles do not depend on the seed.
                   + [({"x0": 0.0, "y0": _grid(rng, 0.0, 1.0, g16),
                        "u0": _grid(rng, 0.0, 1.0, g16), "dx": 0.0625,
                        "a": 1.0}, None)]),
        ]
        for taps in FIR_TAPS:
            # Multiples of 1/64 in [-4, 4): every product and partial
            # sum is exact in fixed<24,12>, so the dot product is too.
            def word():
                return rng.randrange(-256, 256) / 64
            kernels.append(Kernel(
                f"fir{taps}", fir_source(taps), None, (),
                [({"x": word()}, {"c": [word() for _ in range(taps)],
                                  "s": [word() for _ in range(taps)]})
                 for _ in range(6)]))
        g12 = 2.0 ** -12
        ewf_ports = ["x"] + [f"sv{i}" for i in range(7)]
        kernels.append(Kernel(
            "ewf", None, ewf_cdfg, (),
            [(_fixed_vector(rng, ewf_ports, -1.0, 1.0, g12), None)
             for _ in range(12)]))
        lattice_ports = ["x"] + [f"{p}{i}" for i in range(LATTICE_STAGES)
                                 for p in ("k", "s")]
        kernels.append(Kernel(
            "ar_lattice", None, lambda: ar_lattice_cdfg(LATTICE_STAGES), (),
            [(_fixed_vector(rng, lattice_ports, -0.5, 0.5, g12), None)
             for _ in range(12)]))
        self.kernels = kernels
        self.cases = [
            (kernel, combo, narrow)
            for kernel in kernels
            for combo in TRANSFORM_COMBOS
            for narrow in ((False, True) if kernel.contract else (False,))
        ]

    def run_round(self) -> list[Outcome]:
        # Behavioral simulation of the unoptimized CDFG: the golden
        # model each design's RTL outputs must reproduce.
        golden = {
            kernel.name: _guard(f"{kernel.name}/behavior", kernel.name,
                                lambda k=kernel: self._behavior(k))
            for kernel in self.kernels
        }
        outcomes = list(golden.values())
        for kernel, combo, narrow in self.cases:
            label = self.label(kernel, combo, narrow)
            outcome = _guard(label, kernel.name,
                             lambda k=kernel, c=combo, n=narrow:
                             self._design(k, c, n))
            golden_outcome = golden[kernel.name]
            if golden_outcome.error and not outcome.error:
                outcome.error = f"behavioral model: {golden_outcome.error}"
            outcome.data.setdefault("golden",
                                    golden_outcome.data.get("outputs"))
            outcomes.append(outcome)
        return outcomes

    @staticmethod
    def label(kernel: Kernel, combo, narrow: bool) -> str:
        names = [name for on, name in zip(combo, ("unroll", "tree", "ifconv"))
                 if on] + (["narrow"] if narrow else [])
        return f"{kernel.name}/{'+'.join(names) or 'plain'}"

    def _behavior(self, kernel: Kernel) -> Outcome:
        cdfg = (compile_source(kernel.source) if kernel.source is not None
                else kernel.builder())
        return Outcome(f"{kernel.name}/behavior", kernel.name, data={
            "outputs": [run_behavior(cdfg, inputs, memories)
                        for inputs, memories in kernel.vectors]})

    def _design(self, kernel: Kernel, combo, narrow: bool) -> Outcome:
        unroll, tree_height, if_conversion = combo
        options = SynthesisOptions(
            unroll=unroll, tree_height=tree_height,
            if_conversion=if_conversion, narrow=narrow,
            assume_ranges=kernel.contract if narrow else (),
            verify=True,
        )
        if kernel.source is not None:
            design = synthesize(kernel.source, options=options)
        else:
            design = synthesize_cdfg(kernel.builder(), options)
        verilog = emit_verilog(design)
        outputs, cycles = _simulate(design, kernel.vectors)
        timing = estimate_timing(design, cycles)
        data = {"outputs": outputs, "verilog_ok": "endmodule" in verilog}
        if tree_height and kernel.name in REASSOCIATED:
            data["golden"] = [run_behavior(design.cdfg, inputs, memories)
                              for inputs, memories in kernel.vectors]
        return Outcome(
            self.label(kernel, combo, narrow), kernel.name, cycles,
            estimate_area(design).total, timing.latency_ns, data=data,
        )

    def expected(self) -> dict:
        return {}

    def check(self, outcome: Outcome, expected: dict) -> list[str]:
        kernel = next(k for k in self.kernels if k.name == outcome.family)
        if outcome.label.endswith("/behavior"):
            return [f"{outcome.label} vector {index}: {e}"
                    for index, ((inputs, memories), got) in enumerate(
                        zip(kernel.vectors, outcome.data["outputs"]))
                    for e in checks.kernel_errors(kernel.name, inputs,
                                                  memories, got)]
        errors = [] if outcome.data["verilog_ok"] else [
            f"{outcome.label}: Verilog has no module"]
        for index, ((inputs, memories), got, golden) in enumerate(zip(
                kernel.vectors, outcome.data["outputs"],
                outcome.data["golden"])):
            label = f"{outcome.label} vector {index}"
            errors += checks.output_errors(label, got, golden)
            errors += [f"{label}: {e}" for e in
                       checks.kernel_errors(kernel.name, inputs, memories, got)]
        return errors

    def box(self, family: str) -> tuple[float, float]:
        return KERNEL_BOXES[family]


# ----------------------------------------------------------------------
# dse
# ----------------------------------------------------------------------

DSE_SCHEDULERS = ("list", "force-directed", "freedom-based")
DSE_ALLOCATORS = ("left-edge", "greedy", "clique")
DSE_LIMITS = tuple(range(1, 9))
CHECK_WORKERS = 2
CHECK_TIMEOUT_S = 150
DSE_CONFIGS = [
    DirectiveConfig(unroll=u, tree_height=t, if_conversion=i,
                    scheduler=s, allocator=a)
    for u, t, i in TRANSFORM_COMBOS
    for s in DSE_SCHEDULERS for a in DSE_ALLOCATORS
]

#: diffeq's cycle count depends on its inputs, so its vectors are fixed
#: (inside the kernel's contract) rather than drawn from the seed.
DIFFEQ_DSE_VECTORS = (
    {"x0": 0.0, "y0": 1.0, "u0": 0.0, "dx": 0.125, "a": 0.5},
    {"x0": 0.25, "y0": 0.5, "u0": 0.75, "dx": 0.0625, "a": 1.0},
)

#: Kernels whose funnel front is known to differ from the exhaustive
#: one, as (points reported but not Pareto-optimal, points missed):
#: level-1c estimate pruning in repro.explore.directives cannot see the
#: scheduler or allocator.  The fronts do not depend on the seed (see
#: Dse.__init__), so these fail on every seed; any other difference is
#: a new fault.
KNOWN_FRONT_FAULTS = {
    "diffeq": ({(15352.0, 3914.0)}, {(15080.0, 3862.5)}),
    "fir8": ({(5552.0, 1854.0)}, {(5420.0, 1802.5)}),
    "fir16": ({(5552.0, 3502.0)}, {(5420.0, 3450.5)}),
}

#: front_hv reference box per kernel: (area, latency_ns).
DSE_BOXES = {
    "diffeq": (40000.0, 16000.0),
    "sqrt": (12000.0, 1200.0),
    "fir8": (20000.0, 4000.0),
    "fir16": (30000.0, 8000.0),
}


def _cell_points(source: str, vectors, configs) -> list[tuple[float, float]]:
    """(area, latency_ns) of every (config, limit) cell, each from its
    own full synthesis."""
    points = []
    for config in configs:
        for limit in DSE_LIMITS:
            options = config.apply(SynthesisOptions()).with_constraints(
                {"fu": limit})
            design = synthesize(source, options=options)
            cycles = measure_cycles(design, vectors)
            points.append((estimate_area(design).total,
                           estimate_timing(design, cycles).latency_ns))
    return points


def _cell_points_in_children(kernels) -> list[dict[str, list]]:
    """Every kernel's cell points, one share of the configurations per
    child process; each child is waited for, or killed and waited for,
    before this returns or raises."""
    here = Path(__file__).resolve().parent
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    if sys.pycache_prefix:
        env["PYTHONPYCACHEPREFIX"] = sys.pycache_prefix
    children = []
    try:
        for part in range(CHECK_WORKERS):
            request = json.dumps({"part": part, "kernels": kernels})
            children.append(subprocess.Popen(
                [sys.executable, "-c", "import flows; flows._cells_child()",
                 request], stdout=subprocess.PIPE, text=True, env=env))
        outputs = []
        for child in children:
            output, _ = child.communicate(timeout=CHECK_TIMEOUT_S)
            if child.returncode != 0:
                raise RuntimeError(f"cell check exited {child.returncode}")
            outputs.append(json.loads(output))
        return outputs
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
            child.wait()


def _cells_child() -> None:
    """Child side of :func:`_cell_points_in_children`: the request is
    the last argument, the points go to standard output as JSON."""
    request = json.loads(sys.argv[-1])
    configs = DSE_CONFIGS[request["part"]::CHECK_WORKERS]
    print(json.dumps({name: _cell_points(source, vectors, configs)
                      for name, (source, vectors)
                      in request["kernels"].items()}))


class Dse(Workload):
    """The directive funnel over 8 transform combinations x 3
    schedulers x 3 allocators x FU limits 1-8, per kernel."""

    name = "dse"

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        g16, g12 = 2.0 ** -16, 2.0 ** -12
        # sqrt and FIR cycle counts do not depend on their data, so
        # their vectors can come from the seed without moving the front.
        self.kernels = {
            "diffeq": (DIFFEQ_SOURCE, [dict(v) for v in DIFFEQ_DSE_VECTORS]),
            "sqrt": (SQRT_SOURCE, [{"X": _grid(rng, 0.0625, 1.0, g16)}
                                   for _ in range(4)]),
            "fir8": (fir_source(8), [{"x": _grid(rng, -1.0, 1.0, g12)}
                                     for _ in range(2)]),
            "fir16": (fir_source(16), [{"x": _grid(rng, -1.0, 1.0, g12)}
                                       for _ in range(2)]),
        }

    def run_round(self) -> list[Outcome]:
        outcomes = []
        for name, (source, vectors) in self.kernels.items():
            clear_synthesis_cache()  # each kernel explores from cold
            outcomes.append(_guard(name, name, lambda s=source, v=vectors:
                                   self._explore(name, s, v)))
        return outcomes

    @staticmethod
    def _explore(name: str, source: str, vectors) -> Outcome:
        result = explore_directives(source, DSE_LIMITS, configs=DSE_CONFIGS,
                                    vectors=vectors, n_jobs=1)
        front = result.pareto
        return Outcome(
            name, name,
            cycles=checks.geomean(p.cycles for p in front),
            area=checks.geomean(p.area for p in front),
            data={"front": sorted({(p.area, p.latency_ns) for p in front}),
                  "failures": len(result.failures)},
        )

    def expected(self) -> dict:
        """Every kernel's exact front and the set of all its cells'
        points, by synthesizing and measuring every cell of the space
        (split over two child processes that start from a cold cache;
        this runs after the timed rounds)."""
        points: dict[str, list] = {}
        for part in _cell_points_in_children(self.kernels):
            for name, pairs in part.items():
                points.setdefault(name, []).extend(map(tuple, pairs))
        return {name: (checks.pareto_front(p), set(p))
                for name, p in points.items()}

    def check(self, outcome: Outcome, expected: dict) -> list[str]:
        front, cells = expected[outcome.label]
        errors = checks.front_errors(outcome.label, outcome.data["front"],
                                     front)
        errors += [f"{outcome.label}: front point {point} is no cell's design"
                   for point in sorted(set(outcome.data["front"]) - cells)]
        if outcome.data["failures"]:
            errors.append(f"{outcome.label}: {outcome.data['failures']} "
                          f"cells failed to build")
        return errors

    def known_fault(self, outcome: Outcome, expected: dict) -> bool:
        """Only the documented front difference, with every reported
        point a real cell's design and no cell failing, is known."""
        if (outcome.error or outcome.data["failures"]
                or outcome.label not in KNOWN_FRONT_FAULTS):
            return False
        front, cells = expected[outcome.label]
        reported = set(outcome.data["front"])
        return (reported <= cells and KNOWN_FRONT_FAULTS[outcome.label]
                == (reported - set(front), set(front) - reported))

    def box(self, family: str) -> tuple[float, float]:
        return DSE_BOXES[family]


WORKLOADS = {w.name: w for w in (DfgScale, KernelFlow, Dse)}
