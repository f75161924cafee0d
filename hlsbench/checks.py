"""Independent output checks for the benchmark's workloads.

Nothing here calls into the synthesis pipeline: every expected value is
computed from the workload's own inputs with plain Python, so a wrong
design cannot also produce the expected answer.
"""

from __future__ import annotations

import math
from fractions import Fraction

#: Largest |Y - sqrt(X)| accepted from the paper's sqrt (Fig. 1) on
#: X in [1/16, 1].  Four Newton steps from the minimax guess converge
#: far below this; the slack is for fixed<24,16> rounding (2**-16
#: per operation) in the datapath.
SQRT_TOLERANCE = 1e-3

#: Largest |xn - x| and |yn - y| accepted from the diffeq kernel
#: against a float Euler loop.  Inputs sit on the fixed<32,16> grid,
#: so x advances exactly and both loops run the same trip count; y and
#: u carry one rounding of 2**-16 per multiply for at most 16 steps.
DIFFEQ_TOLERANCE = 1e-3


# ----------------------------------------------------------------------
# dfg-scale: random DFG recipes
# ----------------------------------------------------------------------


def _wrap(value: int, width: int) -> int:
    """Two's-complement wrap of ``value`` to ``width`` bits."""
    value &= (1 << width) - 1
    if value >= 1 << (width - 1):
        value -= 1 << width
    return value


_RECIPE_OPS = {
    "ADD": lambda a, b: a + b,
    "SUB": lambda a, b: a - b,
    "MUL": lambda a, b: a * b,
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
}


def interpret_recipe(recipe, inputs: list[int]) -> dict[str, int]:
    """Outputs of an integer-domain DFG recipe for one input vector.

    The recipe is a list of ``(kind, left, right)`` triples over a value
    pool that starts with the inputs; every op result nobody reads
    becomes an output ``out<k>`` in pool order, or ``out0`` is the last
    result when every result is read.
    """
    if recipe.domain != "int":
        raise ValueError("only integer-domain recipes have exact outputs")
    width = recipe.width
    pool = [_wrap(value, width) for value in inputs]
    read = set()
    for kind, left, right in recipe.ops:
        pool.append(_wrap(_RECIPE_OPS[kind](pool[left], pool[right]), width))
        read.update((left, right))
    sinks = [index for index in range(recipe.inputs, len(pool))
             if index not in read]
    if not sinks:
        return {"out0": pool[-1]}
    return {f"out{k}": pool[index] for k, index in enumerate(sinks)}


# ----------------------------------------------------------------------
# kernel-flow: the paper's kernels
# ----------------------------------------------------------------------


def diffeq_reference(x0: float, y0: float, u0: float, dx: float,
                     a: float) -> tuple[float, float]:
    """``(xn, yn)`` of the HAL diffeq Euler loop in float arithmetic."""
    x, y, u = x0, y0, u0
    while x < a:
        x, u, y = x + dx, u - 3 * x * u * dx - 3 * y * dx, y + u * dx
    return x, y


def fir_reference(x: float, coefficients: list[float],
                  samples: list[float]) -> Fraction:
    """Exact ``sum(c[i] * s[i])`` after the kernel's ``s[0] := x``."""
    window = [x] + list(samples[1:])
    return sum((Fraction(c) * Fraction(s)
                for c, s in zip(coefficients, window)), Fraction(0))


def kernel_errors(kernel: str, inputs: dict, memories: dict | None,
                  outputs: dict) -> list[str]:
    """Disagreements of one activation with the kernel's own reference
    (empty for kernels without one)."""
    if kernel == "sqrt":
        error = abs(outputs["Y"] - math.sqrt(inputs["X"]))
        if not error <= SQRT_TOLERANCE:
            return [f"sqrt({inputs['X']}) = {outputs['Y']}, "
                    f"off by {error:.3g}"]
    elif kernel == "diffeq":
        xn, yn = diffeq_reference(**inputs)
        errors = (abs(outputs["xn"] - xn), abs(outputs["yn"] - yn))
        if not max(errors) <= DIFFEQ_TOLERANCE:
            return [f"diffeq{inputs} = ({outputs['xn']}, "
                    f"{outputs['yn']}), float Euler gives ({xn}, {yn})"]
    elif kernel.startswith("fir"):
        expected = fir_reference(inputs["x"], memories["c"], memories["s"])
        if Fraction(outputs["y"]) != expected:
            return [f"{kernel}(x={inputs['x']}) = {outputs['y']}, "
                    f"dot product gives {float(expected)}"]
    return []


def output_errors(label: str, got: dict, expected: dict) -> list[str]:
    """Ports whose value differs from the expected one (exactly)."""
    return [
        f"{label}: port {name} = {got.get(name)!r}, expected {value!r}"
        for name, value in sorted(expected.items())
        if got.get(name) != value
    ] + [f"{label}: unexpected port {name}"
         for name in sorted(set(got) - set(expected))]


# ----------------------------------------------------------------------
# dse: Pareto fronts
# ----------------------------------------------------------------------


def pareto_front(points) -> list[tuple[float, float]]:
    """Distinct (area, latency) pairs no other pair dominates.

    A pair dominates another when it is no worse on both axes and
    better on one; equal pairs do not dominate each other.
    """
    front: list[tuple[float, float]] = []
    best_latency = math.inf
    for area, latency in sorted(set(points)):
        if latency < best_latency:
            front.append((area, latency))
            best_latency = latency
    return front


def front_errors(label: str, reported, exact) -> list[str]:
    """Differences between a reported front and the exact one.

    ``reported`` may repeat a pair (several configurations can reach
    the same design); the comparison is on distinct pairs.
    """
    got, want = set(reported), set(exact)
    errors = [f"{label}: front point {point} is not Pareto-optimal"
              for point in sorted(got - want)]
    errors += [f"{label}: front misses {point}"
               for point in sorted(want - got)]
    return errors


def hypervolume(front, box: tuple[float, float]) -> float:
    """Share of the box ``[0, area] x [0, latency]`` a minimizing front
    dominates (points outside the box are clipped to it)."""
    box_area, box_latency = box
    covered = 0.0
    previous = box_latency
    for area, latency in pareto_front(front):
        if area >= box_area or latency >= previous:
            continue
        covered += (box_area - area) * (previous - latency)
        previous = latency
    return covered / (box_area * box_latency)


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))
