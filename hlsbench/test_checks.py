"""The benchmark's checkers must be able to fail.

Run with ``python3 -m pytest hlsbench -q`` from the repository root.
"""

from __future__ import annotations

import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import flows  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from repro import SynthesisOptions, synthesize_cdfg  # noqa: E402
from repro.scheduling import ResourceConstraints  # noqa: E402
from repro.sim import RTLSimulator  # noqa: E402
from repro.workloads import RandomDFGSpec, build_dfg, dfg_recipe  # noqa: E402


def _flip(value, bit: int = 0):
    """``value`` with one bit of its two's-complement pattern flipped."""
    if isinstance(value, int):
        return checks._wrap(value ^ (1 << bit), 32)
    return value + 2.0 ** -12 * (1 << bit)


# ----------------------------------------------------------------------
# dfg-scale
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_dfg():
    recipe = replace(dfg_recipe(RandomDFGSpec(ops=40, seed=5)),
                     width=32, domain="int")
    inputs = [7, -3, 2**31 - 1, -(2**31)]
    design = synthesize_cdfg(build_dfg(recipe), SynthesisOptions(
        constraints=ResourceConstraints({"fu": 2})))
    rtl = RTLSimulator(design).run(
        {f"in{i}": v for i, v in enumerate(inputs)})
    return recipe, inputs, rtl


def test_recipe_interpreter_matches_rtl(small_dfg):
    recipe, inputs, rtl = small_dfg
    assert checks.output_errors("dfg", rtl,
                                checks.interpret_recipe(recipe, inputs)) == []


@pytest.mark.parametrize("bit", [0, 17, 31])
def test_flipped_output_bit_is_caught(small_dfg, bit):
    recipe, inputs, rtl = small_dfg
    port = sorted(rtl)[0]
    broken = dict(rtl, **{port: _flip(rtl[port], bit)})
    errors = checks.output_errors("dfg", broken,
                                  checks.interpret_recipe(recipe, inputs))
    assert len(errors) == 1 and port in errors[0]


def test_recipe_interpreter_wraps_at_width():
    recipe = flows.DfgScale(1).recipes[30]
    big = replace(recipe, ops=(("MUL", 0, 1),), inputs=2)
    assert checks.interpret_recipe(big, [2**30, 4]) == {"out0": 0}


def test_fu_limit_overflow_is_caught():
    workload = flows.DfgScale(1)
    expected = workload.expected()
    good = flows.Outcome("list/left-edge/100", "100", data={
        "outputs": expected[100], "fus": flows.DFG_FU_LIMIT})
    assert workload.check(good, expected) == []
    over = replace(good, data=dict(good.data, fus=flows.DFG_FU_LIMIT + 1))
    assert any("exceed" in e for e in workload.check(over, expected))


# ----------------------------------------------------------------------
# kernel-flow
# ----------------------------------------------------------------------


def test_fir_reference_is_exact_and_catches_a_flipped_bit():
    memories = {"c": [0.5, -1.25, 2.0], "s": [9.0, 0.75, -0.5]}
    inputs = {"x": 1.5}
    exact = 0.5 * 1.5 - 1.25 * 0.75 - 2.0 * 0.5
    assert checks.kernel_errors("fir3", inputs, memories, {"y": exact}) == []
    assert checks.kernel_errors("fir3", inputs, memories,
                                {"y": _flip(exact)})


def test_sqrt_and_diffeq_tolerances_catch_a_high_bit():
    x = 0.3
    assert checks.kernel_errors("sqrt", {"X": x}, None,
                                {"Y": x ** 0.5}) == []
    assert checks.kernel_errors("sqrt", {"X": x}, None,
                                {"Y": x ** 0.5 + 2.0 ** -8})
    inputs = {"x0": 0.0, "y0": 1.0, "u0": 0.5, "dx": 0.125, "a": 0.5}
    xn, yn = checks.diffeq_reference(**inputs)
    assert checks.kernel_errors("diffeq", inputs, None,
                                {"xn": xn, "yn": yn}) == []
    assert checks.kernel_errors("diffeq", inputs, None,
                                {"xn": xn, "yn": yn + 2.0 ** -8})


def test_kernel_flow_check_catches_rtl_behavior_mismatch():
    workload = flows.KernelFlow(1)
    kernel = workload.kernels[0]
    golden = [{"Y": inputs["X"] ** 0.5} for inputs, _ in kernel.vectors]
    outcome = flows.Outcome("sqrt/plain", "sqrt", data={
        "outputs": [dict(g) for g in golden], "golden": golden,
        "verilog_ok": True})
    assert workload.check(outcome, {}) == []
    outcome.data["outputs"][3]["Y"] = _flip(golden[3]["Y"], 4)
    assert workload.check(outcome, {})


# ----------------------------------------------------------------------
# dse
# ----------------------------------------------------------------------


def test_pareto_front_drops_dominated_and_duplicate_points():
    points = [(10, 5), (10, 5), (12, 5), (8, 9), (20, 1), (9, 9)]
    assert checks.pareto_front(points) == [(8, 9), (10, 5), (20, 1)]


def test_dominated_front_point_is_caught():
    exact = [(8, 9), (10, 5)]
    errors = checks.front_errors("k", [(8, 9), (10, 5), (12, 5)], exact)
    assert errors == ["k: front point (12, 5) is not Pareto-optimal"]


def test_missing_front_point_is_caught():
    errors = checks.front_errors("k", [(10, 5), (10, 5)], [(8, 9), (10, 5)])
    assert errors == ["k: front misses (8, 9)"]


def test_dse_check_flags_front_differences():
    workload = flows.Dse(1)
    outcome = flows.Outcome("sqrt", "sqrt", data={
        "front": [(4698.0, 515.0)], "failures": 0})
    cells = {(4000.0, 600.0), (4698.0, 515.0), (5000.0, 515.0)}
    assert workload.check(outcome, {"sqrt": ([(4698.0, 515.0)], cells)}) == []
    assert workload.check(outcome, {"sqrt": ([(4000.0, 600.0),
                                              (4698.0, 515.0)], cells)})
    invented = replace(outcome, data=dict(outcome.data,
                                          front=[(4698.0, 500.0)]))
    assert any("no cell's design" in e for e in workload.check(
        invented, {"sqrt": ([(4698.0, 515.0)], cells)}))


#: A diffeq space whose funnel shows exactly the documented fault.
_EXTRA, _MISSING = (next(iter(points))
                    for points in flows.KNOWN_FRONT_FAULTS["diffeq"])
_EXACT = [(10000.0, 5000.0), _MISSING]
_DIFFEQ = {"diffeq": (_EXACT, {*_EXACT, _EXTRA, (20000.0, 5000.0)})}


def _diffeq_outcome(front, failures=0, error=None):
    return flows.Outcome("diffeq", "diffeq", error=error,
                         data={"front": front, "failures": failures})


def test_documented_front_fault_is_known():
    documented = _diffeq_outcome([(10000.0, 5000.0), _EXTRA])
    assert run.tally(flows.Dse(1), [[documented]], _DIFFEQ) == (1, 1, True)
    exact = _diffeq_outcome(_EXACT)
    assert run.tally(flows.Dse(1), [[exact]], _DIFFEQ) == (1, 0, True)


@pytest.mark.parametrize("outcome", [
    _diffeq_outcome([], error="RuntimeError: explore_directives failed"),
    _diffeq_outcome([(10000.0, 5000.0), _EXTRA], failures=2),
    _diffeq_outcome([_EXTRA]),                      # a second point missed
    _diffeq_outcome([(10000.0, 5000.0), (15000.0, 3900.0)]),  # no cell's
], ids=["exception", "cells-failed", "new-miss", "invented-point"])
def test_other_failures_on_a_known_fault_kernel_are_incorrect(outcome):
    attempted, failed, correct = run.tally(flows.Dse(1), [[outcome]], _DIFFEQ)
    assert (attempted, failed, correct) == (1, 1, False)


def test_hypervolume():
    assert checks.hypervolume([(5, 5)], (10, 10)) == pytest.approx(0.25)
    assert checks.hypervolume([(5, 5), (2, 8)], (10, 10)) == \
        pytest.approx((8 * 2 + 5 * 3) / 100)
    assert checks.hypervolume([(11, 1)], (10, 10)) == 0.0


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------


@pytest.fixture
def toy_module():
    module = types.ModuleType("repro_toy")

    def leaf(n):
        return sum(range(n))

    def outer(n):
        return module.leaf(n) + module.leaf(n)

    module.leaf, module.outer = leaf, outer
    sys.modules["repro_toy"] = module
    yield module
    del sys.modules["repro_toy"]


def test_self_time_excludes_children(toy_module):
    tracer = layers.LayerTracer(probes=[
        layers.Probe("repro_toy:outer", "toy.outer"),
        layers.Probe("repro_toy:leaf", "toy.leaf",
                     count=lambda args, result: {"toy.calls": 1},
                     counters=("toy.calls",)),
    ])
    tracer.install()
    try:
        toy_module.outer(200_000)
    finally:
        tracer.uninstall()
    spans = tracer._spans
    assert [span[0] for span in spans] == ["toy.outer", "toy.leaf", "toy.leaf"]
    assert spans[1][3] == spans[2][3] == 0
    assert tracer.counts == {"toy.calls": 2}
    outer_total = spans[0][2] - spans[0][1]
    children = sum(s[2] - s[1] for s in spans[1:])
    values = tracer.summarize(outer_total)
    assert values["unattributed_s"] == pytest.approx(0.0, abs=1e-9)
    assert toy_module.leaf.__name__ == "leaf"  # uninstalled
    assert outer_total > children > 0


def test_missing_target_is_reported_and_the_run_goes_on(toy_module):
    tracer = layers.LayerTracer(probes=[
        layers.Probe("repro_toy:renamed", "scheduling.list"),
        layers.Probe("repro.no_such_module:thing", "allocation.clique"),
        layers.Probe("repro_toy:leaf", "sim.rtl"),
    ])
    tracer.install()
    try:
        toy_module.leaf(10)
    finally:
        tracer.uninstall()
    assert set(tracer.missing) == {
        "scheduling.list_s", "scheduling.list.exp",
        "allocation.clique_s", "allocation.clique.exp"}
    values = tracer.summarize(1.0)
    assert values["scheduling.list_s"] is None
    assert values["sim.rtl_s"] > 0


def test_every_probe_target_resolves():
    tracer = layers.LayerTracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == {}


def test_log_log_slope():
    quadratic = [(n, 1e-6 * n * n) for n in (10, 100, 1000)]
    assert layers.log_log_slope(quadratic) == pytest.approx(2.0)
    assert layers.log_log_slope([(10, 1.0), (10, 2.0)]) == 0.0
