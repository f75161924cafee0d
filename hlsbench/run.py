"""Layered benchmark of the ``repro`` HLS flow.

One run::

    python3 hlsbench/run.py --workload dfg-scale --seed 1 --seconds 30 --trace 0

times whole rounds of the workload for ``--seconds`` seconds with
tracing off, checks every output against computations made apart from
the program, and prints the end-to-end metrics; the last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  With ``--trace 1`` it alternates untraced
and traced rounds and prints the per-layer metrics instead.

    python3 hlsbench/run.py --workload all

runs every workload untraced and traced and prints all metrics, and

    python3 hlsbench/run.py --study 10 --workload dse [--seed 1]

runs a workload ten times, once per seed 1..10 or every time with the
seed given, and prints each metric's median, quartiles and spread.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

#: Environment knobs of the program that would change what a run does
#: or writes (disk store, ledger, tracing, fault injection, timeouts).
REPRO_KNOBS = ("REPRO_STORE", "REPRO_STORE_DIR", "REPRO_LEDGER",
               "REPRO_LEDGER_DIR", "REPRO_TRACE", "REPRO_MEM", "REPRO_FAULT",
               "REPRO_FAULT_HANG_S", "REPRO_TASK_TIMEOUT_S")

WORKLOAD_NAMES = ("dfg-scale", "kernel-flow", "dse")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "design_cycles": "cycles", "design_area": "area",
              "front_hv": "ref-box"}
#: Set-up probes per run; set-up time is their median.
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170


def hermetic_env() -> dict[str, str]:
    """This process's environment without the program's knobs.

    Bytecode is always cached, under ``.bench_build`` rather than in the
    source tree, so set-up time measures imports the way an installed
    package pays for them whatever the caller's environment says.
    """
    env = {k: v for k, v in os.environ.items()
           if k not in REPRO_KNOBS and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    return env


def _import_program():
    """Make ``repro`` and the benchmark modules importable."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC / 'repro'}; run from a "
                 f"checkout of the repository")
    for knob in REPRO_KNOBS:
        os.environ.pop(knob, None)
    sys.pycache_prefix = str(BUILD / "pycache")
    sys.dont_write_bytecode = False
    sys.path[:0] = [str(SRC), str(HERE)]
    import flows

    return flows


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


def measure_setup(workload: str, seed: int) -> float:
    """Median time from process start to inputs built, over fresh
    processes."""
    samples = []
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--probe"]
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE,
                              env=hermetic_env(), text=True) as child:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - started)
            child.stdout.read()
            child.wait(timeout=CHILD_TIMEOUT_S)
        if line.strip() != "ready" or child.returncode != 0:
            sys.exit(f"error: set-up probe failed (exit {child.returncode})")
    return statistics.median(samples)


def _qor(workload, outcomes) -> dict[str, float]:
    """design_cycles, design_area and front_hv of one round."""
    from checks import geomean, hypervolume

    built = [o for o in outcomes if o.area]  # designs, not golden models
    families: dict[str, list] = {}
    for outcome in built:
        points = outcome.data.get("front") or [(outcome.area,
                                                outcome.latency_ns)]
        families.setdefault(outcome.family, []).extend(points)
    return {
        "design_cycles": geomean(o.cycles for o in built),
        "design_area": geomean(o.area for o in built),
        "front_hv": sum(hypervolume(points, workload.box(family))
                        for family, points in families.items()),
    }


def tally(workload, rounds, expected) -> tuple[int, int, bool]:
    """(attempted, failed, correct) of checked rounds; ``correct`` is
    false once an operation fails that is not a known fault."""
    attempted = failed = 0
    correct = True
    reported = set()
    for outcomes in rounds:
        for outcome in outcomes:
            attempted += 1
            errors = ([outcome.error] if outcome.error
                      else workload.check(outcome, expected))
            if errors:
                failed += 1
                known = workload.known_fault(outcome, expected)
                correct = correct and known
                for error in sorted(set(errors[:3]) - reported):
                    print(f"{'known fault' if known else 'FAIL'}: {error}",
                          file=sys.stderr)
                    reported.add(error)
    return attempted, failed, correct


def round_seconds(rounds) -> float:
    """Time of one round: each operation's median time over the rounds,
    summed over the round's operations.

    Per-operation medians drop a burst of interference that slows a
    few operations of one round, which a median of round totals keeps
    whenever bursts hit most rounds somewhere.
    """
    times: dict[str, list[float]] = {}
    for outcomes in rounds:
        for outcome in outcomes:
            times.setdefault(outcome.label, []).append(outcome.seconds)
    return sum(statistics.median(values) for values in times.values())


def run_once(args) -> dict:
    flows = _import_program()
    from repro.core import clear_synthesis_cache

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    workload = flows.WORKLOADS[args.workload](args.seed)

    tracer = None
    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer()
    plain, traced_rounds, layer_rounds, rounds = [], [], [], []
    min_rounds = 1 if tracer is None else 2  # traced runs need both kinds
    started = time.perf_counter()
    while (len(rounds) < min_rounds
           or time.perf_counter() - started < args.seconds):
        # Odd rounds are traced in --trace 1 runs.
        traced = tracer is not None and len(rounds) % 2 == 1
        clear_synthesis_cache()
        gc.collect()  # every round starts from the same heap state
        if traced:
            tracer.clear()
            tracer.install()
        began = time.perf_counter()
        outcomes = workload.run_round()
        wall = time.perf_counter() - began
        if traced:
            tracer.uninstall()
            layer_rounds.append(tracer.summarize(wall))
            tracer.clear()
        (traced_rounds if traced else plain).append(outcomes)
        rounds.append(outcomes)
    peak_rss_mb = _peak_rss_mb()
    print("round times (s): " + " ".join(
        f"{sum(o.seconds for o in r):.3f}" for r in plain), file=sys.stderr)

    attempted, failed, correct = tally(workload, rounds, workload.expected())

    if tracer is None:
        metrics = {"setup_s": setup_s, "wall_s": round_seconds(plain),
                   "peak_rss_mb": peak_rss_mb, **_qor(workload, rounds[-1])}
        units = END_TO_END
    else:
        from layers import metric_units

        units = metric_units()
        metrics = {}
        for name in units:
            values = [r.get(name) for r in layer_rounds]
            metrics[name] = (None if None in values
                             else statistics.median(values))
        metrics["trace_overhead_s"] = (round_seconds(traced_rounds)
                                       - round_seconds(plain))
        for name, reason in tracer.missing.items():
            print(f"missing: {name} ({reason})", file=sys.stderr)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Driving runs as child processes
# ----------------------------------------------------------------------


def run_child(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True,
                          env=hermetic_env(), timeout=CHILD_TIMEOUT_S + 60)
    if done.returncode != 0:
        sys.exit(f"error: {' '.join(command)} exited {done.returncode}\n"
                 f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _print_result(title: str, result: dict) -> None:
    print(f"== {title}: attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"   {name:<34} {shown:>14} {metric['unit']}")


def run_all(args) -> None:
    """Every workload, untraced then traced."""
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            result = run_child(workload, args.seed, args.seconds, trace)
            _print_result(f"{workload} --trace {trace}", result)


def study(args) -> None:
    """Each metric's median, quartiles and spread over N runs: seeds
    1..N, or the one seed given, which leaves only run-to-run noise."""
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    seeds = (range(1, args.study + 1) if args.seed is None
             else [args.seed] * args.study)
    for workload in names:
        results = [run_child(workload, seed, args.seconds, args.trace)
                   for seed in seeds]
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"== {workload}: {len(results)} runs, seeds "
              f"{'1..' + str(args.study) if args.seed is None else args.seed}"
              f", failed share "
              f"{sorted(shares)}, all correct "
              f"{all(r['correct'] for r in results)}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            if None in values:
                print(f"   {name:<34} missing")
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(median) if median else float("nan")
            print(f"   {name:<34} median {median:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.4f}")
            print("      " + " ".join(f"{v:.5g}" for v in values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default 1; with --study, every "
                        "run uses it instead of seeds 1..N)")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--study", type=int, default=0, metavar="N",
                        help="run seeds 1..N and print each metric's spread")
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)  # set-up probe child
    args = parser.parse_args(argv)

    if args.probe:
        flows = _import_program()
        flows.WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0
    if args.study:
        study(args)
        return 0
    if args.seed is None:
        args.seed = 1
    if args.workload == "all":
        run_all(args)
        return 0
    result = run_once(args)
    _print_result(f"{args.workload} --trace {args.trace}", result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
