#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload decode-corpus --seed 2025 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off.  ``--trace 1`` alternates untraced and traced iterations of the
workload's first replica and reports the per-layer metrics, including the
tracing overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Exit status 0 means
every correctness check passed; 1 means a check failed; 2 means the
benchmark could not run (for instance, no ``src/repro`` beside it).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import (
    DEFAULT_SEED,
    HELD_OUT_SEED,
    ROOT,
    check_spec,
    environment,
    load_spec,
    units,
)
from tracer import Tracer, layer_totals, unattributed_s

#: Child processes timed per run for ``setup_s``; the median is reported.
SETUP_REPEATS = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="build the workload's inputs and exit (timed by the parent run)",
    )
    return parser.parse_args(argv)


def measure_setup_s(workload: str, seed: int) -> float:
    """Median CPU time of fresh processes that import and set up."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--setup-only",
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        before = children_cpu_s()
        subprocess.run(
            command, cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL
        )
        times.append(children_cpu_s() - before)
    return statistics.median(times)


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(workloads, workload, args) -> tuple[dict, dict, int]:
    """End-to-end metrics, tracing off: iterate replicas for ``seconds``."""
    setup_s = measure_setup_s(workload.name, args.seed)
    vocab, replicas = workloads.setup(workload, args.seed)
    first: dict[int, object] = {}
    rates = []
    attempted = 0
    start = time.perf_counter()
    iteration = 0
    while iteration < len(replicas) or time.perf_counter() - start < args.seconds:
        replica = replicas[iteration % len(replicas)]
        gc.collect()  # start each iteration from a collected heap
        began = time.process_time()
        outcome = workload.iterate(vocab, replica)
        rates.append(outcome.tokens / (time.process_time() - began))
        attempted += outcome.operations
        if replica.index not in first:
            first[replica.index] = outcome
        elif outcome.digest != first[replica.index].digest:
            raise workloads.CorrectnessError(
                f"replica {replica.index}: a repeated iteration changed "
                "simulated outputs"
            )
        iteration += 1
    rss = peak_rss_mb()
    sim, detail = workload.evaluate(
        vocab, [(replica, first[replica.index]) for replica in replicas]
    )
    metrics = {
        "setup_s": setup_s,
        # Best of the run's iterations: other tenants of a shared machine
        # only ever slow an iteration down, even in CPU time (on a 2-vCPU
        # VM, identical iterations ranged over 3.6k-7.3k tokens per CPU
        # second), and across runs the best iteration spread least.
        "tokens_per_host_s": max(rates),
        "peak_rss_mb": rss,
        **sim,
    }
    detail.update(iterations=iteration, replicas=len(replicas), rates=rates)
    return metrics, detail, attempted


def traced_run(workloads, workload, args) -> tuple[dict, dict, int]:
    """Per-layer metrics: untraced/traced iteration pairs on replica 0."""
    points = workloads.entry_points()
    vocab, replicas = workloads.setup(workload, args.seed)
    with Tracer() as tracer:
        tracer.install(points)
        workload.prepare(vocab, args.seed, 0)
        data = layer_totals(tracer.snapshot()).get("data", {"self_s": 0.0})
    replica = replicas[0]
    # Warm-up: the first iteration in a process also pays lazy imports.
    attempted = workload.iterate(vocab, replica).operations
    untraced, traced, snapshots = [], [], []
    reference = None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        gc.collect()
        began = time.perf_counter()
        plain = workload.iterate(vocab, replica)
        untraced.append(time.perf_counter() - began)
        gc.collect()
        with Tracer() as tracer:
            tracer.install(points)
            began = time.perf_counter()
            outcome = workload.iterate(vocab, replica)
            traced.append(time.perf_counter() - began)
            snapshots.append(tracer.snapshot())
        attempted += plain.operations + outcome.operations
        if outcome.digest != plain.digest:
            raise workloads.CorrectnessError(
                "the traced run's simulated outputs differ from the untraced run's"
            )
        reference = outcome
    per_iteration = [
        host_layer_metrics(snapshot, workload.distinct_decodes(replica))
        for snapshot in snapshots
    ]
    metrics = {
        name: statistics.median(m[name] for m in per_iteration)
        for name in per_iteration[0]
    }
    traced_wall = statistics.median(traced)
    untraced_wall = statistics.median(untraced)
    metrics.update(
        {
            "data.build_s": data["self_s"],
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_ratio": traced_wall / untraced_wall - 1.0,
            "trace.unattributed_s": statistics.median(
                unattributed_s(snapshot, wall)
                for snapshot, wall in zip(snapshots, traced, strict=True)
            ),
        }
    )
    metrics.update(workload.layer_sim(vocab, replica, reference))
    layers = layer_totals(snapshots[-1])
    detail = {"pairs": len(traced), "layers": layers, "entry_points": snapshots[-1]}
    return metrics, detail, attempted


def host_layer_metrics(snapshot: dict, distinct: int) -> dict:
    """Per-layer host metrics of one traced iteration."""
    layers = layer_totals(snapshot)

    def self_s(layer: str) -> float:
        return layers.get(layer, {}).get("self_s", 0.0)

    def layer_calls(layer: str) -> float:
        return float(layers.get(layer, {}).get("calls", 0))

    def calls(*keys: str) -> int:
        return sum(snapshot[key]["calls"] for key in keys if key in snapshot)

    builds = calls("EmissionOracle.__init__")
    lookups = calls("OracleFactory.for_utterance")
    begins = sum(
        entry["calls"] for key, entry in snapshot.items() if key.endswith(".begin")
    )
    return {
        "runner.self_s": self_s("runner"),
        "oracle.self_s": self_s("oracle"),
        "oracle.calls": float(calls("EmissionOracle.step", "EmissionOracle.step_many")),
        "oracle.builds": float(builds),
        "oracle.factory_hit_ratio": 1.0 - builds / lookups if lookups else 0.0,
        "session.self_s": self_s("session"),
        "session.calls": layer_calls("session"),
        "session.prewarm_s": snapshot.get("prewarm_models", {}).get("total_s", 0.0),
        "decoder.self_s": self_s("decoder"),
        "decoder.step_phase_calls": float(
            calls("DecodeStepper.step_phase", "PhasedDecodeStepper.step_phase")
        ),
        "decoder.decodes_per_request": begins / distinct,
        "scheduler.self_s": self_s("scheduler"),
        "router.self_s": self_s("router"),
        "router.calls": layer_calls("router"),
        "devices.self_s": self_s("devices"),
        "memory.self_s": self_s("memory"),
        "memory.calls": layer_calls("memory"),
        "report.self_s": self_s("report"),
    }


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: no simulator source at {ROOT / 'src' / 'repro'}",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.setup_only:
        workloads.setup(workload, args.seed)
        return 0
    spec = load_spec()
    problems = check_spec(spec)
    if problems:
        print(f"perfbench: invalid BENCHMARK.json: {problems}", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    declared = units(spec, section)

    run = traced_run if args.trace else timed_run
    try:
        values, detail, attempted = run(workloads, workload, args)
    except workloads.CorrectnessError as error:
        print(f"perfbench: correctness check failed: {error}", file=sys.stderr)
        print(result_line(False, 1, 1, {}))
        return 1
    if set(values) != set(declared):
        print(
            "perfbench: measured metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(values))}, "
            f"extra {sorted(set(values) - set(declared))}",
            file=sys.stderr,
        )
        return 2
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in declared.items()
    }
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "default_seed": DEFAULT_SEED,
                "held_out_seed": HELD_OUT_SEED,
                "seconds": args.seconds,
                "trace": args.trace,
                "environment": environment(),
                "detail": detail,
            }
        )
    )
    print(result_line(True, attempted, 0, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
