#!/usr/bin/env python
"""Serving benchmark: SLO capacity per decoding method + wall-clock guard.

For each method in the suite this bench:

* searches the **max sustainable QPS** at the completion SLO (goodput ratio
  ≥ ``--slo-target`` within ``--deadline-ms``) — a deterministic simulation
  metric, the serving headline of the paper's speedup claim;
* records the full SLO report (p50/p95/p99 completion and TTFT, goodput,
  device utilisation) at a common reference load ``--ref-qps``;
* sweeps the **cluster grid** — device count × router policy (colocated
  sharding, draft/target disaggregation, merged cross-request verification)
  × pool-split policy (fixed ``K // 2`` vs the workload-aware balanced
  planner) × device mix (homogeneous vs a ``2x1.0,2x0.5`` fast/slow
  heterogeneous cluster) — and records max sustainable QPS per point;
* sweeps the **streaming grid** — chunked audio delivery at several
  chunk-size × lookahead × real-time-factor points — recording word-level
  TTFT / chunk-emission / final-latency percentiles and asserting each
  point's transcripts bit-identical to the offline run of the same trace,
  plus one loaded streaming point whose goodput the smoke mode gates;
* asserts the scheduler determinism contract: serial (batch=1) and batched
  configurations produce bit-identical transcripts and per-request decode
  times, re-running the batched simulation reproduces identical completion
  latencies, and transcripts/decode times are identical across device
  counts, device specs, split policies and router policies.

Wall-clock throughput (simulated requests per second of host time) is also
measured, and ``--smoke`` compares it against the checked-in
``BENCH_serve.json`` baseline, failing on a >``--tolerance`` regression —
the serving counterpart of ``tools/bench_decode.py --smoke``.  The smoke
mode also re-checks the deterministic capacity ordering (every speculative
method must sustain more QPS than autoregressive), so a correctness
regression fails CI even on noisy runners.

Usage::

    PYTHONPATH=src python tools/bench_serve.py              # full bench
    PYTHONPATH=src python tools/bench_serve.py --smoke      # CI guard
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.models.acoustic import clear_acoustic_caches  # noqa: E402
from repro.serving import (  # noqa: E402
    ChaosSpec,
    ClusterSpec,
    MemorySpec,
    ServeSimConfig,
    build_decoder,
    max_sustainable_qps,
    simulate,
)

#: Methods benchmarked, autoregressive first (the capacity baseline).
SERVE_METHODS = (
    "autoregressive",
    "spec(8,1)",
    "spec(16,1)",
    "specasr-asp",
    "specasr-tsp",
)

#: Fast/slow device mix used by the heterogeneous grid points.
HETERO_SPEC = "2x1.0,2x0.5"

#: Cluster grid swept by the full bench:
#: (devices, router policy, pool split, device spec).
CLUSTER_POINTS = (
    (1, "colocated", "fixed", ""),
    (2, "colocated", "fixed", ""),
    (2, "disaggregated", "fixed", ""),
    (2, "merged", "fixed", ""),
    (4, "colocated", "fixed", ""),
    (4, "disaggregated", "fixed", ""),
    (4, "disaggregated", "balanced", ""),
    (4, "merged", "fixed", ""),
    (4, "merged", "balanced", ""),
    (4, "colocated", "fixed", HETERO_SPEC),
    (4, "disaggregated", "fixed", HETERO_SPEC),
    (4, "disaggregated", "balanced", HETERO_SPEC),
    (4, "merged", "balanced", HETERO_SPEC),
)

#: Speculative methods the cluster grid is evaluated for.
CLUSTER_METHODS = ("spec(8,1)", "specasr-asp")

#: Chaos grid: sustained QPS at the SLO with 0/1/2 injected device failures
#: on the 4-device disaggregated cluster (crashes are permanent — the
#: harshest case; warm restarts are covered by the determinism check).
CHAOS_METHOD = "specasr-asp"
CHAOS_CLUSTER = (4, "disaggregated", "fixed", "")
CHAOS_POINTS = (
    ("0-failures", ""),
    ("1-failure", "crash@500:dev3"),
    ("2-failures", "crash@500:dev3;crash@1000:dev1"),
)

#: Fault plan exercised by the chaos determinism check (crash + warm
#: restart + transient errors, the acceptance scenario).
CHAOS_DETERMINISM_FAULTS = "crash@2000:dev3:restart=1500;perr:0.02"

#: Measured wall-clock A/B: the merged-verify cluster served once with the
#: scalar per-position oracle (``oracle_block_size=1``, the reference) and
#: once with the block-vectorised oracle, cold caches each leg.  Reports
#: must be bit-identical; only host wall time may differ.
WALL_AB_METHOD = "specasr-asp"
WALL_AB_CLUSTER = (4, "merged", "fixed", "")
WALL_AB_REPS = 3

#: Streaming grid: (label, chunk_s, lookahead_s, rtf) points swept with
#: chunked audio delivery.  Served at a light load so every stream
#: completes — the parity gate compares each point's transcripts against
#: the offline run of the same trace, which needs matching statuses.
STREAM_METHOD = "specasr-asp"
STREAM_QPS = 0.5
STREAM_POINTS = (
    ("chunk1.0-look0.3-rtf1", 1.0, 0.3, 1.0),
    ("chunk0.5-look0.3-rtf1", 0.5, 0.3, 1.0),
    ("chunk2.0-look0.6-rtf1", 2.0, 0.6, 1.0),
    ("chunk1.0-look0.3-rtf2", 1.0, 0.3, 2.0),
)
#: Loaded streaming point (default chunking): at this load the streams
#: waiting for audio outnumber the in-flight slots, so it meets the SLO
#: only if a waiting stream frees its slot.  It has its own request count
#: because a 24-request trace ends before the queue fills.  The smoke gate
#: requires the SLO target.
STREAM_LOADED_QPS = 3.0
STREAM_LOADED_REQUESTS = 64
#: Ceiling on p95 chunk-emission latency (ms) for the smoke gate.  The
#: simulation is deterministic, so this is a correctness bound, not a noise
#: tolerance: measured p95 across the grid is well under half of this.
STREAM_EMISSION_P95_BOUND_MS = 1000.0

#: Memory grid: per-device KV capacities (blocks) probed per router point;
#: None = unconstrained (the legacy time-only cluster).
MEMORY_METHOD = "specasr-asp"
MEMORY_CAPACITIES = (None, 256, 96, 48)
MEMORY_CLUSTERS = ((2, "colocated"), (2, "disaggregated"))
#: Shared-prompt workload for the prefix-reuse comparison: a tiny corpus
#: maximises cross-request prompt overlap, so copy-on-write sharing is the
#: difference between fitting and thrashing at a tight capacity.
MEMORY_SHARED_UTTERANCES = 4
MEMORY_REUSE_CAPACITY = 48


def _point_key(devices: int, router: str, split: str, device_spec: str) -> str:
    """Stable grid-entry key; legacy points keep their PR-3 names."""
    key = f"{devices}x-{router}"
    if split != "fixed":
        key += f"-{split}"
    if device_spec:
        key += f"-hetero[{device_spec}]"
    return key


def _point_config(
    base: ServeSimConfig, devices: int, router: str, split: str, device_spec: str
) -> ServeSimConfig:
    cluster = ClusterSpec(
        devices=devices, router=router, pool_split=split, device_spec=device_spec
    )
    return replace(base, cluster=cluster)


def _base_config(args, num_requests: int) -> ServeSimConfig:
    return ServeSimConfig(
        qps=args.ref_qps,
        num_requests=num_requests,
        seed=args.seed,
        utterances=args.utterances,
        deadline_ms=args.deadline_ms,
    )


def _check_determinism(config: ServeSimConfig) -> None:
    """Serial vs batched vs clustered: identical per-request transcripts
    and decode times; batched twice: identical completion latencies."""
    from repro.harness.runner import load_split
    from repro.serving import ContinuousBatchScheduler, make_trace

    decoder = build_decoder(config)
    serial = replace(config, max_batch=1, max_inflight=1)
    reports = {
        "serial": simulate(serial, decoder=decoder),
        "batched": simulate(config, decoder=decoder),
        "batched2": simulate(config, decoder=decoder),
    }
    if reports["batched"].to_dict() != reports["batched2"].to_dict():
        raise AssertionError("re-running the batched simulation diverged")
    a, b = reports["serial"], reports["batched"]
    if (a.decode and b.decode) and a.decode.to_dict() != b.decode.to_dict():
        raise AssertionError(
            "per-request decode time depends on scheduling — "
            "determinism contract violated"
        )
    # Cluster contract, per request: same trace, any device count, any
    # device spec, any split policy, any router policy — bit-identical
    # transcripts and decode times.
    dataset = load_split(config.split, config.experiment_config())
    trace = make_trace(
        config.arrival, config.num_requests, config.qps, len(dataset), config.seed
    )
    reference = None
    for devices, router, split, device_spec in CLUSTER_POINTS:
        point = _point_config(config, devices, router, split, device_spec)
        scheduler = ContinuousBatchScheduler(
            decoder, config.scheduler_config(), point.cluster_config()
        )
        records = scheduler.run(trace, dataset)
        outputs = [(r.tokens, r.decode_ms) for r in records]
        if reference is None:
            reference = outputs
        elif outputs != reference:
            raise AssertionError(
                "transcripts or decode times changed on "
                f"{_point_key(devices, router, split, device_spec)} "
                "— cluster determinism contract violated"
            )
    # Memory parity contract: ample capacity admits every phase, so the
    # memory-enabled run is bit-identical to the memory-disabled scheduler.
    ample = ContinuousBatchScheduler(
        decoder,
        config.scheduler_config(),
        config.cluster_config(),
        memory=MemorySpec(device_blocks=1_000_000),
    )
    outputs = [(r.tokens, r.decode_ms) for r in ample.run(trace, dataset)]
    if outputs != reference:
        raise AssertionError(
            "ample-capacity memory accounting changed transcripts or decode "
            "times — memory parity contract violated"
        )
    # Chaos contract: a seeded fault plan (crash + warm restart + transient
    # errors) is fully deterministic, conserves requests, and every request
    # that still completes has a transcript bit-identical to the fault-free
    # run.
    from repro.serving import parse_fault_spec

    devices, router, split, device_spec = CHAOS_CLUSTER
    point = _point_config(config, devices, router, split, device_spec)
    plan = parse_fault_spec(CHAOS_DETERMINISM_FAULTS)
    runs = []
    for _ in range(2):
        scheduler = ContinuousBatchScheduler(
            decoder, config.scheduler_config(), point.cluster_config(), faults=plan
        )
        records = scheduler.run(trace, dataset)
        runs.append(
            [
                (r.status, tuple(r.tokens), r.decode_ms, r.finish_ms, r.retries)
                for r in records
            ]
        )
        terminal = sum(
            1 for r in records if r.status in ("completed", "rejected", "shed")
        )
        if terminal != len(records):
            raise AssertionError(
                "request conservation violated under the chaos fault plan"
            )
        assert reference is not None
        for record, (ref_tokens, ref_decode) in zip(records, reference, strict=True):
            if record.status == "completed" and (
                record.tokens != ref_tokens or record.decode_ms != ref_decode
            ):
                raise AssertionError(
                    f"{record.request.request_id}: transcript diverged from "
                    "the fault-free run under the chaos fault plan"
                )
    if runs[0] != runs[1]:
        raise AssertionError("re-running the chaos simulation diverged")


def _cluster_entry(
    args, method: str, num_requests: int, colocated_1x: float | None = None
) -> dict:
    """Max sustainable QPS across the device-count × router grid.

    ``colocated_1x`` reuses an already-searched single-device value (the
    per-method entry computes the identical configuration).
    """
    decoder = build_decoder(replace(_base_config(args, num_requests), method=method))
    grid = {}
    for devices, router, split, device_spec in CLUSTER_POINTS:
        key = _point_key(devices, router, split, device_spec)
        if key == "1x-colocated" and colocated_1x is not None:
            grid[key] = colocated_1x
            continue
        config = _point_config(
            replace(_base_config(args, num_requests), method=method),
            devices,
            router,
            split,
            device_spec,
        )
        max_qps, _ = max_sustainable_qps(
            config, target_ratio=args.slo_target, decoder=decoder
        )
        grid[key] = round(max_qps, 3)
    return grid


def _method_entry(args, method: str, num_requests: int) -> dict:
    config = replace(_base_config(args, num_requests), method=method)
    decoder = build_decoder(config)
    reference = simulate(config, decoder=decoder)
    max_qps, probes = max_sustainable_qps(
        config, target_ratio=args.slo_target, decoder=decoder
    )
    return {
        "max_sustainable_qps": round(max_qps, 3),
        "search_probes": len(probes),
        "simulated_requests": num_requests * (1 + len(probes)),
        "at_ref_qps": reference.to_dict(),
    }


def _chaos_entry(args, num_requests: int) -> dict:
    """Sustained QPS at the SLO with 0/1/2 injected failures (K=4 disaggregated)."""
    devices, router, split, device_spec = CHAOS_CLUSTER
    base = _point_config(
        replace(_base_config(args, num_requests), method=CHAOS_METHOD),
        devices,
        router,
        split,
        device_spec,
    )
    decoder = build_decoder(base)
    grid = {}
    for label, faults in CHAOS_POINTS:
        config = replace(base, chaos=ChaosSpec(faults=faults))
        max_qps, _ = max_sustainable_qps(
            config, target_ratio=args.slo_target, decoder=decoder
        )
        grid[label] = round(max_qps, 3)
    fault_free = grid["0-failures"]
    return {
        "method": CHAOS_METHOD,
        "cluster": _point_key(devices, router, split, device_spec),
        "faults": dict(CHAOS_POINTS),
        "max_sustainable_qps": grid,
        "retention_vs_fault_free": {
            label: round(qps / fault_free, 3) if fault_free > 0 else None
            for label, qps in grid.items()
        },
    }


def _memory_entry(args, num_requests: int) -> dict:
    """Max sustainable QPS across the KV-capacity × router memory grid.

    Includes the shared-prompt prefix-reuse comparison: every request
    decodes one of ``MEMORY_SHARED_UTTERANCES`` prompts at a capacity tight
    enough that copy-on-write sharing decides how many sessions fit.
    """
    base = replace(_base_config(args, num_requests), method=MEMORY_METHOD)
    decoder = build_decoder(base)
    grid = {}
    for devices, router in MEMORY_CLUSTERS:
        for capacity in MEMORY_CAPACITIES:
            label = "unbounded" if capacity is None else str(capacity)
            config = replace(
                base,
                cluster=ClusterSpec(devices=devices, router=router),
                memory=MemorySpec(device_blocks=capacity),
            )
            max_qps, _ = max_sustainable_qps(
                config, target_ratio=args.slo_target, decoder=decoder
            )
            grid[f"{devices}x-{router}@{label}"] = round(max_qps, 3)
    shared = replace(
        base,
        utterances=MEMORY_SHARED_UTTERANCES,
        cluster=ClusterSpec(devices=2),
        memory=MemorySpec(device_blocks=MEMORY_REUSE_CAPACITY),
    )
    reuse = {}
    for label, sharing in (("prefix-reuse", True), ("no-reuse", False)):
        config = replace(shared, memory=replace(shared.memory, prefix_sharing=sharing))
        max_qps, _ = max_sustainable_qps(
            config, target_ratio=args.slo_target, decoder=decoder
        )
        reuse[label] = round(max_qps, 3)
    return {
        "method": MEMORY_METHOD,
        "capacities_blocks": [
            c if c is not None else "unbounded" for c in MEMORY_CAPACITIES
        ],
        "capacity_grid_max_sustainable_qps": grid,
        "shared_prompt": {
            "utterances": MEMORY_SHARED_UTTERANCES,
            "memory_blocks": MEMORY_REUSE_CAPACITY,
            "max_sustainable_qps": reuse,
        },
    }


def _streaming_entry(args, num_requests: int) -> dict:
    """Streaming grid: chunked delivery at several chunk/lookahead/RTF
    points, each checked bit-identical to the offline run of its trace.

    Per point: the same Poisson trace is served twice — once with every
    arrival streaming its audio at ``rtf`` (the scheduler gates decode
    progress on heard audio) and once offline — and the per-request
    transcripts and decode times must match exactly.  The entry records the
    word-level TTFT / chunk-emission / final-latency percentiles of the
    streamed leg, and the SLO report summary of the loaded point.
    """
    from repro.harness.runner import load_split
    from repro.serving import (
        Arrival,
        ContinuousBatchScheduler,
        StreamSpec,
        StreamingSummary,
        make_trace,
    )

    base = replace(
        _base_config(args, num_requests), method=STREAM_METHOD, qps=STREAM_QPS
    )
    decoder = build_decoder(base)
    dataset = load_split(base.split, base.experiment_config())
    points = {}
    for label, chunk_s, lookahead_s, rtf in STREAM_POINTS:
        trace = make_trace(
            base.arrival, num_requests, base.qps, len(dataset), base.seed, rtf=rtf
        )
        offline_trace = [
            Arrival(a.index, a.utterance_index, a.arrival_ms, a.priority)
            for a in trace
        ]
        spec = StreamSpec(
            enabled=True, rtf=rtf, chunk_s=chunk_s, lookahead_s=lookahead_s
        )
        streamed = ContinuousBatchScheduler(
            decoder, base.scheduler_config(), base.cluster_config(), stream=spec
        ).run(trace, dataset)
        offline = ContinuousBatchScheduler(
            decoder, base.scheduler_config(), base.cluster_config()
        ).run(offline_trace, dataset)
        identical = len(streamed) == len(offline) and all(
            s.status == o.status
            and s.tokens == o.tokens
            and s.decode_ms == o.decode_ms
            for s, o in zip(streamed, offline, strict=True)
        )
        summary = StreamingSummary.from_records(streamed)
        assert summary is not None  # every arrival in the trace streams
        points[label] = {
            "chunk_s": chunk_s,
            "lookahead_s": lookahead_s,
            "rtf": rtf,
            "requests": summary.requests,
            "completed": summary.completed,
            "chunks": summary.chunks,
            "transcripts_identical": identical,
            "partial_stability": summary.partial_stability,
            "word_ttft_ms": (
                summary.word_ttft.to_dict() if summary.word_ttft else None
            ),
            "emission_latency_ms": (
                summary.emission_latency.to_dict()
                if summary.emission_latency
                else None
            ),
            "final_latency_ms": (
                summary.final_latency.to_dict() if summary.final_latency else None
            ),
        }
    loaded = simulate(
        replace(
            base,
            qps=STREAM_LOADED_QPS,
            num_requests=STREAM_LOADED_REQUESTS,
            stream=StreamSpec(enabled=True),
        ),
        decoder=decoder,
    )
    word_ttft = loaded.streaming.word_ttft if loaded.streaming else None
    return {
        "method": STREAM_METHOD,
        "qps": STREAM_QPS,
        "requests": num_requests,
        "emission_p95_bound_ms": STREAM_EMISSION_P95_BOUND_MS,
        "points": points,
        "loaded": {
            "qps": STREAM_LOADED_QPS,
            "requests": STREAM_LOADED_REQUESTS,
            "completed": loaded.completed,
            "rejected": loaded.rejected,
            "shed": loaded.shed,
            "goodput_ratio": round(loaded.goodput_ratio, 4),
            "peak_queue_depth": loaded.stats.peak_queue_depth,
            "word_ttft_ms": word_ttft.to_dict() if word_ttft else None,
        },
    }


def _environment() -> dict:
    """Interpreter/library versions the wall numbers were measured under."""
    import platform

    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__}


def _wall_ab_entry(args, num_requests: int, reps: int = WALL_AB_REPS) -> dict:
    """Measured (not simulated) wall time: scalar vs vectorised oracle on
    the merged-verify cluster, best-of-``reps`` cold runs per leg."""
    devices, router, split, device_spec = WALL_AB_CLUSTER
    config = _point_config(
        replace(_base_config(args, num_requests), method=WALL_AB_METHOD),
        devices,
        router,
        split,
        device_spec,
    )
    walls = {}
    reports = {}
    for label, block_size in (("scalar", 1), ("vectorized", None)):
        best = float("inf")
        for _ in range(reps):
            clear_acoustic_caches()
            decoder = build_decoder(config, oracle_block_size=block_size)
            start = time.perf_counter()
            report = simulate(config, decoder=decoder)
            best = min(best, time.perf_counter() - start)
        walls[label] = best
        reports[label] = report.to_dict()
    return {
        "method": WALL_AB_METHOD,
        "cluster": _point_key(devices, router, split, device_spec),
        "requests": num_requests,
        "reps": reps,
        "scalar_wall_s": round(walls["scalar"], 4),
        "vectorized_wall_s": round(walls["vectorized"], 4),
        "speedup": round(walls["scalar"] / walls["vectorized"], 3),
        "reports_identical": reports["scalar"] == reports["vectorized"],
    }


def run_bench(args) -> dict:
    config = _base_config(args, args.requests)
    _check_determinism(replace(config, method="specasr-asp"))

    start = time.perf_counter()
    methods = {}
    for method in SERVE_METHODS:
        clear_acoustic_caches()
        methods[method] = _method_entry(args, method, args.requests)
    cluster = {}
    for method in CLUSTER_METHODS:
        clear_acoustic_caches()
        cluster[method] = _cluster_entry(
            args,
            method,
            args.requests,
            colocated_1x=methods[method]["max_sustainable_qps"],
        )
    clear_acoustic_caches()
    chaos = _chaos_entry(args, args.requests)
    clear_acoustic_caches()
    memory = _memory_entry(args, args.requests)
    clear_acoustic_caches()
    streaming = _streaming_entry(args, args.requests)
    wall_s = time.perf_counter() - start
    wall_ab = _wall_ab_entry(args, args.requests)

    baseline_qps = methods["autoregressive"]["max_sustainable_qps"]
    capacity_vs_ar = {
        name: (
            round(entry["max_sustainable_qps"] / baseline_qps, 3)
            if baseline_qps > 0
            else None
        )
        for name, entry in methods.items()
    }
    # Every probe simulation of the max-QPS search processes a full request
    # trace, so it counts toward simulator throughput.
    simulated = sum(entry["simulated_requests"] for entry in methods.values())
    report = {
        "config": {
            "methods": list(SERVE_METHODS),
            "ref_qps": args.ref_qps,
            "requests": args.requests,
            "utterances": args.utterances,
            "seed": args.seed,
            "deadline_ms": args.deadline_ms,
            "slo_target": args.slo_target,
        },
        "slo": {
            "deadline_ms": args.deadline_ms,
            "target_goodput_ratio": args.slo_target,
        },
        "methods": methods,
        "capacity_vs_autoregressive": capacity_vs_ar,
        "cluster_max_sustainable_qps": cluster,
        "chaos": chaos,
        "memory": memory,
        "streaming": streaming,
        "determinism": {
            "serial_vs_batched_decode_identical": True,
            "batched_rerun_identical": True,
            "cluster_transcripts_and_decode_identical": True,
            "memory_ample_capacity_parity": True,
            "chaos_rerun_identical": True,
            "chaos_surviving_transcripts_identical": True,
            "chaos_request_conservation": True,
        },
        "wall": {
            "wall_s": round(wall_s, 4),
            "sim_requests_per_s": round(simulated / wall_s, 2),
            "merged_router_oracle_ab": wall_ab,
        },
        "environment": _environment(),
    }
    return report


#: Cluster points probed by the smoke guard, for one speculative method.
SMOKE_CLUSTER_POINTS = (
    (1, "colocated", "fixed", ""),
    (2, "colocated", "fixed", ""),
    (2, "disaggregated", "fixed", ""),
    (4, "disaggregated", "fixed", ""),
    (4, "disaggregated", "balanced", ""),
)
SMOKE_CLUSTER_METHOD = "specasr-asp"

#: Cold repetitions of the smoke measurement; the best wall time is kept
#: (the bench_decode idiom — QPS numbers are deterministic, reps only
#: de-noise the machine-dependent throughput reading).
SMOKE_MEASURE_REPS = 2


def _smoke_measure(args) -> dict:
    """Small deterministic workload timed for the regression guard."""
    best_wall = float("inf")
    for _ in range(SMOKE_MEASURE_REPS):
        start = time.perf_counter()
        entries, cluster, simulated = _smoke_measure_once(args)
        best_wall = min(best_wall, time.perf_counter() - start)
    return {
        "requests": args.smoke_requests,
        "max_sustainable_qps": entries,
        "cluster_max_sustainable_qps": {SMOKE_CLUSTER_METHOD: cluster},
        "wall_s": round(best_wall, 4),
        "sim_requests_per_s": round(simulated / best_wall, 2),
    }


def _smoke_measure_once(args) -> tuple[dict, dict, int]:
    entries = {}
    cluster = {}
    simulated = 0
    for method in SERVE_METHODS:
        clear_acoustic_caches()
        config = replace(_base_config(args, args.smoke_requests), method=method)
        decoder = build_decoder(config)
        max_qps, probes = max_sustainable_qps(
            config,
            target_ratio=args.slo_target,
            refine_steps=3,
            decoder=decoder,
        )
        entries[method] = round(max_qps, 3)
        simulated += args.smoke_requests * len(probes)
        if method == SMOKE_CLUSTER_METHOD:
            for devices, router, split, device_spec in SMOKE_CLUSTER_POINTS:
                key = _point_key(devices, router, split, device_spec)
                if key == "1x-colocated":
                    # identical to the search just done for entries[method]
                    cluster[key] = entries[method]
                    continue
                point = _point_config(config, devices, router, split, device_spec)
                point_qps, point_probes = max_sustainable_qps(
                    point,
                    target_ratio=args.slo_target,
                    refine_steps=3,
                    decoder=decoder,
                )
                cluster[key] = round(point_qps, 3)
                simulated += args.smoke_requests * len(point_probes)
    return entries, cluster, simulated


def _chaos_smoke(args) -> int:
    """Chaos guard: capacity retention and determinism under one failure.

    Asserts that one injected device failure on the 4-device disaggregated
    cluster retains >= 0.5x the fault-free sustained QPS, that the chaos
    simulation is rerun-identical, and that requests are conserved.
    """
    chaos = _chaos_entry(args, args.smoke_requests)
    grid = chaos["max_sustainable_qps"]
    print(
        f"chaos [{chaos['method']} @ {chaos['cluster']}]: "
        + ", ".join(f"{label} {qps} qps" for label, qps in grid.items())
    )
    if args.smoke_output:
        out = Path(args.smoke_output)
        path = out.with_name(out.stem + "_chaos" + out.suffix)
        path.write_text(json.dumps(chaos, indent=2) + "\n")
        print(f"wrote {path}")
    fault_free = grid["0-failures"]
    one_failure = grid["1-failure"]
    if fault_free <= 0:
        print("FAIL: fault-free chaos baseline sustains no load", file=sys.stderr)
        return 1
    if one_failure < 0.5 * fault_free:
        print(
            f"FAIL: one injected failure drops sustained QPS to "
            f"{one_failure} (< 0.5x the fault-free {fault_free})",
            file=sys.stderr,
        )
        return 1
    devices, router, split, device_spec = CHAOS_CLUSTER
    point = _point_config(
        replace(
            _base_config(args, args.smoke_requests),
            method=CHAOS_METHOD,
            chaos=ChaosSpec(faults=CHAOS_DETERMINISM_FAULTS),
        ),
        devices,
        router,
        split,
        device_spec,
    )
    decoder = build_decoder(point)
    first = simulate(point, decoder=decoder)
    second = simulate(point, decoder=decoder)
    if first.to_dict() != second.to_dict():
        print("FAIL: re-running the chaos simulation diverged", file=sys.stderr)
        return 1
    if first.completed + first.rejected + first.shed != first.num_requests:
        print(
            "FAIL: request conservation violated under the chaos fault plan",
            file=sys.stderr,
        )
        return 1
    print(
        f"chaos determinism: rerun identical, conservation holds "
        f"({first.completed} completed / {first.rejected} rejected / "
        f"{first.shed} shed of {first.num_requests})"
    )
    return 0


def _memory_smoke(args) -> int:
    """Memory guard: bounded degradation under pressure, reuse helps.

    Asserts that the tightest KV capacity on the 2-device colocated cluster
    still sustains >= 0.3x the unconstrained QPS, and that copy-on-write
    prefix sharing sustains at least as much load as disabling it on the
    shared-prompt workload.
    """
    memory = _memory_entry(args, args.smoke_requests)
    grid = memory["capacity_grid_max_sustainable_qps"]
    reuse = memory["shared_prompt"]["max_sustainable_qps"]
    print(
        f"memory [{memory['method']}]: "
        + ", ".join(f"{label} {qps} qps" for label, qps in grid.items())
    )
    print(
        f"memory shared-prompt @ {memory['shared_prompt']['memory_blocks']} "
        f"blocks: prefix-reuse {reuse['prefix-reuse']} qps, "
        f"no-reuse {reuse['no-reuse']} qps"
    )
    if args.smoke_output:
        out = Path(args.smoke_output)
        path = out.with_name(out.stem + "_memory" + out.suffix)
        path.write_text(json.dumps(memory, indent=2) + "\n")
        print(f"wrote {path}")
    unbounded = grid["2x-colocated@unbounded"]
    tight = grid[f"2x-colocated@{min(c for c in MEMORY_CAPACITIES if c)}"]
    if unbounded <= 0:
        print("FAIL: unconstrained memory baseline sustains no load", file=sys.stderr)
        return 1
    if tight < 0.3 * unbounded:
        print(
            f"FAIL: tight KV capacity drops sustained QPS to {tight} "
            f"(< 0.3x the unconstrained {unbounded})",
            file=sys.stderr,
        )
        return 1
    if reuse["prefix-reuse"] < reuse["no-reuse"]:
        print(
            f"FAIL: prefix reuse ({reuse['prefix-reuse']}) sustains less "
            f"load than no sharing ({reuse['no-reuse']}) on the "
            "shared-prompt workload",
            file=sys.stderr,
        )
        return 1
    return 0


def _streaming_smoke(args) -> int:
    """Streaming guard: the grid completes, parity holds, emission bounded,
    and the loaded point sustains its load.

    Fails when any grid point leaves a stream uncompleted, when a streamed
    transcript or decode time differs from the offline run of the same
    trace (``transcripts_identical``), when p95 chunk-emission latency
    exceeds ``STREAM_EMISSION_P95_BOUND_MS``, or when the loaded point's
    goodput ratio falls below ``--slo-target``.
    """
    streaming = _streaming_entry(args, args.smoke_requests)
    for label, point in streaming["points"].items():
        emission = point["emission_latency_ms"]
        p95 = emission["p95"] if emission else 0.0
        print(
            f"streaming [{streaming['method']} @ {label}]: "
            f"{point['completed']}/{point['requests']} completed, "
            f"{point['chunks']} chunks, identical "
            f"{point['transcripts_identical']}, emission p95 {p95:.1f} ms"
        )
    loaded = streaming["loaded"]
    print(
        f"streaming [{streaming['method']} @ {loaded['qps']} qps loaded]: "
        f"{loaded['completed']}/{loaded['requests']} completed, "
        f"goodput ratio {loaded['goodput_ratio']}"
    )
    if args.smoke_output:
        out = Path(args.smoke_output)
        path = out.with_name(out.stem + "_streaming" + out.suffix)
        path.write_text(json.dumps(streaming, indent=2) + "\n")
        print(f"wrote {path}")
    for label, point in streaming["points"].items():
        if point["completed"] != point["requests"]:
            print(
                f"FAIL: streaming point {label} completed "
                f"{point['completed']}/{point['requests']} streams",
                file=sys.stderr,
            )
            return 1
        if not point["transcripts_identical"]:
            print(
                f"FAIL: streaming point {label} diverged from the offline "
                "run — streaming parity contract violated",
                file=sys.stderr,
            )
            return 1
        emission = point["emission_latency_ms"]
        if emission and emission["p95"] > STREAM_EMISSION_P95_BOUND_MS:
            print(
                f"FAIL: streaming point {label} p95 chunk-emission latency "
                f"{emission['p95']} ms exceeds the "
                f"{STREAM_EMISSION_P95_BOUND_MS} ms bound",
                file=sys.stderr,
            )
            return 1
    if loaded["goodput_ratio"] < args.slo_target:
        print(
            f"FAIL: loaded streaming point ({loaded['qps']} qps) reaches "
            f"goodput ratio {loaded['goodput_ratio']} (< {args.slo_target})",
            file=sys.stderr,
        )
        return 1
    return 0


def run_smoke(args) -> int:
    if args.chaos:
        status = _chaos_smoke(args)
        if status != 0:
            return status
    status = _memory_smoke(args)
    if status != 0:
        return status
    status = _streaming_smoke(args)
    if status != 0:
        return status
    ab = _wall_ab_entry(args, args.smoke_requests, reps=2)
    print(
        f"merged-router oracle A/B: scalar {ab['scalar_wall_s']}s vs "
        f"vectorized {ab['vectorized_wall_s']}s ({ab['speedup']}x), "
        f"reports identical: {ab['reports_identical']}"
    )
    if not ab["reports_identical"]:
        print(
            "FAIL: the vectorised oracle changed the merged-router serve "
            "report — bit-identity contract violated",
            file=sys.stderr,
        )
        return 1
    if ab["speedup"] < 1.0:
        print(
            f"FAIL: the vectorised oracle serves the merged cluster slower "
            f"than the scalar reference ({ab['speedup']}x)",
            file=sys.stderr,
        )
        return 1
    smoke = _smoke_measure(args)
    smoke["merged_router_oracle_ab"] = ab
    smoke["environment"] = _environment()
    print(
        f"smoke: {smoke['sim_requests_per_s']} simulated requests/s "
        f"({len(SERVE_METHODS)} methods, incl. search probes)"
    )
    if args.smoke_output:
        Path(args.smoke_output).write_text(json.dumps(smoke, indent=2) + "\n")
        print(f"wrote {args.smoke_output}")

    ar_qps = smoke["max_sustainable_qps"]["autoregressive"]
    slower = [
        name
        for name, qps in smoke["max_sustainable_qps"].items()
        if name != "autoregressive" and qps <= ar_qps
    ]
    if slower:
        print(
            f"FAIL: speculative method(s) {slower} no longer sustain more "
            f"QPS than autoregressive ({ar_qps})",
            file=sys.stderr,
        )
        return 1

    # Multi-device guard: sharding across 2 devices must retain (almost)
    # single-device capacity, draft/target disaggregation must not fall
    # behind colocated sharding at equal device count, and the workload-
    # aware balanced split must sustain at least the fixed K//2 split on a
    # homogeneous 4-device cluster.
    cluster = smoke["cluster_max_sustainable_qps"][SMOKE_CLUSTER_METHOD]
    coloc1 = cluster["1x-colocated"]
    coloc2 = cluster["2x-colocated"]
    disagg2 = cluster["2x-disaggregated"]
    disagg4_fixed = cluster["4x-disaggregated"]
    disagg4_balanced = cluster["4x-disaggregated-balanced"]
    print(
        f"cluster [{SMOKE_CLUSTER_METHOD}]: 1x colocated {coloc1} qps, "
        f"2x colocated {coloc2} qps, 2x disaggregated {disagg2} qps, "
        f"4x disaggregated fixed {disagg4_fixed} / balanced "
        f"{disagg4_balanced} qps"
    )
    if coloc2 < 0.9 * coloc1:
        print(
            f"FAIL: 2-device colocated capacity ({coloc2}) fell below 0.9x "
            f"of the single device ({coloc1})",
            file=sys.stderr,
        )
        return 1
    if disagg2 < coloc2:
        print(
            f"FAIL: disaggregated serving ({disagg2}) no longer matches "
            f"colocated sharding ({coloc2}) at 2 devices",
            file=sys.stderr,
        )
        return 1
    if disagg4_balanced < disagg4_fixed:
        print(
            f"FAIL: balanced pool split ({disagg4_balanced}) fell behind "
            f"the fixed K//2 split ({disagg4_fixed}) at 4 devices",
            file=sys.stderr,
        )
        return 1

    if not args.baseline.exists():
        print(f"no baseline at {args.baseline}; nothing to compare", file=sys.stderr)
        return 0
    baseline = json.loads(args.baseline.read_text())
    reference = baseline.get("smoke", {}).get("sim_requests_per_s")
    if not reference:
        print("baseline JSON has no smoke reference; skipping check")
        return 0
    floor = reference * (1.0 - args.tolerance)
    print(
        f"baseline {reference} requests/s -> floor {floor:.2f} "
        f"(tolerance {args.tolerance:.0%})"
    )
    if smoke["sim_requests_per_s"] < floor:
        print(
            f"FAIL: simulator throughput regressed more than "
            f"{args.tolerance:.0%} ({smoke['sim_requests_per_s']} < "
            f"{floor:.2f})",
            file=sys.stderr,
        )
        return 1
    print("OK: within tolerance")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--ref-qps",
        type=float,
        default=2.0,
        help="common reference load for the SLO reports",
    )
    parser.add_argument("--requests", type=int, default=64)
    parser.add_argument("--utterances", type=int, default=32)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--deadline-ms", type=float, default=3000.0)
    parser.add_argument("--slo-target", type=float, default=0.95)
    parser.add_argument("--output", type=Path, default=REPO_ROOT / "BENCH_serve.json")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced run; fail on >tolerance regression",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="with --smoke: also assert fault-injection capacity retention "
        "(1 failure >= 0.5x fault-free) and chaos determinism",
    )
    parser.add_argument("--smoke-requests", type=int, default=24)
    parser.add_argument(
        "--smoke-output",
        type=Path,
        default=None,
        help="write the smoke measurement JSON here (CI " "artifact)",
    )
    parser.add_argument("--baseline", type=Path, default=REPO_ROOT / "BENCH_serve.json")
    parser.add_argument("--tolerance", type=float, default=0.20)
    args = parser.parse_args(argv)

    if args.smoke:
        return run_smoke(args)

    report = run_bench(args)
    # Record the smoke reference alongside, so --smoke has a baseline.
    report["smoke"] = _smoke_measure(args)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
