"""Serving walkthrough: live traffic, latency SLOs, and capacity per method.

Simulates a stream of transcription requests (Poisson arrivals) hitting one
simulated accelerator behind a bounded admission queue and a continuous
micro-batch scheduler, then answers the deployment question behind the
paper's speedup claim: **how much more live traffic does speculative
decoding serve at a fixed latency SLO?**

The walkthrough:

1. serves the same 2 QPS load with autoregressive decoding and SpecASR and
   compares client-observed latency percentiles;
2. pushes autoregressive decoding past its saturation point to show queueing
   collapse and admission-queue backpressure (rejections);
3. searches the max sustainable QPS per method at a 3 s completion SLO;
4. scales the cluster: 1 vs 2 vs 4 simulated devices, colocated sharding vs
   draft/target disaggregation vs merged cross-request verification;
5. makes placement a real optimisation problem: the workload-aware pool
   planner sizes the draft and target pools from the measured draft:verify
   cost ratio and the device speeds, on a homogeneous cluster and on a
   heterogeneous ``2x1.0,2x0.5`` fast/slow one;
6. turns on the chaos: kills a target-pool device mid-run (with a warm
   restart) on the 4-device disaggregated cluster and shows the scheduler
   absorbing it — aborted batches requeue, pools re-plan around the dead
   device, and every transcript stays bit-identical to the fault-free run.

Run:  PYTHONPATH=src python examples/serving_slo.py
"""

from dataclasses import replace

from repro.serving import (
    ChaosSpec,
    ClusterSpec,
    SchedulerConfig,
    ServeSimConfig,
    build_decoder,
    max_sustainable_qps,
    parse_device_specs,
    simulate,
)


def main() -> None:
    slo_ms = 3000.0

    print("=== 1. same load, two methods " + "=" * 38)
    for method in ("autoregressive", "specasr-tsp"):
        config = ServeSimConfig(
            method=method, qps=2.0, num_requests=48, deadline_ms=slo_ms
        )
        print(simulate(config).render())
        print()

    print("=== 2. pushing autoregressive past saturation " + "=" * 22)
    for qps in (0.5, 1.0, 2.0, 4.0):
        config = ServeSimConfig(
            method="autoregressive",
            qps=qps,
            num_requests=48,
            deadline_ms=slo_ms,
            # small queue: overload becomes rejections
            scheduler=SchedulerConfig(queue_capacity=8),
        )
        report = simulate(config)
        print(
            f"  {qps:4.1f} qps -> goodput {report.goodput_ratio:6.1%}, "
            f"p95 completion {report.completion.p95:8.1f} ms, "
            f"rejected {report.rejected}"
        )
    print()

    print("=== 3. max sustainable QPS at the SLO " + "=" * 30)
    baseline = None
    for method in ("autoregressive", "spec(8,1)", "specasr-asp", "specasr-tsp"):
        config = ServeSimConfig(method=method, num_requests=64, deadline_ms=slo_ms)
        max_qps, _ = max_sustainable_qps(config)
        if baseline is None:
            baseline = max_qps
        ratio = max_qps / baseline if baseline > 0 else float("nan")
        print(
            f"  {method:16s} sustains {max_qps:6.2f} qps "
            f"({ratio:4.2f}x autoregressive capacity)"
        )
    print()

    print("=== 4. scaling out: devices x placement policy " + "=" * 21)
    # One decoder (and its warm oracle caches) serves every search probe;
    # transcripts and per-request decode times are identical at every point
    # (the cluster determinism contract) — only capacity moves.
    base = ServeSimConfig(method="specasr-asp", num_requests=48, deadline_ms=slo_ms)
    decoder = build_decoder(base)
    single_device = None
    for devices, router in (
        (1, "colocated"),
        (2, "colocated"),
        (2, "disaggregated"),
        (2, "merged"),
        (4, "colocated"),
        (4, "disaggregated"),
        (4, "merged"),
    ):
        config = replace(base, cluster=ClusterSpec(devices=devices, router=router))
        max_qps, _ = max_sustainable_qps(config, refine_steps=4, decoder=decoder)
        if single_device is None:
            single_device = max_qps
        ratio = max_qps / single_device if single_device > 0 else float("nan")
        print(
            f"  {devices}x {router:14s} sustains {max_qps:6.2f} qps "
            f"({ratio:4.2f}x one device)"
        )
    print()

    print("=== 5. heterogeneous clusters + workload-aware pools " + "=" * 15)
    # The pool planner measures the draft:verify cost ratio and sizes the
    # pools to it.  On four equal devices that is the K//2 split; with two
    # full-speed and two half-speed accelerators the fast devices go to
    # the verify pool, the heavy side, instead of drafting.
    for spec in ("", "2x1.0,2x0.5"):
        specs = parse_device_specs(spec) if spec else None
        cluster = ClusterSpec(devices=4, router="disaggregated", device_specs=specs)
        config = replace(base, cluster=cluster)
        max_qps, probes = max_sustainable_qps(config, refine_steps=4, decoder=decoder)
        stats = next(iter(probes.values())).stats
        roles = "".join("D" if role == "draft" else "T" for role in stats.device_roles)
        label = spec if spec else "4x1.0 (homogeneous)"
        print(
            f"  {label:18s} pools {roles}  draft share {stats.draft_share:.1%}  "
            f"sustains {max_qps:6.2f} qps"
        )
    print()

    print("=== 6. chaos: losing a device mid-run " + "=" * 30)
    # The same 4-device disaggregated cluster under a steady 8 QPS load,
    # except dev3 — a target-pool device — crashes 2 s in and warm-restarts
    # 1.5 s later.  Every batch in flight on dev3 at the crash is aborted
    # and its phases requeue; the router re-plans the pools around the dead
    # device and folds it back in at restart.  Crucially, the decode
    # steppers only advance on commit, so the recovered requests finish
    # with transcripts bit-identical to the fault-free run: chaos moves
    # *waiting*, never *results*.
    chaos_base = replace(
        base, qps=8.0, cluster=ClusterSpec(devices=4, router="disaggregated")
    )
    fault_free = simulate(chaos_base, decoder=decoder)
    chaotic = simulate(
        replace(chaos_base, chaos=ChaosSpec(faults="crash@2000:dev3:restart=1500")),
        decoder=decoder,
    )
    print(chaotic.render())
    print()
    chaos = chaotic.chaos_dict()
    print(
        f"  the crash aborted work worth {chaos['wasted_busy_ms']:.1f} ms, "
        f"forcing {chaos['retries']} retries / {chaos['requeues']} requeues;"
    )
    print(
        f"  {chaotic.completed}/{chaotic.num_requests} requests still "
        f"completed (fault-free: {fault_free.completed}) and p95 completion "
        f"moved {fault_free.completion.p95:.0f} -> "
        f"{chaotic.completion.p95:.0f} ms."
    )


if __name__ == "__main__":
    main()
