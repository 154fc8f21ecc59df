"""End-to-end serve simulation: corpus + arrivals + scheduler + SLO report.

:func:`simulate` runs one (method, arrival-trace) simulation and returns a
:class:`~repro.serving.report.ServeReport`.  :func:`sweep_qps` evaluates a
load grid — optionally fanning the points out across a
:class:`~repro.harness.executor.CorpusExecutor` worker pool — and
:func:`max_sustainable_qps` searches for the highest offered load whose
goodput still meets the SLO target, the headline serving metric: *how much
live traffic does speculative decoding buy at a fixed deadline?*
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.harness.methods import build_method
from repro.harness.runner import ExperimentConfig, load_split, shared_vocabulary
from repro.models.registry import model_pair
from repro.serving.arrivals import Arrival, make_trace, offered_qps
from repro.serving.devices import parse_device_specs
from repro.serving.faults import FaultPlan, parse_fault_spec
from repro.serving.memory import MemorySpec
from repro.serving.report import ServeReport
from repro.serving.router import SPLIT_FIXED, ClusterConfig
from repro.serving.scheduler import (
    ContinuousBatchScheduler,
    SchedulerConfig,
    StreamSpec,
)


@dataclass(frozen=True)
class ClusterSpec:
    """Shape and placement policy of the simulated accelerator cluster."""

    devices: int | None = None  # accelerator count; None = 1 or len(device_spec)
    router: str = "colocated"  # placement policy (see serving.router)
    pool_split: str = SPLIT_FIXED  # draft/target pool sizing: fixed | balanced
    device_spec: str = ""  # heterogeneous shorthand, e.g. "2x1.0,2x0.5@64"


@dataclass(frozen=True)
class ChaosSpec:
    """Fault injection and degradation handling (all off by default)."""

    faults: str = ""  # fault-spec grammar (see serving.faults)
    fault_seed: int = 0  # seeds the transient phase-error hash
    max_retries: int = 3
    retry_backoff_ms: float = 25.0
    straggler_k: float = 0.0  # re-issue at k x pool median; 0 = off
    admission_deadline_ms: float | None = None  # shed overdue interactive
    batch_deadline_ms: float | None = None  # batch-class SLO + shed bound


@dataclass(frozen=True)
class ServeSimConfig:
    """Everything one serve simulation depends on (picklable, replayable).

    Composed from four sub-configs — ``cluster`` (:class:`ClusterSpec`),
    ``chaos`` (:class:`ChaosSpec`), ``memory``
    (:class:`~repro.serving.memory.MemorySpec`) and ``stream``
    (:class:`~repro.serving.scheduler.StreamSpec`) — plus the flat workload
    knobs.  Override a sub-config knob by replacing the sub-config:
    ``replace(config, cluster=replace(config.cluster, devices=4))``.

    The default deadline is a *completion* SLO of 3 s, calibrated against
    the default corpus: autoregressive decoding meets it with modest
    headroom at light load (p95 decode ≈ 2.1 s), so the sustainable-QPS gap
    between methods measures speculation, not an impossible target.
    """

    method: str = "specasr-asp"
    pairing: str = "whisper"
    qps: float = 2.0
    num_requests: int = 48
    seed: int = 2025
    utterances: int = 32  # corpus size backing the request mix
    split: str = "test-clean"
    arrival: str = "poisson"  # or "uniform"
    deadline_ms: float = 3000.0
    max_batch: int = 4
    max_inflight: int = 8
    queue_capacity: int = 32
    overlap: float = 0.8
    batch_fraction: float = 0.0  # share of arrivals tagged batch-class
    cluster: ClusterSpec = ClusterSpec()
    chaos: ChaosSpec = ChaosSpec()
    memory: MemorySpec = MemorySpec()
    stream: StreamSpec = StreamSpec()

    # -- derived configs ---------------------------------------------------
    def scheduler_config(self) -> SchedulerConfig:
        chaos = self.chaos
        return SchedulerConfig(
            max_batch=self.max_batch,
            max_inflight=self.max_inflight,
            queue_capacity=self.queue_capacity,
            overlap=self.overlap,
            max_retries=chaos.max_retries,
            retry_backoff_ms=chaos.retry_backoff_ms,
            straggler_factor=chaos.straggler_k,
            admission_deadline_ms=chaos.admission_deadline_ms,
            batch_deadline_ms=chaos.batch_deadline_ms,
        )

    def fault_plan(self) -> FaultPlan | None:
        """The injected fault plan, or None when the spec is empty."""
        if not self.chaos.faults.strip():
            return None
        return parse_fault_spec(self.chaos.faults, seed=self.chaos.fault_seed)

    def cluster_config(self) -> ClusterConfig:
        cluster = self.cluster
        specs = parse_device_specs(cluster.device_spec) if cluster.device_spec else None
        return ClusterConfig(
            devices=cluster.devices,
            router=cluster.router,
            split=cluster.pool_split,
            device_specs=specs,
        )

    def memory_spec(self) -> MemorySpec:
        return self.memory

    def experiment_config(self) -> ExperimentConfig:
        return ExperimentConfig(seed=self.seed, utterances=self.utterances)

    def with_qps(self, qps: float) -> "ServeSimConfig":
        return replace(self, qps=qps)


def build_decoder(config: ServeSimConfig, oracle_block_size: int | None = None):
    """The decoder a simulation serves with (fresh models, warm-able caches).

    ``oracle_block_size`` overrides the models' scoring granularity: ``1``
    pins the scalar per-position reference path, ``None`` keeps the default
    block-vectorised path.  Either way transcripts and billed latencies are
    bit-identical — the knob only moves host wall time (the bench_serve
    merged-router A/B measures exactly that).
    """
    draft, target = model_pair(
        config.pairing, shared_vocabulary(), oracle_block_size=oracle_block_size
    )
    return build_method(config.method, draft, target)


def simulate(
    config: ServeSimConfig,
    trace: Sequence[Arrival] | None = None,
    decoder=None,
) -> ServeReport:
    """Run one serve simulation.

    ``trace`` overrides the synthetic arrival process (trace-driven replay);
    ``decoder`` lets callers reuse one decoder — and its oracle caches —
    across many simulations (load searches, sweeps).
    """
    dataset = load_split(config.split, config.experiment_config())
    if trace is None:
        trace = make_trace(
            config.arrival,
            config.num_requests,
            config.qps,
            len(dataset),
            config.seed,
            config.batch_fraction,
            rtf=config.stream.rtf if config.stream.enabled else 0.0,
        )
        offered = config.qps
    else:
        offered = offered_qps(trace)
    if decoder is None:
        decoder = build_decoder(config)
    scheduler = ContinuousBatchScheduler(
        decoder,
        config.scheduler_config(),
        config.cluster_config(),
        faults=config.fault_plan(),
        memory=config.memory_spec(),
        stream=config.stream,
    )
    records = scheduler.run(trace, dataset)
    assert scheduler.last_stats is not None
    return ServeReport.from_records(
        config.method,
        records,
        scheduler.last_stats,
        config.deadline_ms,
        offered,
        batch_deadline_ms=config.chaos.batch_deadline_ms,
    )


def _sweep_job(config: ServeSimConfig) -> ServeReport:
    """Module-level job for worker pools (must be picklable)."""
    return simulate(config)


def sweep_qps(
    config: ServeSimConfig,
    qps_values: Sequence[float],
    executor=None,
) -> dict[float, ServeReport]:
    """Evaluate a grid of offered loads; keys follow ``qps_values`` order.

    ``executor`` (a :class:`~repro.harness.executor.CorpusExecutor`) fans the
    points out across its worker pool via :meth:`map_jobs`; results are
    identical to the serial loop.
    """
    configs = [config.with_qps(q) for q in qps_values]
    if executor is not None:
        reports = executor.map_jobs(_sweep_job, configs)
    else:
        decoder = build_decoder(config)
        reports = [simulate(c, decoder=decoder) for c in configs]
    return dict(zip(qps_values, reports, strict=True))


def max_sustainable_qps(
    config: ServeSimConfig,
    target_ratio: float = 0.95,
    start_qps: float = 0.5,
    qps_ceiling: float = 64.0,
    refine_steps: int = 6,
    decoder=None,
) -> tuple[float, dict[float, ServeReport]]:
    """Highest offered QPS with ``goodput_ratio >= target_ratio``.

    Brackets by doubling from ``start_qps``, then bisects ``refine_steps``
    times.  Returns ``(max_qps, evaluated_reports)``; ``max_qps`` is 0.0 when
    even the lightest probed load misses the SLO.  Deterministic: the probe
    sequence is a pure function of the arguments.  Pass ``decoder`` to reuse
    an already-built decoder (and its warm oracle caches) across the probes.
    """
    if start_qps <= 0:
        raise ValueError("start_qps must be positive")
    if start_qps > qps_ceiling:
        raise ValueError(
            f"start_qps ({start_qps}) must not exceed qps_ceiling ({qps_ceiling})"
        )
    evaluated: dict[float, ServeReport] = {}
    if decoder is None:
        decoder = build_decoder(config)

    def sustainable(qps: float) -> bool:
        report = evaluated.get(qps)
        if report is None:
            report = simulate(config.with_qps(qps), decoder=decoder)
            evaluated[qps] = report
        return report.goodput_ratio >= target_ratio

    best_ok = 0.0
    qps = start_qps
    first_fail = None
    while qps <= qps_ceiling:
        if sustainable(qps):
            best_ok = qps
            qps *= 2.0
        else:
            first_fail = qps
            break
    if first_fail is None:
        # Sustained every probe up to the ceiling; report the last success.
        return best_ok, evaluated
    low, high = best_ok, first_fail
    for _ in range(refine_steps):
        mid = (low + high) / 2.0
        if mid <= 0:
            break
        if sustainable(mid):
            best_ok = mid
            low = mid
        else:
            high = mid
    return best_ok, evaluated
