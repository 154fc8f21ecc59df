"""End-to-end serve simulation: corpus + arrivals + scheduler + SLO report.

:func:`simulate` runs one (method, arrival-trace) simulation and returns a
:class:`~repro.serving.report.ServeReport`, and :func:`max_sustainable_qps`
searches for the highest offered load whose goodput still meets the SLO
target, the headline serving metric: *how much live traffic does
speculative decoding buy at a fixed deadline?*
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from repro.harness.methods import build_method
from repro.harness.runner import ExperimentConfig, load_split, shared_vocabulary
from repro.models.registry import model_pair
from repro.serving.arrivals import Arrival, make_trace, offered_qps
from repro.serving.faults import FaultPlan, parse_fault_spec
from repro.serving.memory import MemorySpec
from repro.serving.report import ServeReport
from repro.serving.router import ClusterSpec
from repro.serving.scheduler import (
    ContinuousBatchScheduler,
    SchedulerConfig,
    StreamSpec,
)


@dataclass(frozen=True)
class ChaosSpec:
    """Injected faults (none by default).

    The retry and shedding knobs that absorb them are
    :class:`~repro.serving.scheduler.SchedulerConfig` fields.
    """

    faults: str = ""  # fault-spec grammar (see serving.faults)
    fault_seed: int = 0  # seeds the transient phase-error hash


@dataclass(frozen=True)
class ServeSimConfig:
    """Everything one serve simulation depends on (replayable).

    Composed from five sub-configs — ``scheduler``
    (:class:`~repro.serving.scheduler.SchedulerConfig`), ``cluster``
    (:class:`~repro.serving.router.ClusterSpec`), ``chaos``
    (:class:`ChaosSpec`), ``memory``
    (:class:`~repro.serving.memory.MemorySpec`) and ``stream``
    (:class:`~repro.serving.scheduler.StreamSpec`) — plus the flat workload
    knobs.  The scheduler takes the sub-configs as they are, so each knob
    is validated once, when its sub-config is built.  Override a
    sub-config knob by replacing the sub-config:
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
    batch_fraction: float = 0.0  # share of arrivals tagged batch-class
    scheduler: SchedulerConfig = SchedulerConfig()
    cluster: ClusterSpec = ClusterSpec()
    chaos: ChaosSpec = ChaosSpec()
    memory: MemorySpec = MemorySpec()
    stream: StreamSpec = StreamSpec()

    def __post_init__(self) -> None:
        if not self.deadline_ms > 0:  # NaN fails every comparison
            raise ValueError(f"deadline_ms must be positive, got {self.deadline_ms}")

    def fault_plan(self) -> FaultPlan | None:
        """The injected fault plan, or None when the spec is empty."""
        if not self.chaos.faults.strip():
            return None
        return parse_fault_spec(self.chaos.faults, seed=self.chaos.fault_seed)

    def experiment_config(self) -> ExperimentConfig:
        return ExperimentConfig(seed=self.seed, utterances=self.utterances)

    def scheduler_config(self) -> SchedulerConfig:
        """``self.scheduler``; kept because ``perfbench/workloads.py`` calls it."""
        return self.scheduler

    def cluster_config(self) -> ClusterSpec:
        """``self.cluster``; kept because ``perfbench/workloads.py`` calls it."""
        return self.cluster

    def memory_spec(self) -> MemorySpec:
        """``self.memory``; kept because ``perfbench/workloads.py`` calls it."""
        return self.memory


def build_decoder(config: ServeSimConfig, oracle_block_size: int | None = None):
    """The decoder a simulation serves with (fresh models, empty decode tapes).

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
    ``decoder`` lets callers reuse one decoder across many simulations (load
    searches): each utterance is then decoded once, on its first
    request, and replayed from the decoder's decode tape at every load
    (:func:`~repro.decoding.base.begin_decode`).
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
        config.scheduler,
        config.cluster,
        faults=config.fault_plan(),
        memory=config.memory,
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
        batch_deadline_ms=config.scheduler.batch_deadline_ms,
    )


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
    an already-built decoder across the probes; every probe shares one
    decoder either way, so each utterance is decoded once for the whole
    search and replayed from its decode tape at every other probe.
    """
    if not (math.isfinite(start_qps) and start_qps > 0):
        raise ValueError(f"start_qps must be finite and positive, got {start_qps}")
    if not math.isfinite(qps_ceiling):
        raise ValueError(f"qps_ceiling must be finite, got {qps_ceiling}")
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
            report = simulate(replace(config, qps=qps), decoder=decoder)
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
