"""The benchmark's three workloads, driven through the library's public API.

A workload builds its inputs from the workload seed (:meth:`prepare`), runs
one timed iteration over them (:meth:`iterate`: fresh models, cleared
oracle caches, the whole decode grid or load ladder), and turns the
simulated outcomes into metrics (:meth:`evaluate`, :meth:`layer_sim`).
Every simulated quantity is a pure function of the inputs, so repeated
iterations of one replica must produce identical outcome digests.

A *replica* is one independently seeded corpus (and, for serve workloads,
one set of ladder traces).  Simulated metrics pool all replicas of a run,
which keeps their seed-to-seed spread inside the benchmark's bounds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.data.librisim import LibriSimBuilder
from repro.decoding.base import begin_decode
from repro.harness.methods import STANDARD_METHODS, build_method, standard_methods
from repro.harness.runner import ExperimentConfig, run_methods
from repro.metrics.latency_report import percentile
from repro.models.acoustic import clear_acoustic_caches
from repro.models.registry import model_pair
from repro.models.vocab import build_default_vocabulary
from repro.serving import (
    STATUS_COMPLETED,
    STATUS_REJECTED,
    STATUS_SHED,
    Arrival,
    ChaosSpec,
    ClusterSpec,
    ContinuousBatchScheduler,
    MemorySpec,
    ServeReport,
    ServeSimConfig,
    StreamSpec,
    make_trace,
)

from common import max_sustained_rate, nonmonotone_rates

#: Completion SLO shared by every workload (``ServeSimConfig``'s default).
DEADLINE_MS = 3000.0
#: Share of arrivals that must meet the SLO for a ladder rate to pass.
SLO_TARGET = 0.95
#: Speculative baselines the headline method is compared against.
SPEC_BASELINES = ("spec(8,1)", "spec(16,1)", "spec(8,2)")
REFERENCE_METHODS = ("autoregressive", *SPEC_BASELINES)


class CorrectnessError(AssertionError):
    """A simulated output broke one of the benchmark's invariants."""


def replica_seed(seed: int, index: int) -> int:
    """Seed of replica ``index``; replica 0 uses the workload seed itself."""
    if index == 0:
        return seed
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _corpus(vocab, seed: int, utterances: int, split: str):
    config = ExperimentConfig(seed=seed, utterances=utterances)
    return LibriSimBuilder(vocab, config.librisim()).build(split)


@dataclass
class Replica:
    index: int
    corpus: object  # repro.data.corpus.Dataset
    traces: dict[float, list[Arrival]] = field(default_factory=dict)


@dataclass
class Outcome:
    """What one iteration produced: work done, and its simulated results."""

    tokens: int  # transcript tokens committed
    operations: int  # decodes (decode grid) or scheduler runs (ladder)
    digest: str  # hash of every simulated output
    payload: object


def _decoder_sim(run) -> dict[str, float]:
    """Decoder-policy counters of one method's corpus run."""
    results = run.results
    rounds = sum(r.trace.num_rounds for r in results)
    draft_steps = sum(r.trace.total_draft_steps for r in results)
    return {
        "decoder.acceptance_ratio": run.acceptance_ratio,
        "decoder.accepted_per_round": run.accepted_per_round,
        "decoder.draft_steps_per_round": draft_steps / rounds if rounds else 0.0,
        "decoder.recycled_per_utterance": run.recycled_per_utterance,
        "decoder.rounds": float(rounds),
    }


#: Per-layer simulated metrics of the serving layers, zero where a workload
#: never reaches the layer.
SERVE_LAYER_KEYS = (
    "scheduler.phases",
    "scheduler.batches",
    "scheduler.mean_batch_occupancy",
    "scheduler.queue_wait_p95_ms",
    "scheduler.peak_queue_depth",
    "devices.utilisation",
    "devices.busy_ms",
    "memory.evictions",
    "memory.stalls",
    "memory.prefix_reuse_hits",
    "memory.reprefill_ms",
    "memory.peak_blocks",
    "faults.retries",
    "faults.requeues",
    "faults.wasted_busy_ms",
    "stream.chunks",
    "stream.emission_p95_ms",
    "sim_max_qps",
    "failed_share",
    "sim_final_latency_p50_ms",
    "sim_final_latency_p95_ms",
    "ladder.nonmonotone_rates",
)


class DecodeCorpus:
    """Every standard method over one large corpus, via ``run_methods``."""

    name = "decode-corpus"
    replicas = 4
    split = "test-other"
    utterances = 128
    pairing = "vicuna-13b"
    headline = "specasr-tsp"

    def prepare(self, vocab, seed: int, index: int) -> Replica:
        rseed = replica_seed(seed, index)
        return Replica(index, _corpus(vocab, rseed, self.utterances, self.split))

    def iterate(self, vocab, replica: Replica) -> Outcome:
        clear_acoustic_caches()
        draft, target = model_pair(self.pairing, vocab)
        methods = standard_methods(draft, target)
        try:
            runs = run_methods(methods, replica.corpus, check_lossless=True)
        except AssertionError as error:  # run_methods' lossless check
            raise CorrectnessError(str(error)) from error
        outputs = [
            (name, [(tuple(r.tokens), r.total_ms) for r in run.results])
            for name, run in runs.items()
        ]
        return Outcome(
            tokens=sum(len(r.tokens) for run in runs.values() for r in run.results),
            operations=len(methods) * len(replica.corpus),
            digest=_digest(outputs),
            payload=runs,
        )

    def distinct_decodes(self, replica: Replica) -> int:
        return len(STANDARD_METHODS) * len(replica.corpus)

    def _first_commit_ms(self, vocab, corpus) -> list[float]:
        """Simulated time to the first committed token of each solo decode."""
        decoder = build_method(self.headline, *model_pair(self.pairing, vocab))
        latencies = []
        for utterance in corpus:
            stepper = begin_decode(decoder, utterance)
            elapsed = 0.0
            while True:
                phase = stepper.step_phase()
                elapsed += phase.ms
                if phase.new_tokens or phase.done:
                    break
            latencies.append(elapsed)
        return latencies

    def evaluate(self, vocab, outcomes: list[tuple[Replica, Outcome]]):
        totals = {name: 0.0 for name in STANDARD_METHODS}
        latencies: list[float] = []
        first_commit: list[float] = []
        for replica, outcome in outcomes:
            runs = outcome.payload
            for name in STANDARD_METHODS:
                totals[name] += sum(r.total_ms for r in runs[name].results)
            latencies += [r.total_ms for r in runs[self.headline].results]
            first_commit += self._first_commit_ms(vocab, replica.corpus)
        headline = totals[self.headline]
        metrics = {
            "sim_speedup_vs_ar": totals["autoregressive"] / headline,
            "sim_speedup_vs_spec": min(totals[m] for m in SPEC_BASELINES) / headline,
            # Each utterance is one request served alone: it always
            # completes, and meets the SLO when its decode does.
            "sim_goodput_ratio": sum(ms <= DEADLINE_MS for ms in latencies)
            / len(latencies),
            "sim_completed_share": 1.0,
            "sim_completion_p50_ms": percentile(latencies, 50.0),
            "sim_completion_p95_ms": percentile(latencies, 95.0),
            "sim_word_ttft_p95_ms": percentile(first_commit, 95.0),
        }
        detail = {
            "method": self.headline,
            "sim_total_ms": totals,
            "samples": len(latencies),
        }
        return metrics, detail

    def layer_sim(self, vocab, replica: Replica, outcome: Outcome) -> dict:
        sim = _decoder_sim(outcome.payload[self.headline])
        sim.update(dict.fromkeys(SERVE_LAYER_KEYS, 0.0))
        return sim


class ServeLadder:
    """One serving method offered a fixed ladder of Poisson rates."""

    def __init__(
        self,
        name: str,
        config: ServeSimConfig,
        ladder: tuple[float, ...],
        reference_qps: float,
        replicas: int,
    ) -> None:
        if reference_qps not in ladder:
            raise ValueError("the reference rate must be a ladder rate")
        self.name = name
        self.config = config
        self.ladder = ladder
        self.reference_qps = reference_qps
        self.replicas = replicas

    @property
    def streaming(self) -> bool:
        return self.config.stream.enabled

    def prepare(self, vocab, seed: int, index: int) -> Replica:
        config = self.config
        rseed = replica_seed(seed, index)
        corpus = _corpus(vocab, rseed, config.utterances, config.split)
        rtf = config.stream.rtf if self.streaming else 0.0
        traces = {
            qps: make_trace(
                config.arrival, config.num_requests, qps, len(corpus), rseed, rtf=rtf
            )
            for qps in self.ladder
        }
        return Replica(index, corpus, traces)

    def _serve(self, decoder, trace, corpus, stream: StreamSpec):
        config = self.config
        scheduler = ContinuousBatchScheduler(
            decoder,
            config.scheduler_config(),
            config.cluster_config(),
            faults=config.fault_plan(),
            memory=config.memory_spec(),
            stream=stream,
        )
        records = scheduler.run(trace, corpus)
        statuses = [r.status for r in records]
        terminal = sum(
            statuses.count(s) for s in (STATUS_COMPLETED, STATUS_REJECTED, STATUS_SHED)
        )
        if len(records) != len(trace) or terminal != len(trace):
            raise CorrectnessError(
                f"{self.name}: request conservation violated "
                f"({terminal} terminal of {len(trace)} arrived)"
            )
        return records, scheduler.last_stats

    def iterate(self, vocab, replica: Replica) -> Outcome:
        clear_acoustic_caches()
        config = self.config
        decoder = build_method(config.method, *model_pair(config.pairing, vocab))
        ladder = {}
        tokens = 0
        outputs = []
        for qps in self.ladder:
            records, stats = self._serve(
                decoder, replica.traces[qps], replica.corpus, config.stream
            )
            report = ServeReport.from_records(
                config.method, records, stats, config.deadline_ms, qps
            )
            ladder[qps] = (records, report)
            tokens += sum(
                len(r.tokens) for r in records if r.status == STATUS_COMPLETED
            )
            outputs.append(
                [
                    (
                        r.status,
                        tuple(r.tokens),
                        r.decode_ms,
                        r.first_token_ms,
                        r.finish_ms,
                        tuple(r.emission_ms),
                    )
                    for r in records
                ]
            )
        return Outcome(tokens, len(self.ladder), _digest(outputs), ladder)

    def distinct_decodes(self, replica: Replica) -> int:
        return len(
            {a.utterance_index for trace in replica.traces.values() for a in trace}
        )

    # -- checks and metrics ----------------------------------------------
    def _reference_runs(self, vocab, replica: Replica, outcome: Outcome):
        """Offline decodes of the replica corpus by the serving method and its
        baselines; checks every served transcript against autoregressive."""
        config = self.config
        draft, target = model_pair(config.pairing, vocab)
        methods = {
            name: build_method(name, draft, target)
            for name in (*REFERENCE_METHODS, config.method)
        }
        try:
            runs = run_methods(methods, replica.corpus, check_lossless=True)
        except AssertionError as error:
            raise CorrectnessError(str(error)) from error
        truth = {
            utterance.utterance_id: result.tokens
            for utterance, result in zip(
                replica.corpus, runs["autoregressive"].results, strict=True
            )
        }
        for records, _report in outcome.payload.values():
            for record in records:
                expected = truth[record.request.utterance.utterance_id]
                if record.status == STATUS_COMPLETED and record.tokens != expected:
                    raise CorrectnessError(
                        f"{self.name}: {record.request.request_id} transcript "
                        "differs from autoregressive decoding"
                    )
        return runs

    def _check_stream_parity(self, vocab, replica: Replica, outcome: Outcome) -> None:
        """Streamed completers match the offline run of the same trace."""
        config = self.config
        trace = replica.traces[self.reference_qps]
        offline_trace = [
            Arrival(a.index, a.utterance_index, a.arrival_ms, a.priority)
            for a in trace
        ]
        decoder = build_method(config.method, *model_pair(config.pairing, vocab))
        offline, _ = self._serve(decoder, offline_trace, replica.corpus, StreamSpec())
        streamed, _ = outcome.payload[self.reference_qps]
        for s, o in zip(streamed, offline, strict=True):
            both = s.status == o.status == STATUS_COMPLETED
            if both and (s.tokens != o.tokens or s.decode_ms != o.decode_ms):
                raise CorrectnessError(
                    f"{self.name}: {s.request.request_id} streamed transcript "
                    "differs from the offline run of the same trace"
                )

    def _ladder_points(self, outcomes: list[tuple[Replica, Outcome]]) -> dict:
        """Per-rate outcome pooled over replicas, goodput from records."""
        points = {}
        for qps in self.ladder:
            records = [r for _, o in outcomes for r in o.payload[qps][0]]
            done = [r for r in records if r.status == STATUS_COMPLETED]
            latencies = [r.slo_latency_ms for r in done]
            met = sum(r.meets_deadline(self.config.deadline_ms) for r in done)
            points[qps] = {
                "arrived": len(records),
                "completed": len(done),
                "rejected": sum(r.status == STATUS_REJECTED for r in records),
                "shed": sum(r.status == STATUS_SHED for r in records),
                "goodput": met / len(records),
                "latency_p50_ms": percentile(latencies, 50.0) if done else None,
                "latency_p95_ms": percentile(latencies, 95.0) if done else None,
            }
        return points

    def _ladder_summary(self, points: dict, reference: list) -> dict:
        pairs = [(qps, p["goodput"]) for qps, p in points.items()]
        arrived = sum(p["arrived"] for p in points.values())
        failed = sum(p["rejected"] + p["shed"] for p in points.values())
        done = [r for r in reference if r.status == STATUS_COMPLETED]
        finals = [r.slo_latency_ms for r in done]
        return {
            "sim_max_qps": max_sustained_rate(pairs, SLO_TARGET),
            "failed_share": failed / arrived,
            "sim_final_latency_p50_ms": percentile(finals, 50.0) if done else 0.0,
            "sim_final_latency_p95_ms": percentile(finals, 95.0) if done else 0.0,
            "ladder.nonmonotone_rates": float(len(nonmonotone_rates(pairs))),
        }

    def evaluate(self, vocab, outcomes: list[tuple[Replica, Outcome]]):
        totals = {name: 0.0 for name in (*REFERENCE_METHODS, self.config.method)}
        for replica, outcome in outcomes:
            runs = self._reference_runs(vocab, replica, outcome)
            for name in totals:
                totals[name] += sum(r.total_ms for r in runs[name].results)
            if self.streaming:
                self._check_stream_parity(vocab, replica, outcome)
        points = self._ladder_points(outcomes)
        reference = [
            r for _, o in outcomes for r in o.payload[self.reference_qps][0]
        ]
        done = [r for r in reference if r.status == STATUS_COMPLETED]
        ref = points[self.reference_qps]
        headline = totals[self.config.method]
        metrics = {
            "sim_speedup_vs_ar": totals["autoregressive"] / headline,
            "sim_speedup_vs_spec": min(totals[m] for m in SPEC_BASELINES) / headline,
            "sim_goodput_ratio": ref["goodput"],
            "sim_completed_share": sum(p["completed"] for p in points.values())
            / sum(p["arrived"] for p in points.values()),
            "sim_completion_p50_ms": percentile([r.completion_ms for r in done], 50.0),
            "sim_completion_p95_ms": percentile([r.completion_ms for r in done], 95.0),
            "sim_word_ttft_p95_ms": percentile([r.word_ttft_ms for r in done], 95.0),
        }
        summary = self._ladder_summary(points, reference)
        detail = {
            "method": self.config.method,
            "reference_qps": self.reference_qps,
            "samples_at_reference": len(done),
            "ladder": {str(qps): point for qps, point in points.items()},
            "nonmonotone_goodput_at": nonmonotone_rates(
                [(q, p["goodput"]) for q, p in points.items()]
            ),
            **summary,
        }
        return metrics, detail

    def layer_sim(self, vocab, replica: Replica, outcome: Outcome) -> dict:
        runs = self._reference_runs(vocab, replica, outcome)
        if self.streaming:
            self._check_stream_parity(vocab, replica, outcome)
        records, report = outcome.payload[self.reference_qps]
        stats = report.stats
        streaming = report.streaming
        emission = streaming.emission_latency if streaming else None
        sim = _decoder_sim(runs[self.config.method])
        sim.update(
            {
                "scheduler.phases": float(stats.rounds),
                "scheduler.batches": float(stats.batches),
                "scheduler.mean_batch_occupancy": stats.mean_batch_occupancy,
                "scheduler.queue_wait_p95_ms": (
                    report.queue_wait.p95 if report.queue_wait else 0.0
                ),
                "scheduler.peak_queue_depth": float(stats.peak_queue_depth),
                "devices.utilisation": stats.device_utilisation,
                "devices.busy_ms": stats.device_busy_ms,
                "memory.evictions": float(stats.evictions),
                "memory.stalls": float(stats.memory_stalls),
                "memory.prefix_reuse_hits": float(stats.prefix_reuse_hits),
                "memory.reprefill_ms": stats.reprefill_ms,
                "memory.peak_blocks": float(max(stats.peak_memory_blocks, default=0)),
                "faults.retries": float(stats.retries),
                "faults.requeues": float(stats.requeues),
                "faults.wasted_busy_ms": stats.wasted_busy_ms,
                "stream.chunks": float(streaming.chunks if streaming else 0),
                "stream.emission_p95_ms": emission.p95 if emission else 0.0,
            }
        )
        points = self._ladder_points([(replica, outcome)])
        sim.update(self._ladder_summary(points, records))
        return sim


WORKLOADS = {
    workload.name: workload
    for workload in (
        DecodeCorpus(),
        ServeLadder(
            "serve-capacity",
            ServeSimConfig(
                method="specasr-asp",
                num_requests=256,
                deadline_ms=DEADLINE_MS,
                cluster=ClusterSpec(devices=4, router="merged"),
            ),
            ladder=(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 16),
            reference_qps=4,
            replicas=8,
        ),
        ServeLadder(
            "serve-stream-pressure",
            ServeSimConfig(
                method="specasr-asp",
                num_requests=256,
                deadline_ms=DEADLINE_MS,
                cluster=ClusterSpec(devices=2, router="colocated"),
                chaos=ChaosSpec(faults="perr:0.02"),
                memory=MemorySpec(device_blocks=48),
                stream=StreamSpec(enabled=True, rtf=1.0, chunk_s=1.0, lookahead_s=0.3),
            ),
            ladder=(0.5, 1, 1.5, 2, 3, 4, 5, 6),
            reference_qps=2,
            replicas=8,
        ),
    )
}


def setup(workload, seed: int):
    """Everything a workload needs before its first timed call."""
    vocab = build_default_vocabulary()
    replicas = [workload.prepare(vocab, seed, i) for i in range(workload.replicas)]
    return vocab, replicas


def entry_points():
    """``(layer, owner, attribute)`` for every traced public entry point."""
    from repro.core.engine import SpecASREngine
    from repro.decoding.autoregressive import AutoregressiveDecoder
    from repro.decoding.base import DecodeStepper, PhasedDecodeStepper
    from repro.decoding.speculative import SpeculativeDecoder
    from repro.harness import runner
    from repro.models import acoustic, simulated
    from repro.serving.devices import Device
    from repro.serving.memory import ClusterKVMemory
    from repro.serving.router import ColocatedRouter, DisaggregatedRouter

    points = [
        ("data", LibriSimBuilder, "build"),
        ("data", runner, "load_split"),
        ("runner", runner, "run_methods"),
        ("runner", runner, "run_method"),
        ("oracle", acoustic.EmissionOracle, "__init__"),
        ("oracle", acoustic.EmissionOracle, "step"),
        ("oracle", acoustic.EmissionOracle, "step_many"),
        ("oracle", acoustic, "prewarm_oracles"),
        ("oracle", acoustic.OracleFactory, "for_utterance"),
        ("session", simulated.SimulatedASRModel, "score_batch"),
        ("session", simulated, "prewarm_models"),
        ("decoder", DecodeStepper, "step_phase"),
        ("decoder", PhasedDecodeStepper, "step_phase"),
        ("scheduler", ContinuousBatchScheduler, "run"),
        ("devices", Device, "execute"),
        ("devices", Device, "batch_busy_ms"),
        ("report", ServeReport, "from_records"),
    ]
    points += [
        ("session", simulated.DecodeSession, name)
        for name in ("step", "step_frontier", "verify_eval", "peek", "rollback")
    ]
    points += [
        ("decoder", cls, name)
        for cls in (AutoregressiveDecoder, SpeculativeDecoder, SpecASREngine)
        for name in ("begin", "decode")
    ]
    points += [
        ("router", cls, name)
        for cls in (ColocatedRouter, DisaggregatedRouter)
        for name in ("plan_round", "route", "pool_devices")
    ]
    points += [
        ("memory", ClusterKVMemory, name)
        for name in (
            "admit",
            "settle",
            "release_request",
            "phase_demand",
            "fits_anywhere",
            "audit",
        )
    ]
    return points
