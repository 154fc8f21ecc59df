"""SLO reporting for serve simulations.

Collapses the per-request timelines of one scheduler run into the quantities
a capacity planner asks for: client-latency percentiles (completion and
time-to-first-token), goodput under a deadline, rejection/shed rates,
per-priority-class goodput, device utilisation, and — when a fault plan was
injected — the chaos accounting (retries, requeues, shed and displaced
requests, wasted work, time in degraded state).  ``max_sustainable_qps`` is
attached by the simulator's load search
(:func:`repro.serving.simulator.max_sustainable_qps`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.metrics.latency_report import PercentileSummary
from repro.serving.devices import DeviceSpec, format_device_specs
from repro.serving.request import (
    PRIORITY_BATCH,
    PRIORITY_CLASSES,
    STATUS_COMPLETED,
    STATUS_REJECTED,
    STATUS_SHED,
    RequestRecord,
)
from repro.serving.scheduler import ScheduleStats


@dataclass(frozen=True)
class StreamingSummary:
    """Word-level streaming metrics of one serve simulation.

    Populated only when the trace contained streamed arrivals
    (``rtf > 0``).  ``partial_stability`` is the fraction of emitted tokens
    later revised — identically ``0.0`` for the lossless decoder, asserted
    at construction so a regression cannot silently report stable partial
    transcripts.
    """

    requests: int  # streaming requests in the trace
    completed: int
    chunks: int  # audio chunk events delivered
    word_ttft: PercentileSummary | None  # first emission - arrival (ms)
    emission_latency: PercentileSummary | None  # per cap-raising chunk (ms)
    final_latency: PercentileSummary | None  # end-of-audio - final (ms)
    partial_stability: float  # revised fraction of emitted tokens

    @classmethod
    def from_records(
        cls, records: Sequence[RequestRecord]
    ) -> "StreamingSummary | None":
        streaming = [r for r in records if r.streaming]
        if not streaming:
            return None
        completed = [r for r in streaming if r.status == STATUS_COMPLETED]
        emitted = sum(len(r.emission_ms) for r in completed)
        revised = sum(r.revised_tokens for r in completed)
        stability = revised / emitted if emitted else 0.0
        assert stability == 0.0, (
            f"lossless decoder revised {revised}/{emitted} emitted tokens"
        )
        return cls(
            requests=len(streaming),
            completed=len(completed),
            chunks=sum(r.stream_chunks for r in streaming),
            word_ttft=PercentileSummary.from_values(
                r.word_ttft_ms for r in completed if r.word_ttft_ms is not None
            ),
            emission_latency=PercentileSummary.from_values(
                latency for r in completed for latency in r.chunk_latencies_ms
            ),
            final_latency=PercentileSummary.from_values(
                r.final_latency_ms
                for r in completed
                if r.final_latency_ms is not None
            ),
            partial_stability=stability,
        )

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "completed": self.completed,
            "chunks": self.chunks,
            "word_ttft_ms": self.word_ttft.to_dict() if self.word_ttft else None,
            "emission_latency_ms": (
                self.emission_latency.to_dict() if self.emission_latency else None
            ),
            "final_latency_ms": (
                self.final_latency.to_dict() if self.final_latency else None
            ),
            "partial_stability": self.partial_stability,
        }


@dataclass(frozen=True)
class ServeReport:
    """SLO summary of one (method, arrival-trace) serve simulation."""

    method: str
    offered_qps: float
    deadline_ms: float
    num_requests: int
    completed: int
    rejected: int
    met_deadline: int
    goodput_rps: float  # deadline-meeting completions per second
    goodput_ratio: float  # met_deadline / num_requests (rejections count)
    completion: PercentileSummary | None
    ttft: PercentileSummary | None
    queue_wait: PercentileSummary | None
    decode: PercentileSummary | None  # scheduler-independent model time
    stats: ScheduleStats
    max_sustainable_qps: float | None = None
    shed: int = 0  # dropped by the server (deadline / retries / capacity)
    batch_deadline_ms: float | None = None  # batch-class SLO (None = shared)
    per_class: dict | None = None  # per-priority-class goodput breakdown
    streaming: StreamingSummary | None = None  # word-level streaming block

    @classmethod
    def from_records(
        cls,
        method: str,
        records: Sequence[RequestRecord],
        stats: ScheduleStats,
        deadline_ms: float,
        offered_qps: float,
        batch_deadline_ms: float | None = None,
    ) -> "ServeReport":
        completed = [r for r in records if r.status == STATUS_COMPLETED]
        rejected = sum(1 for r in records if r.status == STATUS_REJECTED)
        shed = sum(1 for r in records if r.status == STATUS_SHED)

        def met_slo(record: RequestRecord) -> bool:
            # Batch-class requests are judged against their own (usually
            # looser) deadline when one is configured.
            if (
                record.request.priority == PRIORITY_BATCH
                and batch_deadline_ms is not None
            ):
                return record.meets_deadline(batch_deadline_ms)
            return record.meets_deadline(deadline_ms)

        met = [r for r in completed if met_slo(r)]
        per_class: dict[str, dict] = {}
        for class_name in PRIORITY_CLASSES:
            class_records = [
                r for r in records if r.request.priority == class_name
            ]
            if not class_records:
                continue
            class_completed = [
                r for r in class_records if r.status == STATUS_COMPLETED
            ]
            class_met = [r for r in class_completed if met_slo(r)]
            per_class[class_name] = {
                "arrived": len(class_records),
                "completed": len(class_completed),
                "rejected": sum(
                    1 for r in class_records if r.status == STATUS_REJECTED
                ),
                "shed": sum(1 for r in class_records if r.status == STATUS_SHED),
                "met_deadline": len(class_met),
                "goodput_ratio": (
                    round(len(class_met) / len(class_records), 4)
                ),
            }
        span_s = stats.sim_end_ms / 1000.0
        return cls(
            method=method,
            offered_qps=offered_qps,
            deadline_ms=deadline_ms,
            num_requests=len(records),
            completed=len(completed),
            rejected=rejected,
            met_deadline=len(met),
            goodput_rps=len(met) / span_s if span_s > 0 else 0.0,
            goodput_ratio=len(met) / len(records) if records else 0.0,
            completion=PercentileSummary.from_values(
                r.completion_ms for r in completed
            ),
            ttft=PercentileSummary.from_values(r.ttft_ms for r in completed),
            queue_wait=PercentileSummary.from_values(r.queue_ms for r in completed),
            decode=PercentileSummary.from_values(r.decode_ms for r in completed),
            stats=stats,
            shed=shed,
            batch_deadline_ms=batch_deadline_ms,
            per_class=per_class,
            streaming=StreamingSummary.from_records(records),
        )

    @property
    def chaos_active(self) -> bool:
        """True when the run saw faults or degradation events worth showing."""
        stats = self.stats
        return bool(
            stats.fault_events
            or stats.retries
            or stats.requeues
            or stats.displaced
            or self.shed
        )

    def chaos_dict(self) -> dict:
        """The failure/degradation accounting block of :meth:`to_dict`."""
        stats = self.stats
        return {
            "fault_events": stats.fault_events,
            "retries": stats.retries,
            "requeues": stats.requeues,
            "shed": self.shed,
            "displaced": stats.displaced,
            "degraded_ms": round(stats.degraded_ms, 3),
            "wasted_busy_ms": round(stats.wasted_busy_ms, 3),
        }

    @property
    def memory_active(self) -> bool:
        """True when the run billed KV blocks (memory accounting was on)."""
        return self.stats.block_size > 0

    def memory_dict(self) -> dict:
        """The KV-block accounting block of :meth:`to_dict`."""
        stats = self.stats
        return {
            "device_blocks": list(stats.memory_blocks),
            "peak_blocks": list(stats.peak_memory_blocks),
            "block_size": stats.block_size,
            "evictions": stats.evictions,
            "evicted_blocks": stats.evicted_blocks,
            "prefix_reuse_hits": stats.prefix_reuse_hits,
            "reprefill_ms": round(stats.reprefill_ms, 3),
            "memory_stalls": stats.memory_stalls,
        }

    def with_max_qps(self, max_qps: float) -> "ServeReport":
        """A copy carrying the load search's max sustainable QPS."""
        return replace(self, max_sustainable_qps=max_qps)

    def per_device_rows(self) -> list[dict]:
        """One row per cluster device: spec, pool role, busy, utilisation.

        Empty when the scheduler recorded no per-device detail (legacy
        stats objects); speeds/roles default to ``1.0``/``"any"`` when a
        run predates the heterogeneous-cluster stats fields.
        """
        stats = self.stats
        speeds = stats.device_speeds
        roles = stats.device_roles
        capacities = stats.memory_blocks
        peaks = stats.peak_memory_blocks
        rows = []
        for index, busy in enumerate(stats.per_device_busy_ms):
            speed = speeds[index] if index < len(speeds) else 1.0
            role = roles[index] if index < len(roles) else "any"
            utilisation = busy / stats.sim_end_ms if stats.sim_end_ms > 0 else 0.0
            row = {
                "device": f"dev{index}",
                "speed": speed,
                "role": role,
                "busy_ms": round(busy, 3),
                "utilisation": round(utilisation, 4),
            }
            if self.memory_active:
                row["memory_blocks"] = (
                    capacities[index] if index < len(capacities) else None
                )
                row["peak_blocks"] = peaks[index] if index < len(peaks) else 0
            rows.append(row)
        return rows

    # -- output ------------------------------------------------------------
    def to_dict(self) -> dict:
        payload = {
            "method": self.method,
            "offered_qps": round(self.offered_qps, 3),
            "deadline_ms": self.deadline_ms,
            "num_requests": self.num_requests,
            "completed": self.completed,
            "rejected": self.rejected,
            "shed": self.shed,
            "met_deadline": self.met_deadline,
            "goodput_rps": round(self.goodput_rps, 3),
            "goodput_ratio": round(self.goodput_ratio, 4),
            "devices": self.stats.devices,
            "device_utilisation": round(self.stats.device_utilisation, 4),
            "per_device_busy_ms": [
                round(busy, 3) for busy in self.stats.per_device_busy_ms
            ],
            "per_device": self.per_device_rows(),
            "draft_share": (
                round(self.stats.draft_share, 4)
                if self.stats.draft_share is not None
                else None
            ),
            "mean_batch_occupancy": round(self.stats.mean_batch_occupancy, 3),
            "peak_queue_depth": self.stats.peak_queue_depth,
            "sim_end_ms": round(self.stats.sim_end_ms, 3),
            "latency_ms": {
                "completion": self.completion.to_dict() if self.completion else None,
                "ttft": self.ttft.to_dict() if self.ttft else None,
                "queue_wait": self.queue_wait.to_dict() if self.queue_wait else None,
                "decode": self.decode.to_dict() if self.decode else None,
            },
        }
        if self.batch_deadline_ms is not None:
            payload["batch_deadline_ms"] = self.batch_deadline_ms
        if self.per_class and len(self.per_class) > 1:
            payload["per_class"] = self.per_class
        if self.streaming is not None:
            payload["streaming"] = self.streaming.to_dict()
        if self.chaos_active:
            payload["chaos"] = self.chaos_dict()
        if self.memory_active:
            payload["memory"] = self.memory_dict()
        if self.max_sustainable_qps is not None:
            payload["max_sustainable_qps"] = round(self.max_sustainable_qps, 3)
        return payload

    def cluster_label(self) -> str:
        """``"N device(s)"``, with the speed mix when heterogeneous."""
        label = f"{self.stats.devices} device(s)"
        speeds = self.stats.device_speeds
        if speeds and any(speed != 1.0 for speed in speeds):
            specs = [DeviceSpec(speed=speed) for speed in speeds]
            label += f" [{format_device_specs(specs)}]"
        return label

    def render(self) -> str:
        """Human-readable SLO report."""
        lines = [
            f"serve-sim [{self.method}] "
            f"offered {self.offered_qps:.2f} qps, "
            f"SLO deadline {self.deadline_ms:.0f} ms",
            f"  requests  : {self.num_requests} "
            f"(completed {self.completed}, rejected {self.rejected}, "
            f"shed {self.shed})",
            f"  goodput   : {self.goodput_rps:.2f} req/s within deadline "
            f"({self.goodput_ratio:.1%} of arrivals)",
            f"  cluster   : {self.cluster_label()}, "
            f"{self.stats.device_utilisation:.1%} busy, "
            f"mean batch {self.stats.mean_batch_occupancy:.2f}, "
            f"peak queue {self.stats.peak_queue_depth}",
        ]
        if self.stats.draft_share is not None:
            lines.append(
                f"  planner   : measured draft share "
                f"{self.stats.draft_share:.1%} of decode cost"
            )
        if self.chaos_active:
            stats = self.stats
            lines.append(
                f"  chaos     : {stats.fault_events} fault event(s), "
                f"{stats.retries} retries, {stats.requeues} requeues, {self.shed} shed"
            )
            lines.append(
                f"  degraded  : {stats.degraded_ms:.0f} ms with impaired "
                f"capacity, {stats.wasted_busy_ms:.1f} ms wasted on aborted batches"
            )
        if self.memory_active:
            stats = self.stats
            peak = max(stats.peak_memory_blocks, default=0)
            lines.append(
                f"  memory    : peak {peak} blocks "
                f"({stats.block_size} tok/block), "
                f"{stats.evictions} eviction(s), "
                f"{stats.prefix_reuse_hits} prefix reuse hit(s), "
                f"{stats.reprefill_ms:.1f} ms re-prefill, "
                f"{stats.memory_stalls} stall(s)"
            )
        if self.streaming is not None:
            block = self.streaming
            lines.append(
                f"  streaming : {block.requests} streamed request(s), "
                f"{block.chunks} audio chunk(s), "
                f"partial stability {1.0 - block.partial_stability:.1%}"
            )
            for label, summary in (
                ("word ttft", block.word_ttft),
                ("emission", block.emission_latency),
                ("final lat", block.final_latency),
            ):
                if summary is None:
                    lines.append(f"    {label:9s}: (no completed streams)")
                else:
                    lines.append(
                        f"    {label:9s}: p50 {summary.p50:8.1f}  "
                        f"p95 {summary.p95:8.1f}  p99 {summary.p99:8.1f}  "
                        f"mean {summary.mean:8.1f} ms"
                    )
        if self.per_class and len(self.per_class) > 1:
            for class_name, row in self.per_class.items():
                lines.append(
                    f"  class     : {class_name:11s} arrived {row['arrived']:4d} "
                    f"met {row['met_deadline']:4d} "
                    f"({row['goodput_ratio']:.1%} goodput)"
                )
        for row in self.per_device_rows():
            lines.append(
                f"    {row['device']:6s} speed {row['speed']:<4g} "
                f"{row['role']:6s} busy {row['busy_ms']:10.1f} ms "
                f"({row['utilisation']:.1%})"
            )
        for label, summary in (
            ("completion", self.completion),
            ("ttft", self.ttft),
            ("queue wait", self.queue_wait),
            ("decode", self.decode),
        ):
            if summary is None:
                lines.append(f"  {label:10s}: (no completed requests)")
            else:
                lines.append(
                    f"  {label:10s}: p50 {summary.p50:8.1f}  "
                    f"p95 {summary.p95:8.1f}  p99 {summary.p99:8.1f}  "
                    f"mean {summary.mean:8.1f} ms"
                )
        if self.max_sustainable_qps is not None:
            lines.append(f"  max sustainable qps @ SLO: {self.max_sustainable_qps:.2f}")
        return "\n".join(lines)
