"""Cluster event loop: continuous batching over a simulated accelerator pool.

The scheduler multiplexes many in-flight decodes across K simulated devices
at **phase granularity**: every draft→verify round is two schedulable units
(a draft-model phase and a target-model phase, see
:class:`~repro.decoding.base.PhaseOutcome`), and a placement policy
(:mod:`repro.serving.router`) decides which device runs which phase —
``colocated`` K-way sharding, ``disaggregated`` draft-pool/target-pool with
round handoff, or ``merged`` cross-request verification.  Scheduling stays
iteration-level (the Orca/vLLM "continuous batching" discipline): a device
runs one micro-batch of up to ``max_batch`` ready phases, and arrivals are
admitted at every simulation event instead of waiting for a batch to drain.

The loop is a discrete-event simulation.  Its event sources — request
arrivals, batch completions, fault-plan wake-ups (crashes and restarts)
and the admissions/dispatches they enable — are processed in
deterministic order (devices by index, waiting phases FIFO by
``(class rank, ready time, request index)``), so one arrival trace
schedules identically on every run, for every device count, device-spec
mix, split policy, router policy and fault plan.  Under
``split="balanced"`` the scheduler first measures the decoder's
draft:verify cost ratio on the trace's leading utterances
(:func:`~repro.serving.router.measure_draft_share` — a pure, deterministic
simulation) and hands it to the workload-aware pool planner.

Each :meth:`ContinuousBatchScheduler.run` builds one private ``_ServeLoop``
that owns all state of that run: pending arrivals, the admission queue,
in-flight sessions, parked streams, the heap of executing batches, the
simulated clock ``now``, the chaos counters, the dispatch log, KV memory,
router and devices.  Its ``run`` method is the event loop: wake parked
streams that are due, admit arrivals, dispatch waiting phases, move ``now``
to the next event, and settle every batch that has finished by then.
``max_inflight`` bounds the *runnable* sessions: a streamed session the
audio gate holds until its next chunk is parked outside the in-flight list,
so it holds no slot (its KV stays resident until memory pressure evicts
it).  A due stream wakes into a free slot ahead of the admission queue;
while every slot is taken it stays parked, so the in-flight list never
outgrows the bound.  Admission, dispatch, launch, settle and commit are
the loop's methods, as are the shedding, memory and streaming helpers
they share.  Each phase has exactly one dispatched copy from launch to
settle, and only its own settle commits or retries it; a committed phase
computes the session's next phase on the spot.  Nothing survives from one
run to the next, so one scheduler replays a trace identically however
often it runs.

Device time for one micro-batch is priced by
:meth:`~repro.serving.devices.Device.batch_busy_ms`: the ``overlap``
discount applies within each ``(model, phase)`` group of the batch, groups
serialise (a draft-model pass and a target-model pass cannot share a
kernel).  The ``merged`` policy coalesces each verify group into a single
batched target pass.

**Failure awareness.**  A seeded :class:`~repro.serving.faults.FaultPlan`
threads injected chaos through the loop:

* A batch on a device that **crashes** mid-flight is aborted at the crash —
  the partial occupancy is billed as wasted work and every phase in it
  rolls back to the waiting state.  The phase object is pure data and the
  stepper only advances on *commit*, so a re-dispatched phase resumes the
  decode where it stopped: transcripts stay bit-identical to the
  fault-free run whenever the request completes.
* Failed phases (crash aborts and transient phase errors) **retry with
  exponential backoff**, bounded by ``max_retries``; exhaustion sheds the
  request (reason ``"retries"``).
* A device is alive or dead, and its speed never changes during a run.
  Only alive devices take new work: the router's pools hold exactly the
  alive set, re-planned on every membership change (crash, warm restart).
  The alive set changes only at the plan's wake-up times, so the loop
  recomputes it only when ``now`` crosses one of them and reuses it for
  every event in between.

**Memory awareness.**  With a :class:`~repro.serving.memory.MemorySpec`
(or per-device ``@BLOCKS`` capacities) the scheduler bills KV residency
per in-flight session — draft and target model separately, each resident
on one device — through a paged block allocator
(:class:`~repro.serving.memory.ClusterKVMemory`):

* A phase only dispatches on a device if its blocks fit (**admission
  gate**), so the effective batch size *emerges* from free blocks;
  ``max_batch`` remains an upper bound, which keeps ample-capacity runs
  bit-identical to memory-disabled ones (the parity contract).  A
  phase's one dispatched copy is admitted before launch and resolved by
  its settle, so the allocator sees at most one executing phase per
  request.  A session's KV follows a phase routed to another device once
  that device admits the phase.
* Under pressure the allocator LRU-evicts idle sessions' blocks — never a
  session whose phase is executing.  The decode state survives in its
  stepper (PR 5's state-intact resume path), and the next dispatch pays a
  simulated **re-prefill penalty** billed to device time only (transcripts
  and ``decode_ms`` stay scheduler-independent).
* Full committed-prefix blocks are shared copy-on-write across requests
  decoding the same utterance.
* A phase whose demand exceeds every pool device's total capacity is
  unservable and sheds with reason ``"memory"``.
* Every request is terminal when a run ends, so a block, residency or
  executing phase still held then fails the run as a leak.

**Graceful degradation.**  ``interactive`` requests leave the queue and
dispatch ahead of ``batch`` ones, and an interactive arrival at a full
queue displaces the newest queued batch entry.  An admitted session keeps
its slot until it finishes, parks or sheds, so a waiting interactive
request waits for a free slot.  Per-class admission deadlines shed
requests whose SLO is already unreachable before they waste device time;
and when capacity is permanently gone (all pool devices dead with no
restart pending) the remaining work is shed (reason ``"capacity"``)
instead of hanging the loop.  The conservation invariant
``completed + rejected + shed == arrived`` always holds.

Determinism: given one arrival trace, every quantity here is a pure
function of the trace, the decoders, the cluster shape and the fault plan —
no wall clock, no RNG.  Transcripts and per-request ``decode_ms`` are
additionally *scheduler-independent* (they depend only on the method and
the utterance), which the determinism suite asserts across batch sizes,
device counts, router policies and fault plans.  Sessions start through
:func:`~repro.decoding.base.begin_decode`, which records the whole decode
before the scheduler sees its first phase, so no scheduling decision can
reach a transcript; the suite compares served transcripts against an
independent ``decoder.decode()``.

Run-to-completion FIFO serving — the baseline continuous batching is usually
compared against — is the ``max_batch=1, max_inflight=1`` corner of the same
scheduler on a 1-device colocated cluster, for offline traces: a parked
stream frees its slot, so streamed sessions interleave even there.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

from repro.data.corpus import Dataset
from repro.decoding.base import DecodeStepper, PhaseOutcome, begin_decode
from repro.models.simulated import prompt_token_count
from repro.serving.arrivals import Arrival, chunk_schedule, positions_available
from repro.serving.devices import Device
from repro.serving.faults import FaultPlan, RetryPolicy
from repro.serving.memory import ClusterKVMemory, MemorySpec
from repro.serving.queue import AdmissionQueue
from repro.serving.request import (
    PRIORITY_BATCH,
    SHED_CAPACITY,
    SHED_DEADLINE,
    SHED_MEMORY,
    SHED_RETRIES,
    STATUS_COMPLETED,
    STATUS_SHED,
    RequestRecord,
    ServeRequest,
    priority_rank,
)
from repro.serving.router import (
    PLANNER_SAMPLE_UTTERANCES,
    ROUTER_COLOCATED,
    SPLIT_BALANCED,
    ClusterConfig,
    build_router,
    measure_draft_share,
)


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs of the serving loop."""

    max_batch: int = 4  # phases co-scheduled per device iteration
    max_inflight: int = 8  # runnable sessions; parked streams hold no slot
    queue_capacity: int = 32  # admission queue bound (backpressure)
    overlap: float = 0.8  # batching efficiency in [0, 1]
    # -- failure handling / degradation (defaults keep all of it off) ------
    max_retries: int = 3  # per-phase failure budget before shedding
    retry_backoff_ms: float = 25.0  # base of the exponential backoff
    admission_deadline_ms: float | None = None  # shed interactive overdue
    batch_deadline_ms: float | None = None  # shed batch-class overdue

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_inflight < self.max_batch:
            raise ValueError(
                f"max_inflight ({self.max_inflight}) must be >= max_batch "
                f"({self.max_batch})"
            )
        if self.queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError(f"overlap must be in [0, 1], got {self.overlap}")
        # NaN fails every comparison: each check is written to reject it.
        if not self.max_retries >= 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if not math.isfinite(self.retry_backoff_ms) or self.retry_backoff_ms < 0:
            raise ValueError(
                "retry_backoff_ms must be finite and >= 0, got "
                f"{self.retry_backoff_ms}"
            )
        for name in ("admission_deadline_ms", "batch_deadline_ms"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be > 0 when set, got {value}")

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(
            max_retries=self.max_retries, backoff_ms=self.retry_backoff_ms
        )


@dataclass(frozen=True)
class StreamSpec:
    """Chunked audio delivery parameters for streaming requests.

    ``enabled``/``rtf`` shape the *trace* (every synthetic arrival is
    tagged with the real-time factor); ``chunk_s``/``lookahead_s`` shape
    how the scheduler expands a streamed arrival into chunk events and how
    many transcript positions the heard audio supports
    (:func:`~repro.serving.arrivals.positions_available`).  A request
    streams iff its own ``rtf > 0``, so replayed traces recorded with
    per-request factors stream without any flag.
    """

    enabled: bool = False
    rtf: float = 1.0  # audio delivery speed for synthesised traces
    chunk_s: float = 1.0  # seconds of audio per chunk event
    lookahead_s: float = 0.3  # audio margin held back from the decoder

    def __post_init__(self) -> None:
        # NaN fails every comparison: each check is written to reject it.
        if not self.rtf > 0:
            raise ValueError(f"rtf must be positive, got {self.rtf}")
        if not self.chunk_s > 0:
            raise ValueError(f"chunk_s must be positive, got {self.chunk_s}")
        if not self.lookahead_s >= 0:
            raise ValueError(f"lookahead_s must be >= 0, got {self.lookahead_s}")


@dataclass(frozen=True)
class ScheduleStats:
    """Aggregate facts about one scheduler run."""

    sim_end_ms: float  # last event or last finish, whichever is later
    device_busy_ms: float  # total occupancy summed over devices
    batches: int  # device iterations executed (all devices)
    rounds: int  # phases executed (sum of batch sizes, incl. re-executions)
    peak_queue_depth: int
    rejected: int
    devices: int = 1  # cluster size
    per_device_busy_ms: tuple[float, ...] = ()
    device_speeds: tuple[float, ...] = ()  # relative speed per device
    device_roles: tuple[str, ...] = ()  # pool membership per device
    draft_share: float | None = None  # measured ratio fed to the planner
    # -- chaos accounting (all zero on a fault-free run) -------------------
    retries: int = 0  # failed phase executions (crash aborts + transients)
    requeues: int = 0  # phases rolled back to the waiting state
    shed: int = 0  # requests dropped by the server itself
    displaced: int = 0  # queued batch entries bumped by interactive
    degraded_ms: float = 0.0  # sim time with >= 1 device dead
    wasted_busy_ms: float = 0.0  # occupancy billed to crash-aborted batches
    fault_events: int = 0  # events in the injected plan
    # -- memory accounting (empty/zero when memory is unconstrained) -------
    memory_blocks: tuple[int | None, ...] = ()  # KV capacity per device
    peak_memory_blocks: tuple[int, ...] = ()  # high-water blocks per device
    block_size: int = 0  # tokens per KV block (0 = memory off)
    evictions: int = 0  # idle sessions whose blocks were reclaimed
    evicted_blocks: int = 0  # blocks freed by those evictions
    prefix_reuse_hits: int = 0  # shared prefix blocks reused copy-on-write
    reprefill_ms: float = 0.0  # device time spent rebuilding evicted KV
    memory_stalls: int = 0  # dispatch attempts deferred for want of blocks

    @property
    def device_utilisation(self) -> float:
        """Mean busy fraction across the cluster (0.0 on empty runs)."""
        if self.sim_end_ms <= 0 or self.devices < 1:
            return 0.0
        return self.device_busy_ms / (self.sim_end_ms * self.devices)

    @property
    def mean_batch_occupancy(self) -> float:
        """Phases per device iteration (0.0 on empty runs)."""
        if self.batches == 0:
            return 0.0
        return self.rounds / self.batches


class _Active:
    """One in-flight request: its record, resumable decode, and next phase.

    ``rank`` (the request's class rank) and ``index`` (its arrival index)
    are fixed at admission; with ``ready_ms`` they order waiting phases.
    ``running`` is True while the one dispatched copy of ``phase`` is
    inside a device batch; the phase advances only when that copy settles.
    ``attempts`` counts the phase's failures so far (for the retry budget
    and backoff), and ``phase_index`` counts committed phases (the
    deterministic transient-error hash keys on it).

    When memory accounting is on, ``prompt``/``committed`` track the
    session's resident KV extent per the billing model (prompt tokens plus
    tokens committed so far), ``prefilled`` records which models have run
    their first phase (a model's KV is only resident after its prefill),
    and ``prompt_key`` identifies the utterance for cross-request prefix
    sharing.

    For a streaming request (``rtf > 0``), ``chunk_ms`` and ``chunk_caps``
    hold the precomputed audio timeline — per chunk event its arrival time
    and how many transcript positions the audio heard by then supports,
    both non-decreasing, so the audio gate answers by bisection —
    ``audio_end_ms`` the arrival of the last chunk, ``emitted`` the
    committed-token count, and ``new_round`` whether the pending phase
    starts a fresh draft→verify round (the only point the chunk gate may
    hold it back).  Offline sessions keep ``chunk_ms`` at None.
    """

    __slots__ = (
        "record",
        "rank",
        "index",
        "stepper",
        "phase",
        "ready_ms",
        "running",
        "attempts",
        "phase_index",
        "prompt",
        "committed",
        "prefilled",
        "prompt_key",
        "chunk_ms",
        "chunk_caps",
        "audio_end_ms",
        "emitted",
        "new_round",
    )

    def __init__(
        self, record: RequestRecord, stepper: DecodeStepper, ready_ms: float
    ) -> None:
        self.record = record
        self.rank = priority_rank(record.request.priority)
        self.index = record.request.index
        self.stepper = stepper
        self.phase: PhaseOutcome = stepper.step_phase()  # next phase to place
        self.ready_ms = ready_ms  # when that phase became runnable
        self.running = False  # currently inside a device batch
        self.attempts = 0  # failures of the current phase
        self.phase_index = 0  # committed phases so far
        self.prompt = 0  # prompt tokens (memory billing)
        self.committed = 0  # committed tokens (memory billing)
        self.prefilled: set[str] = set()  # models with resident KV
        self.prompt_key = ""  # prefix-sharing identity
        self.chunk_ms: list[float] | None = None  # chunk arrivals (streaming)
        self.chunk_caps: list[int] = []  # positions heard by each chunk
        self.audio_end_ms = 0.0  # last chunk arrival (streaming only)
        self.emitted = 0  # committed tokens recorded as emissions
        self.new_round = True  # pending phase begins a new round


# The dispatched copy of a session's phase: (active, attempt, transient
# failure).  ``active.phase`` is the dispatched phase until this copy settles.
_Entry = tuple[_Active, int, bool]

#: Dispatch order of waiting phases: class rank, ready time, request index.
_WAITING_ORDER = attrgetter("rank", "ready_ms", "index")


class ContinuousBatchScheduler:
    """Serve an arrival trace with one decoder on a simulated cluster.

    ``faults`` threads a seeded :class:`~repro.serving.faults.FaultPlan`
    through the run; omitted or empty, the loop is bit-identical to the
    fault-free scheduler.  ``memory`` enables KV-block accounting
    (:class:`~repro.serving.memory.MemorySpec`); it activates when the spec
    sets ``device_blocks`` or any device spec carries an ``@BLOCKS``
    capacity, and per-device capacities override the spec default.  After
    :meth:`run`, ``last_dispatch_log`` holds one
    ``(device_index, start_ms, end_ms, phases, aborted)`` tuple per
    executed micro-batch — the audit trail the invariant suite checks
    ("no phase starts on a dead device") against the plan.
    """

    def __init__(
        self,
        decoder,
        config: SchedulerConfig | None = None,
        cluster: ClusterConfig | None = None,
        faults: FaultPlan | None = None,
        memory: MemorySpec | None = None,
        stream: StreamSpec | None = None,
    ) -> None:
        self.decoder = decoder
        self.config = config or SchedulerConfig()
        self.cluster = cluster or ClusterConfig()
        self.faults = faults if faults is not None and faults else None
        if self.faults is not None:
            self.faults.validate_for(self.cluster.devices)
        self.memory = memory
        # Chunking/lookahead for any streamed arrival in the trace; whether
        # a request streams is the arrival's own rtf, not this spec.
        self.stream = stream if stream is not None else StreamSpec()
        self.last_stats: ScheduleStats | None = None
        self.last_dispatch_log: list[tuple[int, float, float, int, bool]] = []

    def run(
        self,
        trace: Sequence[Arrival],
        dataset: Dataset,
        id_prefix: str = "req",
    ) -> list[RequestRecord]:
        """Simulate serving ``trace`` over ``dataset``.

        Returns one :class:`RequestRecord` per arrival, in arrival order;
        rejected requests keep ``STATUS_REJECTED`` with an empty timeline
        and shed requests ``STATUS_SHED`` plus a ``shed_reason``.
        """
        loop = _ServeLoop(self, trace, dataset, id_prefix)
        self.last_dispatch_log = loop.dispatch_log
        records = loop.run()
        self.last_stats = loop.stats()
        if loop.memory is not None:
            # Block conservation, and every request is terminal: no KV left.
            loop.memory.audit(drained=True)
        return records


def _planner_draft_share(
    decoder, cluster: ClusterConfig, arrivals: list[Arrival], dataset: Dataset
) -> float | None:
    """The draft:verify cost ratio the balanced pool planner needs.

    Workload-aware pool planning measures it on the first few distinct
    utterances of the trace.  Phase costs are pure functions of (decoder,
    utterance), so this is deterministic and leaves transcripts untouched.
    None when no planner consumes it.
    """
    if cluster.split != SPLIT_BALANCED or cluster.router == ROUTER_COLOCATED:
        return None
    sample_indices: list[int] = []
    for arrival in arrivals:
        index = arrival.utterance_index
        if index < len(dataset) and index not in sample_indices:
            sample_indices.append(index)
        if len(sample_indices) >= PLANNER_SAMPLE_UTTERANCES:
            break
    return measure_draft_share(decoder, [dataset[i] for i in sample_indices])


def _request_records(
    arrivals: list[Arrival], dataset: Dataset, id_prefix: str
) -> list[RequestRecord]:
    """One fresh record per arrival, in arrival order."""
    records = []
    for arrival in arrivals:
        if arrival.utterance_index >= len(dataset):
            raise ValueError(
                f"arrival {arrival.index} references utterance "
                f"{arrival.utterance_index}, but the corpus holds only "
                f"{len(dataset)} — was this trace recorded against a "
                "larger corpus?"
            )
        request = ServeRequest(
            request_id=f"{id_prefix}-{arrival.index:04d}",
            index=arrival.index,
            utterance=dataset[arrival.utterance_index],
            arrival_ms=arrival.arrival_ms,
            priority=arrival.priority,
            rtf=arrival.rtf,
        )
        records.append(RequestRecord(request=request))
    return records


class _ServeLoop:
    """State and event handlers of one :meth:`ContinuousBatchScheduler.run`.

    Built fresh for every run, so no state crosses between two runs of one
    scheduler.  :meth:`run` is the event loop; every other method handles
    one kind of event or answers one question about a session.
    """

    def __init__(
        self,
        scheduler: ContinuousBatchScheduler,
        trace: Sequence[Arrival],
        dataset: Dataset,
        id_prefix: str,
    ) -> None:
        decoder, cluster = scheduler.decoder, scheduler.cluster
        self.decoder = decoder
        self.config = config = scheduler.config
        self.plan = plan = scheduler.faults
        self.retry = config.retry_policy()
        self.stream = scheduler.stream
        arrivals = sorted(trace, key=lambda a: (a.arrival_ms, a.index))
        self.draft_share = _planner_draft_share(decoder, cluster, arrivals, dataset)
        memspec = scheduler.memory if scheduler.memory is not None else MemorySpec()
        if cluster.device_specs is not None:
            capacities = [
                spec.memory_blocks
                if spec.memory_blocks is not None
                else memspec.device_blocks
                for spec in cluster.device_specs
            ]
        else:
            capacities = [memspec.device_blocks] * (cluster.devices or 1)
        self.memory = memory = (
            ClusterKVMemory(memspec, capacities)
            if any(cap is not None for cap in capacities)
            else None
        )
        self.devices, self.router = build_router(
            cluster,
            config.overlap,
            self.draft_share,
            memory_blocks=capacities if memory is not None else None,
        )
        if plan is not None:
            for device, profile in zip(
                self.devices, plan.profiles(len(self.devices)), strict=True
            ):
                device.set_fault_profile(profile)
        self.records = _request_records(arrivals, dataset, id_prefix)
        self.pending = deque(self.records)
        self.queue = AdmissionQueue(config.queue_capacity)
        self.inflight: list[_Active] = []
        # Streamed sessions the audio gate holds until their next chunk:
        # (wake_ms, request index, session).  They hold no in-flight slot.
        self.parked: list[tuple[float, int, _Active]] = []
        # Batches in flight: (end_ms, tiebreak, entries, aborted).  The
        # counter keeps heap ordering total without comparing entries.
        self.executing: list[tuple[float, int, list[_Entry], bool]] = []
        self.order = itertools.count()
        self.wakeup_times = plan.wakeup_times() if plan is not None else ()
        self.now = 0.0
        # Alive devices of the current fault epoch (the span between two
        # wake-up times): recomputed only when ``now`` enters another.
        self.epoch = -1
        self.alive = tuple(device.index for device in self.devices)
        # Chaos counters, keyed by their ScheduleStats field names.
        self.tally = {"retries": 0, "requeues": 0, "shed": 0}
        self.dispatch_log: list[tuple[int, float, float, int, bool]] = []

    def run(self) -> list[RequestRecord]:
        """Admit, dispatch, move ``now`` to the next event and settle what
        finished by then, until every request is terminal."""
        pending, queue, inflight = self.pending, self.queue, self.inflight
        executing, wakeups, settle = self.executing, self.wakeup_times, self.settle
        parked, max_inflight = self.parked, self.config.max_inflight
        now = self.now
        while pending or queue or inflight or parked or executing:
            # Due streams resume in wake order ahead of the queue, but only
            # into free slots; the rest stay parked until one frees.
            while parked and parked[0][0] <= now and len(inflight) < max_inflight:
                inflight.append(heapq.heappop(parked)[2])
            self.admit()
            self.dispatch()
            next_times = []
            if executing:
                next_times.append(executing[0][0])
            if pending:
                next_times.append(pending[0].request.arrival_ms)
            if parked and len(inflight) < max_inflight:
                # A full list frees a slot only at some other event; a free
                # slot and an overdue head loop back at ``now``.
                next_times.append(parked[0][0])
            backoffs = [
                active.ready_ms
                for active in inflight
                if not active.running and active.ready_ms > now
            ]
            if backoffs:
                next_times.append(min(backoffs))
            upcoming = bisect_right(wakeups, now)  # first wake-up after now
            if upcoming < len(wakeups) and (inflight or parked or queue or pending):
                next_times.append(wakeups[upcoming])
            if not next_times:
                # Nothing will ever happen again.  Any remaining work is
                # unservable (every device its phases could use is dead with
                # no restart pending): shed it so the run terminates and
                # conservation still holds.  Due parked streams then take
                # the freed slots and get their own chance.
                for active in list(inflight):
                    self.shed_active(active, SHED_CAPACITY)
                while queue:
                    self.shed_record(queue.pop(), SHED_CAPACITY)
                continue
            now = self.now = max(now, min(next_times))
            while executing and executing[0][0] <= now:
                end, _, entries, aborted = heapq.heappop(executing)
                for entry in entries:
                    settle(entry, end, aborted)
        return self.records

    def stats(self) -> ScheduleStats:
        """Aggregate facts about the finished run."""
        devices, memory, plan, queue = self.devices, self.memory, self.plan, self.queue
        # A streamed decode that ran ahead of its audio finishes when the
        # audio ends, which can be after the last event.
        end_ms = max(
            [self.now] + [r.finish_ms for r in self.records if r.finish_ms is not None]
        )
        memory_stats = {}
        if memory is not None:
            memory_stats = {
                "memory_blocks": memory.capacities,
                "peak_memory_blocks": memory.peaks,
                "block_size": memory.spec.block_size,
                "evictions": memory.evictions,
                "evicted_blocks": memory.evicted_blocks,
                "prefix_reuse_hits": memory.reuse_hits,
                "reprefill_ms": memory.reprefill_ms,
                "memory_stalls": memory.stalls,
            }
        return ScheduleStats(
            sim_end_ms=end_ms,
            device_busy_ms=sum(device.busy_ms for device in devices),
            batches=sum(device.batches for device in devices),
            rounds=sum(device.phases for device in devices),
            peak_queue_depth=queue.peak_depth,
            rejected=queue.rejected,
            devices=len(devices),
            per_device_busy_ms=tuple(device.busy_ms for device in devices),
            device_speeds=tuple(device.speed for device in devices),
            device_roles=self.router.device_roles(),
            draft_share=self.draft_share,
            displaced=queue.displaced,
            degraded_ms=(
                plan.degraded_ms(len(devices), end_ms) if plan is not None else 0.0
            ),
            wasted_busy_ms=sum(device.wasted_ms for device in devices),
            fault_events=len(plan.events) if plan is not None else 0,
            **self.tally,
            **memory_stats,
        )

    # -- admission ------------------------------------------------------------
    def admit(self) -> None:
        """Move arrivals up to ``now`` into the queue (or bounce them off
        it), then drain the queue into free in-flight slots in
        class-then-FIFO order, shedding entries already past their
        deadline."""
        now = self.now
        pending, queue, inflight = self.pending, self.queue, self.inflight
        max_inflight = self.config.max_inflight
        while pending and pending[0].request.arrival_ms <= now:
            queue.offer(pending.popleft())
        while queue and len(inflight) < max_inflight:
            record = queue.pop()
            deadline = self.deadline_for(record)
            if deadline is not None and now - record.request.arrival_ms > deadline:
                # The SLO is already blown while still queued: shed now
                # instead of burning device time on a lost cause.
                self.shed_record(record, SHED_DEADLINE)
                continue
            inflight.append(self.open_session(record))

    def open_session(self, record: RequestRecord) -> _Active:
        """Start the decode of a newly admitted request."""
        now = self.now
        record.service_start_ms = now
        utterance = record.request.utterance
        active = _Active(record, begin_decode(self.decoder, utterance), now)
        self.init_streaming(active)
        if self.memory is not None:
            active.prompt = prompt_token_count(utterance)
            active.prompt_key = (
                getattr(utterance, "utterance_id", None) or record.request.request_id
            )
        return active

    def deadline_for(self, record: RequestRecord) -> float | None:
        if record.request.priority == PRIORITY_BATCH:
            return self.config.batch_deadline_ms
        return self.config.admission_deadline_ms

    # -- shedding -------------------------------------------------------------
    def shed_record(self, record: RequestRecord, reason: str) -> None:
        record.status = STATUS_SHED
        record.shed_reason = reason
        self.tally["shed"] += 1

    def shed_active(self, active: _Active, reason: str) -> None:
        # Only an idle session sheds (no phase of it is executing), so all
        # of its KV frees now.
        self.shed_record(active.record, reason)
        self.inflight.remove(active)
        if self.memory is not None:
            self.memory.release_request(active.index)

    # -- dispatch -------------------------------------------------------------
    def dispatch(self) -> None:
        """Route every waiting phase, then launch one micro-batch on each
        free device.

        Waiting phases route in class-then-FIFO order (priority rank, ready
        time, request index) so least-loaded routers see them in a
        deterministic sequence; each free device then takes up to
        ``max_batch`` of the phases routed to it, still in that order.  With
        no device free, the audio gate still parks sessions (that frees
        slots) but nothing is planned or routed: every placement would be
        thrown away.
        """
        now = self.now
        if self.plan is not None:
            epoch = bisect_right(self.wakeup_times, now)
            if epoch != self.epoch:
                self.enter_fault_epoch(epoch)
        alive = self.alive
        free = [
            device
            for device in self.devices
            if device.free_at <= now and device.index in alive
        ]
        waiting = []
        gated = []
        gate_ms = self.stream_gate_ms
        for active in self.inflight:
            if active.running or active.ready_ms > now:
                continue
            if active.chunk_ms is not None:
                gate = gate_ms(active, now)
                if gate is not None:
                    # Audio hasn't reached the positions the next round
                    # would decode: park the session until the cap-raising
                    # chunk arrives.  Parked, it frees its in-flight slot
                    # and keeps its KV until memory pressure evicts it.
                    active.ready_ms = gate
                    gated.append(active)
                    continue
            waiting.append(active)
        for active in gated:
            self.inflight.remove(active)
            heapq.heappush(self.parked, (active.ready_ms, active.index, active))
        if not free:
            return
        self.router.plan_round(now)
        self.route_and_launch(free, waiting)

    def enter_fault_epoch(self, epoch: int) -> None:
        """Recompute the alive set for the epoch ``now`` lies in.

        Crashes and restarts change it only at the plan's wake-up times
        (every dead window is half-open), so it holds until ``now`` crosses
        the next one.
        """
        now, router, devices = self.now, self.router, self.devices
        self.epoch = epoch
        alive = tuple(device.index for device in devices if not device.is_dead(now))
        if alive != self.alive:
            # Membership changed (crash or warm restart): the pool planner
            # re-plans over the survivors.
            router.on_membership_change(alive)
            self.alive = alive

    def route_and_launch(self, free: list[Device], waiting: list[_Active]) -> None:
        """Route the waiting phases, then launch on each ``free`` device."""
        waiting.sort(key=_WAITING_ORDER)
        route = self.router.route
        waiting_at: dict[int, list[_Active]] = {}
        for active in waiting:
            device = route(active.index, active.phase)
            if device is None:
                continue  # no device of its pool is free; the phase waits
            waiting_at.setdefault(device.index, []).append(active)
        memory, launch, max_batch = self.memory, self.launch, self.config.max_batch
        for device in free:
            routed = waiting_at.get(device.index)
            if not routed:
                continue
            if memory is None:
                launch(device, routed[:max_batch])
                continue
            # Memory gate: the batch is built phase by phase through the
            # block allocator, so its size emerges from free blocks
            # (max_batch stays the upper bound — the parity contract).
            batch: list[_Active] = []
            penalties: list[float] = []
            for active in routed:
                if len(batch) >= max_batch:
                    break
                grant = self.admit_blocks(device.index, active)
                if grant is None:
                    self.maybe_shed_memory(active)
                    continue
                batch.append(active)
                penalties.append(grant)
            if batch:
                launch(device, batch, penalties)

    def launch(
        self,
        device: Device,
        batch: list[_Active],
        penalties: Sequence[float] | None = None,
    ) -> None:
        """Execute ``batch`` on ``device``, folding in the fault plan."""
        now, plan = self.now, self.plan
        merge_verify = self.router.merge_verify
        start = max(now, device.free_at)
        phases = [active.phase for active in batch]
        if penalties is not None:
            # Re-prefill after an eviction inflates *device* time for this
            # execution only; the phase object on the active stays pristine,
            # so transcripts and decode_ms never see it.
            for index, (phase, penalty) in enumerate(
                zip(phases, penalties, strict=True)
            ):
                if penalty:
                    phases[index] = PhaseOutcome(
                        phase=phase.phase,
                        model=phase.model,
                        ms=phase.ms + penalty,
                        new_tokens=phase.new_tokens,
                        round_done=phase.round_done,
                        done=phase.done,
                        kv_peak=phase.kv_peak,
                    )
        crash = None
        if plan is not None and device.faults.crash_ms is not None:
            busy = device.batch_busy_ms(phases, merge_verify=merge_verify)
            crash = device.faults.crash_during(start, start + busy)
        end = device.execute(now, phases, merge_verify=merge_verify, abort_ms=crash)
        entries = []
        for active in batch:
            attempt = active.attempts + 1
            failed = plan is not None and plan.phase_fails(
                active.index, active.phase_index, attempt
            )
            entries.append((active, attempt, failed))
            active.running = True
        aborted = crash is not None
        heapq.heappush(self.executing, (end, next(self.order), entries, aborted))
        self.dispatch_log.append((device.index, start, end, len(batch), aborted))

    # -- completion -----------------------------------------------------------
    def settle(self, entry: _Entry, end_ms: float, aborted: bool) -> None:
        """Commit the phase of a batch that has ended, or schedule its retry."""
        active, attempt, transient = entry
        if not aborted and not transient:
            self.commit(active, end_ms)
            return
        # The phase failed (crash abort or transient phase error).  The
        # stepper never advanced, so the same phase object re-dispatches
        # and the decode resumes from its last committed state.
        if self.memory is not None:
            # The failed phase's KV is gone: the retry pays a re-prefill on
            # admission.
            self.memory.settle(active.index, active.phase.model, 0, committed=False)
        active.record.retries += 1
        self.tally["retries"] += 1
        active.running = False
        active.attempts = attempt
        if self.retry.exhausted(attempt):
            self.shed_active(active, SHED_RETRIES)
            return
        active.record.requeues += 1
        self.tally["requeues"] += 1
        active.ready_ms = end_ms + self.retry.backoff_for(attempt)

    def commit(self, active: _Active, end_ms: float) -> None:
        """Apply a successfully executed phase and advance its session."""
        outcome = active.phase
        record = active.record
        active.running = False
        active.ready_ms = end_ms
        active.attempts = 0
        active.phase_index += 1
        memory = self.memory
        if memory is not None:
            active.committed += len(outcome.new_tokens)
            active.prefilled.add(outcome.model)
            memory.settle(
                record.request.index,
                outcome.model,
                active.prompt + active.committed,
                committed=True,
            )
        active.new_round = outcome.round_done
        if outcome.round_done:
            record.rounds += 1
        if active.chunk_ms is not None and outcome.new_tokens:
            # A committed token becomes *final* (client-visible) only once
            # its supporting audio has arrived: emission time is
            # max(commit, audio ready).  Tokens the round decoded ahead of
            # the stream are future-dated, never revised.
            emissions = record.emission_ms
            audio_ready_ms = self.audio_ready_ms
            for offset in range(len(outcome.new_tokens)):
                position = active.emitted + offset + 1
                emissions.append(max(end_ms, audio_ready_ms(active, position)))
            active.emitted += len(outcome.new_tokens)
        if outcome.new_tokens and record.first_token_ms is None:
            record.first_token_ms = (
                record.emission_ms[0] if active.chunk_ms is not None else end_ms
            )
        if not outcome.done:
            active.phase = active.stepper.step_phase()
            return
        result = active.stepper.result
        record.status = STATUS_COMPLETED
        record.finish_ms = end_ms
        record.tokens = list(result.tokens)
        record.decode_ms = result.total_ms
        if record.first_token_ms is None:
            record.first_token_ms = end_ms  # empty transcript
        if active.chunk_ms is not None:
            self.finalize_streaming(active, end_ms)
        self.inflight.remove(active)
        if memory is not None:
            memory.release_request(record.request.index)

    # -- KV memory ------------------------------------------------------------
    def resident_tokens(self, active: _Active, model: str) -> int:
        # A model's KV is resident only once its first phase committed (the
        # prefill); from then on it holds prompt + committed tokens.
        if model in active.prefilled:
            return active.prompt + active.committed
        return 0

    def admit_blocks(self, device_index: int, active: _Active) -> float | None:
        """Reserve KV blocks for the next phase; None = does not fit."""
        phase = active.phase
        return self.memory.admit(
            device_index,
            active.index,
            phase.model,
            active.prompt_key,
            phase.kv_peak,
            self.resident_tokens(active, phase.model),
        )

    def maybe_shed_memory(self, active: _Active) -> None:
        # Deferred-for-blocks is normal; shed only when the phase's demand
        # exceeds every pool device's *total* capacity — no amount of
        # eviction will ever make it fit.
        memory = self.memory
        demand = memory.phase_demand(
            active.phase.kv_peak, self.resident_tokens(active, active.phase.model)
        )
        pool = self.router.pool_devices(active.phase)
        if pool and not memory.fits_anywhere(demand, (device.index for device in pool)):
            self.shed_active(active, SHED_MEMORY)

    # -- streaming ------------------------------------------------------------
    def init_streaming(self, active: _Active) -> None:
        """Expand a streamed request into its audio-chunk timeline."""
        request = active.record.request
        if request.rtf <= 0:
            return
        utterance = request.utterance
        stream = self.stream
        events = chunk_schedule(request, utterance.duration_s, stream.chunk_s)
        active.chunk_ms = [at_ms for at_ms, _heard_s in events]
        active.chunk_caps = [
            positions_available(utterance, heard_s, stream.lookahead_s)
            for _at_ms, heard_s in events
        ]
        active.audio_end_ms = events[-1][0]
        active.record.audio_end_ms = active.audio_end_ms
        active.record.stream_chunks = len(events)

    @staticmethod
    def stream_gate_ms(active: _Active, now_ms: float) -> float | None:
        """When the audio cap next allows a new round; None = ungated.

        A round only holds at its *boundary* (``new_round``): once the draft
        phase of a round has run, its verify phase follows ungated, so the
        decode content — and with it transcripts and ``decode_ms`` — is
        bit-identical to the offline run.  The gate releases entirely once
        all audio has arrived (nothing left to wait for, including the final
        EOS round).  Otherwise a session that has emitted as many positions
        as the chunks heard by ``now_ms`` support waits for the first later
        chunk that raises the cap.
        """
        if not active.new_round or now_ms >= active.audio_end_ms:
            return None
        times, caps = active.chunk_ms, active.chunk_caps  # streamed sessions only
        heard = bisect_right(times, now_ms)  # chunks arrived by now_ms
        if heard and active.emitted < caps[heard - 1]:
            return None
        raising = bisect_right(caps, active.emitted, heard)
        return times[raising] if raising < len(times) else active.audio_end_ms

    @staticmethod
    def audio_ready_ms(active: _Active, position: int) -> float:
        """Arrival of the first chunk supporting ``position`` tokens."""
        index = bisect_left(active.chunk_caps, position)
        if index < len(active.chunk_caps):
            return active.chunk_ms[index]
        return active.audio_end_ms  # lookahead tail: final only at end

    def finalize_streaming(self, active: _Active, end_ms: float) -> None:
        """Clamp the emission timeline to the EOS-stripped transcript."""
        record = active.record
        n = len(record.tokens)
        # The commit stream includes the trailing EOS; the transcript
        # doesn't, so the final commit may have over-appended by one.
        del record.emission_ms[n:]
        if record.emission_ms:
            record.finish_ms = max(end_ms, record.emission_ms[-1])
            record.first_token_ms = record.emission_ms[0]
        else:
            record.finish_ms = end_ms
            record.first_token_ms = end_ms  # empty transcript
        # Emissions are append-only for the lossless decoder: no token, once
        # emitted, is ever revised.  Assert the structural half of the
        # partial-stability contract here (the transcript half — streamed ==
        # offline — is enforced by the parity suite).
        assert record.revised_tokens == 0
        assert all(
            earlier <= later
            for earlier, later in zip(
                record.emission_ms, record.emission_ms[1:], strict=False
            )
        )
        # Per-chunk emission latency: for every chunk that raised the
        # position cap, when its last due token became final, relative to
        # the chunk's own arrival; the lookahead tail is charged against
        # end-of-audio.
        prev = 0
        for at_ms, cap in zip(active.chunk_ms, active.chunk_caps, strict=True):
            cap = min(cap, n)
            if cap > prev:
                record.chunk_latencies_ms.append(record.emission_ms[cap - 1] - at_ms)
                prev = cap
        if n > prev:
            record.chunk_latencies_ms.append(
                record.emission_ms[-1] - active.audio_end_ms
            )
