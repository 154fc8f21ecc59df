"""Property-based serving invariants (hypothesis).

Three invariant families the serving stack must hold for *any* workload
and cluster shape, not just the hand-picked fixtures of the unit suites:

* **Request conservation** — every request a trace admits is accounted
  for when the scheduler drains: completed + rejected == offered, with no
  request left in flight and no status invented.  A rejected request was
  never served: no service start, no rounds.
* **Device timeline monotonicity** — a device's ``free_at`` never
  decreases, its busy intervals never overlap, and its ``busy_ms`` is
  exactly the sum of its interval lengths.
* **Batch cost bounds** — for any micro-batch,
  ``max(costs) <= busy * speed <= sum(costs) * inflation`` where
  ``inflation`` is the residency-interference multiplier, and busy time
  is monotonically non-increasing in ``overlap``.

* **Chaos invariants** — for *any* seeded fault plan (crashes with or
  without warm restart, transient phase errors) on a cluster of unequal
  device speeds, any priority mix and queue capacity, with or without a
  KV block limit and with offline or streamed arrivals: conservation
  extends to ``completed + rejected + shed == arrived``, a rejected or
  displaced request was never served, no micro-batch ever starts on a
  dead device, per-device dispatch timelines stay monotone across
  failure gaps, and every request that completes does so with a
  transcript bit-identical to the fault-free decode.

All examples are bounded and deadline-free (``deadline=None``,
``derandomize=True``) so the suite is CI-stable by construction.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decoding.base import PHASE_DRAFT, PHASE_VERIFY, PhaseOutcome, begin_decode
from repro.harness.methods import build_method
from repro.serving import (
    ClusterSpec,
    ContinuousBatchScheduler,
    Device,
    DeviceCrash,
    DeviceSpec,
    FaultPlan,
    PhaseErrorRate,
    SchedulerConfig,
)
from repro.serving.arrivals import Arrival
from repro.serving.memory import MemorySpec
from repro.serving.request import (
    PRIORITY_CLASSES,
    STATUS_COMPLETED,
    STATUS_REJECTED,
    STATUS_SHED,
)

STABLE = settings(max_examples=30, deadline=None, derandomize=True)
STABLE_SMALL = settings(max_examples=15, deadline=None, derandomize=True)

overlaps = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
speeds = st.floats(min_value=0.1, max_value=8.0, allow_nan=False)
switch_costs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
models = st.sampled_from(("draft-model", "target-model"))
kinds = st.sampled_from((PHASE_DRAFT, PHASE_VERIFY))


def _phase(model: str, kind: str, ms: float) -> PhaseOutcome:
    return PhaseOutcome(kind, model, ms, (), True, False)


batches = st.lists(
    st.tuples(
        models,
        kinds,
        st.floats(min_value=0.1, max_value=500.0, allow_nan=False),
    ),
    min_size=1,
    max_size=8,
).map(lambda items: [_phase(m, k, ms) for m, k, ms in items])


class TestBatchCostBounds:
    @given(batch=batches, overlap=overlaps, speed=speeds, switch=switch_costs)
    @STABLE
    def test_busy_bounded_by_critical_path_and_serial_sum(
        self, batch, overlap, speed, switch
    ):
        device = Device(0, overlap=overlap, switch_cost=switch, speed=speed)
        busy = device.batch_busy_ms(batch)
        phase_costs = [p.ms for p in batch]
        n_models = len({p.model for p in batch})
        inflation = 1.0 + switch * (n_models - 1)
        # speed scales linearly, so compare in nominal (speed-1) time
        nominal = busy * speed
        assert nominal >= max(phase_costs) * (1.0 - 1e-9)
        assert nominal <= sum(phase_costs) * inflation * (1.0 + 1e-9)

    @given(
        batch=batches,
        lo=overlaps,
        hi=overlaps,
        speed=speeds,
        merge=st.booleans(),
    )
    @STABLE
    def test_busy_monotone_non_increasing_in_overlap(
        self, batch, lo, hi, speed, merge
    ):
        lo, hi = min(lo, hi), max(lo, hi)
        less_batched = Device(0, overlap=lo, speed=speed)
        more_batched = Device(1, overlap=hi, speed=speed)
        assert (
            more_batched.batch_busy_ms(batch, merge_verify=merge)
            <= less_batched.batch_busy_ms(batch, merge_verify=merge) + 1e-9
        )

    @given(batch=batches, overlap=overlaps, speed=speeds)
    @STABLE
    def test_merge_verify_never_costs_more(self, batch, overlap, speed):
        device = Device(0, overlap=overlap, speed=speed)
        assert (
            device.batch_busy_ms(batch, merge_verify=True)
            <= device.batch_busy_ms(batch, merge_verify=False) + 1e-9
        )


class TestDeviceTimeline:
    @given(
        overlap=overlaps,
        speed=speeds,
        submissions=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=5000.0, allow_nan=False),
                batches,
            ),
            min_size=1,
            max_size=10,
        ),
    )
    @STABLE
    def test_free_at_monotone_and_busy_intervals_disjoint(
        self, overlap, speed, submissions
    ):
        device = Device(0, overlap=overlap, speed=speed)
        intervals = []
        previous_free = device.free_at
        for start_ms, batch in submissions:
            begin = max(start_ms, device.free_at)
            end = device.execute(start_ms, batch)
            assert end >= begin
            assert device.free_at == end
            assert device.free_at >= previous_free  # never rewinds
            previous_free = device.free_at
            intervals.append((begin, end))
        # busy intervals never overlap: each starts at or after the
        # previous one ended (submission order is execution order)
        for (_, prev_end), (next_begin, _) in zip(
            intervals, intervals[1:], strict=False
        ):
            assert next_begin >= prev_end - 1e-9
        assert device.busy_ms == pytest.approx(
            sum(end - begin for begin, end in intervals)
        )
        assert device.batches == len(submissions)
        assert device.phases == sum(len(batch) for _, batch in submissions)


@pytest.fixture(scope="module")
def serving_decoder(whisper_pair):
    draft, target = whisper_pair
    return build_method("spec(8,1)", draft, target)


cluster_shapes = st.sampled_from(
    (
        ClusterSpec(devices=1),
        ClusterSpec(devices=2, router="disaggregated"),
        ClusterSpec(devices=3, router="merged"),
        ClusterSpec(devices=4, router="disaggregated"),
    )
)


class TestRequestConservation:
    @given(
        arrival_gaps=st.lists(
            st.floats(min_value=0.0, max_value=800.0, allow_nan=False),
            min_size=1,
            max_size=12,
        ),
        utterance_picks=st.lists(
            st.integers(min_value=0, max_value=1000), min_size=12, max_size=12
        ),
        queue_capacity=st.integers(min_value=1, max_value=4),
        max_batch=st.integers(min_value=1, max_value=3),
        cluster=cluster_shapes,
    )
    @STABLE_SMALL
    def test_admitted_equals_completed_plus_rejected_at_drain(
        self,
        serving_decoder,
        clean_dataset,
        arrival_gaps,
        utterance_picks,
        queue_capacity,
        max_batch,
        cluster,
    ):
        trace = []
        now = 0.0
        for index, gap in enumerate(arrival_gaps):
            now += gap
            utterance = utterance_picks[index] % len(clean_dataset)
            trace.append(Arrival(index, utterance, now))
        scheduler = ContinuousBatchScheduler(
            serving_decoder,
            SchedulerConfig(
                max_batch=max_batch,
                max_inflight=max_batch + 2,
                queue_capacity=queue_capacity,
            ),
            cluster,
        )
        records = scheduler.run(trace, clean_dataset)
        stats = scheduler.last_stats

        # conservation: offered == completed + rejected, nothing in flight
        assert len(records) == len(trace)
        completed = [r for r in records if r.status == STATUS_COMPLETED]
        rejected = [r for r in records if r.status == STATUS_REJECTED]
        assert len(completed) + len(rejected) == len(records)
        assert stats.rejected == len(rejected)

        # per-request timeline sanity for everything that ran: an offline
        # request finishes at the end of its last batch
        last_end = max((entry[2] for entry in scheduler.last_dispatch_log), default=0.0)
        for record in completed:
            assert record.service_start_ms >= record.request.arrival_ms
            assert record.first_token_ms >= record.service_start_ms
            assert record.finish_ms >= record.first_token_ms
            assert record.finish_ms <= last_end
            assert record.finish_ms <= stats.sim_end_ms + 1e-9
        for record in rejected:
            # bounced at admission: never served
            assert record.finish_ms is None and not record.tokens
            assert record.service_start_ms is None and record.rounds == 0

        # cluster accounting is self-consistent
        assert stats.devices == cluster.devices
        assert len(stats.per_device_busy_ms) == cluster.devices
        assert sum(stats.per_device_busy_ms) == pytest.approx(stats.device_busy_ms)
        assert all(busy >= 0.0 for busy in stats.per_device_busy_ms)


CHAOS_DEVICES = 4
event_times = st.floats(min_value=0.0, max_value=2500.0, allow_nan=False)
chaos_device_indices = st.integers(min_value=0, max_value=CHAOS_DEVICES - 1)


@st.composite
def fault_plans(draw):
    """Any composition of crashes and phase errors on a 4-device cluster."""
    events = []
    if draw(st.booleans()):  # at most one crash keeps the plan valid
        events.append(
            DeviceCrash(
                device=draw(chaos_device_indices),
                at_ms=draw(event_times),
                restart_delay_ms=draw(
                    st.one_of(
                        st.none(),
                        st.floats(min_value=50.0, max_value=1500.0),
                    )
                ),
            )
        )
    if draw(st.booleans()):
        events.append(
            PhaseErrorRate(rate=draw(st.floats(min_value=0.0, max_value=0.25)))
        )
    return FaultPlan(events=tuple(events), seed=draw(st.integers(0, 3)))


def _check_chaos_run(
    decoder,
    dataset,
    plan,
    speeds,
    arrival_gaps,
    priorities,
    max_batch,
    kv_blocks,
    rtf,
    queue_capacity,
):
    """Serve one chaos trace on a 4-device disaggregated cluster with the
    drawn device ``speeds`` and assert conservation, dead-device timelines,
    lossless completers, never-served rejections and one dispatched copy
    per phase."""
    trace = []
    now = 0.0
    for index, gap in enumerate(arrival_gaps):
        now += gap
        trace.append(Arrival(index, index % len(dataset), now, priorities[index], rtf))
    scheduler = ContinuousBatchScheduler(
        decoder,
        SchedulerConfig(
            max_batch=max_batch,
            max_inflight=max_batch + 2,
            queue_capacity=queue_capacity,
        ),
        ClusterSpec(
            router="disaggregated",
            device_specs=tuple(DeviceSpec(speed=speed) for speed in speeds),
        ),
        faults=plan,
        memory=MemorySpec(device_blocks=kv_blocks),
    )
    records = scheduler.run(trace, dataset)
    stats = scheduler.last_stats

    # conservation now includes shedding: every arrival is accounted for
    by_status = {
        status: sum(1 for r in records if r.status == status)
        for status in (STATUS_COMPLETED, STATUS_REJECTED, STATUS_SHED)
    }
    assert sum(by_status.values()) == len(records)
    assert stats.shed == by_status[STATUS_SHED]
    for record in records:
        if record.status == STATUS_SHED:
            assert record.shed_reason in (
                "deadline",
                "retries",
                "capacity",
                "memory",
            )
        elif record.status == STATUS_REJECTED:
            # bounced at admission or displaced from the queue: never served
            assert record.service_start_ms is None and record.rounds == 0

    # no micro-batch ever starts on a dead device, and each device's
    # dispatch timeline stays monotone across failure gaps
    profiles = plan.profiles(CHAOS_DEVICES)
    per_device_end = [0.0] * CHAOS_DEVICES
    for device_index, start, end, phases, _aborted in scheduler.last_dispatch_log:
        assert not profiles[device_index].is_dead(start)
        assert phases >= 1
        assert start >= per_device_end[device_index] - 1e-9
        assert end >= start
        per_device_end[device_index] = end

    # completers' transcripts are bit-identical to the fault-free decode;
    # each finishes by the last batch end or, streamed, by its audio end,
    # and so inside the run's span
    last_end = max((entry[2] for entry in scheduler.last_dispatch_log), default=0.0)
    for record in records:
        if record.status != STATUS_COMPLETED:
            continue
        reference = decoder.decode(record.request.utterance)
        assert record.tokens == list(reference.tokens)
        assert record.decode_ms == reference.total_ms
        assert record.finish_ms <= max(last_end, record.audio_end_ms or 0.0) + 1e-9
        assert record.finish_ms <= stats.sim_end_ms

    # each phase has one dispatched copy: with nothing shed, the devices
    # ran every completer's phases once plus one execution per failure
    if stats.shed == 0:
        phases = 0
        for record in records:
            if record.status != STATUS_COMPLETED:
                continue
            stepper = begin_decode(decoder, record.request.utterance)
            while not stepper.done:
                stepper.step_phase()
                phases += 1
        assert stats.rounds == phases + stats.retries

    # wasted work only exists when batches were actually aborted
    aborted = sum(1 for entry in scheduler.last_dispatch_log if entry[4])
    if aborted == 0:
        assert stats.wasted_busy_ms == 0.0
    assert stats.fault_events == len(plan.events)


priority_lists = st.lists(st.sampled_from(PRIORITY_CLASSES), min_size=10, max_size=10)
# Unequal speeds give the least-loaded router real choices under chaos.
chaos_speeds = st.lists(
    st.sampled_from((0.25, 0.5, 1.0, 2.0)),
    min_size=CHAOS_DEVICES,
    max_size=CHAOS_DEVICES,
)
# Small queues make mixed-class runs reject and displace requests.
queue_capacities = st.sampled_from((1, 2, 4, 32))


class TestChaosInvariants:
    @given(
        plan=fault_plans(),
        speeds=chaos_speeds,
        arrival_gaps=st.lists(
            st.floats(min_value=0.0, max_value=400.0, allow_nan=False),
            min_size=2,
            max_size=10,
        ),
        priorities=priority_lists,
        max_batch=st.integers(min_value=1, max_value=3),
        kv_blocks=st.one_of(st.none(), st.sampled_from((8, 12, 16, 24, 32, 48))),
        rtf=st.sampled_from((0.0, 1.0)),
        queue_capacity=queue_capacities,
    )
    @STABLE
    def test_conservation_and_timelines_hold_under_any_plan(
        self,
        serving_decoder,
        clean_dataset,
        plan,
        speeds,
        arrival_gaps,
        priorities,
        max_batch,
        kv_blocks,
        rtf,
        queue_capacity,
    ):
        _check_chaos_run(
            serving_decoder,
            clean_dataset,
            plan,
            speeds,
            arrival_gaps,
            priorities,
            max_batch,
            kv_blocks,
            rtf,
            queue_capacity,
        )

    @given(
        plan=fault_plans(),
        speeds=chaos_speeds,
        arrival_gaps=st.lists(
            st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
            min_size=6,
            max_size=10,
        ),
        priorities=priority_lists,
        max_batch=st.integers(min_value=1, max_value=3),
        kv_blocks=st.integers(min_value=8, max_value=16),
        queue_capacity=queue_capacities,
    )
    @STABLE_SMALL
    def test_streams_under_memory_pressure_hold_the_same_invariants(
        self,
        serving_decoder,
        clean_dataset,
        plan,
        speeds,
        arrival_gaps,
        priorities,
        max_batch,
        kv_blocks,
        queue_capacity,
    ):
        """Streamed arrivals packed tight on 8-16 KV blocks per device, so
        parked streams' KV is evicted and re-prefilled."""
        _check_chaos_run(
            serving_decoder,
            clean_dataset,
            plan,
            speeds,
            arrival_gaps,
            priorities,
            max_batch,
            kv_blocks,
            1.0,
            queue_capacity,
        )
