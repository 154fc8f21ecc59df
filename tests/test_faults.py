"""Chaos suite: fault plans, failure-aware scheduling, graceful degradation.

The contracts under test, in rough order of appearance:

* **Grammar** — ``parse_fault_spec`` and ``format_fault_plan`` round-trip,
  and malformed specs fail with actionable messages.
* **Fault math** — per-device profiles answer "is it dead?" consistently
  (a device is alive or dead; its speed never changes during a run), and
  :class:`~repro.serving.devices.Device` bills aborted batches as wasted
  work.
* **Recovery** — a crash + warm restart mid-run requeues the aborted
  phases and every surviving request's transcript stays bit-identical to
  the fault-free run (the stepper only advances on commit).  No batch
  starts on a dead device, and the router's pools always hold exactly the
  alive devices.
* **Degradation** — retry exhaustion, permanent capacity loss, admission
  deadlines and queue displacement all shed *explicitly*, keeping the
  conservation invariant ``completed + rejected + shed == arrived``.  An
  admitted session keeps its slot, so a waiting interactive request waits
  for a free one; class order alone lifts interactive goodput well above
  FIFO's in overload.  A permanently slow part is a device spec
  (``3x1,1x0.05``), and it still runs each phase once.
* **Determinism** — the same seed + plan reproduces identical reports
  across reruns (requeue determinism).
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decoding.base import PHASE_DRAFT, PhaseOutcome
from repro.harness.methods import build_method
from repro.harness.runner import load_split
from repro.serving import (
    ChaosSpec,
    ClusterConfig,
    ClusterSpec,
    ContinuousBatchScheduler,
    Device,
    DeviceCrash,
    DeviceFaultProfile,
    FaultPlan,
    MemorySpec,
    PhaseErrorRate,
    RetryPolicy,
    SchedulerConfig,
    ScheduleStats,
    ServeSimConfig,
    StreamSpec,
    build_decoder,
    format_fault_plan,
    parse_device_specs,
    parse_fault_spec,
    simulate,
)
from repro.serving.arrivals import Arrival, make_trace
from repro.serving.faults import HEALTHY_PROFILE
from repro.serving.queue import AdmissionQueue
from repro.serving.request import (
    PRIORITY_BATCH,
    PRIORITY_INTERACTIVE,
    SHED_CAPACITY,
    SHED_DEADLINE,
    SHED_RETRIES,
    STATUS_COMPLETED,
    STATUS_REJECTED,
    STATUS_SHED,
    RequestRecord,
    ServeRequest,
)
from repro.serving.router import DisaggregatedRouter
from repro.serving.scheduler import _ServeLoop
from repro.utils.hashing import stable_uniform

TERMINAL = (STATUS_COMPLETED, STATUS_REJECTED, STATUS_SHED)


class TestFaultSpecGrammar:
    def test_round_trip_every_kind(self):
        spec = "crash@2000:dev3:restart=1500;crash@100:dev1;perr:0.02"
        plan = parse_fault_spec(spec, seed=7)
        assert format_fault_plan(plan) == spec
        assert parse_fault_spec(format_fault_plan(plan), seed=7) == plan

    def test_empty_spec_is_fault_free(self):
        plan = parse_fault_spec("  ;  ; ")
        assert not plan
        assert plan.events == ()
        assert plan.phase_error_rate == 0.0
        assert plan.wakeup_times() == ()

    def test_bare_device_index_accepted(self):
        plan = parse_fault_spec("crash@100:2")
        assert plan.events == (DeviceCrash(device=2, at_ms=100.0),)

    def test_permanent_crash_has_no_restart(self):
        (crash,) = parse_fault_spec("crash@50:dev0").events
        assert crash.restart_ms is None
        (warm,) = parse_fault_spec("crash@50:dev0:restart=25").events
        assert warm.restart_ms == 75.0

    @pytest.mark.parametrize(
        "bad, fragment",
        [
            ("crash@100", "crash@TIME:devI"),
            ("crash:dev0", "crash@TIME:devI"),
            ("crash@100:dev0:reboot=5", "restart=MS"),
            ("crash@oops:dev0", "crash time"),
            ("perr", "perr:RATE"),
            ("perr@100:0.5", "perr:RATE"),
            ("fries:dev0", "unknown fault kind"),
            # Stall and slowdown windows are not fault kinds: a device is
            # alive or dead, and a slow part is a device spec.
            ("stall@100+50:dev0", "unknown fault kind"),
            ("slow:dev0:x0.5", "unknown fault kind"),
            ("crash@100:devX", "device reference"),
            ("crash@100:dev-1", "device index must be >= 0"),
        ],
    )
    def test_malformed_specs_fail_with_context(self, bad, fragment):
        with pytest.raises(ValueError) as err:
            parse_fault_spec(bad)
        assert fragment in str(err.value)

    def test_event_validation(self):
        with pytest.raises(ValueError, match="crash time"):
            DeviceCrash(device=0, at_ms=-1.0)
        with pytest.raises(ValueError, match="restart delay"):
            DeviceCrash(device=0, at_ms=1.0, restart_delay_ms=0.0)
        with pytest.raises(ValueError, match="rate"):
            PhaseErrorRate(rate=1.0)

    def test_one_crash_per_device(self):
        with pytest.raises(ValueError, match="more than one crash"):
            parse_fault_spec("crash@100:dev0;crash@200:dev0")

    def test_validate_for_cluster_size(self):
        plan = parse_fault_spec("crash@100:dev3")
        plan.validate_for(4)
        with pytest.raises(ValueError, match="dev0..dev1"):
            plan.validate_for(2)


class TestFaultPlanViews:
    def test_profiles_slice_per_device(self):
        plan = parse_fault_spec("crash@100:dev1:restart=50;crash@20:dev2;perr:0.1")
        healthy, crashed, lost = plan.profiles(3)
        assert healthy == HEALTHY_PROFILE
        assert crashed.crash_ms == 100.0 and crashed.restart_ms == 150.0
        assert lost.crash_ms == 20.0 and lost.restart_ms is None

    def test_wakeup_times(self):
        plan = parse_fault_spec(
            "crash@100:dev0:restart=50;crash@10:dev1;crash@50:dev2:restart=100"
        )
        # crash and restart times, deduplicated (dev0 and dev2 both resume
        # at 150); a permanent crash contributes only its start
        assert plan.wakeup_times() == (10.0, 50.0, 100.0, 150.0)
        assert parse_fault_spec("perr:0.5").wakeup_times() == ()

    def test_phase_error_rates_combine_independently(self):
        plan = parse_fault_spec("perr:0.5;perr:0.5")
        assert plan.phase_error_rate == pytest.approx(0.75)

    def test_phase_fails_is_deterministic_per_attempt(self):
        plan = parse_fault_spec("perr:0.4", seed=11)
        verdicts = [plan.phase_fails(3, 5, attempt) for attempt in range(1, 30)]
        assert verdicts == [
            plan.phase_fails(3, 5, attempt) for attempt in range(1, 30)
        ]
        assert any(verdicts) and not all(verdicts)
        # a different seed reshuffles the verdicts
        other = parse_fault_spec("perr:0.4", seed=12)
        assert verdicts != [
            other.phase_fails(3, 5, attempt) for attempt in range(1, 30)
        ]

    @given(
        seed=st.integers(min_value=0, max_value=2**40),
        rates=st.lists(
            st.floats(min_value=0.0, max_value=0.9), min_size=0, max_size=2
        ),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_phase_fails_matches_stable_uniform_draw(self, seed, rates):
        """The verdict is the documented draw: a uniform over (seed, tag,
        request, phase, attempt) below the combined rate."""
        plan = FaultPlan(tuple(PhaseErrorRate(rate) for rate in rates), seed=seed)
        survive = 1.0
        for rate in rates:
            survive *= 1.0 - rate
        assert plan.phase_error_rate == 1.0 - survive
        for request in (0, 1, 7, 255, 10_007):
            for phase in (0, 1, 2, 40):
                for attempt in (1, 2, 3):
                    draw = stable_uniform(
                        seed, "fault-phase-error", request, phase, attempt
                    )
                    expected = draw < plan.phase_error_rate
                    assert plan.phase_fails(request, phase, attempt) == expected

    def test_degraded_ms_merges_overlapping_windows(self):
        plan = parse_fault_spec(
            "crash@100:dev0:restart=200;crash@200:dev1:restart=300;"
            "crash@1000:dev2:restart=500"
        )
        # [100,500) merged from the first two dead windows, [1000,1500)
        # from the third
        assert plan.degraded_ms(3, 2000.0) == pytest.approx(900.0)
        # the horizon clips the last dead window
        assert plan.degraded_ms(3, 1200.0) == pytest.approx(600.0)
        assert plan.degraded_ms(3, 0.0) == 0.0
        assert FaultPlan().degraded_ms(2, 1000.0) == 0.0
        # a permanent crash degrades until the horizon
        forever = parse_fault_spec("crash@500:dev0")
        assert forever.degraded_ms(1, 2000.0) == pytest.approx(1500.0)


class TestDeviceFaultProfile:
    def test_dead_window_and_warm_restart(self):
        profile = DeviceFaultProfile(crash_ms=100.0, restart_ms=150.0)
        assert not profile.is_dead(99.0)
        assert profile.is_dead(100.0) and profile.is_dead(149.0)
        assert not profile.is_dead(150.0)  # back at the restart instant
        permanent = DeviceFaultProfile(crash_ms=100.0)
        assert permanent.is_dead(1e9)

    def test_crash_during_is_strictly_interior(self):
        profile = DeviceFaultProfile(crash_ms=100.0)
        assert profile.crash_during(50.0, 150.0) == 100.0
        assert profile.crash_during(100.0, 150.0) is None  # starts at crash
        assert profile.crash_during(50.0, 100.0) is None  # ends at crash
        assert HEALTHY_PROFILE.crash_during(0.0, 1e9) is None


def _phase(ms: float, model: str = "draft-model") -> PhaseOutcome:
    return PhaseOutcome(PHASE_DRAFT, model, ms, (), True, False)


class TestDeviceFaultMath:
    def test_execute_abort_bills_wasted_work(self):
        device = Device(0, overlap=1.0)
        end = device.execute(0.0, [_phase(100.0)], abort_ms=60.0)
        assert end == 60.0
        assert device.free_at == 60.0
        assert device.wasted_ms == pytest.approx(60.0)
        assert device.aborted_batches == 1
        # an abort beyond the batch's natural end is a no-op
        end = device.execute(60.0, [_phase(40.0)], abort_ms=500.0)
        assert end == pytest.approx(100.0)
        assert device.aborted_batches == 1

    def test_execute_abort_before_start_raises(self):
        device = Device(0, overlap=1.0)
        with pytest.raises(ValueError, match="precedes batch start"):
            device.execute(50.0, [_phase(10.0)], abort_ms=20.0)


class TestRetryPolicy:
    def test_backoff_doubles_per_attempt(self):
        policy = RetryPolicy(max_retries=3, backoff_ms=25.0)
        assert [policy.backoff_for(a) for a in (1, 2, 3)] == [25.0, 50.0, 100.0]
        assert not policy.exhausted(3)
        assert policy.exhausted(4)

    def test_zero_retries_sheds_on_first_failure(self):
        policy = RetryPolicy(max_retries=0)
        assert policy.exhausted(1)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=float("nan"))
        with pytest.raises(ValueError, match="backoff_ms"):
            RetryPolicy(backoff_ms=-1.0)


class TestSchedulerConfigChaosKnobs:
    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"max_retries": -1}, "max_retries"),
            ({"retry_backoff_ms": -1.0}, "retry_backoff_ms"),
            ({"batch_deadline_ms": 0.0}, "batch_deadline_ms"),
            ({"admission_deadline_ms": 0.0}, "admission_deadline_ms"),
            ({"batch_deadline_ms": -5.0}, "batch_deadline_ms"),
            ({"retry_backoff_ms": float("nan")}, "retry_backoff_ms"),
            ({"retry_backoff_ms": float("inf")}, "retry_backoff_ms"),
            ({"max_retries": float("nan")}, "max_retries"),
            ({"admission_deadline_ms": float("nan")}, "admission_deadline_ms"),
            ({"batch_deadline_ms": float("nan")}, "batch_deadline_ms"),
        ],
    )
    def test_rejects_bad_chaos_knobs(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            SchedulerConfig(**kwargs)

    def test_scheduler_rejects_plan_naming_missing_device(self):
        plan = parse_fault_spec("crash@100:dev5")
        with pytest.raises(ValueError, match="dev0..dev1"):
            ContinuousBatchScheduler(
                decoder=None, cluster=ClusterConfig(devices=2), faults=plan
            )

    def test_empty_plan_is_dropped(self):
        scheduler = ContinuousBatchScheduler(decoder=None, faults=FaultPlan())
        assert scheduler.faults is None


class TestScheduleStatsZeroGuards:
    def test_empty_run_yields_zero_not_nan(self):
        stats = ScheduleStats(
            sim_end_ms=0.0,
            device_busy_ms=0.0,
            batches=0,
            rounds=0,
            peak_queue_depth=0,
            rejected=0,
        )
        assert stats.device_utilisation == 0.0
        assert stats.mean_batch_occupancy == 0.0


class TestQueuePriorities:
    def _record(self, index: int, utterance, priority: str) -> RequestRecord:
        request = ServeRequest(f"r-{index}", index, utterance, 0.0, priority)
        return RequestRecord(request=request)

    def test_interactive_lane_pops_first(self, utterance):
        queue = AdmissionQueue(4)
        batch = self._record(0, utterance, PRIORITY_BATCH)
        inter = self._record(1, utterance, PRIORITY_INTERACTIVE)
        queue.offer(batch)
        queue.offer(inter)
        assert queue.pop() is inter
        assert queue.pop() is batch
        assert not queue

    def test_full_queue_displaces_newest_batch_entry(self, utterance):
        queue = AdmissionQueue(2)
        old_batch = self._record(0, utterance, PRIORITY_BATCH)
        new_batch = self._record(1, utterance, PRIORITY_BATCH)
        inter = self._record(2, utterance, PRIORITY_INTERACTIVE)
        queue.offer(old_batch)
        queue.offer(new_batch)
        assert queue.offer(inter)
        assert new_batch.status == STATUS_REJECTED  # newest batch yields
        assert old_batch.status != STATUS_REJECTED
        assert queue.displaced == 1 and queue.rejected == 1
        assert len(queue) == 2

    def test_full_queue_rejects_batch_arrival(self, utterance):
        queue = AdmissionQueue(1)
        queue.offer(self._record(0, utterance, PRIORITY_INTERACTIVE))
        late = self._record(1, utterance, PRIORITY_BATCH)
        assert not queue.offer(late)
        assert late.status == STATUS_REJECTED
        assert queue.displaced == 0


@pytest.fixture(scope="module")
def chaos_decoder(whisper_pair):
    draft, target = whisper_pair
    return build_method("spec(8,1)", draft, target)


def _trace(specs) -> list[Arrival]:
    """Arrivals from (utterance_index, arrival_ms[, priority]) tuples."""
    return [
        Arrival(index, spec[0], spec[1], *spec[2:])
        for index, spec in enumerate(specs)
    ]


def _run(decoder, dataset, trace, config=None, cluster=None, faults=None):
    scheduler = ContinuousBatchScheduler(decoder, config, cluster, faults=faults)
    records = scheduler.run(trace, dataset)
    return records, scheduler


def _run_twice(scheduler, trace, dataset):
    """Run one scheduler instance twice on ``trace``; both runs must give the
    same records, ``last_stats`` and ``last_dispatch_log``."""
    runs = []
    for _ in range(2):
        records = scheduler.run(trace, dataset)
        outcomes = [
            (r.status, r.tokens, r.finish_ms, r.retries, r.requeues, r.emission_ms)
            for r in records
        ]
        runs.append(
            (outcomes, scheduler.last_stats, list(scheduler.last_dispatch_log))
        )
    assert runs[0] == runs[1]
    return runs[0]


def _assert_conservation(records, stats):
    assert all(r.status in TERMINAL for r in records)
    completed = sum(1 for r in records if r.status == STATUS_COMPLETED)
    rejected = sum(1 for r in records if r.status == STATUS_REJECTED)
    shed = sum(1 for r in records if r.status == STATUS_SHED)
    assert completed + rejected + shed == len(records)
    assert stats.shed == shed


class TestCrashRecovery:
    CLUSTER = ClusterConfig(devices=4, router="disaggregated")
    TRACE = [(i % 6, 100.0 * i) for i in range(12)]

    def test_warm_restart_preserves_transcripts(self, chaos_decoder, clean_dataset):
        trace = _trace(self.TRACE)
        baseline, _ = _run(
            chaos_decoder, clean_dataset, trace, cluster=self.CLUSTER
        )
        plan = parse_fault_spec("crash@800:dev3:restart=1200;perr:0.05", seed=3)
        records, scheduler = _run(
            chaos_decoder, clean_dataset, trace, cluster=self.CLUSTER, faults=plan
        )
        stats = scheduler.last_stats
        _assert_conservation(records, stats)
        # the chaos actually bit: failures happened and were recovered
        assert stats.retries > 0 and stats.requeues > 0
        assert stats.fault_events == 2
        # the dead window [800, 2000) degrades the run, clipped at its end
        assert 0.0 < stats.degraded_ms <= 1200.0
        # every request survived, and survivors are bit-identical to the
        # fault-free run — recovery resumes, it does not re-decode
        for record, reference in zip(records, baseline, strict=True):
            assert record.status == STATUS_COMPLETED
            assert record.tokens == reference.tokens
            assert record.decode_ms == reference.decode_ms
            assert record.retries == record.requeues  # none exhausted

    def test_no_dispatch_starts_on_unavailable_device(
        self, chaos_decoder, clean_dataset
    ):
        trace = _trace(self.TRACE)
        plan = parse_fault_spec(
            "crash@800:dev3:restart=1200;crash@300:dev1:restart=400", seed=3
        )
        _, scheduler = _run(
            chaos_decoder, clean_dataset, trace, cluster=self.CLUSTER, faults=plan
        )
        profiles = plan.profiles(4)
        assert scheduler.last_dispatch_log, "expected dispatches"
        for device_index, start, end, phases, _aborted in scheduler.last_dispatch_log:
            assert not profiles[device_index].is_dead(start)
            assert end >= start and phases >= 1
        # only the crashing devices ever abort a batch
        aborted_on = {
            entry[0] for entry in scheduler.last_dispatch_log if entry[4]
        }
        assert aborted_on <= {1, 3}

    def test_crash_rerun_is_bit_identical(self, chaos_decoder, clean_dataset):
        """One scheduler instance run twice on the same trace replays it
        exactly: every piece of run state is per run, even with faults, a
        binding KV limit and streamed arrivals all in play."""
        # Odd arrivals stream their audio in at real time.
        trace = _trace(
            [
                (utterance, arrival_ms, PRIORITY_INTERACTIVE, float(index % 2))
                for index, (utterance, arrival_ms) in enumerate(self.TRACE)
            ]
        )
        plan = parse_fault_spec("crash@800:dev3:restart=1200;perr:0.05", seed=3)
        scheduler = ContinuousBatchScheduler(
            chaos_decoder,
            cluster=self.CLUSTER,
            faults=plan,
            memory=MemorySpec(device_blocks=8),
            stream=StreamSpec(chunk_s=0.5),
        )
        outcomes, stats, _ = _run_twice(scheduler, trace, clean_dataset)
        # Every axis actually bit: retries, KV pressure and streamed timelines.
        assert stats.retries > 0 and stats.requeues > 0
        assert stats.evictions > 0 and stats.memory_stalls > 0
        assert sum(1 for *_, emissions in outcomes if emissions) == len(trace) // 2

    def test_crash_rerun_is_bit_identical_on_fast_path(
        self, chaos_decoder, clean_dataset
    ):
        """The same replay with faults but no KV limit and nothing streamed:
        the scheduler's ``memory is None`` path."""
        plan = parse_fault_spec("crash@800:dev3:restart=1200;perr:0.05", seed=3)
        scheduler = ContinuousBatchScheduler(
            chaos_decoder, cluster=self.CLUSTER, faults=plan
        )
        outcomes, stats, _ = _run_twice(scheduler, _trace(self.TRACE), clean_dataset)
        assert stats.retries > 0 and stats.requeues > 0
        assert stats.block_size == 0  # no KV accounting
        assert not any(emissions for *_, emissions in outcomes)


class TestFaultEpochs:
    """The alive set changes only at plan wake-up times, so the loop
    recomputes it only when ``now`` crosses one; the loop's alive tuple and
    the router's pools must equal fresh per-device queries at that
    instant."""

    SPEC = "crash@350:dev1:restart=300;crash@500:dev3:restart=400;crash@1300:dev0"

    def test_router_sees_fresh_fault_state_at_every_dispatch(
        self, chaos_decoder, clean_dataset, monkeypatch
    ):
        seen: list[float] = []
        planned: list[float] = []
        dispatch = _ServeLoop.dispatch
        plan_round = DisaggregatedRouter.plan_round

        def alive_at(devices, now_ms):
            return tuple(d.index for d in devices if not d.is_dead(now_ms))

        def recorded_dispatch(loop):
            seen.append(loop.now)
            dispatch(loop)
            # free devices are picked from this, planned or not
            assert loop.alive == alive_at(loop.devices, loop.now)

        def checked_plan_round(router, now_ms):
            # the pools span exactly the devices alive now
            members = {d.index for d in (*router.draft_pool, *router.target_pool)}
            assert members == set(alive_at(router.devices, now_ms))
            planned.append(now_ms)
            plan_round(router, now_ms)

        monkeypatch.setattr(_ServeLoop, "dispatch", recorded_dispatch)
        monkeypatch.setattr(DisaggregatedRouter, "plan_round", checked_plan_round)
        plan = parse_fault_spec(self.SPEC, seed=3)
        trace = [Arrival(i, i % len(clean_dataset), 60.0 * i) for i in range(24)]
        records, scheduler = _run(
            chaos_decoder,
            clean_dataset,
            trace,
            cluster=ClusterConfig(devices=4, router="merged"),
            faults=plan,
        )
        _assert_conservation(records, scheduler.last_stats)
        # Routing is planned only when a device is free, so at a subset of
        # the dispatches, and always with fresh state.
        assert planned and set(planned) <= set(seen)
        # The run dispatched exactly at every wake-up time and again inside
        # every epoch, so a stale epoch anywhere would have been caught.
        times = plan.wakeup_times()
        assert set(times) <= set(seen)
        for start, end in zip(times, (*times[1:], math.inf), strict=True):
            assert any(start < now_ms < end for now_ms in seen)


class TestDegradation:
    def test_permanent_capacity_loss_sheds_remaining_work(
        self, chaos_decoder, clean_dataset
    ):
        trace = _trace([(0, 0.0), (1, 10.0), (2, 20.0)])
        plan = parse_fault_spec("crash@0:dev0")
        records, scheduler = _run(chaos_decoder, clean_dataset, trace, faults=plan)
        _assert_conservation(records, scheduler.last_stats)
        assert all(r.status == STATUS_SHED for r in records)
        assert all(r.shed_reason == SHED_CAPACITY for r in records)

    def test_retry_exhaustion_sheds_with_reason(self, chaos_decoder, clean_dataset):
        trace = _trace([(0, 0.0), (1, 50.0), (2, 100.0)])
        plan = parse_fault_spec("perr:0.9", seed=1)
        config = SchedulerConfig(max_retries=0, retry_backoff_ms=0.0)
        records, scheduler = _run(
            chaos_decoder, clean_dataset, trace, config=config, faults=plan
        )
        stats = scheduler.last_stats
        _assert_conservation(records, stats)
        shed = [r for r in records if r.status == STATUS_SHED]
        assert shed, "a 90% phase-error rate with no retries must shed"
        assert all(r.shed_reason == SHED_RETRIES for r in shed)
        assert stats.retries >= len(shed)

    def test_admission_deadline_sheds_stale_queue_entries(
        self, chaos_decoder, clean_dataset
    ):
        trace = _trace([(0, 0.0), (1, 1.0)])
        config = SchedulerConfig(
            max_batch=1,
            max_inflight=1,
            queue_capacity=4,
            admission_deadline_ms=5.0,
        )
        records, scheduler = _run(chaos_decoder, clean_dataset, trace, config=config)
        _assert_conservation(records, scheduler.last_stats)
        assert records[0].status == STATUS_COMPLETED
        assert records[1].status == STATUS_SHED
        assert records[1].shed_reason == SHED_DEADLINE
        assert records[1].service_start_ms is None  # no device time wasted

    def test_interactive_request_waits_for_the_busy_batch_slot(
        self, chaos_decoder, clean_dataset
    ):
        # The batch request holds the only slot until it finishes, so the
        # classes change nothing: the mixed trace runs exactly as the
        # all-interactive one does (batch 0 -> 280.2 ms, then interactive
        # 280.2 -> 573.7 ms on this corpus).
        config = SchedulerConfig(max_batch=1, max_inflight=1, queue_capacity=4)
        baseline, reference = _run(
            chaos_decoder,
            clean_dataset,
            _trace([(0, 0.0), (1, 1.0)]),
            config=config,
        )
        trace = _trace([(0, 0.0, PRIORITY_BATCH), (1, 1.0, PRIORITY_INTERACTIVE)])
        records, scheduler = _run(chaos_decoder, clean_dataset, trace, config=config)
        _assert_conservation(records, scheduler.last_stats)
        batch, interactive = records
        assert batch.status == interactive.status == STATUS_COMPLETED
        assert interactive.service_start_ms == batch.finish_ms

        def timeline(record):
            return (
                record.service_start_ms,
                record.first_token_ms,
                record.finish_ms,
                record.tokens,
            )

        assert [timeline(r) for r in records] == [timeline(r) for r in baseline]
        assert scheduler.last_dispatch_log == reference.last_dispatch_log
        assert scheduler.last_stats == reference.last_stats

    def test_class_order_lifts_interactive_goodput_over_fifo(self):
        # Offline overload on 2 colocated devices: the same arrivals served
        # with their classes and with every arrival interactive (FIFO).
        # Interactive goodput over the interactive-tagged requests at the
        # 3 s deadline measured 0.6546 with classes and 0.2680 under FIFO.
        config = ServeSimConfig(
            method="specasr-asp",
            num_requests=256,
            qps=6.0,
            seed=2025,
            batch_fraction=0.3,
            cluster=ClusterSpec(devices=2, router="colocated"),
            chaos=ChaosSpec(batch_deadline_ms=30000.0),
        )
        dataset = load_split(config.split, config.experiment_config())
        tagged = make_trace(
            config.arrival,
            config.num_requests,
            config.qps,
            len(dataset),
            config.seed,
            config.batch_fraction,
        )
        fifo = [replace(arrival, priority=PRIORITY_INTERACTIVE) for arrival in tagged]
        interactive = {
            arrival.index
            for arrival in tagged
            if arrival.priority == PRIORITY_INTERACTIVE
        }
        assert 0 < len(interactive) < len(tagged)
        decoder = build_decoder(config)

        def interactive_goodput(trace):
            scheduler = ContinuousBatchScheduler(
                decoder, config.scheduler_config(), config.cluster_config()
            )
            records = scheduler.run(trace, dataset)
            met = sum(
                1
                for record in records
                if record.request.index in interactive
                and record.meets_deadline(config.deadline_ms)
            )
            return met / len(interactive)

        assert interactive_goodput(tagged) >= interactive_goodput(fifo) + 0.2

    def test_interactive_displaces_queued_batch_work(
        self, chaos_decoder, clean_dataset
    ):
        trace = _trace(
            [
                (0, 0.0, PRIORITY_INTERACTIVE),
                (1, 1.0, PRIORITY_BATCH),
                (2, 2.0, PRIORITY_INTERACTIVE),
            ]
        )
        config = SchedulerConfig(max_batch=1, max_inflight=1, queue_capacity=1)
        records, scheduler = _run(chaos_decoder, clean_dataset, trace, config=config)
        stats = scheduler.last_stats
        _assert_conservation(records, stats)
        assert records[1].status == STATUS_REJECTED  # bumped out of the queue
        assert records[0].status == records[2].status == STATUS_COMPLETED
        assert stats.displaced == 1

    def test_permanent_slowdown_runs_each_phase_once(
        self, chaos_decoder, clean_dataset
    ):
        # A 20x-slow dev3 (a device spec, not a fault) leaves healthy
        # devices idle while its phases run far past their pool's median.
        # Each phase still has exactly one dispatched copy: the slowed run
        # executes as many phases as the all-fast one, only later, with the
        # same transcripts.
        trace = _trace([(i % 6, 5.0 * i) for i in range(24)])
        baseline, fast = _run(
            chaos_decoder, clean_dataset, trace, cluster=ClusterConfig(devices=4)
        )
        slowed = ClusterConfig(device_specs=parse_device_specs("3x1,1x0.05"))
        records, scheduler = _run(chaos_decoder, clean_dataset, trace, cluster=slowed)
        stats = scheduler.last_stats
        _assert_conservation(records, stats)
        assert stats.rounds == fast.last_stats.rounds
        assert stats.sim_end_ms > fast.last_stats.sim_end_ms
        for record, reference in zip(records, baseline, strict=True):
            assert record.status == STATUS_COMPLETED
            assert record.tokens == reference.tokens
            assert record.decode_ms == reference.decode_ms


class TestRequeueDeterminism:
    CONFIG = ServeSimConfig(
        qps=8.0,
        num_requests=12,
        utterances=6,
        batch_fraction=0.25,
        cluster=ClusterSpec(devices=4, router="disaggregated"),
        chaos=ChaosSpec(faults="crash@600:dev3:restart=800;perr:0.05", fault_seed=3),
    )

    def test_same_plan_reproduces_identical_reports(self):
        first = simulate(self.CONFIG)
        second = simulate(self.CONFIG)
        assert first.to_dict() == second.to_dict()
        assert first.chaos_active
        chaos = first.chaos_dict()
        assert chaos["fault_events"] == 2
        assert chaos["retries"] >= chaos["requeues"] >= 0

    def test_tape_replay_matches_fresh_decoder(self):
        """A chaos run served from a shared decoder's decode tapes equals
        one served by a fresh decoder, at every load."""
        shared = build_decoder(self.CONFIG)
        for qps in (4.0, 8.0):
            config = self.CONFIG.with_qps(qps)
            replayed = simulate(config, decoder=shared)
            assert replayed.to_dict() == simulate(config).to_dict()

    def test_fault_seed_changes_transient_errors(self):
        base = simulate(self.CONFIG)
        chaos = replace(self.CONFIG.chaos, fault_seed=99)
        reseeded = simulate(replace(self.CONFIG, chaos=chaos))
        # same offered work, different transient-error draws
        assert base.num_requests == reseeded.num_requests
        assert (
            base.stats.retries != reseeded.stats.retries
            or base.to_dict() != reseeded.to_dict()
        )


class TestChaosReport:
    def test_report_surfaces_chaos_and_classes(self):
        config = ServeSimConfig(
            qps=8.0,
            num_requests=12,
            utterances=6,
            batch_fraction=0.5,
            cluster=ClusterSpec(devices=4, router="disaggregated"),
            chaos=ChaosSpec(
                faults="crash@600:dev3:restart=800", batch_deadline_ms=9000.0
            ),
        )
        report = simulate(config)
        payload = report.to_dict()
        assert payload["batch_deadline_ms"] == 9000.0
        assert set(payload["per_class"]) == {
            PRIORITY_INTERACTIVE,
            PRIORITY_BATCH,
        }
        for row in payload["per_class"].values():
            assert (
                row["completed"] + row["rejected"] + row["shed"]
                <= row["arrived"]
            )
        assert payload["chaos"]["fault_events"] == 1
        rendered = report.render()
        assert "chaos" in rendered and "degraded" in rendered
        assert "class" in rendered

    def test_fault_free_report_omits_chaos_block(self):
        config = ServeSimConfig(qps=2.0, num_requests=6, utterances=6)
        report = simulate(config)
        assert not report.chaos_active
        payload = report.to_dict()
        assert "chaos" not in payload
        assert "per_class" not in payload
        assert payload["shed"] == 0


class TestMakeTracePriorities:
    def test_zero_fraction_matches_legacy_trace(self):
        legacy = make_trace("poisson", 16, 4.0, 8, seed=5)
        tagged = make_trace("poisson", 16, 4.0, 8, seed=5, batch_fraction=0.0)
        assert legacy == tagged
        assert all(a.priority == PRIORITY_INTERACTIVE for a in legacy)

    def test_fraction_tags_batch_arrivals_deterministically(self):
        a = make_trace("poisson", 40, 4.0, 8, seed=5, batch_fraction=0.5)
        b = make_trace("poisson", 40, 4.0, 8, seed=5, batch_fraction=0.5)
        assert a == b
        classes = {arrival.priority for arrival in a}
        assert classes == {PRIORITY_INTERACTIVE, PRIORITY_BATCH}
        # arrival times are untouched by the class tagging
        untagged = make_trace("poisson", 40, 4.0, 8, seed=5)
        assert [x.arrival_ms for x in a] == [x.arrival_ms for x in untagged]
