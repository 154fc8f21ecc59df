"""Cluster-serving suite: phase steppers, devices, routers, determinism.

The contract under test, from the multi-device refactor:

* **Phase split** — every decoder exposes draft/verify phases whose
  costs partition the SimClock exactly; ``drain()`` (phase path) and
  the legacy ``decode()`` are bit-identical.
* **Decode tapes** — ``begin_decode`` replays a recorded decode whose
  phases and result equal a fresh ``begin()``, without opening a session.
* **Cluster determinism** — a fixed arrival trace produces bit-identical
  transcripts and per-request ``decode_ms`` across device counts
  (1, 2, 4) and all router policies, and rerunning any fixed
  configuration reproduces identical latency totals.
* **Placement semantics** — colocated keeps a request on one device,
  disaggregation separates draft-model from target-model work, merged
  verification coalesces co-scheduled verify passes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decoding.base import (
    PHASE_DRAFT,
    PHASE_VERIFY,
    PhaseOutcome,
    begin_decode,
)
from repro.harness.methods import build_method
from repro.harness.runner import load_split
from repro.models.simulated import SimulatedASRModel
from repro.serving import (
    ClusterSpec,
    ContinuousBatchScheduler,
    Device,
    SchedulerConfig,
    ServeSimConfig,
    build_decoder,
    make_devices,
    make_trace,
    measure_draft_share,
    parse_device_specs,
    poisson_trace,
    simulate,
    uniform_trace,
)
from repro.serving.request import STATUS_COMPLETED
from repro.serving.router import DEFAULT_DRAFT_SHARE, MergedVerifyRouter

PHASED_METHODS = (
    "autoregressive",
    "spec(8,1)",
    "spec(8,2)",
    "fixed-tree",
    "dynamic-tree",
    "spec-sampling",
    "specasr-asp",
)

HETERO = parse_device_specs("2x1.0,2x0.5")

CLUSTERS = (
    ClusterSpec(devices=1, router="colocated"),
    ClusterSpec(devices=2, router="colocated"),
    ClusterSpec(devices=2, router="disaggregated"),
    ClusterSpec(devices=2, router="merged"),
    ClusterSpec(devices=3, router="disaggregated"),
    ClusterSpec(devices=4, router="colocated"),
    ClusterSpec(devices=4, router="disaggregated"),
    ClusterSpec(devices=4, router="merged"),
    # heterogeneous clusters: the planner gives the fast parts to verify
    ClusterSpec(devices=4, router="colocated", device_specs=HETERO),
    ClusterSpec(devices=4, router="disaggregated", device_specs=HETERO),
    ClusterSpec(devices=4, router="merged", device_specs=HETERO),
    ClusterSpec(
        devices=3, router="merged", device_specs=parse_device_specs("2.0,2x0.5")
    ),
)


def _cluster_id(config: ClusterSpec) -> str:
    parts = [f"{config.devices}x-{config.router}"]
    if config.device_specs:
        parts.append("hetero")
    return "-".join(parts)


class TestPhaseSplitSteppers:
    @pytest.mark.parametrize("method", PHASED_METHODS)
    def test_phases_partition_decode(self, whisper_pair, clean_dataset, method):
        draft, target = whisper_pair
        utterance = clean_dataset[0]
        decoder = build_method(method, draft, target)
        reference = decoder.decode(utterance)

        stepper = begin_decode(decoder, utterance)
        phases: list[PhaseOutcome] = []
        while not stepper.done:
            phases.append(stepper.step_phase())
        result = stepper.result
        assert result.tokens == reference.tokens
        assert result.total_ms == reference.total_ms
        # phase costs partition the clock total exactly
        assert sum(p.ms for p in phases) == pytest.approx(reference.total_ms)
        assert phases[-1].done and phases[-1].round_done
        assert all(not p.done for p in phases[:-1])

    @pytest.mark.parametrize("method", PHASED_METHODS)
    def test_phase_model_tags(self, whisper_pair, clean_dataset, method):
        draft, target = whisper_pair
        decoder = build_method(method, draft, target)
        stepper = begin_decode(decoder, clean_dataset[1])
        phases = []
        while not stepper.done:
            phases.append(stepper.step_phase())
        for phase in phases:
            if phase.phase == PHASE_DRAFT:
                assert phase.model == draft.name
                assert phase.new_tokens == ()  # tokens commit at verify
            else:
                assert phase.phase == PHASE_VERIFY
                assert phase.model == target.name
        if method == "autoregressive":
            assert all(p.phase == PHASE_VERIFY for p in phases)
        else:
            # one draft phase then one verify phase per round
            kinds = [p.phase for p in phases]
            assert kinds == [PHASE_DRAFT, PHASE_VERIFY] * (len(kinds) // 2)

    def test_step_phase_after_done_raises(self, whisper_pair, clean_dataset):
        draft, target = whisper_pair
        decoder = build_method("specasr-asp", draft, target)
        stepper = begin_decode(decoder, clean_dataset[0])
        stepper.drain()
        with pytest.raises(RuntimeError):
            stepper.step_phase()


class TestDecodeTapes:
    @pytest.mark.parametrize("method", PHASED_METHODS)
    def test_replay_matches_first_decode(
        self, whisper_pair, clean_dataset, method, monkeypatch
    ):
        draft, target = whisper_pair
        utterance = clean_dataset[3]
        decoder = build_method(method, draft, target)
        opened: list[str] = []
        open_session = SimulatedASRModel.session

        def counting_session(model, unit, clock):
            opened.append(model.name)
            return open_session(model, unit, clock)

        monkeypatch.setattr(SimulatedASRModel, "session", counting_session)
        fresh = decoder.begin(utterance)
        expected = []
        while not fresh.done:
            expected.append(fresh.step_phase())
        reference = fresh.result
        sessions_per_decode = len(opened)
        assert sessions_per_decode >= 1
        opened.clear()

        first = begin_decode(decoder, utterance)
        second = begin_decode(decoder, utterance)
        # advance both replays alternately, one phase at a time
        steppers = (first, second)
        replayed: tuple[list[PhaseOutcome], ...] = ([], [])
        for _ in expected:
            for stepper, phases in zip(steppers, replayed, strict=True):
                with pytest.raises(RuntimeError):
                    _ = stepper.result
                phases.append(stepper.step_phase())
        for stepper, phases in zip(steppers, replayed, strict=True):
            assert phases == expected
            assert stepper.done
            result = stepper.result
            assert result.tokens == reference.tokens
            assert result.total_ms == reference.total_ms
            assert result.trace.rounds == reference.trace.rounds
            with pytest.raises(RuntimeError):
                stepper.step_phase()
        # the first call decoded once; the second replays without a session
        assert len(opened) == sessions_per_decode
        assert first.result is second.result  # one shared, read-only result


def _grouped_busy_ms(device: Device, phases, merge_verify: bool) -> float:
    """The grouped-overlap bill written out for any batch, one phase too:
    the reference for ``Device.batch_busy_ms`` and its one-phase price."""
    groups: dict[tuple[str, str], list[float]] = {}
    for outcome in phases:
        groups.setdefault((outcome.model, outcome.phase), []).append(outcome.ms)
    busy = 0.0
    for (_model, kind), costs in groups.items():
        overlap = 1.0 if merge_verify and kind == PHASE_VERIFY else device.overlap
        critical = max(costs)
        busy += critical + (1.0 - overlap) * (sum(costs) - critical)
    models = len({model for model, _kind in groups})
    if models > 1:
        busy *= 1.0 + device.switch_cost * (models - 1)
    return busy / device.speed


class TestDeviceModel:
    def _phase(self, model: str, kind: str, ms: float) -> PhaseOutcome:
        return PhaseOutcome(kind, model, ms, (), True, False)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        costs=st.lists(
            st.tuples(
                st.sampled_from([("draft", PHASE_DRAFT), ("target", PHASE_VERIFY)]),
                st.one_of(
                    st.sampled_from([0.0, 1.0, 10.0, 33.3]), st.floats(0.0, 1e12)
                ),
            ),
            min_size=1,
            max_size=4,
        ),
        overlap=st.floats(0.0, 1.0),
        speed=st.one_of(st.sampled_from([0.25, 1.0, 3.0]), st.floats(1e-3, 1e3)),
        switch_cost=st.floats(0.0, 1.0),
        merge_verify=st.booleans(),
    )
    def test_bill_equals_grouped_formula(
        self, costs, overlap, speed, switch_cost, merge_verify
    ):
        # A one-phase batch is priced as ms / speed; for every finite cost
        # that equals the grouped formula exactly, as every larger batch does.
        device = Device(0, overlap=overlap, switch_cost=switch_cost, speed=speed)
        batch = [self._phase(model, kind, ms) for (model, kind), ms in costs]
        assert device.batch_busy_ms(batch, merge_verify) == _grouped_busy_ms(
            device, batch, merge_verify
        )

    def test_single_model_group_overlap(self):
        device = Device(0, overlap=0.8)
        batch = [self._phase("target", PHASE_VERIFY, ms) for ms in (10.0, 20.0, 30.0)]
        # max + (1 - overlap) * rest = 30 + 0.2 * 30
        assert device.batch_busy_ms(batch) == pytest.approx(36.0)

    def test_cross_model_groups_serialise(self):
        device = Device(0, overlap=1.0, switch_cost=0.0)
        batch = [
            self._phase("draft", PHASE_DRAFT, 10.0),
            self._phase("draft", PHASE_DRAFT, 20.0),
            self._phase("target", PHASE_VERIFY, 30.0),
        ]
        # perfect overlap within groups, but draft and target add serially
        assert device.batch_busy_ms(batch) == pytest.approx(50.0)

    def test_mixed_model_batches_pay_residency_interference(self):
        device = Device(0, overlap=1.0, switch_cost=0.15)
        mixed = [
            self._phase("draft", PHASE_DRAFT, 10.0),
            self._phase("target", PHASE_VERIFY, 30.0),
        ]
        assert device.batch_busy_ms(mixed) == pytest.approx(40.0 * 1.15)
        # single-model batches (all a dedicated pool device ever runs)
        # never pay the switch inflation
        pure = [self._phase("target", PHASE_VERIFY, ms) for ms in (10.0, 30.0)]
        assert device.batch_busy_ms(pure) == pytest.approx(30.0)

    def test_merged_verify_coalesces_to_critical_path(self):
        device = Device(0, overlap=0.5)
        batch = [self._phase("target", PHASE_VERIFY, ms) for ms in (10.0, 30.0)]
        # standard overlap: 30 + 0.5 * 10; merged: critical path only
        assert device.batch_busy_ms(batch) == pytest.approx(35.0)
        assert device.batch_busy_ms(batch, merge_verify=True) == pytest.approx(30.0)
        # draft groups keep the device overlap even under merged verify
        drafts = [self._phase("draft", PHASE_DRAFT, ms) for ms in (10.0, 30.0)]
        assert device.batch_busy_ms(drafts, merge_verify=True) == pytest.approx(35.0)

    def test_execute_advances_timeline(self):
        device = Device(0, overlap=1.0)
        batch = [self._phase("target", PHASE_VERIFY, 10.0)]
        end = device.execute(5.0, batch)
        assert end == pytest.approx(15.0)
        # next batch queues behind the busy timeline
        end = device.execute(0.0, batch)
        assert end == pytest.approx(25.0)
        assert device.busy_ms == pytest.approx(20.0)
        assert device.batches == 2 and device.phases == 2
        with pytest.raises(ValueError):
            device.execute(0.0, [])

    @pytest.mark.parametrize(
        "speed, ms",
        [
            (1.0, float("inf")),  # an infinite phase cost
            (1e-310, 10.0),  # a finite cost whose bill overflows to inf
        ],
    )
    def test_execute_rejects_non_finite_batch_time(self, speed, ms):
        device = Device(0, overlap=0.5, speed=speed)
        with pytest.raises(ValueError, match="takes"):
            device.execute(0.0, [self._phase("target", PHASE_VERIFY, ms)])
        # The timeline stays usable: nothing was billed.
        assert device.free_at == 0.0 and device.busy_ms == 0.0
        assert device.batches == 0


class TestClusterConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(devices=0)
        with pytest.raises(ValueError):
            ClusterSpec(devices=2, router="sharded")
        with pytest.raises(ValueError):
            ClusterSpec(devices=1, router="disaggregated")
        with pytest.raises(ValueError):
            ClusterSpec(devices=1, router="merged")

    def test_disagg_alias(self):
        # The policy has one spelling; the old shorthand is an unknown name.
        with pytest.raises(ValueError, match="unknown router"):
            ClusterSpec(devices=2, router="disagg")


class TestClusterDeterminism:
    @pytest.fixture(scope="class")
    def trace(self, clean_dataset):
        return poisson_trace(14, 4.0, len(clean_dataset), seed=23)

    def _run(self, whisper_pair, dataset, trace, cluster, method="specasr-asp"):
        draft, target = whisper_pair
        decoder = build_method(method, draft, target)
        scheduler = ContinuousBatchScheduler(decoder, SchedulerConfig(), cluster)
        return scheduler.run(trace, dataset), scheduler.last_stats

    @pytest.mark.parametrize("cluster", CLUSTERS, ids=_cluster_id)
    def test_transcripts_and_decode_ms_cluster_independent(
        self, whisper_pair, clean_dataset, trace, cluster
    ):
        reference, _ = self._run(
            whisper_pair, clean_dataset, trace, ClusterSpec(devices=1)
        )
        records, _ = self._run(whisper_pair, clean_dataset, trace, cluster)
        assert [r.tokens for r in records] == [r.tokens for r in reference]
        assert [r.decode_ms for r in records] == [r.decode_ms for r in reference]

    @pytest.mark.parametrize("cluster", CLUSTERS, ids=_cluster_id)
    def test_rerun_bit_identical(self, whisper_pair, clean_dataset, trace, cluster):
        a, stats_a = self._run(whisper_pair, clean_dataset, trace, cluster)
        b, stats_b = self._run(whisper_pair, clean_dataset, trace, cluster)
        assert [r.tokens for r in a] == [r.tokens for r in b]
        assert [r.finish_ms for r in a] == [r.finish_ms for r in b]
        assert [r.first_token_ms for r in a] == [r.first_token_ms for r in b]
        assert stats_a == stats_b

    def test_timeline_sanity_on_cluster(self, whisper_pair, clean_dataset, trace):
        records, stats = self._run(
            whisper_pair,
            clean_dataset,
            trace,
            ClusterSpec(devices=2, router="disaggregated"),
        )
        for r in records:
            assert r.status == STATUS_COMPLETED
            assert r.service_start_ms >= r.request.arrival_ms
            assert r.first_token_ms >= r.service_start_ms
            assert r.finish_ms >= r.first_token_ms
        assert stats.devices == 2
        assert len(stats.per_device_busy_ms) == 2
        assert sum(stats.per_device_busy_ms) == pytest.approx(stats.device_busy_ms)
        assert 0 < stats.device_utilisation <= 1.0


class TestPlacementSemantics:
    def _stats(self, whisper_pair, dataset, cluster, method):
        draft, target = whisper_pair
        decoder = build_method(method, draft, target)
        scheduler = ContinuousBatchScheduler(decoder, SchedulerConfig(), cluster)
        trace = uniform_trace(8, 4.0, len(dataset), seed=3)
        records = scheduler.run(trace, dataset)
        assert all(r.status == STATUS_COMPLETED for r in records)
        return scheduler.last_stats

    def test_disaggregation_splits_draft_and_target_work(
        self, whisper_pair, clean_dataset
    ):
        stats = self._stats(
            whisper_pair,
            clean_dataset,
            ClusterSpec(devices=2, router="disaggregated"),
            "specasr-asp",
        )
        # both pools see work: device 0 drafts, device 1 verifies
        assert stats.per_device_busy_ms[0] > 0
        assert stats.per_device_busy_ms[1] > 0

    def test_autoregressive_never_touches_draft_pool(
        self, whisper_pair, clean_dataset
    ):
        stats = self._stats(
            whisper_pair,
            clean_dataset,
            ClusterSpec(devices=2, router="disaggregated"),
            "autoregressive",
        )
        # AR rounds are pure target phases; the draft pool stays idle
        assert stats.per_device_busy_ms[0] == 0.0
        assert stats.per_device_busy_ms[1] > 0

    def test_merged_verify_does_not_exceed_disagg_busy(
        self, whisper_pair, clean_dataset
    ):
        disagg = self._stats(
            whisper_pair,
            clean_dataset,
            ClusterSpec(devices=2, router="disaggregated"),
            "specasr-asp",
        )
        merged = self._stats(
            whisper_pair,
            clean_dataset,
            ClusterSpec(devices=2, router="merged"),
            "specasr-asp",
        )
        # coalesced verify passes can only shrink target-device occupancy
        assert merged.device_busy_ms <= disagg.device_busy_ms + 1e-9

    @pytest.mark.parametrize("router", ("disaggregated", "merged"))
    def test_tree_decoder_serves_on_every_router(
        self, whisper_pair, clean_dataset, router
    ):
        # Every decoder is phase-split, so the draft/target pools take the
        # fixed-tree baseline too; placement never changes its results.
        decoder = build_method("fixed-tree", *whisper_pair)
        trace = uniform_trace(8, 4.0, len(clean_dataset), seed=3)
        runs = {}
        for name in ("colocated", router):
            scheduler = ContinuousBatchScheduler(
                decoder, SchedulerConfig(), ClusterSpec(devices=2, router=name)
            )
            runs[name] = scheduler.run(trace, clean_dataset)
            assert all(r.status == STATUS_COMPLETED for r in runs[name])
        reference, records = runs["colocated"], runs[router]
        assert [r.tokens for r in records] == [r.tokens for r in reference]
        assert [r.decode_ms for r in records] == [r.decode_ms for r in reference]
        # the draft device runs the draft phases
        assert scheduler.last_stats.per_device_busy_ms[0] > 0

    def test_balanced_split_records_measured_share(self, whisper_pair, clean_dataset):
        stats = self._stats(
            whisper_pair,
            clean_dataset,
            ClusterSpec(devices=4, router="disaggregated"),
            "specasr-asp",
        )
        assert stats.draft_share is not None
        assert 0.0 < stats.draft_share < 1.0
        assert stats.device_roles.count("draft") >= 1
        assert stats.device_roles.count("target") >= 1
        assert len(stats.device_roles) == 4

    def test_only_pooled_runs_measure_a_share(self, whisper_pair, clean_dataset):
        # The planner measures the share on the first three distinct
        # utterances of the trace _stats serves.
        trace = uniform_trace(8, 4.0, len(clean_dataset), seed=3)
        sample = list(dict.fromkeys(a.utterance_index for a in trace))[:3]
        decoder = build_method("specasr-asp", *whisper_pair)
        share = measure_draft_share(decoder, [clean_dataset[i] for i in sample])
        colocated = self._stats(
            whisper_pair,
            clean_dataset,
            ClusterSpec(devices=2, router="colocated"),
            "specasr-asp",
        )
        assert colocated.draft_share is None
        assert colocated.device_roles == ("any", "any")
        for router in ("disaggregated", "merged"):
            pooled = self._stats(
                whisper_pair,
                clean_dataset,
                ClusterSpec(devices=2, router=router),
                "specasr-asp",
            )
            assert pooled.draft_share == share
            assert pooled.device_roles == ("draft", "target")

    def test_planner_keeps_half_split_at_serve_capacity_shares(self):
        # serve-capacity's shape: specasr-asp on 4 equal merged devices,
        # 32 test-clean utterances, Poisson traces at seed 2025.  Every
        # ladder rate measures a draft share at which the planner keeps
        # the K // 2 prefix split, as it does without a measurement.
        config = ServeSimConfig(cluster=ClusterSpec(devices=4, router="merged"))
        decoder = build_decoder(config)
        dataset = load_split(config.split, config.experiment_config())
        halves = ("draft", "draft", "target", "target")
        shares = [DEFAULT_DRAFT_SHARE]
        for qps in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 16):
            trace = make_trace("poisson", 256, qps, len(dataset), config.seed)
            scheduler = ContinuousBatchScheduler(
                decoder, config.scheduler, config.cluster
            )
            scheduler.run(trace[:8], dataset)
            assert scheduler.last_stats.device_roles == halves
            shares.append(scheduler.last_stats.draft_share)
        for share in shares:
            router = MergedVerifyRouter(make_devices(4, overlap=0.8), share)
            assert router.device_roles() == halves
            # a crash leaves three devices: one drafts, two verify
            router.on_membership_change([0, 1, 2])
            assert [d.index for d in router.draft_pool] == [0]
            assert [d.index for d in router.target_pool] == [1, 2]

    def test_balanced_hetero_gives_fast_devices_to_verify(
        self, whisper_pair, clean_dataset
    ):
        stats = self._stats(
            whisper_pair,
            clean_dataset,
            ClusterSpec(devices=4, router="disaggregated", device_specs=HETERO),
            "specasr-asp",
        )
        assert stats.device_speeds == (1.0, 1.0, 0.5, 0.5)
        # with a draft share well under the fast devices' speed fraction,
        # the full-speed parts must end up in the target pool
        fast_roles = {stats.device_roles[0], stats.device_roles[1]}
        assert fast_roles == {"target"}

    def test_least_loaded_routing_uses_whole_pool(self, whisper_pair, clean_dataset):
        # least-loaded verify routing must spread work across every target
        # device, not a static hash bucket
        draft, target = whisper_pair
        decoder = build_method("specasr-asp", draft, target)
        scheduler = ContinuousBatchScheduler(
            decoder,
            SchedulerConfig(max_batch=2, max_inflight=8),
            ClusterSpec(devices=4, router="disaggregated"),
        )
        trace = uniform_trace(12, 8.0, len(clean_dataset), seed=11)
        records = scheduler.run(trace, clean_dataset)
        assert all(r.status == STATUS_COMPLETED for r in records)
        stats = scheduler.last_stats
        for role, busy in zip(
            stats.device_roles, stats.per_device_busy_ms, strict=True
        ):
            assert busy > 0.0, f"idle {role} device in a saturated pool"

    def test_sharding_speeds_up_saturated_serving(self, whisper_pair, clean_dataset):
        draft, target = whisper_pair
        decoder = build_method("specasr-asp", draft, target)
        trace = uniform_trace(10, 6.0, len(clean_dataset), seed=5)
        totals = {}
        for devices in (1, 2):
            scheduler = ContinuousBatchScheduler(
                decoder, SchedulerConfig(), ClusterSpec(devices=devices)
            )
            records = scheduler.run(trace, clean_dataset)
            totals[devices] = sum(r.completion_ms for r in records)
        assert totals[2] < totals[1]


class TestEmptyTraceStats:
    def test_stats_zero_on_empty_trace(self, whisper_pair, clean_dataset):
        draft, target = whisper_pair
        decoder = build_method("autoregressive", draft, target)
        scheduler = ContinuousBatchScheduler(decoder, SchedulerConfig())
        records = scheduler.run([], clean_dataset)
        stats = scheduler.last_stats
        assert records == []
        assert stats.sim_end_ms == 0.0
        assert stats.device_utilisation == 0.0
        assert stats.mean_batch_occupancy == 0.0

    def test_stats_guard_degenerate_values(self):
        from repro.serving import ScheduleStats

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


class TestClusterSimulate:
    def test_simulate_with_cluster_deterministic(self):
        config = ServeSimConfig(
            method="spec(8,1)",
            qps=3.0,
            num_requests=10,
            utterances=8,
            cluster=ClusterSpec(devices=2, router="merged"),
        )
        assert simulate(config).to_dict() == simulate(config).to_dict()

    def test_report_carries_cluster_shape(self):
        config = ServeSimConfig(
            method="specasr-asp",
            qps=2.0,
            num_requests=8,
            utterances=8,
            cluster=ClusterSpec(devices=2, router="disaggregated"),
        )
        payload = simulate(config).to_dict()
        assert payload["devices"] == 2
        assert len(payload["per_device_busy_ms"]) == 2
