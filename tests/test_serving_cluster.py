"""Cluster-serving suite: phase steppers, devices, routers, determinism.

The contract under test, from the multi-device refactor:

* **Phase split** — every steppable decoder exposes draft/verify phases
  whose costs partition the SimClock exactly; ``drain()`` (phase path) and
  the legacy ``decode()`` are bit-identical; the atomic ``step()`` is a
  thin wrapper over the phases of one round.
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

from repro.decoding.base import (
    PHASE_DRAFT,
    PHASE_VERIFY,
    PhaseOutcome,
    begin_decode,
)
from repro.decoding.tree_spec import FixedTreeConfig, FixedTreeDecoder
from repro.harness.methods import build_method
from repro.serving import (
    ClusterConfig,
    ClusterSpec,
    ContinuousBatchScheduler,
    Device,
    SchedulerConfig,
    ServeSimConfig,
    parse_device_specs,
    poisson_trace,
    simulate,
    uniform_trace,
)
from repro.serving.request import STATUS_COMPLETED

PHASED_METHODS = ("autoregressive", "spec(8,1)", "spec(8,2)", "specasr-asp")

HETERO = parse_device_specs("2x1.0,2x0.5")

CLUSTERS = (
    ClusterConfig(devices=1, router="colocated"),
    ClusterConfig(devices=2, router="colocated"),
    ClusterConfig(devices=2, router="disaggregated"),
    ClusterConfig(devices=2, router="merged"),
    ClusterConfig(devices=4, router="colocated"),
    ClusterConfig(devices=4, router="disaggregated"),
    ClusterConfig(devices=4, router="merged"),
    # workload-aware pool splits, homogeneous and heterogeneous
    ClusterConfig(devices=4, router="disaggregated", split="balanced"),
    ClusterConfig(devices=4, router="merged", split="balanced"),
    ClusterConfig(devices=4, router="colocated", device_specs=HETERO),
    ClusterConfig(devices=4, router="disaggregated", device_specs=HETERO),
    ClusterConfig(
        devices=4, router="disaggregated", split="balanced", device_specs=HETERO
    ),
    ClusterConfig(devices=4, router="merged", split="balanced", device_specs=HETERO),
    ClusterConfig(
        devices=3,
        router="merged",
        split="balanced",
        device_specs=parse_device_specs("2.0,2x0.5"),
    ),
)


def _cluster_id(config: ClusterConfig) -> str:
    parts = [f"{config.devices}x-{config.router}"]
    if config.split != "fixed":
        parts.append(config.split)
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

    @pytest.mark.parametrize("method", ("spec(8,1)", "specasr-tsp"))
    def test_atomic_step_wraps_phases(self, whisper_pair, clean_dataset, method):
        draft, target = whisper_pair
        utterance = clean_dataset[2]
        decoder = build_method(method, draft, target)

        by_round = begin_decode(decoder, utterance)
        steps = []
        while not by_round.done:
            steps.append(by_round.step())

        by_phase = begin_decode(decoder, utterance)
        rounds = []
        while not by_phase.done:
            tokens, ms = [], 0.0
            while True:
                phase = by_phase.step_phase()
                tokens.extend(phase.new_tokens)
                ms += phase.ms
                if phase.round_done:
                    break
            rounds.append((tuple(tokens), ms))

        assert [(s.new_tokens, s.ms) for s in steps] == pytest.approx(rounds)
        assert by_round.result.tokens == by_phase.result.tokens
        assert by_round.result.total_ms == by_phase.result.total_ms

    def test_fallback_stepper_single_verify_phase(self, whisper_pair, clean_dataset):
        draft, target = whisper_pair
        decoder = FixedTreeDecoder(draft, target, FixedTreeConfig())
        assert not hasattr(decoder, "begin")
        stepper = begin_decode(decoder, clean_dataset[1])
        phase = stepper.step_phase()
        assert phase.done and phase.round_done
        assert phase.phase == PHASE_VERIFY
        assert phase.ms == pytest.approx(stepper.result.total_ms)

    def test_step_phase_after_done_raises(self, whisper_pair, clean_dataset):
        draft, target = whisper_pair
        decoder = build_method("specasr-asp", draft, target)
        stepper = begin_decode(decoder, clean_dataset[0])
        stepper.drain()
        with pytest.raises(RuntimeError):
            stepper.step_phase()


class TestDeviceModel:
    def _phase(self, model: str, kind: str, ms: float) -> PhaseOutcome:
        return PhaseOutcome(kind, model, ms, (), True, False)

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


class TestClusterConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(devices=0)
        with pytest.raises(ValueError):
            ClusterConfig(devices=2, router="sharded")
        with pytest.raises(ValueError):
            ClusterConfig(devices=1, router="disaggregated")
        with pytest.raises(ValueError):
            ClusterConfig(devices=1, router="merged")

    def test_disagg_alias(self):
        # The policy has one spelling; the old shorthand is an unknown name.
        with pytest.raises(ValueError, match="unknown router"):
            ClusterConfig(devices=2, router="disagg")


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
            whisper_pair, clean_dataset, trace, ClusterConfig(devices=1)
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
            ClusterConfig(devices=2, router="disaggregated"),
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
            ClusterConfig(devices=2, router="disaggregated"),
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
            ClusterConfig(devices=2, router="disaggregated"),
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
            ClusterConfig(devices=2, router="disaggregated"),
            "specasr-asp",
        )
        merged = self._stats(
            whisper_pair,
            clean_dataset,
            ClusterConfig(devices=2, router="merged"),
            "specasr-asp",
        )
        # coalesced verify passes can only shrink target-device occupancy
        assert merged.device_busy_ms <= disagg.device_busy_ms + 1e-9

    def test_non_phased_decoder_rejected_on_disaggregating_router(
        self, whisper_pair, clean_dataset
    ):
        draft, target = whisper_pair
        decoder = FixedTreeDecoder(draft, target, FixedTreeConfig())
        trace = uniform_trace(2, 1.0, len(clean_dataset), seed=1)
        for router in ("disaggregated", "merged"):
            scheduler = ContinuousBatchScheduler(
                decoder,
                SchedulerConfig(),
                ClusterConfig(devices=2, router=router),
            )
            with pytest.raises(ValueError, match="phase-split"):
                scheduler.run(trace, clean_dataset)
        # the colocated policy still accepts whole-decode fallbacks
        scheduler = ContinuousBatchScheduler(
            decoder, SchedulerConfig(), ClusterConfig(devices=2)
        )
        records = scheduler.run(trace, clean_dataset)
        assert all(r.status == STATUS_COMPLETED for r in records)

    def test_balanced_split_records_measured_share(self, whisper_pair, clean_dataset):
        stats = self._stats(
            whisper_pair,
            clean_dataset,
            ClusterConfig(devices=4, router="disaggregated", split="balanced"),
            "specasr-asp",
        )
        assert stats.draft_share is not None
        assert 0.0 < stats.draft_share < 1.0
        assert stats.device_roles.count("draft") >= 1
        assert stats.device_roles.count("target") >= 1
        assert len(stats.device_roles) == 4

    def test_fixed_split_measures_nothing(self, whisper_pair, clean_dataset):
        stats = self._stats(
            whisper_pair,
            clean_dataset,
            ClusterConfig(devices=2, router="disaggregated"),
            "specasr-asp",
        )
        assert stats.draft_share is None
        assert stats.device_roles == ("draft", "target")

    def test_balanced_hetero_gives_fast_devices_to_verify(
        self, whisper_pair, clean_dataset
    ):
        stats = self._stats(
            whisper_pair,
            clean_dataset,
            ClusterConfig(
                devices=4,
                router="disaggregated",
                split="balanced",
                device_specs=HETERO,
            ),
            "specasr-asp",
        )
        assert stats.device_speeds == (1.0, 1.0, 0.5, 0.5)
        # with a draft share well under the fast devices' speed fraction,
        # the full-speed parts must end up in the target pool
        fast_roles = {stats.device_roles[0], stats.device_roles[1]}
        assert fast_roles == {"target"}

    def test_least_loaded_routing_uses_whole_pool(self, whisper_pair, clean_dataset):
        # 1 draft + 3 target devices: least-loaded verify routing must
        # spread work across every target device, not a static hash bucket
        draft, target = whisper_pair
        decoder = build_method("specasr-asp", draft, target)
        scheduler = ContinuousBatchScheduler(
            decoder,
            SchedulerConfig(max_batch=2, max_inflight=8),
            ClusterConfig(devices=4, router="disaggregated", split="balanced"),
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
                decoder, SchedulerConfig(), ClusterConfig(devices=devices)
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
