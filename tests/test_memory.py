"""Memory-aware serving suite: paged KV allocator, parity, config surface.

The contract under test, from the memory-as-a-scheduling-constraint change:

* **Allocator invariants (hypothesis)** — for any interleaving of
  admissions, commits, failures and releases: a device's used blocks never
  exceed its capacity, the pool ledger always equals the sum of holdings
  (block conservation, ``audit()``), eviction never touches a session with
  a copy executing, and a fully drained allocator holds zero blocks.
* **Parity contract** — with ample capacity, a memory-enabled run is
  bit-identical to the memory-disabled scheduler across router policies
  and device counts: same transcripts, same timings, same stats, no
  evictions/stalls/penalties.
* **Constrained capacity** — conservation (completed + rejected + shed ==
  arrived) holds under pressure, transcripts of completed requests stay
  scheduler-independent, and an impossible demand sheds ``"memory"``.
* **Config surface** — ``ServeSimConfig`` takes only its composed
  sub-configs and pickles round-trip, and the ``@BLOCKS`` device-spec
  suffix round-trips.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.methods import build_method
from repro.serving import (
    ChaosSpec,
    ClusterConfig,
    ClusterKVMemory,
    ClusterSpec,
    ContinuousBatchScheduler,
    KVCacheTracker,
    MemorySpec,
    SchedulerConfig,
    ServeSimConfig,
    StreamSpec,
    format_device_specs,
    parse_device_specs,
    poisson_trace,
    simulate,
)
from repro.serving.request import (
    SHED_MEMORY,
    STATUS_COMPLETED,
    STATUS_REJECTED,
    STATUS_SHED,
)

STABLE = settings(max_examples=40, deadline=None, derandomize=True)

MODELS = ("draft-m", "target-m")


# ---------------------------------------------------------------------------
# MemorySpec / KVCacheTracker basics
# ---------------------------------------------------------------------------


class TestMemorySpec:
    def test_defaults_disabled(self):
        spec = MemorySpec()
        assert not spec.enabled
        assert spec.block_size == 16
        assert spec.prefix_sharing

    def test_blocks_for(self):
        spec = MemorySpec(block_size=16)
        assert spec.blocks_for(0) == 0
        assert spec.blocks_for(-3) == 0
        assert spec.blocks_for(1) == 1
        assert spec.blocks_for(16) == 1
        assert spec.blocks_for(17) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            MemorySpec(device_blocks=0)
        with pytest.raises(ValueError):
            MemorySpec(block_size=0)
        with pytest.raises(ValueError):
            MemorySpec(reprefill_ms_per_block=-1.0)


class TestKVCacheTracker:
    def test_prefill_and_context(self):
        kv = KVCacheTracker()
        kv.prefill(10)
        assert kv.prompt_length == 10
        assert kv.length == 10
        assert kv.context_length(0) == 10
        assert kv.context_length(5) == 15

    def test_rollback_frees(self):
        kv = KVCacheTracker()
        kv.prefill(4)
        kv.append(8)
        kv.rollback_to(6)
        assert kv.length == 6
        assert kv.peak == 12
        assert kv.rolled_back_total == 6
        assert kv.rollback_events == 1
        assert kv.waste_ratio == pytest.approx(6 / 12)

    def test_no_unbounded_history(self):
        kv = KVCacheTracker()
        assert not hasattr(kv, "_history")

    def test_rollback_validation(self):
        kv = KVCacheTracker()
        kv.append(3)
        with pytest.raises(ValueError):
            kv.rollback_to(5)
        with pytest.raises(ValueError):
            kv.rollback_to(-1)

    def test_negative_append_rejected(self):
        with pytest.raises(ValueError):
            KVCacheTracker().append(-1)

    def test_waste_ratio_empty(self):
        assert KVCacheTracker().waste_ratio == 0.0


# ---------------------------------------------------------------------------
# Allocator property suite (hypothesis)
# ---------------------------------------------------------------------------


class _AllocatorHarness:
    """Interprets an op tape against ClusterKVMemory + a mirror of copies."""

    def __init__(self, capacities, spec):
        self.memory = ClusterKVMemory(spec, capacities)
        self.spec = spec
        self.devices = len(capacities)
        # (request, model) -> list of (device, peak_tokens) outstanding copies
        self.outstanding: dict[tuple[int, str], list[tuple[int, int]]] = {}
        self.committed: dict[tuple[int, str], int] = {}

    def busy_snapshot(self):
        """Holdings of every session with a copy executing somewhere."""
        busy = {
            request
            for (request, _m), hmap in self.memory._holdings.items()
            for holding in hmap.values()
            if holding.inflight > 0
        }
        return {
            key: {dev: (h.shared, h.private) for dev, h in hmap.items()}
            for key, hmap in self.memory._holdings.items()
            if key[0] in busy
        }

    def check(self):
        self.memory.audit()
        for pool in self.memory.pools:
            if pool.capacity is not None:
                assert pool.used <= pool.capacity

    def admit(self, request, model, device, peak):
        key = (request, model)
        resident = self.committed.get(key, 0)
        peak = max(peak, resident)
        before = self.busy_snapshot()
        grant = self.memory.admit(
            device, request, model, f"utt-{request % 3}", peak, resident
        )
        # Eviction (inside admit) must never have touched a running session.
        after_holdings = self.memory._holdings
        for key_b, devmap in before.items():
            if key_b[0] == request:
                continue  # the admitted request may migrate its own blocks
            assert key_b in after_holdings
            for dev, shape in devmap.items():
                holding = after_holdings[key_b].get(dev)
                assert holding is not None, "eviction touched a running session"
                assert (holding.shared, holding.private) == shape
        if grant is not None:
            assert grant >= 0.0
            self.outstanding.setdefault(key, []).append((device, peak))
        self.check()

    def settle(self, request, model, commit, accepted):
        key = (request, model)
        copies = self.outstanding.get(key)
        if not copies:
            return
        device, peak = copies.pop()
        if commit:
            resident = self.committed.get(key, 0)
            # Commit may grow residency up to the billed peak plus the one
            # reserved growth block position (the verify bonus token).
            resident = min(resident + accepted, peak + 1)
            self.committed[key] = resident
            self.memory.settle(
                device, request, model, f"utt-{request % 3}", resident, committed=True
            )
        else:
            self.memory.settle(
                device, request, model, f"utt-{request % 3}", 0, committed=False
            )
        self.check()

    def release(self, request):
        if any(copies for (r, _m), copies in self.outstanding.items() if r == request):
            return  # scheduler never releases a request with copies in flight
        self.memory.release_request(request)
        for model in MODELS:
            self.committed.pop((request, model), None)
        self.check()

    def drain(self):
        for (request, model), copies in list(self.outstanding.items()):
            while copies:
                self.settle(request, model, commit=False, accepted=0)
        for request in range(8):
            self.memory.release_request(request)
        self.check()
        assert all(used == 0 for used in self.memory.used_blocks())


ops = st.lists(
    st.tuples(
        st.sampled_from(["admit", "commit", "fail", "release"]),
        st.integers(min_value=0, max_value=5),  # request
        st.integers(min_value=0, max_value=1),  # model index
        st.integers(min_value=0, max_value=2),  # device
        st.integers(min_value=1, max_value=90),  # peak tokens
    ),
    min_size=1,
    max_size=60,
)


class TestAllocatorProperties:
    @given(
        tape=ops,
        capacity=st.integers(min_value=2, max_value=12),
        block_size=st.sampled_from([4, 16]),
        sharing=st.booleans(),
    )
    @STABLE
    def test_conservation_capacity_and_running_sessions(
        self, tape, capacity, block_size, sharing
    ):
        spec = MemorySpec(
            device_blocks=capacity, block_size=block_size, prefix_sharing=sharing
        )
        harness = _AllocatorHarness([capacity, capacity, None], spec)
        for op, request, model_idx, device, peak in tape:
            model = MODELS[model_idx]
            if op == "admit":
                harness.admit(request, model, device, peak)
            elif op == "commit":
                harness.settle(request, model, commit=True, accepted=peak // 4)
            elif op == "fail":
                harness.settle(request, model, commit=False, accepted=0)
            else:
                harness.release(request)
        harness.drain()

    @given(tape=ops)
    @STABLE
    def test_unbounded_pools_never_stall(self, tape):
        spec = MemorySpec(device_blocks=8)  # spec default irrelevant: None caps
        harness = _AllocatorHarness([None, None, None], spec)
        for op, request, model_idx, device, peak in tape:
            model = MODELS[model_idx]
            if op == "admit":
                harness.admit(request, model, device, peak)
            elif op == "commit":
                harness.settle(request, model, commit=True, accepted=peak // 4)
            elif op == "fail":
                harness.settle(request, model, commit=False, accepted=0)
            else:
                harness.release(request)
        assert harness.memory.stalls == 0
        assert harness.memory.evictions == 0
        harness.drain()


class TestAllocatorUnit:
    def test_prefix_sharing_dedupes_physical_blocks(self):
        spec = MemorySpec(device_blocks=64, block_size=4)
        memory = ClusterKVMemory(spec, [64])
        # Request 0 decodes and commits 16 tokens of prompt "utt".
        assert memory.admit(0, 0, "m", "utt", 16, 0) == 0.0
        memory.settle(0, 0, "m", "utt", 16, committed=True)
        used_solo = memory.used_blocks()[0]
        # Request 1, same prompt: its committed prefix rides the shared
        # blocks, costing only private scratch.
        assert memory.admit(0, 1, "m", "utt", 16, 0) == 0.0
        memory.settle(0, 1, "m", "utt", 16, committed=True)
        assert memory.reuse_hits > 0
        assert memory.used_blocks()[0] < 2 * used_solo
        memory.audit()

    def test_no_sharing_means_no_reuse(self):
        spec = MemorySpec(device_blocks=64, block_size=4, prefix_sharing=False)
        memory = ClusterKVMemory(spec, [64])
        memory.admit(0, 0, "m", "utt", 16, 0)
        memory.settle(0, 0, "m", "utt", 16, committed=True)
        memory.admit(0, 1, "m", "utt", 16, 0)
        memory.settle(0, 1, "m", "utt", 16, committed=True)
        assert memory.reuse_hits == 0

    def test_eviction_marks_and_reprefill_penalty(self):
        spec = MemorySpec(device_blocks=6, block_size=4, reprefill_ms_per_block=2.0)
        memory = ClusterKVMemory(spec, [6])
        assert memory.admit(0, 0, "m", "a", 12, 0) == 0.0
        memory.settle(0, 0, "m", "a", 12, committed=True)  # 3 blocks resident
        # Request 1 needs the space; request 0 is idle -> evicted.
        assert memory.admit(0, 1, "m", "b", 12, 0) == 0.0
        assert memory.evictions == 1
        assert memory.evicted_blocks >= 3
        memory.settle(0, 1, "m", "b", 12, committed=True)
        memory.release_request(1)
        # Request 0 resumes: pays the re-prefill for its 3 resident blocks.
        penalty = memory.admit(0, 0, "m", "a", 12, 12)
        assert penalty == pytest.approx(2.0 * 3)
        assert memory.reprefill_ms == pytest.approx(penalty)
        memory.audit()

    def test_running_session_never_evicted_even_under_pressure(self):
        spec = MemorySpec(device_blocks=4, block_size=4)
        memory = ClusterKVMemory(spec, [4])
        assert memory.admit(0, 0, "m", "a", 8, 0) == 0.0  # in flight, 3 blocks
        # Request 1 cannot fit: the only resident session is running.
        assert memory.admit(0, 1, "m", "b", 8, 0) is None
        assert memory.stalls == 1
        assert memory.evictions == 0
        memory.settle(0, 0, "m", "a", 0, committed=False)
        memory.audit()

    def test_fits_anywhere(self):
        memory = ClusterKVMemory(MemorySpec(device_blocks=4), [4, None])
        assert memory.fits_anywhere(3, [0])
        assert not memory.fits_anywhere(9, [0])
        assert memory.fits_anywhere(9, [0, 1])  # unbounded device


# ---------------------------------------------------------------------------
# Scheduler integration: parity + pressure
# ---------------------------------------------------------------------------

PARITY_CLUSTERS = (
    ClusterConfig(devices=1, router="colocated"),
    ClusterConfig(devices=2, router="colocated"),
    ClusterConfig(devices=2, router="disaggregated"),
    ClusterConfig(devices=3, router="merged"),
    ClusterConfig(devices=4, router="disaggregated", split="balanced"),
)


def _cluster_id(config: ClusterConfig) -> str:
    return f"{config.devices}x-{config.router}-{config.split}"


def _signature(records):
    return [
        (
            r.status,
            r.shed_reason,
            tuple(r.tokens),
            r.service_start_ms,
            r.first_token_ms,
            r.finish_ms,
            r.decode_ms,
        )
        for r in records
    ]


class TestSchedulerMemory:
    @pytest.fixture(scope="class")
    def decoder(self, whisper_pair):
        draft, target = whisper_pair
        return build_method("specasr-asp", draft, target)

    @pytest.fixture(scope="class")
    def trace(self, clean_dataset):
        return poisson_trace(16, 8.0, len(clean_dataset), seed=11)

    def _run(self, decoder, dataset, trace, cluster, memory=None, **knobs):
        scheduler = ContinuousBatchScheduler(
            decoder,
            SchedulerConfig(**knobs),
            cluster,
            memory=memory,
        )
        records = scheduler.run(trace, dataset)
        return records, scheduler.last_stats

    @pytest.mark.parametrize("cluster", PARITY_CLUSTERS, ids=_cluster_id)
    def test_ample_capacity_parity(self, decoder, clean_dataset, trace, cluster):
        base, base_stats = self._run(decoder, clean_dataset, trace, cluster)
        ample, stats = self._run(
            decoder,
            clean_dataset,
            trace,
            cluster,
            memory=MemorySpec(device_blocks=1_000_000),
        )
        assert _signature(ample) == _signature(base)
        assert stats.evictions == 0
        assert stats.memory_stalls == 0
        assert stats.reprefill_ms == 0.0
        assert stats.block_size == MemorySpec().block_size
        # Time-domain stats identical; only the memory counters differ.
        assert stats.sim_end_ms == base_stats.sim_end_ms
        assert stats.per_device_busy_ms == base_stats.per_device_busy_ms
        assert max(stats.peak_memory_blocks) > 0

    def test_constrained_conservation_and_transcripts(
        self, decoder, clean_dataset, trace
    ):
        cluster = ClusterConfig(devices=2, router="colocated")
        base, _ = self._run(decoder, clean_dataset, trace, cluster)
        tight, stats = self._run(
            decoder,
            clean_dataset,
            trace,
            cluster,
            memory=MemorySpec(device_blocks=12),
        )
        statuses = [r.status for r in tight]
        assert (
            statuses.count(STATUS_COMPLETED)
            + statuses.count(STATUS_REJECTED)
            + statuses.count(STATUS_SHED)
            == len(trace)
        )
        assert stats.evictions > 0 or stats.memory_stalls > 0
        assert max(stats.peak_memory_blocks) <= 12
        reference = {
            r.request.index: tuple(r.tokens)
            for r in base
            if r.status == STATUS_COMPLETED
        }
        for r in tight:
            if r.status == STATUS_COMPLETED and r.request.index in reference:
                assert tuple(r.tokens) == reference[r.request.index]

    def test_batch_size_emerges_from_free_blocks(self, decoder, clean_dataset, trace):
        cluster = ClusterConfig(devices=1, router="colocated")
        _, wide = self._run(
            decoder,
            clean_dataset,
            trace,
            cluster,
            memory=MemorySpec(device_blocks=1_000_000),
            max_batch=8,
            max_inflight=16,
        )
        _, narrow = self._run(
            decoder,
            clean_dataset,
            trace,
            cluster,
            memory=MemorySpec(device_blocks=24),
            max_batch=8,
            max_inflight=16,
        )
        assert narrow.mean_batch_occupancy < wide.mean_batch_occupancy

    def test_impossible_demand_sheds_memory(self, decoder, clean_dataset, trace):
        records, stats = self._run(
            decoder,
            clean_dataset,
            trace,
            ClusterConfig(devices=1, router="colocated"),
            memory=MemorySpec(device_blocks=1, block_size=1),
        )
        shed = [r for r in records if r.status == STATUS_SHED]
        assert shed
        assert all(r.shed_reason == SHED_MEMORY for r in shed)

    def test_device_spec_blocks_override(self, decoder, clean_dataset, trace):
        cluster = ClusterConfig(device_specs=parse_device_specs("1.0@64,1.0@32"))
        _, stats = self._run(decoder, clean_dataset, trace, cluster)
        assert stats.memory_blocks == (64, 32)
        assert all(
            peak <= cap
            for peak, cap in zip(stats.peak_memory_blocks, (64, 32), strict=True)
        )

    def test_prefix_sharing_reduces_peak(self, decoder, clean_dataset):
        # Every request decodes the same utterance: maximal shareable prefix.
        trace = poisson_trace(12, 20.0, 1, seed=5)
        cluster = ClusterConfig(devices=1, router="colocated")
        _, shared = self._run(
            decoder,
            clean_dataset,
            trace,
            cluster,
            memory=MemorySpec(device_blocks=1_000_000, prefix_sharing=True),
        )
        _, unshared = self._run(
            decoder,
            clean_dataset,
            trace,
            cluster,
            memory=MemorySpec(device_blocks=1_000_000, prefix_sharing=False),
        )
        assert shared.prefix_reuse_hits > 0
        assert unshared.prefix_reuse_hits == 0
        assert max(shared.peak_memory_blocks) <= max(unshared.peak_memory_blocks)


# ---------------------------------------------------------------------------
# Config surface: composed sub-configs, @BLOCKS grammar
# ---------------------------------------------------------------------------


class TestConfigSurface:
    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            ServeSimConfig(bogus=1)
        # Sub-config knobs have exactly one spelling: the sub-config field.
        with pytest.raises(TypeError, match="unexpected keyword"):
            ServeSimConfig(devices=4)

    def test_pickle_roundtrip(self):
        config = ServeSimConfig(
            cluster=ClusterSpec(devices=3),
            chaos=ChaosSpec(faults="perr:0.05"),
            memory=MemorySpec(device_blocks=16),
            stream=StreamSpec(enabled=True, rtf=2.0, chunk_s=0.5),
        )
        assert pickle.loads(pickle.dumps(config)) == config

    def test_memory_spec_accessor(self):
        assert ServeSimConfig().memory_spec() == MemorySpec()
        config = ServeSimConfig(memory=MemorySpec(device_blocks=8))
        assert config.memory_spec().device_blocks == 8

    def test_simulate_reports_memory(self):
        config = ServeSimConfig(
            num_requests=6,
            utterances=4,
            qps=4.0,
            memory=MemorySpec(device_blocks=4096),
        )
        report = simulate(config)
        payload = report.to_dict()
        assert payload["memory"]["device_blocks"] == [4096]
        assert payload["memory"]["block_size"] == 16
        assert max(payload["memory"]["peak_blocks"]) > 0
        assert "memory" in report.render()
        assert all("peak_blocks" in row for row in payload["per_device"])

    def test_simulate_without_memory_omits_block(self):
        report = simulate(ServeSimConfig(num_requests=4, utterances=4, qps=4.0))
        assert "memory" not in report.to_dict()


class TestDeviceSpecBlocksGrammar:
    def test_parse_blocks_suffix(self):
        specs = parse_device_specs("2x1.0@64,0.5")
        assert [s.speed for s in specs] == [1.0, 1.0, 0.5]
        assert [s.memory_blocks for s in specs] == [64, 64, None]

    def test_format_round_trip(self):
        text = "2x1.0@64,1x0.5"
        specs = parse_device_specs(text)
        assert parse_device_specs(format_device_specs(specs)) == specs

    def test_bad_blocks_rejected(self):
        with pytest.raises(ValueError, match="integer block count"):
            parse_device_specs("1.0@fast")
        with pytest.raises(ValueError, match=">= 1"):
            parse_device_specs("1.0@0")
