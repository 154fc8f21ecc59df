"""Memory-aware serving suite: paged KV allocator, parity, config surface.

The contract under test, from the memory-as-a-scheduling-constraint change:

* **Allocator invariants (hypothesis)** — for any interleaving of
  admissions, commits, failures and releases with at most one phase
  executing per request: a device's used blocks never exceed its capacity,
  the pool ledger always equals the sum of holdings (block conservation,
  ``audit()``), eviction never touches a session whose phase is executing
  or the session being admitted, a stalled admission leaves the session's
  residencies where they were, and a fully drained allocator holds zero
  blocks.  The tapes are built so that admissions do evict idle sessions.
  A finished request leaves no re-prefill mark or LRU tick behind, and a
  drained audit fails on a leftover one.
* **Parity contract** — with ample capacity, a memory-enabled run is
  bit-identical to the memory-disabled scheduler across router policies
  and device counts: same transcripts, same timings, same stats, no
  evictions/stalls/penalties.
* **Constrained capacity** — conservation (completed + rejected + shed ==
  arrived) holds under pressure, transcripts of completed requests stay
  scheduler-independent, and an impossible demand sheds ``"memory"``.
* **Config surface** — ``ServeSimConfig`` takes only its composed
  sub-configs, and the ``@BLOCKS`` device-spec suffix round-trips.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.methods import build_method
from repro.serving import (
    ClusterConfig,
    ClusterKVMemory,
    ContinuousBatchScheduler,
    MemorySpec,
    SchedulerConfig,
    ServeSimConfig,
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
# MemorySpec basics
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
        for rate in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                MemorySpec(reprefill_ms_per_block=rate)


# ---------------------------------------------------------------------------
# Allocator property suite (hypothesis)
# ---------------------------------------------------------------------------


def _flat_holdings(memory):
    """``(request, model) -> holding`` over every residency."""
    return {
        (request, model): holding
        for request, models in memory._holdings.items()
        for model, holding in models.items()
    }


def _shape(holding):
    return (holding.device, holding.shared, holding.private)


class _AllocatorHarness:
    """Interprets an op tape against ClusterKVMemory the way the scheduler
    drives it: a request has at most one phase executing, and only an idle
    request is released."""

    def __init__(self, capacities, spec):
        self.memory = ClusterKVMemory(spec, capacities)
        self.spec = spec
        self.devices = len(capacities)
        # request -> (model, peak_tokens) of its one executing phase
        self.running: dict[int, tuple[str, int]] = {}
        self.committed: dict[tuple[int, str], int] = {}

    def snapshot(self, requests):
        """Residencies of the sessions of ``requests``."""
        return {
            key: _shape(holding)
            for key, holding in _flat_holdings(self.memory).items()
            if key[0] in requests
        }

    def check(self):
        self.memory.audit()
        assert self.memory._running == set(self.running)
        for pool in self.memory.pools:
            if pool.capacity is not None:
                assert pool.used <= pool.capacity

    def admit(self, request, model, device, peak):
        if request in self.running:
            return  # the scheduler dispatches a session's next phase only
        key = (request, model)
        resident = self.committed.get(key, 0)
        peak = max(peak, resident)
        before = self.snapshot(self.running)
        own_before = self.snapshot({request})
        grant = self.memory.admit(
            device, request, model, f"utt-{request % 3}", peak, resident
        )
        # Eviction (inside admit) must never have touched a running session.
        after = _flat_holdings(self.memory)
        for key_b, shape in before.items():
            assert key_b in after, "eviction touched a running session"
            assert _shape(after[key_b]) == shape
        own_after = self.snapshot({request})
        if grant is None:
            # A stalled admission leaves the session's residencies in place.
            assert own_after == own_before
        else:
            assert grant >= 0.0
            assert after[key].device == device
            # Nor does eviction take the admitted session's other residency.
            own_before.pop(key, None)
            own_after.pop(key)
            assert own_after == own_before
            self.running[request] = (model, peak)
        self.check()

    def settle(self, request, commit, accepted):
        if request not in self.running:
            return
        model, peak = self.running.pop(request)
        if commit:
            key = (request, model)
            # Commit may grow residency up to the billed peak plus the one
            # reserved growth block position (the verify bonus token).
            resident = min(self.committed.get(key, 0) + accepted, peak + 1)
            self.committed[key] = resident
            self.memory.settle(request, model, resident, committed=True)
        else:
            self.memory.settle(request, model, 0, committed=False)
        self.check()

    def release(self, request):
        if request in self.running:
            return  # the scheduler never releases a session mid-phase
        self.memory.release_request(request)
        for model in MODELS:
            self.committed.pop((request, model), None)
        self.check()

    def drain(self):
        for request in list(self.running):
            self.settle(request, commit=False, accepted=0)
        for request in range(8):
            self.memory.release_request(request)
        self.check()
        assert all(used == 0 for used in self.memory.used_blocks())
        self.memory.audit(drained=True)


ops = st.lists(
    st.tuples(
        # "fill" drawn twice as often, and tapes of 12+ ops, so idle sessions
        # pile up and later admissions have to evict them
        st.sampled_from(["admit", "commit", "fail", "release"] + ["fill"] * 2),
        st.integers(min_value=0, max_value=3),  # request
        st.integers(min_value=0, max_value=1),  # model index
        st.integers(min_value=0, max_value=2),  # device
        st.integers(min_value=1, max_value=90),  # peak tokens
    ),
    min_size=12,
    max_size=60,
)


def _play(harness, tape):
    for op, request, model_idx, device, peak in tape:
        if op in ("admit", "fill"):
            harness.admit(request, MODELS[model_idx], device, peak)
            if op == "fill":
                # The phase commits its whole peak: the session goes idle
                # holding every block it reserved.
                harness.settle(request, commit=True, accepted=peak)
        elif op == "commit":
            harness.settle(request, commit=True, accepted=peak // 4)
        elif op == "fail":
            harness.settle(request, commit=False, accepted=0)
        else:
            harness.release(request)


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
        _play(harness, tape)
        harness.drain()

    @given(tape=ops)
    @STABLE
    def test_unbounded_pools_never_stall(self, tape):
        spec = MemorySpec(device_blocks=8)  # spec default irrelevant: None caps
        harness = _AllocatorHarness([None, None, None], spec)
        _play(harness, tape)
        assert harness.memory.stalls == 0
        assert harness.memory.evictions == 0
        harness.drain()


def _scan_drop(memory, owner, model, holding):
    """Free one residency found by a scan and remove it from the map."""
    freed = memory._release(model, holding)
    models = memory._holdings[owner]
    del models[model]
    if not models:
        del memory._holdings[owner]
    return freed


def _scan_release(memory, request):
    """Reference ``release_request``: find the request's residencies by
    scanning every holding."""
    freed = 0
    for (owner, model), holding in list(_flat_holdings(memory).items()):
        if owner != request:
            continue
        freed += _scan_drop(memory, owner, model, holding)
    memory._evicted.pop(request, None)
    memory._lru.pop(request, None)
    return freed


def _scan_evict(memory, device, shortfall, protect):
    """Reference ``_evict_until``: candidates and each victim's residencies
    found by scanning every holding."""
    if shortfall <= 0:
        return
    present = {
        owner
        for (owner, _m), holding in _flat_holdings(memory).items()
        if holding.device == device and holding.blocks > 0
    }
    candidates = sorted(
        (
            owner
            for owner in present
            if owner != protect and owner not in memory._running
        ),
        key=lambda owner: (memory._lru.get(owner, -1), owner),
    )
    freed = 0
    for victim in candidates:
        if freed >= shortfall:
            break
        victim_freed = 0
        for (owner, model), holding in list(_flat_holdings(memory).items()):
            if owner == victim and holding.device == device:
                victim_freed += _scan_drop(memory, owner, model, holding)
                memory._evicted.setdefault(owner, set()).add(model)
        if victim_freed:
            freed += victim_freed
            memory.evictions += 1
            memory.evicted_blocks += victim_freed


def _allocator_state(memory):
    """Everything release and eviction may change, in comparable form."""
    return (
        [(pool.used, pool.peak, dict(pool.shared)) for pool in memory.pools],
        set(memory._holdings),  # no empty per-request map is left behind
        {
            key: (*_shape(holding), holding.prompt_key)
            for key, holding in _flat_holdings(memory).items()
        },
        set(memory._running),
        {request: set(models) for request, models in memory._evicted.items()},
        dict(memory._lru),
        memory.evictions,
        memory.evicted_blocks,
    )


class TestResidencyLookup:
    """``release_request`` and eviction reach a request's residencies through
    the request-keyed map; from every state an op tape reaches, they must
    free exactly what a scan of every holding frees, and leave the ledgers
    balanced."""

    @given(
        tape=st.lists(
            st.tuples(
                # mostly executed phases, so idle sessions are there to evict
                st.sampled_from(["serve"] * 3 + ["admit", "commit", "fail", "release"]),
                st.integers(min_value=0, max_value=3),  # request
                st.integers(min_value=0, max_value=1),  # model index
                st.integers(min_value=0, max_value=1),  # device
                st.integers(min_value=1, max_value=60),  # peak tokens
            ),
            min_size=1,
            max_size=40,
        ),
        capacity=st.integers(min_value=4, max_value=16),
    )
    @STABLE
    def test_release_and_eviction_match_whole_map_scan(self, tape, capacity):
        spec = MemorySpec(device_blocks=capacity, block_size=4)
        harness = _AllocatorHarness([capacity, capacity], spec)
        memory = harness.memory
        for op, request, model_idx, device, peak in tape:
            if op in ("admit", "serve"):
                harness.admit(request, MODELS[model_idx], device, peak)
                if op == "serve":  # an executed phase: the session goes idle
                    harness.settle(request, True, peak // 4)
            elif op in ("commit", "fail"):
                harness.settle(request, op == "commit", peak // 4)
            else:
                harness.release(request)
            for target in range(4):
                if target in harness.running:
                    continue  # only an idle session is ever released
                actual, reference = copy.deepcopy(memory), copy.deepcopy(memory)
                freed = actual.release_request(target)
                assert freed == _scan_release(reference, target)
                assert _allocator_state(actual) == _allocator_state(reference)
                actual.audit()
            for target_device in (0, 1):
                for shortfall in (1, capacity):
                    actual, reference = copy.deepcopy(memory), copy.deepcopy(memory)
                    actual._evict_until(target_device, shortfall, protect=request)
                    _scan_evict(reference, target_device, shortfall, protect=request)
                    assert _allocator_state(actual) == _allocator_state(reference)
                    actual.audit()
        harness.drain()


class TestAllocatorUnit:
    def test_prefix_sharing_dedupes_physical_blocks(self):
        spec = MemorySpec(device_blocks=64, block_size=4)
        memory = ClusterKVMemory(spec, [64])
        # Request 0 decodes and commits 16 tokens of prompt "utt".
        assert memory.admit(0, 0, "m", "utt", 16, 0) == 0.0
        memory.settle(0, "m", 16, committed=True)
        used_solo = memory.used_blocks()[0]
        # Request 1, same prompt: its committed prefix rides the shared
        # blocks, costing only private scratch.
        assert memory.admit(0, 1, "m", "utt", 16, 0) == 0.0
        memory.settle(1, "m", 16, committed=True)
        assert memory.reuse_hits > 0
        assert memory.used_blocks()[0] < 2 * used_solo
        memory.audit()

    def test_no_sharing_means_no_reuse(self):
        spec = MemorySpec(device_blocks=64, block_size=4, prefix_sharing=False)
        memory = ClusterKVMemory(spec, [64])
        memory.admit(0, 0, "m", "utt", 16, 0)
        memory.settle(0, "m", 16, committed=True)
        memory.admit(0, 1, "m", "utt", 16, 0)
        memory.settle(1, "m", 16, committed=True)
        assert memory.reuse_hits == 0

    def test_eviction_marks_and_reprefill_penalty(self):
        spec = MemorySpec(device_blocks=6, block_size=4, reprefill_ms_per_block=2.0)
        memory = ClusterKVMemory(spec, [6])
        assert memory.admit(0, 0, "m", "a", 12, 0) == 0.0
        memory.settle(0, "m", 12, committed=True)  # 3 blocks resident
        # Request 1 needs the space; request 0 is idle -> evicted.
        assert memory.admit(0, 1, "m", "b", 12, 0) == 0.0
        assert memory.evictions == 1
        assert memory.evicted_blocks >= 3
        memory.settle(1, "m", 12, committed=True)
        memory.release_request(1)
        # Request 0 resumes: pays the re-prefill for its 3 resident blocks.
        penalty = memory.admit(0, 0, "m", "a", 12, 12)
        assert penalty == pytest.approx(2.0 * 3)
        assert memory.reprefill_ms == pytest.approx(penalty)
        memory.audit()

    def test_eviction_frees_every_model_of_a_victim(self):
        spec = MemorySpec(device_blocks=12, block_size=4)
        memory = ClusterKVMemory(spec, [12, 12])
        for request, device in ((0, 0), (1, 0), (2, 1)):
            for model in MODELS:
                memory.admit(device, request, model, f"utt-{request}", 8, 0)
                memory.settle(request, model, 8, True)
        # Request 0 is the least recently used: a one-block shortfall on
        # device 0 evicts both of its models there, and nothing else.
        memory._evict_until(0, 1, protect=-1)
        assert memory.evictions == 1
        remaining = {
            (request, model, holding.device)
            for (request, model), holding in _flat_holdings(memory).items()
        }
        assert remaining == {(r, m, d) for r, d in ((1, 0), (2, 1)) for m in MODELS}
        memory.audit()

    def test_finished_request_leaves_no_reprefill_mark(self):
        memory = ClusterKVMemory(MemorySpec(device_blocks=4, block_size=4), [4, 4])
        draft, target = MODELS
        # Request 0's last draft phase commits 8 tokens on device 0.
        memory.admit(0, 0, draft, "a", 8, 0)
        memory.settle(0, draft, 8, committed=True)
        # Request 1 needs all of device 0: the idle draft residency goes.
        assert memory.admit(0, 1, draft, "b", 12, 0) == 0.0
        assert memory.evictions == 1
        memory.settle(1, draft, 12, committed=True)
        memory.release_request(1)
        # Request 0 runs its last phase, a verify on device 1, and completes.
        memory.admit(1, 0, target, "a", 8, 0)
        memory.settle(0, target, 8, committed=True)
        memory.release_request(0)
        # The draft model's re-prefill mark went with the request.
        assert not memory._evicted
        assert not memory._lru
        memory.audit(drained=True)

    def test_running_session_never_evicted_even_under_pressure(self):
        spec = MemorySpec(device_blocks=4, block_size=4)
        memory = ClusterKVMemory(spec, [4])
        assert memory.admit(0, 0, "m", "a", 8, 0) == 0.0  # in flight, 3 blocks
        # Request 1 cannot fit: the only resident session is running.
        assert memory.admit(0, 1, "m", "b", 8, 0) is None
        assert memory.stalls == 1
        assert memory.evictions == 0
        memory.settle(0, "m", 0, committed=False)
        memory.audit()

    def test_fits_anywhere(self):
        memory = ClusterKVMemory(MemorySpec(device_blocks=4), [4, None])
        assert memory.fits_anywhere(3, [0])
        assert not memory.fits_anywhere(9, [0])
        assert memory.fits_anywhere(9, [0, 1])  # unbounded device

    def test_drained_audit_fails_on_leftover_kv(self):
        memory = ClusterKVMemory(MemorySpec(device_blocks=16, block_size=4), [16])
        memory.audit(drained=True)
        memory.admit(0, 0, "m", "a", 8, 0)
        memory.audit()
        with pytest.raises(AssertionError, match="KV leaked"):
            memory.audit(drained=True)  # a phase still executing
        memory.settle(0, "m", 8, committed=True)
        with pytest.raises(AssertionError, match="KV leaked"):
            memory.audit(drained=True)  # an idle residency still held
        memory.release_request(0)
        memory.audit(drained=True)

    def test_drained_audit_fails_on_leftover_reprefill_marks(self):
        memory = ClusterKVMemory(MemorySpec(device_blocks=16, block_size=4), [16])
        memory.admit(0, 0, "m", "a", 8, 0)
        # The phase failed: its blocks go, the mark stays for the retry.
        memory.settle(0, "m", 0, committed=False)
        assert not any(memory.used_blocks())
        with pytest.raises(AssertionError, match=r"marks on \[0\], LRU ticks on \[0\]"):
            memory.audit(drained=True)
        memory.release_request(0)  # the request was shed without a retry
        memory.audit(drained=True)


class TestAllocatorContract:
    """A request has one phase executing at most, and an idle residency
    moves to another device only once that device admits the phase."""

    def test_second_executing_phase_raises(self):
        memory = ClusterKVMemory(MemorySpec(device_blocks=16, block_size=4), [16, 16])
        assert memory.admit(0, 0, MODELS[0], "a", 8, 0) == 0.0
        for device, model in ((0, MODELS[1]), (1, MODELS[0])):
            with pytest.raises(RuntimeError, match="already has a phase executing"):
                memory.admit(device, 0, model, "a", 8, 0)
        with pytest.raises(RuntimeError, match="has a phase executing"):
            memory.release_request(0)
        memory.settle(0, MODELS[0], 8, committed=True)
        assert memory.admit(0, 0, MODELS[1], "a", 8, 0) == 0.0  # idle again
        memory.audit()

    def test_settle_without_executing_phase_raises(self):
        memory = ClusterKVMemory(MemorySpec(device_blocks=16, block_size=4), [16])
        with pytest.raises(RuntimeError, match="no phase executing"):
            memory.settle(0, "m", 0, committed=True)
        memory.admit(0, 0, "m", "a", 8, 0)
        memory.settle(0, "m", 8, committed=True)
        for committed in (True, False):
            with pytest.raises(RuntimeError, match="no phase executing"):
                memory.settle(0, "m", 8, committed=committed)
        memory.audit()

    def test_stalled_migration_keeps_idle_residency(self):
        memory = ClusterKVMemory(MemorySpec(device_blocks=8, block_size=4), [8, 4])
        # Request 0 commits 8 tokens on device 0: two shared blocks.
        memory.admit(0, 0, "m", "a", 8, 0)
        memory.settle(0, "m", 8, committed=True)
        # Request 1 runs on device 1 and fills it.
        assert memory.admit(1, 1, "m", "b", 12, 0) == 0.0
        assert memory.used_blocks() == (2, 4)
        residency = _shape(_flat_holdings(memory)[(0, "m")])
        # Request 0's next phase routes to device 1 and stalls there: its
        # idle residency stays on device 0.
        assert memory.admit(1, 0, "m", "a", 8, 8) is None
        assert memory.used_blocks() == (2, 4)
        assert _shape(_flat_holdings(memory)[(0, "m")]) == residency
        # Once device 1 frees, the residency moves with the admitted phase;
        # it was never dropped, so no re-prefill is charged.
        memory.settle(1, "m", 12, committed=True)
        memory.release_request(1)
        assert memory.admit(1, 0, "m", "a", 8, 8) == 0.0
        assert memory.used_blocks() == (0, 3)
        assert _flat_holdings(memory)[(0, "m")].device == 1
        memory.audit()


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

    def test_run_fails_when_kv_leaks(self, decoder, clean_dataset, trace, monkeypatch):
        # Every request is terminal when the run ends, so KV still held
        # then is a leak, even where no eviction would ever notice it.
        monkeypatch.setattr(ClusterKVMemory, "release_request", lambda self, request: 0)
        with pytest.raises(AssertionError, match="KV leaked"):
            self._run(
                decoder,
                clean_dataset,
                trace,
                ClusterConfig(devices=1, router="colocated"),
                memory=MemorySpec(device_blocks=1_000_000),
            )

    def test_overflowing_reprefill_penalty_raises(self, decoder, clean_dataset, trace):
        # A finite rate whose penalty overflows to inf fails the batch
        # instead of leaving its device busy forever.
        with pytest.raises(ValueError, match="takes"):
            self._run(
                decoder,
                clean_dataset,
                trace,
                ClusterConfig(devices=2, router="colocated"),
                memory=MemorySpec(device_blocks=12, reprefill_ms_per_block=1e308),
            )

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
