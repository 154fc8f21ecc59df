"""Paged KV-cache accounting: memory as a first-class scheduling constraint.

Devices model *time* in :mod:`repro.serving.devices`; this module makes them
model *memory* too, with the vLLM-style paged discipline:

* KV state is billed in fixed-size **blocks** (``block_size`` token
  positions each).  Every in-flight session holds blocks **per model** —
  a speculative decode keeps a draft-model cache *and* a target-model
  cache resident, which is exactly where SpecASR doubles memory pressure.
* A phase may only dispatch on a device if its blocks fit
  (:meth:`ClusterKVMemory.admit` — the scheduler's admission gate), so the
  effective batch size *emerges* from free blocks instead of ``--max-batch``.
* On commit the session's residency shrinks back to its committed prefix
  (block-granular append of accepted tokens; **rollback frees the blocks
  speculated-then-rejected tokens occupied**); scratch blocks used by the
  in-flight speculation are returned.
* Under pressure the allocator **evicts idle sessions LRU** (never one with
  a copy executing); an evicted session's decode state survives — only its
  KV blocks are dropped — and its next dispatch pays a **re-prefill
  penalty** proportional to the blocks it must re-materialise.
* Full blocks of the committed region are **shared copy-on-write across
  requests** decoding the same prompt, keyed ``(model, utterance, block)``
  — the cross-request extension of the per-(model, utterance) prefix trie
  that already dedupes divergence state.  Writers never touch a shared
  block: the partially-filled tail block is always a private copy, and a
  private block only *promotes* to shared once it fills.

**Parity contract.**  Admission is a pure gate: it never reorders routing,
and a session's blocks migrate freely with its phases (consistent with the
least-loaded routers, which already move sessions between pool peers).
When every phase fits — capacity ample — no eviction, no stall and no
penalty ever fires, so the schedule is bit-identical to a run with memory
accounting disabled.  The invariant suite pins this down.

Everything here is integer/float bookkeeping over the scheduler's
deterministic event order: no wall clock, no RNG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

#: Default token positions per KV block (the vLLM default page size).
DEFAULT_BLOCK_SIZE = 16

#: Default simulated cost of re-materialising one evicted block on resume.
DEFAULT_REPREFILL_MS_PER_BLOCK = 2.0


@dataclass(frozen=True)
class MemorySpec:
    """Memory-model knobs for one serve simulation.

    ``device_blocks`` is the per-device KV capacity in blocks; ``None``
    disables memory accounting entirely (the legacy time-only cluster).
    Per-device ``DeviceSpec.memory_blocks`` overrides beat this default,
    so heterogeneous clusters can mix large- and small-memory parts.
    """

    device_blocks: int | None = None
    block_size: int = DEFAULT_BLOCK_SIZE
    prefix_sharing: bool = True
    reprefill_ms_per_block: float = DEFAULT_REPREFILL_MS_PER_BLOCK

    def __post_init__(self) -> None:
        if self.device_blocks is not None and self.device_blocks < 1:
            raise ValueError(
                f"device_blocks must be >= 1 when set, got {self.device_blocks}"
            )
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")
        if not self.reprefill_ms_per_block >= 0:  # NaN fails every comparison
            raise ValueError(
                "reprefill_ms_per_block must be >= 0, got "
                f"{self.reprefill_ms_per_block}"
            )

    @property
    def enabled(self) -> bool:
        """Does this spec, by itself, turn memory accounting on?"""
        return self.device_blocks is not None

    def blocks_for(self, tokens: int) -> int:
        """Blocks needed to hold ``tokens`` cached positions."""
        if tokens <= 0:
            return 0
        return -(-tokens // self.block_size)


class _BlockPool:
    """Physical block accounting for one device."""

    __slots__ = ("capacity", "used", "peak", "shared")

    def __init__(self, capacity: int | None) -> None:
        self.capacity = capacity  # None = unbounded (accounting only)
        self.used = 0
        self.peak = 0
        # Refcounts of copy-on-write blocks: (model, prompt key, block
        # index) -> number of holdings referencing the one physical block.
        self.shared: dict[tuple[str, str, int], int] = {}

    def free(self) -> int | None:
        if self.capacity is None:
            return None
        return self.capacity - self.used

    def charge(self, blocks: int) -> None:
        self.used += blocks
        if self.used > self.peak:
            self.peak = self.used
        if self.capacity is not None and self.used > self.capacity:
            raise RuntimeError(
                f"block pool over capacity: {self.used} > {self.capacity}"
            )

    def release(self, blocks: int) -> None:
        self.used -= blocks
        if self.used < 0:
            raise RuntimeError(f"block pool underflow: {self.used}")


class _Holding:
    """One (request, model) residency on one device.

    ``shared`` counts the leading committed-prefix blocks referenced
    through the pool's copy-on-write table; ``private`` counts blocks owned
    outright (the partial tail block plus in-flight speculation scratch).
    ``inflight`` counts dispatched copies of the current phase charged
    against this holding (0 = idle, hence evictable).
    """

    __slots__ = ("shared", "private", "inflight")

    def __init__(self) -> None:
        self.shared = 0
        self.private = 0
        self.inflight = 0

    @property
    def blocks(self) -> int:
        return self.shared + self.private


class ClusterKVMemory:
    """Cluster-wide paged KV allocator driven by the scheduler's event loop.

    One instance per scheduler run.  ``capacities`` holds the per-device
    block budgets (``None`` = unbounded); holdings are keyed by request
    index, then model, then device — a speculative session holds
    draft-model and target-model residencies independently, and
    completion, preemption or eviction reaches one request's residencies
    without scanning anyone else's.
    """

    def __init__(self, spec: MemorySpec, capacities: Sequence[int | None]) -> None:
        self.spec = spec
        self.pools = [_BlockPool(capacity) for capacity in capacities]
        # request -> model -> device index -> holding
        self._holdings: dict[int, dict[str, dict[int, _Holding]]] = {}
        # (request, model) -> copy-on-write prompt key its shared blocks use
        self._prompt_keys: dict[tuple[int, str], str] = {}
        # Residencies dropped without a surviving copy (evicted / crashed /
        # preempted): their next admission pays the re-prefill penalty.
        self._evicted: set[tuple[int, str]] = set()
        self._lru: dict[int, int] = {}  # request -> last-admit tick
        self._tick = 0
        self.evictions = 0
        self.evicted_blocks = 0
        self.reuse_hits = 0
        self.reprefill_ms = 0.0
        self.stalls = 0

    # -- demand model ------------------------------------------------------
    def phase_demand(self, peak_tokens: int, resident_tokens: int) -> int:
        """Blocks a phase needs while executing.

        Covers the phase's peak cache extent plus one growth block so the
        verify commit's correction/bonus token — which can land one past
        the last billed position — never needs an emergency allocation.
        """
        return self.spec.blocks_for(max(peak_tokens, resident_tokens)) + 1

    def fits_anywhere(self, demand: int, device_indices: Iterable[int]) -> bool:
        """Could ``demand`` blocks ever fit on one of these devices?"""
        for index in device_indices:
            capacity = self.pools[index].capacity
            if capacity is None or demand <= capacity:
                return True
        return False

    # -- admission gate ----------------------------------------------------
    def admit(
        self,
        device: int,
        request: int,
        model: str,
        prompt_key: str,
        peak_tokens: int,
        resident_tokens: int,
    ) -> float | None:
        """Reserve the blocks one phase needs on ``device``.

        Returns the re-prefill penalty in milliseconds (0.0 almost always;
        positive when the session's residency was evicted and must be
        re-materialised) — or ``None`` when the phase does not fit right
        now even after evicting every idle session.  The caller re-offers
        the phase at the next event.
        """
        pool = self.pools[device]
        hkey = (request, model)
        hmap = self._holdings.setdefault(request, {}).setdefault(model, {})
        self._prompt_keys.setdefault(hkey, prompt_key)
        # Free migration: the routers already move sessions between pool
        # peers, so an idle residency left on another device follows the
        # phase (simulated KV transfer is free — part of the parity
        # contract with the memory-disabled scheduler).
        if hmap and (len(hmap) > 1 or device not in hmap):
            for other, other_holding in list(hmap.items()):
                if other != device and other_holding.inflight == 0:
                    self._release_full(hkey, hmap, other, other_holding)
        holding = hmap.get(device)
        current_shared = holding.shared if holding is not None else 0
        current_private = holding.private if holding is not None else 0
        demand = self.phase_demand(peak_tokens, resident_tokens)
        shared_target = (
            resident_tokens // self.spec.block_size if self.spec.prefix_sharing else 0
        )
        if shared_target < current_shared:
            shared_target = current_shared  # never demote already-shared blocks
        private_target = max(demand - shared_target, 0)
        freed = max(current_private - private_target, 0)
        while True:
            # New physical blocks and shared blocks reused, against the
            # pool's *current* table: eviction can free a block this
            # admission meant to reuse, so the plan recomputes every round.
            new_physical = max(private_target - current_private, 0)
            reused = 0
            for index in range(current_shared, shared_target):
                if pool.shared.get((model, prompt_key, index), 0) == 0:
                    new_physical += 1
                else:
                    reused += 1
            needed = new_physical - freed
            if pool.capacity is None or pool.used + needed <= pool.capacity:
                break
            used_before = pool.used
            self._evict_until(device, pool.used + needed - pool.capacity, request)
            if pool.used == used_before:  # nothing left to evict
                self.stalls += 1
                return None
        # Commit the reservation.
        for index in range(current_shared, shared_target):
            key = (model, prompt_key, index)
            refs = pool.shared.get(key, 0)
            if refs == 0:
                pool.charge(1)
            pool.shared[key] = refs + 1
        self.reuse_hits += reused
        if private_target > current_private:
            pool.charge(private_target - current_private)
        elif private_target < current_private:
            pool.release(current_private - private_target)
        if holding is None:
            holding = hmap[device] = _Holding()
        holding.shared = shared_target
        holding.private = private_target
        holding.inflight += 1
        self._tick += 1
        self._lru[request] = self._tick
        penalty = 0.0
        if (request, model) in self._evicted:
            self._evicted.discard((request, model))
            penalty = self.spec.reprefill_ms_per_block * self.spec.blocks_for(
                resident_tokens
            )
            self.reprefill_ms += penalty
        return penalty

    # -- settlement --------------------------------------------------------
    def settle(
        self,
        device: int,
        request: int,
        model: str,
        prompt_key: str,
        resident_tokens: int,
        committed: bool,
    ) -> None:
        """Resolve one dispatched copy after its batch completes.

        On commit the holding shrinks to the new committed residency
        (``resident_tokens``): speculation scratch is returned and the
        blocks of rejected tokens are freed, while newly-filled prefix
        blocks promote into the copy-on-write table.  A failed copy
        releases its blocks outright; if no sibling copy survives the
        residency is gone (crash semantics) and the next admission pays
        the re-prefill penalty.
        """
        hmap = self._holdings.get(request, {}).get(model)
        holding = hmap.get(device) if hmap is not None else None
        if hmap is None or holding is None:
            return  # released wholesale (request completed/shed) before settle
        if holding.inflight > 0:
            holding.inflight -= 1
        if not committed:
            if holding.inflight == 0:
                self._release_full((request, model), hmap, device, holding)
                if not hmap:
                    self._forget((request, model), evicted=True)
            return
        pool = self.pools[device]
        shared_target = (
            resident_tokens // self.spec.block_size if self.spec.prefix_sharing else 0
        )
        for index in range(holding.shared, shared_target):
            # A private block filled up: promote it.  If a peer session
            # already published this block the copies merge (true
            # copy-on-write dedup — one physical block survives).
            key = (model, prompt_key, index)
            refs = pool.shared.get(key, 0)
            if refs > 0:
                self.reuse_hits += 1
                pool.release(1)
            pool.shared[key] = refs + 1
            holding.shared += 1
            holding.private -= 1
        private_target = self.spec.blocks_for(resident_tokens) - holding.shared
        if private_target < 0:
            private_target = 0
        if holding.private > private_target:
            pool.release(holding.private - private_target)
            holding.private = private_target
        elif holding.private < private_target:
            # The commit's bonus token spilled into the reserved growth
            # block (see phase_demand): account it as resident now.
            pool.charge(private_target - holding.private)
            holding.private = private_target

    # -- eviction / release ------------------------------------------------
    def _forget(self, key: tuple[int, str], evicted: bool) -> None:
        """Drop an emptied (request, model) entry and record its fate."""
        request, model = key
        models = self._holdings.get(request)
        if models is not None:
            models.pop(model, None)
            if not models:
                del self._holdings[request]
        self._prompt_keys.pop(key, None)
        if evicted:
            self._evicted.add(key)
        else:
            self._evicted.discard(key)

    def release_request(self, request: int, evicted: bool = False) -> int:
        """Free every idle residency of ``request`` (completion/shed/preempt).

        Copies still executing keep their blocks until they settle (their
        settle path releases them).  With ``evicted=True`` (queue
        preemption) the residency marks as evicted so the resumed session
        pays re-prefill on its next dispatch.
        """
        freed = 0
        for model, hmap in list(self._holdings.get(request, {}).items()):
            key = (request, model)
            for device, holding in list(hmap.items()):
                if holding.inflight == 0:
                    freed += self._release_full(key, hmap, device, holding)
            if not hmap:
                self._forget(key, evicted)
        if not evicted:
            self._lru.pop(request, None)
        return freed

    def _release_full(
        self,
        key: tuple[int, str],
        hmap: dict[int, _Holding],
        device: int,
        holding: _Holding,
    ) -> int:
        """Free one holding including its shared references."""
        model = key[1]
        pool = self.pools[device]
        freed = holding.private
        pool.release(holding.private)
        prompt_key = self._prompt_keys.get(key, "")
        for index in range(holding.shared):
            skey = (model, prompt_key, index)
            refs = pool.shared.get(skey, 0)
            if refs <= 1:
                pool.shared.pop(skey, None)
                pool.release(1)
                freed += 1
            else:
                pool.shared[skey] = refs - 1
        holding.shared = 0
        holding.private = 0
        del hmap[device]
        return freed

    def _evict_until(self, device: int, shortfall: int, protect: int) -> None:
        """LRU-evict idle sessions on ``device`` until ``shortfall`` frees.

        A session is evictable only when *none* of its copies is executing
        anywhere (eviction never touches a running session) and it is not
        the session being admitted.  Eviction drops whole per-device
        residencies; the decode state itself survives in the stepper, so
        this is memory-pressure preemption with state-intact resume.
        """
        if shortfall <= 0:
            return
        busy: set[int] = set()
        present: set[int] = set()
        for request, models in self._holdings.items():
            for hmap in models.values():
                for dev, holding in hmap.items():
                    if holding.inflight > 0:
                        busy.add(request)
                    if dev == device and holding.blocks > 0:
                        present.add(request)
        candidates = sorted(
            (r for r in present if r != protect and r not in busy),
            key=lambda r: (self._lru.get(r, -1), r),
        )
        freed = 0
        for victim in candidates:
            if freed >= shortfall:
                break
            victim_freed = 0
            for model, hmap in list(self._holdings[victim].items()):
                key = (victim, model)
                holding = hmap.get(device)
                if holding is not None:
                    victim_freed += self._release_full(key, hmap, device, holding)
                if not hmap:
                    self._forget(key, evicted=True)
            if victim_freed:
                freed += victim_freed
                self.evictions += 1
                self.evicted_blocks += victim_freed

    # -- reporting / invariants --------------------------------------------
    @property
    def capacities(self) -> tuple[int | None, ...]:
        return tuple(pool.capacity for pool in self.pools)

    @property
    def peaks(self) -> tuple[int, ...]:
        return tuple(pool.peak for pool in self.pools)

    def used_blocks(self) -> tuple[int, ...]:
        return tuple(pool.used for pool in self.pools)

    def audit(self) -> None:
        """Assert block conservation: the pool ledgers match the holdings.

        ``used == private blocks + distinct shared blocks`` per device, and
        nothing exceeds capacity.  The property suite calls this after
        every scheduler run.
        """
        for device, pool in enumerate(self.pools):
            private = sum(
                holding.private
                for models in self._holdings.values()
                for hmap in models.values()
                for dev, holding in hmap.items()
                if dev == device
            )
            expected = private + len(pool.shared)
            if pool.used != expected:
                raise AssertionError(
                    f"device {device}: ledger says {pool.used} blocks used, "
                    f"holdings account for {expected}"
                )
            if pool.capacity is not None and pool.used > pool.capacity:
                raise AssertionError(
                    f"device {device}: {pool.used} blocks used exceeds "
                    f"capacity {pool.capacity}"
                )
