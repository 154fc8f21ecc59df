"""Paged KV-cache accounting: memory as a first-class scheduling constraint.

Devices model *time* in :mod:`repro.serving.devices`; this module makes them
model *memory* too, with the vLLM-style paged discipline:

* KV state is billed in fixed-size **blocks** (``block_size`` token
  positions each).  Every in-flight session holds blocks **per model** —
  a speculative decode keeps a draft-model cache *and* a target-model
  cache resident, which is exactly where SpecASR doubles memory pressure.
  Each (request, model) pair has at most one residency, on one device.
* A phase may only dispatch on a device if its blocks fit
  (:meth:`ClusterKVMemory.admit` — the scheduler's admission gate), so the
  effective batch size *emerges* from free blocks instead of ``--max-batch``.
  A request has at most one phase executing, from ``admit`` to ``settle``.
* On commit the session's residency shrinks back to its committed prefix
  (block-granular append of accepted tokens; **rollback frees the blocks
  speculated-then-rejected tokens occupied**); scratch blocks used by the
  in-flight speculation are returned.
* Under pressure the allocator **evicts idle sessions LRU** (never one whose
  phase is executing); an evicted session's decode state survives — only
  its KV blocks are dropped — and its next dispatch pays a **re-prefill
  penalty** proportional to the blocks it must re-materialise.  A failed
  phase drops its residency the same way; eviction and failure are the
  only sources of re-prefill.  A finished request (completed or shed)
  releases its residencies and re-prefill marks at once.
* Full blocks of the committed region are **shared copy-on-write across
  requests** decoding the same prompt, keyed ``(model, utterance, block)``
  — the cross-request extension of the per-(model, utterance) prefix trie
  that already dedupes divergence state.  Writers never touch a shared
  block: the partially-filled tail block is always a private copy, and a
  private block only *promotes* to shared once it fills.

**Parity contract.**  Admission is a pure gate: it never reorders routing,
and a session's blocks migrate freely with its phases (consistent with the
least-loaded routers, which already move sessions between pool peers): an
idle residency moves to another device once that device admits the phase,
and stays where it is while the admission stalls.
When every phase fits — capacity ample — no eviction, no stall and no
penalty ever fires, so the schedule is bit-identical to a run with memory
accounting disabled.  The invariant suite pins this down.

Everything here is integer/float bookkeeping over the scheduler's
deterministic event order: no wall clock, no RNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

#: Default token positions per KV block (the vLLM default page size).
DEFAULT_BLOCK_SIZE = 16

#: Default simulated cost of re-materialising one evicted block on resume.
DEFAULT_REPREFILL_MS_PER_BLOCK = 2.0


@dataclass(frozen=True)
class MemorySpec:
    """Memory-model knobs for one serve simulation.

    ``device_blocks`` is every device's KV capacity in blocks; ``None``
    disables memory accounting entirely (the time-only cluster).
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
        rate = self.reprefill_ms_per_block
        if not math.isfinite(rate) or rate < 0:
            raise ValueError(
                f"reprefill_ms_per_block must be finite and >= 0, got {rate}"
            )

    @property
    def enabled(self) -> bool:
        """Does this spec turn memory accounting on?"""
        return self.device_blocks is not None

    def blocks_for(self, tokens: int) -> int:
        """Blocks needed to hold ``tokens`` cached positions."""
        if tokens <= 0:
            return 0
        return -(-tokens // self.block_size)


class _BlockPool:
    """Physical block accounting for one device."""

    __slots__ = ("capacity", "used", "peak", "shared")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.used = 0
        self.peak = 0
        # Refcounts of copy-on-write blocks: (model, prompt key, block
        # index) -> number of holdings referencing the one physical block.
        self.shared: dict[tuple[str, str, int], int] = {}

    def charge(self, blocks: int) -> None:
        self.used += blocks
        if self.used > self.peak:
            self.peak = self.used
        if self.used > self.capacity:
            raise RuntimeError(
                f"block pool over capacity: {self.used} > {self.capacity}"
            )

    def release(self, blocks: int) -> None:
        self.used -= blocks
        if self.used < 0:
            raise RuntimeError(f"block pool underflow: {self.used}")


class _Holding:
    """One (request, model) residency: its device, blocks and prompt key.

    ``shared`` counts the leading committed-prefix blocks referenced
    through the device pool's copy-on-write table under ``prompt_key``;
    ``private`` counts blocks owned outright (the partial tail block plus
    in-flight speculation scratch).
    """

    __slots__ = ("device", "prompt_key", "shared", "private")

    def __init__(self, device: int, prompt_key: str) -> None:
        self.device = device
        self.prompt_key = prompt_key
        self.shared = 0
        self.private = 0

    @property
    def blocks(self) -> int:
        return self.shared + self.private


class ClusterKVMemory:
    """Cluster-wide paged KV allocator driven by the scheduler's event loop.

    One instance per scheduler run, with one pool of ``spec.device_blocks``
    blocks per device.  Holdings are keyed by request index, then model — a
    speculative session holds draft-model and target-model residencies
    independently, each on one device, and completion, shedding or eviction
    reaches one request's residencies without scanning anyone else's.  The
    map iterates least recently admitted first: :meth:`admit` re-inserts
    the request it admits.  A request has at most one phase executing,
    from :meth:`admit` to :meth:`settle`; a second admission before the
    settle raises, as does a settle with nothing executing.
    """

    def __init__(self, spec: MemorySpec, devices: int) -> None:
        if spec.device_blocks is None:
            raise ValueError("KV accounting needs MemorySpec.device_blocks")
        self.spec = spec
        self.pools = [_BlockPool(spec.device_blocks) for _ in range(devices)]
        self._holdings: dict[int, dict[str, _Holding]] = {}  # request -> model
        self._running: set[int] = set()  # requests with a phase executing
        # Residencies dropped outright (evicted, or lost with a failed
        # phase), as request -> models: their next admission pays the
        # re-prefill penalty.  A finished request's entry goes with its
        # release.
        self._evicted: dict[int, set[str]] = {}
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
        return any(demand <= self.pools[index].capacity for index in device_indices)

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
        the phase at the next event.  An idle residency on another device
        follows the phase only once it fits here (simulated KV transfer is
        free — part of the parity contract); a stalled admission leaves it
        where it was.  Raises when ``request`` already has a phase
        executing.
        """
        if request in self._running:
            raise RuntimeError(f"request {request} already has a phase executing")
        pool = self.pools[device]
        held = self._holdings.get(request, {}).get(model)
        holding = held if held is not None and held.device == device else None
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
            if pool.used + needed <= pool.capacity:
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
        # Re-inserted, so the map iterates least recently admitted first.
        models = self._holdings.pop(request, {})
        self._holdings[request] = models
        if holding is None:
            if held is not None:
                self._release(model, held)  # the residency moves to ``device``
            holding = models[model] = _Holding(device, prompt_key)
        holding.shared = shared_target
        holding.private = private_target
        self._running.add(request)
        penalty = 0.0
        marks = self._evicted.get(request)
        if marks is not None and model in marks:
            marks.remove(model)
            if not marks:
                del self._evicted[request]
            penalty = self.spec.reprefill_ms_per_block * self.spec.blocks_for(
                resident_tokens
            )
            self.reprefill_ms += penalty
        return penalty

    # -- settlement --------------------------------------------------------
    def settle(
        self, request: int, model: str, resident_tokens: int, committed: bool
    ) -> None:
        """Resolve ``request``'s executing ``model`` phase after its batch ends.

        On commit the residency shrinks to the new committed extent
        (``resident_tokens``): speculation scratch is returned and the
        blocks of rejected tokens are freed, while newly-filled prefix
        blocks promote into the copy-on-write table.  A failed phase drops
        the residency outright (crash semantics), and the next admission
        pays the re-prefill penalty.  Raises when ``request`` has no phase
        executing.
        """
        if request not in self._running:
            raise RuntimeError(f"request {request} has no phase executing")
        self._running.remove(request)
        if not committed:
            self._drop(request, model)
            return
        holding = self._holdings[request][model]
        pool = self.pools[holding.device]
        shared_target = (
            resident_tokens // self.spec.block_size if self.spec.prefix_sharing else 0
        )
        for index in range(holding.shared, shared_target):
            # A private block filled up: promote it.  If a peer session
            # already published this block the copies merge (true
            # copy-on-write dedup — one physical block survives).
            key = (model, holding.prompt_key, index)
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
    def release_request(self, request: int) -> int:
        """Free every residency of a finished ``request`` (completed/shed).

        Only a session whose phase is not executing may be released; a
        running one raises.  Its re-prefill marks go too, including the
        mark of a model evicted after its last phase.
        """
        if request in self._running:
            raise RuntimeError(f"request {request} has a phase executing")
        freed = 0
        for model, holding in self._holdings.pop(request, {}).items():
            freed += self._release(model, holding)
        self._evicted.pop(request, None)
        return freed

    def _drop(self, request: int, model: str) -> int:
        """Free one residency outright; its next admission re-prefills."""
        models = self._holdings[request]
        freed = self._release(model, models.pop(model))
        if not models:
            del self._holdings[request]
        self._evicted.setdefault(request, set()).add(model)
        return freed

    def _release(self, model: str, holding: _Holding) -> int:
        """Free one holding's blocks, including its shared references."""
        pool = self.pools[holding.device]
        freed = holding.private
        pool.release(holding.private)
        for index in range(holding.shared):
            key = (model, holding.prompt_key, index)
            refs = pool.shared.get(key, 0)
            if refs <= 1:
                pool.shared.pop(key, None)
                pool.release(1)
                freed += 1
            else:
                pool.shared[key] = refs - 1
        return freed

    def _evict_until(self, device: int, shortfall: int, protect: int) -> None:
        """LRU-evict idle sessions on ``device`` until ``shortfall`` frees.

        A session is evictable when it holds blocks on ``device``, has no
        phase executing (eviction never touches a running session) and is
        not the session being admitted.  Eviction drops the victim's
        residencies on ``device``; the decode state itself survives in the
        stepper, and the victim's next admission re-prefills the dropped
        blocks.
        """
        if shortfall <= 0:
            return
        running, holdings = self._running, self._holdings
        freed = 0
        # Least recently admitted first; a snapshot, since a victim whose
        # last residency goes leaves the map.
        for victim in list(holdings):
            if victim == protect or victim in running:
                continue
            models = holdings[victim]
            if not any(h.device == device and h.blocks > 0 for h in models.values()):
                continue
            victim_freed = 0
            for model, holding in list(models.items()):
                if holding.device == device:
                    victim_freed += self._drop(victim, model)
            if victim_freed:  # shared blocks a peer still holds free nothing
                freed += victim_freed
                self.evictions += 1
                self.evicted_blocks += victim_freed
                if freed >= shortfall:
                    return

    # -- reporting / invariants --------------------------------------------
    @property
    def capacities(self) -> tuple[int, ...]:
        return tuple(pool.capacity for pool in self.pools)

    @property
    def peaks(self) -> tuple[int, ...]:
        return tuple(pool.peak for pool in self.pools)

    def used_blocks(self) -> tuple[int, ...]:
        return tuple(pool.used for pool in self.pools)

    def audit(self, drained: bool = False) -> None:
        """Assert block conservation: the pool ledgers match the holdings.

        ``used == private blocks + distinct shared blocks`` per device, and
        nothing exceeds capacity.  With ``drained=True`` (every request is
        terminal, as at the end of a scheduler run) any used block,
        residency, running phase or re-prefill mark left over is a leak and
        fails too.
        """
        private = [0] * len(self.pools)
        for models in self._holdings.values():
            for holding in models.values():
                private[holding.device] += holding.private
        for device, pool in enumerate(self.pools):
            expected = private[device] + len(pool.shared)
            if pool.used != expected:
                raise AssertionError(
                    f"device {device}: ledger says {pool.used} blocks used, "
                    f"holdings account for {expected}"
                )
            if pool.used > pool.capacity:
                raise AssertionError(
                    f"device {device}: {pool.used} blocks used exceeds "
                    f"capacity {pool.capacity}"
                )
        if drained and (
            self._holdings or self._running or self._evicted or any(self.used_blocks())
        ):
            raise AssertionError(
                f"KV leaked: requests {sorted(self._holdings)} still resident, "
                f"{sorted(self._running)} running, blocks used "
                f"{self.used_blocks()}, re-prefill marks on "
                f"{sorted(self._evicted)}"
            )
