"""Placement policies: which device runs which decode phase.

Three policies, all deterministic (pure functions of the arrival trace and
the cluster spec, so a fixed trace schedules identically on every run):

* ``colocated`` — K-way sharding.  Each request has one home device
  (``index % K``); its draft *and* verify phases both run there.  This is
  the classic replicated deployment: more devices means more shards, but a
  device batch can mix draft and verify phases, which serialise across
  models (see :mod:`repro.serving.devices`).

* ``disaggregated`` — draft-pool / target-pool split.  A request's draft
  phases run in the draft pool and its verify phases in the target pool,
  so drafting for one round can proceed while the target pool verifies
  another request's previous round (the pipeline the SpecASR setting
  exposes: the small draft model and the large target model live on
  different hardware).  Pool devices only ever run one model, so their
  batches never pay cross-model serialisation.

* ``merged`` — disaggregated placement, plus **merged cross-request
  verification**: every verify phase co-scheduled on a target device
  coalesces into one batched target pass (a single weight read — overlap 1
  for the verify group), the batched-verification win the throughput
  framing of dLLM-ASR points at.

Policies live in ``ROUTER_REGISTRY`` (name → class); ``build_router`` and
:class:`ClusterConfig` validation both read it, so registering a policy is
one dict entry — there is no dispatch chain a new policy can silently miss.

**Pool planning.**  The draft/target split is itself a placement decision:

* ``split="fixed"`` keeps the legacy ``K // 2`` prefix split (odd device to
  the target pool — verify is the heavy side).
* ``split="balanced"`` sizes the pools from the *workload*: the scheduler
  measures the draft:verify cost ratio of the decoder on sample utterances
  (``measure_draft_share``) and :func:`plan_pool_split` picks the split
  whose draft-pool share of total cluster speed best matches the draft
  share of total decode cost.  Devices are considered slowest-first for the
  draft pool, so on a heterogeneous cluster the fast parts verify — the
  DistServe/Splitwise-style answer to asymmetric phase compute.

**Within-pool routing** is least-loaded instead of ``request_index %
len(pool)``: at each dispatch round the router projects every pool
device's next free time and sends each waiting phase to the device with
the earliest projection (ties broken by higher speed, then device index —
fully deterministic).  On heterogeneous pools this keeps slow devices from
becoming static hash-bucket hotspots.

:class:`ClusterConfig` is the serialisable knob set threaded through
:class:`~repro.serving.simulator.ServeSimConfig` and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.decoding.base import PHASE_DRAFT, PhaseOutcome, begin_decode
from repro.serving.devices import Device, DeviceSpec, make_devices

ROUTER_COLOCATED = "colocated"
ROUTER_DISAGGREGATED = "disaggregated"
ROUTER_MERGED = "merged"

SPLIT_FIXED = "fixed"
SPLIT_BALANCED = "balanced"

#: Pool-split policies accepted by :class:`ClusterConfig`.
SPLIT_POLICIES = (SPLIT_FIXED, SPLIT_BALANCED)

#: Draft share :func:`plan_pool_split` assumes when no measurement is
#: available (an empty trace, or a caller that never sampled the decoder).
DEFAULT_DRAFT_SHARE = 0.5

#: Utterances sampled by the scheduler to measure the draft:verify ratio.
PLANNER_SAMPLE_UTTERANCES = 3


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of the simulated accelerator cluster.

    ``devices`` may be omitted (``None``): it defaults to 1, or to
    ``len(device_specs)`` when a heterogeneous spec list is provided.  An
    *explicit* count that disagrees with the spec list — including 1 — is
    an error, never silently reinterpreted.  ``split`` picks the
    draft/target pool-sizing policy for disaggregating routers
    (``colocated`` has no pools and ignores it).
    """

    devices: int | None = None  # resolved to a concrete count in __post_init__
    router: str = ROUTER_COLOCATED
    split: str = SPLIT_FIXED
    device_specs: tuple[DeviceSpec, ...] | None = None

    def __post_init__(self) -> None:
        if self.device_specs is not None:
            specs = tuple(self.device_specs)
            object.__setattr__(self, "device_specs", specs)
            if not specs:
                raise ValueError("device_specs must not be empty")
            if self.devices is None:
                object.__setattr__(self, "devices", len(specs))
            elif self.devices != len(specs):
                raise ValueError(
                    f"devices={self.devices} does not match the "
                    f"{len(specs)}-entry device spec list"
                )
        elif self.devices is None:
            object.__setattr__(self, "devices", 1)
        if self.devices < 1:
            raise ValueError(f"devices must be >= 1, got {self.devices}")
        if self.router not in ROUTER_REGISTRY:
            raise ValueError(
                f"unknown router policy {self.router!r}; "
                f"use one of {', '.join(ROUTER_REGISTRY)}"
            )
        if self.split not in SPLIT_POLICIES:
            raise ValueError(
                f"unknown split policy {self.split!r}; "
                f"use one of {', '.join(SPLIT_POLICIES)}"
            )
        if self.router != ROUTER_COLOCATED and self.devices < 2:
            raise ValueError(
                f"router {self.router!r} needs a draft pool and a target "
                f"pool — at least 2 devices, got {self.devices}"
            )


def plan_pool_split(
    speeds: Sequence[float],
    draft_share: float,
    memory_blocks: Sequence[int | None] | None = None,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Partition device indices into ``(draft_pool, target_pool)``.

    ``draft_share`` is the fraction of total decode cost spent in draft
    phases (0 = all verify, 1 = all draft).  Candidate draft pools are
    prefixes of the devices ordered lightest-first (ties by index), so
    heavyweight parts default to the heavy verify side; the chosen prefix
    is the one whose share of total cluster capability is closest to
    ``draft_share``.  Ties prefer the smaller draft pool (verify is the
    heavy side), which also makes the choice deterministic on all-equal
    clusters.  Both pools always keep at least one device; degenerate
    shares clamp to the 1-device / (K-1)-device extremes.  Returned index
    tuples are sorted, so pool iteration order never depends on the
    planner's internal ordering.

    **Memory-aware placement.**  With ``memory_blocks`` (per-device KV
    capacities) on a non-uniform cluster, a device's capability is the
    mean of its speed share and its block share — a draft pool must hold
    the draft-model KV of every in-flight session, so its block budget
    sizes it as much as its speed.  Uniform or absent capacities reduce to
    the pure speed planner, which keeps memory-disabled (and ample-uniform)
    runs bit-identical to the legacy split.
    """
    if len(speeds) < 2:
        raise ValueError("pool planning needs at least 2 devices")
    if not 0.0 <= draft_share <= 1.0:
        raise ValueError(f"draft_share must be in [0, 1], got {draft_share}")
    weights = list(speeds)
    if memory_blocks is not None:
        if len(memory_blocks) != len(speeds):
            raise ValueError(
                f"memory_blocks has {len(memory_blocks)} entries for "
                f"{len(speeds)} devices"
            )
        blocks = [b for b in memory_blocks if b is not None]
        if len(blocks) == len(speeds) and len(set(blocks)) > 1:
            total_speed = sum(speeds)
            total_blocks = sum(blocks)
            weights = [
                0.5 * (speed / total_speed) + 0.5 * (cap / total_blocks)
                for speed, cap in zip(speeds, blocks, strict=True)
            ]
    order = sorted(range(len(weights)), key=lambda i: (weights[i], i))
    total = sum(weights)
    best_k = 1
    best_error = None
    prefix_weight = 0.0
    for k in range(1, len(weights)):
        prefix_weight += weights[order[k - 1]]
        error = abs(prefix_weight / total - draft_share)
        if best_error is None or error < best_error:
            best_error = error
            best_k = k
    draft = tuple(sorted(order[:best_k]))
    target = tuple(sorted(order[best_k:]))
    return draft, target


def measure_draft_share(decoder, utterances) -> float:
    """Fraction of decode cost spent in draft phases, measured by decoding.

    Pure simulation: phase costs depend only on (decoder, utterance), so
    the measurement is deterministic and placement-independent — running
    it never perturbs the transcripts or ``decode_ms`` the determinism
    contract guards.  It starts decodes through
    :func:`~repro.decoding.base.begin_decode`, so the tapes it records are
    the ones the later serving run of the same utterances replays.
    """
    draft = 0.0
    total = 0.0
    for utterance in utterances:
        stepper = begin_decode(decoder, utterance)
        while not stepper.done:
            outcome = stepper.step_phase()
            total += outcome.ms
            if outcome.phase == PHASE_DRAFT:
                draft += outcome.ms
    if total <= 0:
        return 0.0
    return draft / total


class ColocatedRouter:
    """K-way sharding: a request's whole decode lives on one device."""

    name = ROUTER_COLOCATED
    merge_verify = False

    def __init__(
        self,
        devices: list[Device],
        split: str = SPLIT_FIXED,
        draft_share: float | None = None,
        memory_blocks: Sequence[int | None] | None = None,
    ) -> None:
        if not devices:
            raise ValueError("router needs at least one device")
        self.devices = devices
        self._members = list(devices)
        self._available: set[int] | None = None

    def plan_round(
        self,
        now_ms: float,
        available: Sequence[int] | None = None,
        speeds: dict[int, float] | None = None,
    ) -> None:
        """Record which devices may take work this round (None = all)."""
        self._available = None if available is None else set(available)

    def route(self, request_index: int, phase: PhaseOutcome) -> Device | None:
        """Home device of the request, or None while it is unavailable."""
        if not self._members:
            return None
        device = self._members[request_index % len(self._members)]
        if self._available is not None and device.index not in self._available:
            return None
        return device

    def on_membership_change(self, alive_indices: Sequence[int]) -> None:
        """Re-shard over the surviving devices after a crash or restart."""
        alive = set(alive_indices)
        self._members = [d for d in self.devices if d.index in alive]

    def pool_devices(self, phase: PhaseOutcome) -> list[Device]:
        """Devices eligible for ``phase`` this round (the memory-shed check)."""
        if self._available is None:
            return list(self._members)
        return [d for d in self._members if d.index in self._available]

    def device_roles(self) -> tuple[str, ...]:
        """Per-device pool membership, index order (for reports)."""
        member_ids = {d.index for d in self._members}
        return tuple(
            "any" if d.index in member_ids else "down" for d in self.devices
        )


class DisaggregatedRouter:
    """Draft pool / target pool with least-loaded routing in each pool."""

    name = ROUTER_DISAGGREGATED
    merge_verify = False

    def __init__(
        self,
        devices: list[Device],
        split: str = SPLIT_FIXED,
        draft_share: float | None = None,
        memory_blocks: Sequence[int | None] | None = None,
    ) -> None:
        if len(devices) < 2:
            raise ValueError("disaggregation needs at least 2 devices")
        if split not in SPLIT_POLICIES:
            raise ValueError(
                f"unknown split policy {split!r}; use one of "
                f"{', '.join(SPLIT_POLICIES)}"
            )
        self.devices = devices
        self._split = split
        self._draft_share = draft_share
        self._memory_blocks = (
            None
            if memory_blocks is None
            else {d.index: b for d, b in zip(devices, memory_blocks, strict=True)}
        )
        self._available: set[int] | None = None
        self._projected: dict[int, float] = {}
        self._verify_peak: dict[int, float] = {}
        self._speeds: dict[int, float] | None = None
        self._plan_pools(list(devices))

    def _plan_pools(self, members: list[Device]) -> None:
        """(Re)compute the draft/target pools over ``members``.

        With one survivor, both pools collapse onto it (degraded colocated
        operation); with none, both pools empty and every route waits.
        """
        if len(members) >= 2:
            if self._split == SPLIT_FIXED:
                # Verify is the heavier side (the target model is the big
                # one), so an odd device goes to the target pool.
                cut = len(members) // 2
                draft_pos = tuple(range(cut))
                target_pos = tuple(range(cut, len(members)))
            else:
                share = (
                    DEFAULT_DRAFT_SHARE
                    if self._draft_share is None
                    else self._draft_share
                )
                draft_pos, target_pos = plan_pool_split(
                    [device.speed for device in members],
                    share,
                    memory_blocks=(
                        None
                        if self._memory_blocks is None
                        else [self._memory_blocks[d.index] for d in members]
                    ),
                )
            self.draft_pool = [members[i] for i in draft_pos]
            self.target_pool = [members[i] for i in target_pos]
        else:
            self.draft_pool = list(members)
            self.target_pool = list(members)
        draft_ids = {d.index for d in self.draft_pool}
        target_ids = {d.index for d in self.target_pool}
        roles = []
        for device in self.devices:
            in_draft = device.index in draft_ids
            in_target = device.index in target_ids
            if in_draft and in_target:
                roles.append("any")
            elif in_draft:
                roles.append("draft")
            elif in_target:
                roles.append("target")
            else:
                roles.append("down")
        self._roles = tuple(roles)

    def on_membership_change(self, alive_indices: Sequence[int]) -> None:
        """Re-plan both pools over the devices now alive."""
        alive = set(alive_indices)
        self._plan_pools([d for d in self.devices if d.index in alive])

    def plan_round(
        self,
        now_ms: float,
        available: Sequence[int] | None = None,
        speeds: dict[int, float] | None = None,
    ) -> None:
        """Reset per-round load projections to the devices' free times.

        ``available`` restricts routing to those device indices for this
        round (transient stalls); ``speeds`` overrides per-device speeds in
        the projections (slowdown faults), leaving nominal speeds in place
        when omitted so fault-free routing is bit-identical to before.
        """
        self._available = None if available is None else set(available)
        self._speeds = speeds
        self._projected = {
            device.index: max(now_ms, device.free_at)
            for device in {
                d.index: d for d in (*self.draft_pool, *self.target_pool)
            }.values()
        }
        self._verify_peak = {}

    def _speed(self, device: Device) -> float:
        if self._speeds is not None:
            return self._speeds.get(device.index, device.speed)
        return device.speed

    def _eligible(self, pool: list[Device]) -> list[Device]:
        pool = [d for d in pool if self._speed(d) > 0]
        if self._available is None:
            return pool
        return [d for d in pool if d.index in self._available]

    def _completion(self, device: Device, cost_ms: float, coalesce: bool) -> float:
        """Projected finish time of a ``cost_ms`` phase routed to ``device``.

        Ordinarily each routed phase extends the device's projection by its
        full cost.  Under merged verification, co-scheduled verify phases on
        one device coalesce to their critical path, so an extra verify phase
        only extends the projection past the round's current peak — which is
        what makes stacking verify work on one target device (the merged
        policy's whole point) look as cheap to the router as it is to
        :meth:`~repro.serving.devices.Device.batch_busy_ms`.
        """
        projected = self._projected.get(device.index, device.free_at)
        if not coalesce:
            return projected + cost_ms
        peak = self._verify_peak.get(device.index, 0.0)
        return projected - peak + max(peak, cost_ms)

    def route(self, request_index: int, phase: PhaseOutcome) -> Device | None:
        """Least-loaded *available* device of the phase's pool (or None).

        Each waiting phase goes to the pool device where it would finish
        earliest (ties: higher speed, then device index — deterministic on
        any cluster shape), and the projection then charges that device, so
        one dispatch round spreads phases across equally-free pool devices
        instead of stacking them on a single argmin — except coalescible
        merged-verify phases, which deliberately stack (see
        :meth:`_completion`).  Returns None when the whole pool is dead or
        stalled this round; the phase stays queued.
        """
        pool = self._eligible(
            self.draft_pool if phase.phase == PHASE_DRAFT else self.target_pool
        )
        if not pool:
            return None
        coalesce = self.merge_verify and phase.phase != PHASE_DRAFT
        device = min(
            pool,
            key=lambda d: (
                self._completion(d, phase.ms / self._speed(d), coalesce),
                -self._speed(d),
                d.index,
            ),
        )
        cost = phase.ms / self._speed(device)
        self._projected[device.index] = self._completion(device, cost, coalesce)
        if coalesce:
            peak = self._verify_peak.get(device.index, 0.0)
            self._verify_peak[device.index] = max(peak, cost)
        return device

    def pool_devices(self, phase: PhaseOutcome) -> list[Device]:
        """Devices eligible for ``phase`` this round (the memory-shed check)."""
        return self._eligible(
            self.draft_pool if phase.phase == PHASE_DRAFT else self.target_pool
        )

    def device_roles(self) -> tuple[str, ...]:
        """Per-device pool membership, index order (for reports)."""
        return self._roles


class MergedVerifyRouter(DisaggregatedRouter):
    """Disaggregated placement + coalesced cross-request verify passes."""

    name = ROUTER_MERGED
    merge_verify = True


#: Policy name → router class.  ``build_router`` and ``ClusterConfig``
#: validation both read this mapping, so a new policy is exactly one
#: entry here — no dispatch chain to forget a branch in.
ROUTER_REGISTRY: dict[str, type] = {
    ROUTER_COLOCATED: ColocatedRouter,
    ROUTER_DISAGGREGATED: DisaggregatedRouter,
    ROUTER_MERGED: MergedVerifyRouter,
}

#: Placement policies accepted by :class:`ClusterConfig`.
ROUTER_POLICIES = tuple(ROUTER_REGISTRY)


def build_router(
    config: ClusterConfig,
    overlap: float,
    draft_share: float | None = None,
    memory_blocks: Sequence[int | None] | None = None,
):
    """Devices + router for one scheduler run.

    Returns ``(devices, router)``; the devices are freshly timed (state is
    per-run, never shared between simulations).  ``draft_share`` feeds the
    balanced pool planner (measured by the scheduler from the decoder; see
    :func:`measure_draft_share`), and ``memory_blocks`` — the resolved
    per-device KV capacities when memory accounting is on — makes the
    balanced planner weigh block budgets alongside speed.
    """
    devices = make_devices(config.devices, overlap, specs=config.device_specs)
    router_cls = ROUTER_REGISTRY.get(config.router)
    if router_cls is None:
        raise ValueError(f"unknown router policy {config.router!r}")
    router = router_cls(
        devices,
        split=config.split,
        draft_share=draft_share,
        memory_blocks=memory_blocks,
    )
    return devices, router
