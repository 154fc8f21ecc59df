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
:class:`ClusterSpec` validation both read it, so registering a policy is
one dict entry — there is no dispatch chain a new policy can silently miss.

**Pool planning.**  The draft/target split is itself a placement decision,
sized from the *workload*: the scheduler measures the draft:verify cost
ratio of the decoder on sample utterances (``measure_draft_share``) and
:func:`plan_pool_split` picks the split whose draft-pool share of total
cluster speed best matches the draft share of total decode cost.  Devices
are considered slowest-first for the draft pool, so on a heterogeneous
cluster the fast parts verify — the DistServe/Splitwise-style answer to
asymmetric phase compute.  On equal devices with a draft share near one
half this is the ``K // 2`` prefix split (an odd device verifies).

**Within-pool routing** is least-loaded instead of ``request_index %
len(pool)``: in each dispatch round the router projects a pool device's
next free time (``max(now, free_at)``, filled when a route first reads it)
and sends each waiting phase to the device with the earliest projected
finish (ties broken by higher speed, then device index — fully
deterministic).  On heterogeneous pools this keeps slow devices from
becoming static hash-bucket hotspots.  A round routes only the phases that
can start in it: a phase whose pool has no device free at ``now`` waits
for a later round, which changes no launch (see
:meth:`DisaggregatedRouter.route`; ``tests/test_router_planner.py`` keeps
the router that routed every phase as the reference).

:class:`ClusterSpec` is the one cluster config: the scheduler takes it,
:class:`~repro.serving.simulator.ServeSimConfig` holds it as ``cluster``,
and the CLI builds it from ``--devices``, ``--router`` and
``--device-spec`` (via :func:`~repro.serving.devices.parse_device_specs`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.decoding.base import PHASE_DRAFT, PhaseOutcome, begin_decode
from repro.serving.devices import Device, DeviceSpec, make_devices

ROUTER_COLOCATED = "colocated"
ROUTER_DISAGGREGATED = "disaggregated"
ROUTER_MERGED = "merged"

#: Draft share :func:`plan_pool_split` assumes for a router built without
#: a measured share.  The scheduler always measures one (0.0 for an empty
#: trace), so only callers that never sampled the decoder use this.
DEFAULT_DRAFT_SHARE = 0.5

#: Utterances sampled by the scheduler to measure the draft:verify ratio.
PLANNER_SAMPLE_UTTERANCES = 3


@dataclass(frozen=True)
class ClusterSpec:
    """Shape and placement policy of the simulated accelerator cluster.

    ``devices`` may be omitted (``None``): it defaults to 1, or to
    ``len(device_specs)`` when a heterogeneous spec list is provided.  An
    *explicit* count that disagrees with the spec list — including 1 — is
    an error, never silently reinterpreted.
    """

    devices: int | None = None  # resolved to a concrete count in __post_init__
    router: str = ROUTER_COLOCATED
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
        if self.router != ROUTER_COLOCATED and self.devices < 2:
            raise ValueError(
                f"router {self.router!r} needs a draft pool and a target "
                f"pool — at least 2 devices, got {self.devices}"
            )


def plan_pool_split(
    speeds: Sequence[float], draft_share: float
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Partition device indices into ``(draft_pool, target_pool)``.

    ``draft_share`` is the fraction of total decode cost spent in draft
    phases (0 = all verify, 1 = all draft).  Candidate draft pools are
    prefixes of the devices ordered slowest-first (ties by index), so fast
    parts default to the heavy verify side; the chosen prefix is the one
    whose share of total cluster speed is closest to ``draft_share``.
    Ties prefer the smaller draft pool (verify is the heavy side), which
    also makes the choice deterministic on all-equal clusters: at share
    0.5 the draft pool is the ``K // 2`` prefix.  Both pools always keep
    at least one device; degenerate shares clamp to the 1-device /
    (K-1)-device extremes.  Returned index tuples are sorted, so pool
    iteration order never depends on the planner's internal ordering.
    """
    if len(speeds) < 2:
        raise ValueError("pool planning needs at least 2 devices")
    if not 0.0 <= draft_share <= 1.0:
        raise ValueError(f"draft_share must be in [0, 1], got {draft_share}")
    order = sorted(range(len(speeds)), key=lambda i: (speeds[i], i))
    # Compared in speed units rather than as fractions of the total speed:
    # the division rounds, and would break exact ties (3 equal devices at
    # share 0.5) toward the larger draft pool.
    target_speed = draft_share * sum(speeds)
    best_k = 1
    best_error = None
    prefix_speed = 0.0
    for k in range(1, len(speeds)):
        prefix_speed += speeds[order[k - 1]]
        error = abs(prefix_speed - target_speed)
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

    def __init__(self, devices: list[Device], draft_share: float | None = None) -> None:
        if not devices:
            raise ValueError("router needs at least one device")
        self.devices = devices
        self._members = list(devices)

    def plan_round(self, now_ms: float) -> None:
        """Nothing to plan each round: a request's home device depends only
        on its index and the alive members, which
        :meth:`on_membership_change` keeps current."""

    def route(self, request_index: int, phase: PhaseOutcome) -> Device | None:
        """Home device of the request, or None while no device is alive."""
        if not self._members:
            return None
        return self._members[request_index % len(self._members)]

    def on_membership_change(self, alive_indices: Sequence[int]) -> None:
        """Re-shard over the surviving devices after a crash or restart."""
        alive = set(alive_indices)
        self._members = [d for d in self.devices if d.index in alive]

    def pool_devices(self, phase: PhaseOutcome) -> list[Device]:
        """Devices that may run ``phase`` (the memory-shed check)."""
        return list(self._members)

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

    def __init__(self, devices: list[Device], draft_share: float | None = None) -> None:
        if len(devices) < 2:
            raise ValueError("disaggregation needs at least 2 devices")
        self.devices = devices
        self._draft_share = DEFAULT_DRAFT_SHARE if draft_share is None else draft_share
        # Round state, set by plan_round.
        self._now = 0.0
        self._projected: dict[int, float] = {}
        self._verify_peak: dict[int, float] = {}
        self._plan_pools(list(devices))

    def _plan_pools(self, members: list[Device]) -> None:
        """(Re)compute the draft/target pools over ``members``.

        With one survivor, both pools collapse onto it (degraded colocated
        operation); with none, both pools empty and every route waits.  A
        re-plan closes the open round, whose free marks describe the old
        pools: routes return None until the next :meth:`plan_round`.
        """
        self._draft_free = self._target_free = False
        if len(members) >= 2:
            draft_pos, target_pos = plan_pool_split(
                [device.speed for device in members], self._draft_share
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

    def plan_round(self, now_ms: float) -> None:
        """Open a dispatch round at ``now_ms``.

        Records ``now_ms``, empties the load projections and marks each
        pool that has a device free by then (``free_at <= now_ms``).  A
        projection is filled only when a route first reads it, as
        ``max(now_ms, free_at)``.  The pools hold exactly the alive devices
        (see :meth:`on_membership_change`), and device speeds never change
        during a run, so nothing else about the round needs planning.
        """
        self._now = now_ms
        self._projected = {}
        self._verify_peak = {}
        self._draft_free = any(d.free_at <= now_ms for d in self.draft_pool)
        self._target_free = any(d.free_at <= now_ms for d in self.target_pool)

    def route(self, request_index: int, phase: PhaseOutcome) -> Device | None:
        """Least-loaded device of the phase's pool, or None when no device
        of that pool is free this round.

        Each waiting phase goes to the pool device where it would finish
        earliest (ties: higher speed, then device index — deterministic on
        any cluster shape), and the projection then charges that device, so
        one dispatch round spreads phases across equally-free pool devices
        instead of stacking them on a single argmin.  Coalescible
        merged-verify phases deliberately stack: co-scheduled verify phases
        on one device coalesce to their critical path, so an extra verify
        phase only extends the projection past the round's current peak —
        which makes stacking verify work on one target device (the merged
        policy's whole point) look as cheap to the router as it is to
        :meth:`~repro.serving.devices.Device.batch_busy_ms`.

        A phase whose pool has no free device could only be placed on a
        busy one, which launches nothing this round; since the pools are
        disjoint (or one shared device), skipping it changes no projection
        another pool reads.  So it returns None at once, as it does before
        any :meth:`plan_round` and while every device is dead (both pools
        empty); the phase stays queued.
        """
        if phase.phase == PHASE_DRAFT:
            if not self._draft_free:
                return None
            pool = self.draft_pool
            coalesce = False
        else:
            if not self._target_free:
                return None
            pool = self.target_pool
            coalesce = self.merge_verify
        now, projected, verify_peak = self._now, self._projected, self._verify_peak
        best = None
        for device in pool:
            index = device.index
            start = projected.get(index)
            if start is None:
                start = projected[index] = max(now, device.free_at)
            cost = phase.ms / device.speed
            if coalesce:
                peak = verify_peak.get(index, 0.0)
                finish = start - peak + max(peak, cost)
            else:
                finish = start + cost
            key = (finish, -device.speed, index)
            if best is None or key < best_key:
                best, best_key, best_cost = device, key, cost
        projected[best.index] = best_key[0]
        if coalesce:
            verify_peak[best.index] = max(verify_peak.get(best.index, 0.0), best_cost)
        return best

    def pool_devices(self, phase: PhaseOutcome) -> list[Device]:
        """Devices that may run ``phase`` (the memory-shed check)."""
        return list(self.draft_pool if phase.phase == PHASE_DRAFT else self.target_pool)

    def device_roles(self) -> tuple[str, ...]:
        """Per-device pool membership, index order (for reports)."""
        return self._roles


class MergedVerifyRouter(DisaggregatedRouter):
    """Disaggregated placement + coalesced cross-request verify passes."""

    name = ROUTER_MERGED
    merge_verify = True


#: Policy name → router class.  ``build_router`` and ``ClusterSpec``
#: validation both read this mapping, so a new policy is exactly one
#: entry here — no dispatch chain to forget a branch in.
ROUTER_REGISTRY: dict[str, type] = {
    ROUTER_COLOCATED: ColocatedRouter,
    ROUTER_DISAGGREGATED: DisaggregatedRouter,
    ROUTER_MERGED: MergedVerifyRouter,
}

#: Placement policies accepted by :class:`ClusterSpec`.
ROUTER_POLICIES = tuple(ROUTER_REGISTRY)


def build_router(config: ClusterSpec, overlap: float, draft_share: float | None = None):
    """Devices + router for one scheduler run.

    Returns ``(devices, router)``; the devices are freshly timed (state is
    per-run, never shared between simulations).  ``draft_share`` feeds the
    pool planner (measured by the scheduler from the decoder; see
    :func:`measure_draft_share`); without it the planner assumes
    :data:`DEFAULT_DRAFT_SHARE`.
    """
    devices = make_devices(config.devices, overlap, specs=config.device_specs)
    return devices, ROUTER_REGISTRY[config.router](devices, draft_share=draft_share)
