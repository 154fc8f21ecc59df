"""Simulated accelerators: per-device busy timelines and batch cost model.

A :class:`Device` is one simulated accelerator.  It owns a busy timeline
(``free_at``) and occupancy counters, and prices a micro-batch of decode
phases with the grouped-overlap model:

* Phases that run the **same model** in the same batch share most of their
  weight traffic.  Within one ``(model, phase-kind)`` group of per-phase
  costs ``c_1..c_B`` the group busy time is

  ``busy_g = max(c) + (1 - overlap) * (sum(c) - max(c))``

  — ``overlap = 1`` is perfect batching (co-scheduled phases hide entirely
  under the critical path), ``overlap = 0`` serialises every phase.

* Phases that run **different models** cannot share a forward pass at all
  (a draft-model kernel and a target-model kernel are separate launches),
  so group busy times add serially:

  ``busy = sum over groups of busy_g``

This is what makes draft/target disaggregation a real lever in the
simulation: a colocated device whose batch mixes draft and verify phases
pays the cross-model serialisation *and* the residency-interference
inflation below, while a disaggregated pool device only ever sees one
model and batches at full ``overlap``.  The ``merged`` router additionally
coalesces the verify group of a batch into a single target pass
(``overlap = 1`` for that group — one weight read for all co-scheduled
verifications).

**Residency interference.** An accelerator that keeps two models resident
alternates between their weight streams and activation caches; for a
memory-bound decoder that churn inflates every mixed iteration (the
interference argument disaggregated serving systems à la
DistServe/Splitwise are built on).  Mixed-model batches are billed
``busy * (1 + MODEL_SWITCH_COST * (distinct models - 1))``; single-model
batches — everything a dedicated pool device ever runs — are unaffected.

**Heterogeneous clusters.** A :class:`DeviceSpec` describes one
accelerator by its relative ``speed`` (phase costs are divided by it — a
``speed=0.5`` part takes twice the simulated time per phase); every device
has the same KV-cache capacity (:mod:`repro.serving.memory`).
``parse_device_specs`` turns the CLI shorthand
``"2x1.0,2x0.5"`` (two full-speed + two half-speed accelerators) into a
spec list, which is what makes pool placement a real optimisation problem
(see :mod:`repro.serving.router`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.decoding.base import PHASE_VERIFY, PhaseOutcome
from repro.serving.faults import HEALTHY_PROFILE, DeviceFaultProfile

#: Fractional busy-time inflation per *extra* resident model a micro-batch
#: touches.  Calibrated to the memory-bound regime: re-streaming the other
#: model's weights and re-warming its caches costs a sizeable slice of an
#: iteration, which is exactly the overhead draft/target disaggregation
#: removes.
MODEL_SWITCH_COST = 0.15


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of one simulated accelerator.

    ``speed`` is relative throughput: a phase whose nominal cost is ``c``
    occupies the device for ``c / speed`` ms.
    """

    speed: float = 1.0

    def __post_init__(self) -> None:
        # NaN compares False against every bound, so an explicit finiteness
        # check is required — a NaN speed would otherwise poison `free_at`
        # and hang the scheduler's event loop.
        if not math.isfinite(self.speed) or self.speed <= 0:
            raise ValueError(f"device speed must be finite and > 0, got {self.speed}")


def parse_device_specs(text: str) -> tuple[DeviceSpec, ...]:
    """Parse the CLI cluster shorthand into a spec list.

    The grammar is comma-separated groups of ``COUNTxSPEED`` (or a bare
    ``SPEED`` for a single device): ``"2x1.0,2x0.5"`` is two full-speed
    plus two half-speed accelerators, ``"1.0,0.25"`` a fast/slow pair.
    Order matters — it fixes device indices, which the deterministic
    tie-breaks key on.
    """
    specs: list[DeviceSpec] = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            raise ValueError(
                f"empty device group in spec {text!r}; every comma-separated "
                "segment must be COUNTxSPEED (e.g. 2x1.0) or a bare SPEED"
            )
        count_text, sep, speed_text = item.partition("x")
        if not sep:
            count_text, speed_text = "1", item
        try:
            count = int(count_text)
            speed = float(speed_text)
        except ValueError:
            raise ValueError(
                f"bad device group {item!r} in spec {text!r}; expected "
                "COUNTxSPEED (e.g. 2x1.0) or a bare SPEED"
            ) from None
        if count < 1:
            raise ValueError(
                f"device group {item!r} in spec {text!r} asks for {count} "
                "device(s); each COUNTxSPEED group needs a count >= 1"
            )
        specs.extend(DeviceSpec(speed=speed) for _ in range(count))
    return tuple(specs)


def format_device_specs(specs: Sequence[DeviceSpec]) -> str:
    """Canonical ``COUNTxSPEED`` rendering of a spec list.

    The parser's inverse.  Adjacent equal speeds group (``"2x1,2x0.5"``);
    non-adjacent runs stay separate so device order — which tie-breaks key
    on — remains visible.
    """
    groups: list[tuple[float, int]] = []
    for spec in specs:
        if groups and groups[-1][0] == spec.speed:
            groups[-1] = (spec.speed, groups[-1][1] + 1)
        else:
            groups.append((spec.speed, 1))
    return ",".join(f"{count}x{speed:g}" for speed, count in groups)


class Device:
    """One simulated accelerator with its own busy timeline.

    ``speed`` is fixed for the whole run.  A
    :class:`~repro.serving.faults.DeviceFaultProfile` (attached via
    :meth:`set_fault_profile`; the default is healthy) holds the device's
    crash: :meth:`is_dead` tells the scheduler whether the device may take
    new work, and :meth:`execute` can abort a batch mid-flight at a crash —
    the device stays busy up to the crash (wasted work, tracked in
    ``wasted_ms``) and the phases never commit.
    """

    __slots__ = (
        "device_id",
        "index",
        "speed",
        "overlap",
        "switch_cost",
        "free_at",
        "busy_ms",
        "batches",
        "phases",
        "faults",
        "wasted_ms",
    )

    def __init__(
        self,
        index: int,
        overlap: float,
        switch_cost: float = MODEL_SWITCH_COST,
        speed: float = 1.0,
    ) -> None:
        if not 0.0 <= overlap <= 1.0:
            raise ValueError(f"overlap must be in [0, 1], got {overlap}")
        if not math.isfinite(switch_cost) or switch_cost < 0:
            raise ValueError(f"switch_cost must be finite and >= 0, got {switch_cost}")
        if not math.isfinite(speed) or speed <= 0:
            raise ValueError(f"speed must be finite and > 0, got {speed}")
        self.index = index
        self.device_id = f"dev{index}"
        self.speed = speed
        self.overlap = overlap
        self.switch_cost = switch_cost
        self.free_at = 0.0  # sim time the device next goes idle
        self.busy_ms = 0.0  # total occupancy
        self.batches = 0  # device iterations executed
        self.phases = 0  # phases executed (sum of batch sizes)
        self.faults: DeviceFaultProfile = HEALTHY_PROFILE
        self.wasted_ms = 0.0  # occupancy billed to crash-aborted batches

    # -- fault-plan timeline -----------------------------------------------
    def set_fault_profile(self, profile: DeviceFaultProfile) -> None:
        """Attach this device's slice of the run's fault plan."""
        self.faults = profile

    def is_dead(self, at_ms: float) -> bool:
        """Crashed and not yet warm-restarted at ``at_ms``."""
        return self.faults.is_dead(at_ms)

    def batch_busy_ms(
        self, phases: Sequence[PhaseOutcome], merge_verify: bool = False
    ) -> float:
        """Device time one micro-batch of phases occupies.

        Groups by ``(model, phase-kind)``; the overlap discount applies
        within a group, groups serialise (different models cannot share a
        forward pass), and batches touching several models pay the
        residency-interference inflation.  ``merge_verify`` coalesces each
        verify group into a single batched target pass (overlap 1: busy is
        the critical path).  The whole bill scales by ``1 / speed`` — the
        cost model is linear in the per-phase costs, so a half-speed part
        takes exactly twice the device time for any batch.  A one-phase
        batch costs ``ms / speed``: its one group reduces to
        ``c + (1 - overlap) * (c - c)``, which is ``c`` for any finite cost.
        """
        if len(phases) == 1:
            return phases[0].ms / self.speed
        groups: dict[tuple[str, str], list[float]] = {}
        for outcome in phases:
            groups.setdefault((outcome.model, outcome.phase), []).append(outcome.ms)
        busy = 0.0
        for (_model, kind), costs in groups.items():
            coalesced = merge_verify and kind == PHASE_VERIFY
            overlap = 1.0 if coalesced else self.overlap
            critical = max(costs)
            busy += critical + (1.0 - overlap) * (sum(costs) - critical)
        models = len({model for model, _kind in groups})
        if models > 1:
            busy *= 1.0 + self.switch_cost * (models - 1)
        return busy / self.speed

    def execute(
        self,
        start_ms: float,
        phases: Sequence[PhaseOutcome],
        merge_verify: bool = False,
        abort_ms: float | None = None,
    ) -> float:
        """Run a micro-batch starting no earlier than ``start_ms``.

        Returns the completion time and advances the busy timeline.  With
        ``abort_ms`` (a crash inside the batch's span) the batch ends there
        instead: the partial occupancy is billed — and also counted in
        ``wasted_ms``, since the phases never commit — and the caller is
        responsible for requeueing the aborted phases.  A batch whose bill is
        not finite (an infinite phase cost, or one that overflows) raises
        ``ValueError``: the device would never come free.
        """
        if not phases:
            raise ValueError("cannot execute an empty batch")
        start = max(start_ms, self.free_at)
        busy = self.batch_busy_ms(phases, merge_verify)
        if not math.isfinite(busy):
            raise ValueError(f"batch on {self.device_id} takes {busy} ms")
        end = start + busy
        if abort_ms is not None:
            if abort_ms < start:
                raise ValueError(
                    f"abort at {abort_ms} precedes batch start {start} on "
                    f"{self.device_id}"
                )
            if abort_ms < end:
                end = abort_ms
                self.wasted_ms += end - start
        self.free_at = end
        self.busy_ms += end - start
        self.batches += 1
        self.phases += len(phases)
        return end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Device({self.device_id}, speed={self.speed:g}, "
            f"busy={self.busy_ms:.1f}ms)"
        )


def make_devices(
    count: int,
    overlap: float,
    specs: Sequence[DeviceSpec] | None = None,
) -> list[Device]:
    """A fresh cluster of ``count`` devices sharing ``overlap``.

    Every device runs at speed 1.0 by default; passing ``specs`` builds a
    heterogeneous cluster, and ``len(specs)`` must equal ``count``.
    """
    if count < 1:
        raise ValueError(f"need at least one device, got {count}")
    if specs is None:
        return [Device(index, overlap) for index in range(count)]
    if len(specs) != count:
        raise ValueError(
            f"device spec list has {len(specs)} entries for a "
            f"{count}-device cluster"
        )
    return [
        Device(index, overlap, speed=spec.speed) for index, spec in enumerate(specs)
    ]
