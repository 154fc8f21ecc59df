"""Deterministic fault injection for the serving simulation.

A :class:`FaultPlan` is a seeded, fully deterministic description of what
goes wrong during one serve simulation — the chaos-engineering counterpart
of an arrival trace.  Two fault kinds compose freely:

* :class:`DeviceCrash` — the device dies at ``at_ms``.  With a
  ``restart_delay_ms`` it warm-restarts after a weight-reload delay (the
  device is dead for exactly that window); without one the loss is
  permanent.  A batch executing when the crash hits is *aborted*: its
  phases roll back to the waiting state and are re-dispatched elsewhere.
* :class:`PhaseErrorRate` — transient phase-level errors: each executed
  phase independently fails with probability ``rate``, decided by a stable
  hash of ``(plan seed, request, phase index, attempt)`` — the same plan
  always fails the same executions, on any host.

A device is therefore alive or dead, and its speed never changes during a
run.  A permanently slow part is a device spec, not a fault: ``3x1,1x0.05``
(see :func:`~repro.serving.devices.parse_device_specs`).

The scheduler threads the plan into its devices
(:meth:`repro.serving.devices.Device.set_fault_profile`) and its event
loop; everything stays a pure function of (trace, decoder, cluster, plan),
so chaos runs are exactly as reproducible as fault-free ones.

The CLI grammar (``repro serve-sim --faults SPEC``) is ``;``-separated
events::

    crash@2000:dev3                 # permanent crash at t=2000 ms
    crash@2000:dev3:restart=1500    # warm restart 1500 ms later
    perr:0.02                       # 2% transient phase-error rate

Device references accept ``devI`` or a bare index ``I``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from repro.utils.hashing import hash_prefix, stable_hash_ints

#: Fault event kind tags (mirrored in the spec grammar).
FAULT_CRASH = "crash"
FAULT_PHASE_ERROR = "perr"


@dataclass(frozen=True)
class DeviceCrash:
    """Device ``device`` dies at ``at_ms``; optionally warm-restarts."""

    device: int
    at_ms: float
    restart_delay_ms: float | None = None  # weight-reload time; None = permanent

    def __post_init__(self) -> None:
        if self.device < 0:
            raise ValueError(f"crash device index must be >= 0, got {self.device}")
        if not math.isfinite(self.at_ms) or self.at_ms < 0:
            raise ValueError(f"crash time must be finite and >= 0, got {self.at_ms}")
        if self.restart_delay_ms is not None and (
            not math.isfinite(self.restart_delay_ms) or self.restart_delay_ms <= 0
        ):
            raise ValueError(
                f"restart delay must be finite and > 0, got {self.restart_delay_ms}"
            )

    @property
    def restart_ms(self) -> float | None:
        """Absolute time service resumes (None for a permanent crash)."""
        if self.restart_delay_ms is None:
            return None
        return self.at_ms + self.restart_delay_ms


@dataclass(frozen=True)
class PhaseErrorRate:
    """Each executed phase fails independently with probability ``rate``."""

    rate: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 1.0:
            raise ValueError(f"phase-error rate must be in [0, 1), got {self.rate}")


#: Any single fault event.
FaultEvent = DeviceCrash | PhaseErrorRate


@dataclass(frozen=True)
class DeviceFaultProfile:
    """The slice of a fault plan that concerns one device: its crash.

    This is what :class:`~repro.serving.devices.Device` consults to know
    whether it is alive; an all-default profile is the fault-free case.
    """

    crash_ms: float | None = None
    restart_ms: float | None = None  # absolute resume time; None = permanent

    def is_dead(self, at_ms: float) -> bool:
        """True while the device is crashed (and not yet restarted)."""
        if self.crash_ms is None or at_ms < self.crash_ms:
            return False
        return self.restart_ms is None or at_ms < self.restart_ms

    def crash_during(self, start_ms: float, end_ms: float) -> float | None:
        """The crash time if it aborts work spanning ``[start, end)``."""
        if self.crash_ms is not None and start_ms < self.crash_ms < end_ms:
            return self.crash_ms
        return None


#: Profile every device gets when no plan is in force.
HEALTHY_PROFILE = DeviceFaultProfile()


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic set of fault events for one simulation."""

    events: tuple[FaultEvent, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        crashed: set[int] = set()
        for event in self.events:
            if isinstance(event, DeviceCrash):
                if event.device in crashed:
                    raise ValueError(
                        f"device {event.device} has more than one crash event; "
                        "model repeated failures as crash + restart + crash on "
                        "distinct devices instead"
                    )
                crashed.add(event.device)

    def __bool__(self) -> bool:
        return bool(self.events)

    # -- per-kind views ----------------------------------------------------
    @cached_property
    def phase_error_rate(self) -> float:
        """Combined transient phase-error probability (independent events)."""
        survive = 1.0
        for event in self.events:
            if isinstance(event, PhaseErrorRate):
                survive *= 1.0 - event.rate
        return 1.0 - survive

    @cached_property
    def _phase_error_prefix(self) -> bytes:
        # The fixed head of every phase-error draw's hash payload.
        return hash_prefix(self.seed, "fault-phase-error")

    def crashes(self) -> list[DeviceCrash]:
        """The plan's crash events, in plan order."""
        return [e for e in self.events if isinstance(e, DeviceCrash)]

    def validate_for(self, num_devices: int) -> None:
        """Raise if any event names a device the cluster does not have."""
        for event in self.crashes():
            if event.device >= num_devices:
                raise ValueError(
                    f"fault plan names device {event.device}, but the cluster "
                    f"has only {num_devices} device(s) (dev0..dev{num_devices - 1})"
                )

    def profiles(self, num_devices: int) -> list[DeviceFaultProfile]:
        """One :class:`DeviceFaultProfile` per device index."""
        self.validate_for(num_devices)
        profiles = [HEALTHY_PROFILE] * num_devices
        for crash in self.crashes():
            profiles[crash.device] = DeviceFaultProfile(
                crash_ms=crash.at_ms, restart_ms=crash.restart_ms
            )
        return profiles

    def wakeup_times(self) -> tuple[float, ...]:
        """Sorted simulation times the scheduler must wake at: crash times
        (to abort and re-plan) and restart times (capacity comes back)."""
        times: set[float] = set()
        for crash in self.crashes():
            times.add(crash.at_ms)
            if crash.restart_ms is not None:
                times.add(crash.restart_ms)
        return tuple(sorted(times))

    def phase_fails(self, request_index: int, phase_index: int, attempt: int) -> bool:
        """Deterministic transient-error verdict for one phase execution.

        A pure function of ``(plan seed, request, phase, attempt)``, so
        re-running the plan reproduces every verdict bit-identically.
        """
        rate = self.phase_error_rate
        if rate <= 0.0:
            return False
        # stable_uniform(seed, "fault-phase-error", request, phase, attempt),
        # finished from the plan's precomputed payload head.
        digest = stable_hash_ints(
            self._phase_error_prefix, request_index, phase_index, attempt
        )
        return digest / float(1 << 64) < rate

    def degraded_ms(self, num_devices: int, horizon_ms: float) -> float:
        """Sim time within ``[0, horizon]`` with >= 1 device dead."""
        if horizon_ms <= 0:
            return 0.0
        self.validate_for(num_devices)
        intervals: list[tuple[float, float]] = []
        for crash in self.crashes():
            restart = math.inf if crash.restart_ms is None else crash.restart_ms
            end = min(restart, horizon_ms)
            if end > crash.at_ms:
                intervals.append((crash.at_ms, end))
        if not intervals:
            return 0.0
        intervals.sort()
        total = 0.0
        cur_start, cur_end = intervals[0]
        for start, end in intervals[1:]:
            if start > cur_end:
                total += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        total += cur_end - cur_start
        return total


def _parse_device(text: str, item: str, spec: str) -> int:
    token = text.strip()
    if token.startswith("dev"):
        token = token[3:]
    try:
        device = int(token)
    except ValueError:
        raise ValueError(
            f"bad device reference {text!r} in fault event {item!r} of spec "
            f"{spec!r}; expected devI or a bare index (e.g. dev2 or 2)"
        ) from None
    if device < 0:
        raise ValueError(
            f"device index must be >= 0 in fault event {item!r} of spec {spec!r}"
        )
    return device


def _parse_float(text: str, what: str, item: str, spec: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(
            f"bad {what} {text!r} in fault event {item!r} of spec {spec!r}"
        ) from None


def parse_fault_spec(text: str, seed: int = 0) -> FaultPlan:
    """Parse the ``;``-separated CLI fault grammar into a :class:`FaultPlan`.

    See the module docstring for the grammar.  An empty/whitespace spec is
    the empty (fault-free) plan.  ``seed`` feeds the transient phase-error
    hash and is otherwise inert.
    """
    events: list[FaultEvent] = []
    for raw in text.split(";"):
        item = raw.strip()
        if not item:
            continue
        head, _, rest = item.partition(":")
        kind, _, when = head.partition("@")
        kind = kind.strip()
        if kind == FAULT_CRASH:
            if not when or not rest:
                raise ValueError(
                    f"bad crash event {item!r} in spec {text!r}; expected "
                    "crash@TIME:devI[:restart=MS]"
                )
            at_ms = _parse_float(when, "crash time", item, text)
            dev_text, _, tail = rest.partition(":")
            restart = None
            if tail:
                key, _, value = tail.partition("=")
                if key.strip() != "restart" or not value:
                    raise ValueError(
                        f"bad crash option {tail!r} in fault event {item!r}; "
                        "expected restart=MS"
                    )
                restart = _parse_float(value, "restart delay", item, text)
            events.append(
                DeviceCrash(
                    device=_parse_device(dev_text, item, text),
                    at_ms=at_ms,
                    restart_delay_ms=restart,
                )
            )
        elif kind == FAULT_PHASE_ERROR:
            if when or not rest:
                raise ValueError(
                    f"bad phase-error event {item!r} in spec {text!r}; "
                    "expected perr:RATE"
                )
            events.append(
                PhaseErrorRate(rate=_parse_float(rest, "phase-error rate", item, text))
            )
        else:
            raise ValueError(
                f"unknown fault kind {kind!r} in spec {text!r}; use one of "
                f"{FAULT_CRASH}, {FAULT_PHASE_ERROR}"
            )
    return FaultPlan(events=tuple(events), seed=seed)


__all__ = [
    "DeviceCrash",
    "DeviceFaultProfile",
    "FAULT_CRASH",
    "FAULT_PHASE_ERROR",
    "FaultPlan",
    "HEALTHY_PROFILE",
    "PhaseErrorRate",
    "parse_fault_spec",
]
