"""Deterministic fault injection for the serving simulation.

A :class:`FaultPlan` is a seeded, fully deterministic description of what
goes wrong during one serve simulation — the chaos-engineering counterpart
of an arrival trace.  Four fault kinds compose freely:

* :class:`DeviceCrash` — the device dies at ``at_ms``.  With a
  ``restart_delay_ms`` it warm-restarts after a weight-reload delay (the
  device is dead for exactly that window); without one the loss is
  permanent.  A batch executing when the crash hits is *aborted*: its
  phases roll back to the waiting state and are re-dispatched elsewhere.
* :class:`DeviceStall` — a transient unavailability window
  ``[at_ms, at_ms + duration_ms)``: the device accepts no new work while
  stalled (in-flight batches ride through — a stall models a hiccup in
  dispatch, not a loss of state).
* :class:`DeviceSlowdown` — a straggler: the device's effective speed is
  multiplied by ``factor`` inside the window (``factor < 1`` slows it).
  Batches are priced at the effective speed of their *start* time.
* :class:`PhaseErrorRate` — transient phase-level errors: each executed
  phase independently fails with probability ``rate``, decided by a stable
  hash of ``(plan seed, request, phase index, attempt)`` — the same plan
  always fails the same executions, on any host.

The scheduler threads the plan into its devices
(:meth:`repro.serving.devices.Device.set_fault_profile`) and its event
loop; everything stays a pure function of (trace, decoder, cluster, plan),
so chaos runs are exactly as reproducible as fault-free ones.

The CLI grammar (``repro serve-sim --faults SPEC``) is ``;``-separated
events::

    crash@2000:dev3                 # permanent crash at t=2000 ms
    crash@2000:dev3:restart=1500    # warm restart 1500 ms later
    stall@1000+500:dev0             # no new work in [1000, 1500)
    slow:dev2:x0.5                  # half speed for the whole run
    slow@3000+2000:dev2:x0.25       # quarter speed in [3000, 5000)
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
FAULT_STALL = "stall"
FAULT_SLOW = "slow"
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
class DeviceStall:
    """No new work dispatches to ``device`` in ``[at_ms, at_ms + duration)``."""

    device: int
    at_ms: float
    duration_ms: float

    def __post_init__(self) -> None:
        if self.device < 0:
            raise ValueError(f"stall device index must be >= 0, got {self.device}")
        if not math.isfinite(self.at_ms) or self.at_ms < 0:
            raise ValueError(f"stall start must be finite and >= 0, got {self.at_ms}")
        if not math.isfinite(self.duration_ms) or self.duration_ms <= 0:
            raise ValueError(
                f"stall duration must be finite and > 0, got {self.duration_ms}"
            )

    @property
    def end_ms(self) -> float:
        return self.at_ms + self.duration_ms


@dataclass(frozen=True)
class DeviceSlowdown:
    """Multiply ``device``'s effective speed by ``factor`` inside a window."""

    device: int
    factor: float
    at_ms: float = 0.0
    duration_ms: float = math.inf  # default: the whole run

    def __post_init__(self) -> None:
        if self.device < 0:
            raise ValueError(f"slowdown device index must be >= 0, got {self.device}")
        if not math.isfinite(self.factor) or self.factor <= 0:
            raise ValueError(
                f"slowdown factor must be finite and > 0, got {self.factor}"
            )
        if not math.isfinite(self.at_ms) or self.at_ms < 0:
            raise ValueError(
                f"slowdown start must be finite and >= 0, got {self.at_ms}"
            )
        if self.duration_ms <= 0 or math.isnan(self.duration_ms):
            raise ValueError(
                f"slowdown duration must be > 0, got {self.duration_ms}"
            )

    @property
    def end_ms(self) -> float:
        return self.at_ms + self.duration_ms


@dataclass(frozen=True)
class PhaseErrorRate:
    """Each executed phase fails independently with probability ``rate``."""

    rate: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 1.0:
            raise ValueError(f"phase-error rate must be in [0, 1), got {self.rate}")


#: Any single fault event.
FaultEvent = DeviceCrash | DeviceStall | DeviceSlowdown | PhaseErrorRate


@dataclass(frozen=True)
class DeviceFaultProfile:
    """The slice of a fault plan that concerns one device.

    This is what :class:`~repro.serving.devices.Device` consults for its
    availability and effective speed; an all-default profile is the
    fault-free case.
    """

    crash_ms: float | None = None
    restart_ms: float | None = None  # absolute resume time; None = permanent
    stalls: tuple[tuple[float, float], ...] = ()  # (start, end) windows
    slowdowns: tuple[tuple[float, float, float], ...] = ()  # (start, end, factor)

    def is_dead(self, at_ms: float) -> bool:
        """True while the device is crashed (and not yet restarted)."""
        if self.crash_ms is None or at_ms < self.crash_ms:
            return False
        return self.restart_ms is None or at_ms < self.restart_ms

    def is_stalled(self, at_ms: float) -> bool:
        return any(start <= at_ms < end for start, end in self.stalls)

    def available(self, at_ms: float) -> bool:
        """Can the device start new work at ``at_ms``?"""
        return not self.is_dead(at_ms) and not self.is_stalled(at_ms)

    def speed_factor(self, at_ms: float) -> float:
        """Product of slowdown factors whose windows contain ``at_ms``."""
        factor = 1.0
        for start, end, window_factor in self.slowdowns:
            if start <= at_ms < end:
                factor *= window_factor
        return factor

    def crash_during(self, start_ms: float, end_ms: float) -> float | None:
        """The crash time if it aborts work spanning ``[start, end)``."""
        if self.crash_ms is not None and start_ms < self.crash_ms < end_ms:
            return self.crash_ms
        return None

    def unavailable_intervals(self) -> list[tuple[float, float]]:
        """Dead + stalled windows (unmerged; ends may be ``inf``)."""
        intervals = list(self.stalls)
        if self.crash_ms is not None:
            intervals.append((self.crash_ms, self.restart_ms or math.inf))
        return intervals


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

    def device_events(self) -> list[DeviceCrash | DeviceStall | DeviceSlowdown]:
        return [e for e in self.events if not isinstance(e, PhaseErrorRate)]

    def validate_for(self, num_devices: int) -> None:
        """Raise if any event names a device the cluster does not have."""
        for event in self.device_events():
            if event.device >= num_devices:
                raise ValueError(
                    f"fault plan names device {event.device}, but the cluster "
                    f"has only {num_devices} device(s) (dev0..dev{num_devices - 1})"
                )

    def profiles(self, num_devices: int) -> list[DeviceFaultProfile]:
        """One :class:`DeviceFaultProfile` per device index."""
        self.validate_for(num_devices)
        crash: dict[int, DeviceCrash] = {}
        stalls: dict[int, list[tuple[float, float]]] = {}
        slowdowns: dict[int, list[tuple[float, float, float]]] = {}
        for event in self.device_events():
            if isinstance(event, DeviceCrash):
                crash[event.device] = event
            elif isinstance(event, DeviceStall):
                stalls.setdefault(event.device, []).append(
                    (event.at_ms, event.end_ms)
                )
            elif isinstance(event, DeviceSlowdown):
                slowdowns.setdefault(event.device, []).append(
                    (event.at_ms, event.end_ms, event.factor)
                )
        profiles = []
        for index in range(num_devices):
            crashed = crash.get(index)
            profiles.append(
                DeviceFaultProfile(
                    crash_ms=crashed.at_ms if crashed else None,
                    restart_ms=crashed.restart_ms if crashed else None,
                    stalls=tuple(sorted(stalls.get(index, []))),
                    slowdowns=tuple(sorted(slowdowns.get(index, []))),
                )
            )
        return profiles

    def wakeup_times(self) -> tuple[float, ...]:
        """Sorted simulation times the scheduler must wake at.

        Crash times (to abort and re-plan), restart times and stall ends
        (newly available capacity), stall starts and finite slowdown
        boundaries (dispatch pricing changes).
        """
        times: set[float] = set()
        for event in self.device_events():
            times.add(event.at_ms)
            if isinstance(event, DeviceCrash) and event.restart_ms is not None:
                times.add(event.restart_ms)
            elif isinstance(event, DeviceStall):
                times.add(event.end_ms)
            elif isinstance(event, DeviceSlowdown) and math.isfinite(event.end_ms):
                times.add(event.end_ms)
        return tuple(sorted(times))

    def phase_fails(self, request_index: int, phase_index: int, attempt: int) -> bool:
        """Deterministic transient-error verdict for one phase execution.

        A pure function of ``(plan seed, request, phase, attempt)``: every
        copy of the same execution (e.g. a straggler duplicate) gets the
        same verdict, and re-running the plan reproduces it bit-identically.
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
        """Sim time within ``[0, horizon]`` with >= 1 device dead or stalled."""
        if horizon_ms <= 0:
            return 0.0
        intervals: list[tuple[float, float]] = []
        for profile in self.profiles(num_devices):
            for start, end in profile.unavailable_intervals():
                start = max(0.0, start)
                end = min(end, horizon_ms)
                if end > start:
                    intervals.append((start, end))
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
        elif kind == FAULT_STALL:
            start_text, sep, duration_text = when.partition("+")
            if not sep or not rest:
                raise ValueError(
                    f"bad stall event {item!r} in spec {text!r}; expected "
                    "stall@TIME+DURATION:devI"
                )
            events.append(
                DeviceStall(
                    device=_parse_device(rest, item, text),
                    at_ms=_parse_float(start_text, "stall start", item, text),
                    duration_ms=_parse_float(
                        duration_text, "stall duration", item, text
                    ),
                )
            )
        elif kind == FAULT_SLOW:
            dev_text, _, factor_text = rest.partition(":")
            if not dev_text or not factor_text.startswith("x"):
                raise ValueError(
                    f"bad slowdown event {item!r} in spec {text!r}; expected "
                    "slow:devI:xFACTOR or slow@TIME+DURATION:devI:xFACTOR"
                )
            factor = _parse_float(factor_text[1:], "slowdown factor", item, text)
            if when:
                start_text, sep, duration_text = when.partition("+")
                if not sep:
                    raise ValueError(
                        f"bad slowdown window {when!r} in fault event {item!r}; "
                        "expected TIME+DURATION"
                    )
                events.append(
                    DeviceSlowdown(
                        device=_parse_device(dev_text, item, text),
                        factor=factor,
                        at_ms=_parse_float(start_text, "slowdown start", item, text),
                        duration_ms=_parse_float(
                            duration_text, "slowdown duration", item, text
                        ),
                    )
                )
            else:
                events.append(
                    DeviceSlowdown(
                        device=_parse_device(dev_text, item, text), factor=factor
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
                f"{FAULT_CRASH}, {FAULT_STALL}, {FAULT_SLOW}, {FAULT_PHASE_ERROR}"
            )
    return FaultPlan(events=tuple(events), seed=seed)


def format_fault_plan(plan: FaultPlan) -> str:
    """Render a plan back into the spec grammar (inverse of the parser)."""
    parts = []
    for event in plan.events:
        if isinstance(event, DeviceCrash):
            part = f"crash@{event.at_ms:g}:dev{event.device}"
            if event.restart_delay_ms is not None:
                part += f":restart={event.restart_delay_ms:g}"
        elif isinstance(event, DeviceStall):
            part = f"stall@{event.at_ms:g}+{event.duration_ms:g}:dev{event.device}"
        elif isinstance(event, DeviceSlowdown):
            if math.isinf(event.duration_ms) and event.at_ms == 0.0:
                part = f"slow:dev{event.device}:x{event.factor:g}"
            else:
                part = (
                    f"slow@{event.at_ms:g}+{event.duration_ms:g}:"
                    f"dev{event.device}:x{event.factor:g}"
                )
        else:
            part = f"perr:{event.rate:g}"
        parts.append(part)
    return ";".join(parts)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for failed phase dispatches.

    A failed phase (crash abort or transient error) re-enters the waiting
    state ``backoff_ms * 2**(attempt - 1)`` after the failure; once a single
    phase fails more than ``max_retries`` times the whole request is shed
    (reason ``"retries"``) — a poisoned request must not spin forever on a
    flaky cluster.
    """

    max_retries: int = 3
    backoff_ms: float = 25.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if not math.isfinite(self.backoff_ms) or self.backoff_ms < 0:
            raise ValueError(
                f"backoff_ms must be finite and >= 0, got {self.backoff_ms}"
            )

    def backoff_for(self, attempt: int) -> float:
        """Backoff delay after the ``attempt``-th failure (1-based)."""
        return self.backoff_ms * (2.0 ** max(0, attempt - 1))

    def exhausted(self, attempts: int) -> bool:
        return attempts > self.max_retries


__all__ = [
    "DeviceCrash",
    "DeviceFaultProfile",
    "DeviceSlowdown",
    "DeviceStall",
    "FAULT_CRASH",
    "FAULT_PHASE_ERROR",
    "FAULT_SLOW",
    "FAULT_STALL",
    "FaultPlan",
    "HEALTHY_PROFILE",
    "PhaseErrorRate",
    "RetryPolicy",
    "format_fault_plan",
    "parse_fault_spec",
]
