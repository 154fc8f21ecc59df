"""Decoder interface and trace/result types shared by all strategies.

A decoder consumes :class:`repro.models.simulated.DecodeSession` objects
(``prefill / peek / step / step_frontier / verify_eval / rollback`` plus
``cursor()``).  ASR and text models open the same session class over
different emissions, so every algorithm in this package runs unchanged on
both task families.

The :class:`DecodeTrace` counters are exactly the quantities the paper's
figures report: rounds, draft steps, predicted/accepted tokens per round,
recycled tokens, tree nodes verified.

Every decoder is *step-resumable*: ``begin(unit)`` returns a
:class:`DecodeStepper`, so a serving scheduler can multiplex many in-flight
decodes and admit new requests between rounds (continuous batching).
``decode()`` is just ``begin(unit).drain()``, so both entry points share one
code path and produce bit-identical results.

Rounds split into *phases*: a draft→verify round is one ``PHASE_DRAFT``
phase (billed to the draft model) followed by one ``PHASE_VERIFY`` phase
(billed to the target model); the round loop every speculative decoder
shares is :func:`repro.decoding.speculative.draft_verify_phases`.
``step_phase()`` returns a :class:`PhaseOutcome` per phase, which is what
lets a multi-device scheduler place the two halves of a round on
*different* simulated accelerators (draft/target disaggregation) and
coalesce verification passes across requests.

**Decode tapes.**  Decoding is audio-conditioned: for one decoder, every
phase and the final result are a pure function of the unit's content, never
of load.  :func:`begin_decode`, the entry point the serving scheduler and
the pool planner start decodes through, therefore records a decode the
first time a decoder sees a unit's ``content_key`` (a hash of every
utterance field a decode reads) and replays that tape on every later call.
Recording is eager, and every replay hands out the same read-only
:class:`DecodeResult`.  ``decoder.begin()`` and ``decoder.decode()`` always
decode afresh, so they stay an independent reference for the replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Protocol, Sequence

from repro.models.latency import KIND_ENCODE, SimClock
from repro.models.simulated import DecodeSession


@dataclass
class RoundStats:
    """Counters for one draft→verify round."""

    draft_steps: int = 0  # draft forward passes in this round
    drafted_tokens: int = 0  # fresh tokens the draft generated
    recycled_tokens: int = 0  # tokens reused from a previous draft sequence
    submitted_tokens: int = 0  # tokens sent for verification (main path)
    tree_nodes: int = 0  # unique nodes billed to the verification pass
    accepted_tokens: int = 0  # draft tokens the target accepted
    emitted_tokens: int = 0  # accepted + correction/bonus token

    @property
    def acceptance_ratio(self) -> float:
        """Accepted fraction of submitted tokens (the paper's
        decoding-acceptance ratio)."""
        if self.submitted_tokens == 0:
            return 0.0
        return self.accepted_tokens / self.submitted_tokens


@dataclass
class DecodeTrace:
    """Per-decode counters, one entry per speculation round."""

    rounds: list[RoundStats] = field(default_factory=list)

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def total_draft_steps(self) -> int:
        return sum(r.draft_steps for r in self.rounds)

    @property
    def total_drafted(self) -> int:
        return sum(r.drafted_tokens for r in self.rounds)

    @property
    def total_recycled(self) -> int:
        return sum(r.recycled_tokens for r in self.rounds)

    @property
    def total_submitted(self) -> int:
        return sum(r.submitted_tokens for r in self.rounds)

    @property
    def total_accepted(self) -> int:
        return sum(r.accepted_tokens for r in self.rounds)

    @property
    def acceptance_ratio(self) -> float:
        submitted = self.total_submitted
        if submitted == 0:
            return 0.0
        return self.total_accepted / submitted


@dataclass
class DecodeResult:
    """Outcome of decoding one utterance/prompt."""

    tokens: list[int]  # final transcript tokens, EOS stripped
    clock: SimClock
    trace: DecodeTrace
    method: str

    @property
    def total_ms(self) -> float:
        return self.clock.total_ms()

    def ms_per_10s(self, duration_s: float) -> float:
        """Latency normalised per 10 seconds of audio (paper Table II)."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        return self.total_ms * 10.0 / duration_s


#: Phase kinds of one speculative round.
PHASE_DRAFT = "draft"
PHASE_VERIFY = "verify"


@dataclass(frozen=True)
class PhaseOutcome:
    """Result of one resumable decode *phase* (half of a round).

    ``ms`` is the SimClock delta charged during the phase; ``model`` names
    the model that ran it (draft model for ``PHASE_DRAFT``, target model for
    ``PHASE_VERIFY``), which is the routing key for draft/target
    disaggregation.  Tokens only commit at the end of a verify phase.  The
    first draft phase carries the draft-side prefill/encode cost; the first
    verify phase carries the target-side prefill cost.
    """

    phase: str  # PHASE_DRAFT | PHASE_VERIFY
    model: str  # name of the model the phase ran on
    ms: float
    new_tokens: tuple[int, ...]
    round_done: bool  # this phase completes a draft→verify round
    done: bool  # the whole decode finished
    kv_peak: int = 0  # peak KV extent (cached + new positions) of the phase


def _phase_kv_peak(events) -> int:
    """Peak cache extent one phase's forward passes reach.

    ``cached + new`` of a pass is the KV length after it; the maximum over
    the phase's events is the block demand the serving memory gate
    reserves.  Encoder passes don't occupy decoder KV and are skipped.
    """
    peak = 0
    for event in events:
        if event.kind == KIND_ENCODE:
            continue
        extent = event.cached_tokens + event.new_tokens
        if extent > peak:
            peak = extent
    return peak


#: A phase generator yields ``(phase, model, tokens, round_done, done)``
#: once per phase and returns the final :class:`DecodeResult`.  The stepper
#: adds the SimClock delta, turning each yield into a :class:`PhaseOutcome`.
PhaseGenerator = Generator[
    tuple[str, str, Sequence[int], bool, bool], None, DecodeResult
]


class DecodeStepper:
    """Step-resumable decode: one phase per :meth:`step_phase` call.

    ``drain()`` runs the decode to completion through :meth:`step_phase`,
    so a phase-by-phase caller and a drained decode produce the same
    result.
    """

    def __init__(self) -> None:
        self._result: DecodeResult | None = None

    @property
    def done(self) -> bool:
        return self._result is not None

    @property
    def result(self) -> DecodeResult:
        if self._result is None:
            raise RuntimeError("decode not finished; call step_phase() until done")
        return self._result

    def step_phase(self) -> PhaseOutcome:
        """Run one phase; raises if the decode already finished."""
        raise NotImplementedError

    def drain(self) -> DecodeResult:
        """Run all remaining phases and return the final result."""
        while self._result is None:
            self.step_phase()
        return self._result


class PhasedDecodeStepper(DecodeStepper):
    """Drives a :data:`PhaseGenerator` and the :class:`SimClock` its
    sessions bill to.

    Each :meth:`step_phase` resumes the generator for one phase and reports
    the committed tokens plus the clock delta.  After the final phase the
    generator is drained so :attr:`result` is immediately available.
    """

    def __init__(self, phases: PhaseGenerator, clock: SimClock) -> None:
        super().__init__()
        self._phases = phases
        self.clock = clock

    def _finish(self, stop: StopIteration) -> None:
        if not isinstance(stop.value, DecodeResult):
            raise RuntimeError(
                "phase generator finished without a DecodeResult"
            ) from None
        self._result = stop.value

    def step_phase(self) -> PhaseOutcome:
        """Run one phase; raises if the decode already finished."""
        if self._result is not None:
            raise RuntimeError("decode already finished")
        events_before = len(self.clock.events)
        try:
            phase, model, tokens, round_done, done = next(self._phases)
        except StopIteration as stop:
            # Degenerate decode (no phases at all): the generator went
            # straight to its return statement.
            self._finish(stop)
            phase, model, tokens, round_done, done = PHASE_VERIFY, "", (), True, True
        else:
            if done:
                try:
                    next(self._phases)
                except StopIteration as stop:
                    self._finish(stop)
                else:
                    raise RuntimeError("phase generator yielded past done=True")
        events = self.clock.events[events_before:]
        return PhaseOutcome(
            phase=phase,
            model=model,
            ms=sum(event.ms for event in events),
            new_tokens=tuple(tokens),
            round_done=round_done or done,
            done=done,
            kv_peak=_phase_kv_peak(events),
        )


class TapeStepper(DecodeStepper):
    """Replays a recorded decode: its phases in order, then its result."""

    def __init__(self, phases: tuple[PhaseOutcome, ...], result: DecodeResult) -> None:
        super().__init__()
        self._phases = iter(phases)
        self._recorded = result

    def step_phase(self) -> PhaseOutcome:
        """Replay one phase; raises if the decode already finished."""
        if self._result is not None:
            raise RuntimeError("decode already finished")
        outcome = next(self._phases)
        if outcome.done:
            self._result = self._recorded
        return outcome


def begin_decode(decoder, unit) -> DecodeStepper:
    """A :class:`DecodeStepper` for ``decoder`` on ``unit``, from its tape.

    The tape contract: decode content is a pure function of the decoder
    and the unit's content.  ``unit.content_key`` covers every field a
    decode reads (for an utterance: ``utterance_id``, which seeds it,
    ``tokens``, ``difficulty`` and ``duration_s``), and the decoder
    instance fixes the method, its config and both models.  The first
    call for a key records the whole decode eagerly — every
    :class:`PhaseOutcome` plus the :class:`DecodeResult` — into a dict on
    the decoder; this and every later call return a :class:`TapeStepper`
    over it.  Phases are frozen, and all replays share one
    ``DecodeResult``, which callers must treat as read-only.  Units
    without a ``content_key`` (scripted fakes, text prompts) decode afresh
    through ``decoder.begin``.
    """
    key = getattr(unit, "content_key", None)
    if key is None:
        return decoder.begin(unit)
    tapes = vars(decoder).setdefault("_decode_tapes", {})
    tape = tapes.get(key)
    if tape is None:
        stepper = decoder.begin(unit)
        phases = []
        while not stepper.done:
            phases.append(stepper.step_phase())
        tape = tapes[key] = (tuple(phases), stepper.result)
    return TapeStepper(*tape)


class ModelLike(Protocol):
    """Structural interface decoders require from a model."""

    name: str
    vocab: Any  # exposes ``eos_id``

    def session(self, unit, clock: SimClock) -> DecodeSession: ...


class Decoder(Protocol):
    """A decoding strategy."""

    name: str

    def begin(self, unit) -> DecodeStepper: ...

    def decode(self, unit) -> DecodeResult: ...


def strip_eos(tokens: list[int], eos_id: int) -> list[int]:
    """Drop a trailing EOS token if present."""
    if tokens and tokens[-1] == eos_id:
        return tokens[:-1]
    return tokens
