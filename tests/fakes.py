"""Scripted fake sessions for deterministic decoder/recycler tests.

A :class:`ScriptedModel` produces tokens from a fixed position-indexed
stream, with optional per-prefix overrides — enough to script exact
acceptance/rejection/merge scenarios without the statistical oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.models.latency import (
    KIND_DECODE,
    KIND_DRAFT,
    LatencyProfile,
    SimClock,
    forward_ms,
    prefill_ms,
)
from repro.models.simulated import StepResult

EOS = 2

FAKE_PROFILE = LatencyProfile("fake", 10.0, 0.5, 0.0, 0.1)


@dataclass
class FakeVocab:
    eos_id: int = EOS


@dataclass
class ScriptedModel:
    """Position-anchored fake model (audio-conditioned by construction)."""

    stream: list[int]
    name: str = "fake"
    probs: dict[int, float] = field(default_factory=dict)  # position -> top prob
    overrides: dict[tuple, int] = field(default_factory=dict)  # prefix -> token
    latency: LatencyProfile = FAKE_PROFILE
    vocab: FakeVocab = field(default_factory=FakeVocab)

    def session(self, unit, clock: SimClock) -> "ScriptedSession":
        return ScriptedSession(self, clock)


class ScriptedSession:
    def __init__(self, model: ScriptedModel, clock: SimClock) -> None:
        self.model = model
        self.clock = clock
        self._prefilled = False

    def prefill(self) -> None:
        self._prefilled = True
        self.clock.record(
            self.model.name, "prefill", 4, 0, prefill_ms(self.model.latency, 4)
        )

    def _token_at(self, prefix) -> tuple[int, float]:
        prefix = tuple(prefix)
        if prefix in self.model.overrides:
            token = self.model.overrides[prefix]
        else:
            position = len(prefix)
            stream = self.model.stream
            token = stream[position] if position < len(stream) else EOS
        prob = self.model.probs.get(len(prefix), 0.9)
        return token, prob

    def peek(self, prefix) -> StepResult:
        token, prob = self._token_at(prefix)
        alt = token + 100  # deterministic distinct runner-up
        return StepResult(
            token=token,
            top_prob=prob,
            topk=((token, prob), (alt, max(1.0 - prob, 0.01))),
            position=len(tuple(prefix)),
        )

    def step(self, prefix, kind: str = KIND_DECODE) -> StepResult:
        self.clock.record(
            self.model.name,
            kind,
            1,
            len(tuple(prefix)),
            forward_ms(self.model.latency, 1, len(tuple(prefix))),
        )
        return self.peek(prefix)

    def step_frontier(self, prefixes, kind: str = KIND_DRAFT):
        prefixes = [tuple(p) for p in prefixes]
        self.clock.record(
            self.model.name,
            kind,
            len(prefixes),
            max(len(p) for p in prefixes),
            forward_ms(self.model.latency, len(prefixes), 0),
        )
        return [self.peek(p) for p in prefixes]

    def verify_eval(self, prefixes, billed_tokens=None):
        prefixes = [tuple(p) for p in prefixes]
        billed = billed_tokens if billed_tokens is not None else len(prefixes)
        self.clock.record(
            self.model.name,
            "verify",
            billed,
            min(len(p) for p in prefixes),
            forward_ms(self.model.latency, billed, 0),
        )
        return [self.peek(p) for p in prefixes]

    def rollback(self, kept_prefix_len: int) -> None:
        pass

    def is_eos(self, token: int) -> bool:
        return token == EOS

    def max_decode_positions(self) -> int:
        return len(self.model.stream) + 4


@dataclass
class FakeUnit:
    """Minimal decode unit for fake sessions."""

    duration_s: float = 10.0
    seed: int = 0
