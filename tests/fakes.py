"""Scripted fake models for deterministic decoder/recycler tests.

A :class:`ScriptedModel` produces tokens from a fixed position-indexed
stream, with optional per-prefix overrides — enough to script exact
acceptance/rejection/merge scenarios without the statistical oracle.  Its
sessions are the real :class:`~repro.models.simulated.DecodeSession` over a
:class:`ScriptedEmission`, so tests exercise the production trie, cursors
and billing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.models.latency import LatencyProfile, SimClock
from repro.models.simulated import DecodeSession, StepResult, TrieNode

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
    max_positions: int | None = None  # decode cap; default len(stream) + 4

    def session(self, unit, clock: SimClock) -> DecodeSession:
        return DecodeSession(self, ScriptedEmission(self), clock)


class ScriptedEmission:
    """The model's stream by position, unless an override names the prefix."""

    prompt_tokens = 4
    window = 0  # no divergence state: the stream is position-anchored
    context = 1  # unused: steps read the node's whole prefix
    encoder = None

    def __init__(self, model: ScriptedModel) -> None:
        self.model = model
        self.root = TrieNode(None, None, 0, 0, ())
        self.max_positions = model.max_positions or len(model.stream) + 4

    def step(self, node: TrieNode) -> StepResult:
        model, position = self.model, node.depth
        token = model.overrides.get(node.prefix())
        if token is None:
            token = model.stream[position] if position < len(model.stream) else EOS
        prob = model.probs.get(position, 0.9)
        alt = token + 100  # deterministic distinct runner-up
        return StepResult(
            token=token,
            top_prob=prob,
            topk=((token, prob), (alt, max(1.0 - prob, 0.01))),
            position=position,
        )


@dataclass
class FakeUnit:
    """Minimal decode unit for fake sessions."""

    duration_s: float = 10.0
    seed: int = 0
