"""Analytic latency model for simulated forward passes.

All tables and figures in the paper report wall-clock decoding latency on an
RTX A6000.  Without a GPU we account latency analytically, per forward pass,
with the standard decoder cost structure:

``ms = base + per_token * new_tokens + kv_us/1000 * cached_tokens * new_tokens``

* ``base`` — fixed cost of launching one decoding forward pass (weights
  traffic; dominant for batch-1 autoregressive decoding, which is
  memory-bound).
* ``per_token`` — marginal cost of each additional token evaluated in the
  same pass (speculative verification batches tokens, so verifying n tokens
  costs far less than n sequential passes — the whole premise of speculative
  decoding).
* ``kv_us`` — marginal attention cost per (cached token × new token) pair.

Per-model constants are calibrated in :mod:`repro.models.registry` so that
the baseline-speculative row of the paper's Table II lands near 231 ms draft
/ 254 ms target per 10 s of audio.  Every event is recorded on a
:class:`SimClock`; totals are *sums of recorded events*, never estimated
twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


@dataclass(frozen=True)
class LatencyProfile:
    """Latency constants for one model."""

    name: str
    base_ms: float
    per_token_ms: float
    kv_us_per_token: float
    prefill_per_token_ms: float

    def __post_init__(self) -> None:
        if min(self.base_ms, self.per_token_ms) < 0:
            raise ValueError(f"{self.name}: negative latency constants")
        if min(self.kv_us_per_token, self.prefill_per_token_ms) < 0:
            raise ValueError(f"{self.name}: negative latency constants")


def forward_ms(profile: LatencyProfile, new_tokens: int, cached_tokens: int) -> float:
    """Cost of one decoding forward pass evaluating ``new_tokens`` positions."""
    if new_tokens < 1:
        raise ValueError(f"forward pass needs >= 1 new token, got {new_tokens}")
    if cached_tokens < 0:
        raise ValueError(f"negative KV cache length {cached_tokens}")
    return (
        profile.base_ms
        + profile.per_token_ms * new_tokens
        + profile.kv_us_per_token / 1000.0 * cached_tokens * new_tokens
    )


def prefill_ms(profile: LatencyProfile, prompt_tokens: int) -> float:
    """Cost of prefilling ``prompt_tokens`` (audio embeddings + text prompt)."""
    if prompt_tokens < 0:
        raise ValueError(f"negative prompt length {prompt_tokens}")
    return profile.base_ms + profile.prefill_per_token_ms * prompt_tokens


#: Event kinds recorded on the clock.
KIND_PREFILL = "prefill"
KIND_DECODE = "decode"  # plain autoregressive step
KIND_DRAFT = "draft"  # draft model speculation step (possibly batched)
KIND_VERIFY = "verify"  # target model verification pass
KIND_ENCODE = "encode"  # audio encoder pass


class LatencyEvent(NamedTuple):
    """One recorded forward pass.

    A NamedTuple: one event is appended per simulated forward pass, which
    makes construction cost part of the decode hot path.
    """

    model: str
    kind: str
    new_tokens: int
    cached_tokens: int
    ms: float


@dataclass
class SimClock:
    """Accumulates latency events for one decode run."""

    events: list[LatencyEvent] = field(default_factory=list)

    def record(
        self,
        model: str,
        kind: str,
        new_tokens: int,
        cached_tokens: int,
        ms: float,
    ) -> LatencyEvent:
        if ms < 0:
            raise ValueError("negative event duration")
        event = LatencyEvent(model, kind, new_tokens, cached_tokens, ms)
        self.events.append(event)
        return event

    # -- aggregation ---------------------------------------------------------
    def total_ms(self) -> float:
        return sum(event.ms for event in self.events)

    def total_for_kind(self, *kinds: str) -> float:
        wanted = set(kinds)
        return sum(event.ms for event in self.events if event.kind in wanted)

    def count_for_kind(self, *kinds: str) -> int:
        wanted = set(kinds)
        return sum(1 for event in self.events if event.kind in wanted)

    def tokens_for_kind(self, *kinds: str) -> int:
        wanted = set(kinds)
        return sum(event.new_tokens for event in self.events if event.kind in wanted)
