"""Stochastic decoding: temperature sampling and speculative *sampling*.

The paper (and this repo's core) uses greedy decoding, where acceptance is
exact token match.  Production ASR sometimes samples (e.g. temperature
fallback in Whisper), and speculative decoding has a sampling-correct
counterpart (Leviathan et al.; Chen et al.): accept a draft token ``x`` with
probability ``min(1, p_target(x) / p_draft(x))`` and, on rejection, resample
from the residual distribution ``max(p_target - p_draft, 0)``.  The combined
process provably emits tokens distributed exactly as target sampling —
lossless in distribution rather than in value.

Distributions here are the session top-k distributions renormalised; the
distribution-preservation property is verified statistically in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.decoding.base import (
    PHASE_VERIFY,
    DecodeResult,
    DecodeTrace,
    ModelLike,
    PhaseGenerator,
    PhasedDecodeStepper,
    RoundStats,
    strip_eos,
)
from repro.decoding.speculative import draft_verify_phases
from repro.models.latency import KIND_DECODE, KIND_DRAFT, SimClock
from repro.models.simulated import StepResult
from repro.utils.rng import RngStream


@dataclass(frozen=True)
class SamplingConfig:
    """Sampling-mode parameters."""

    seed: int = 0
    draft_len: int = 8

    def __post_init__(self) -> None:
        if self.draft_len < 1:
            raise ValueError("draft_len must be >= 1")


def _distribution(step: StepResult) -> dict[int, float]:
    """The step's top-k distribution, renormalised to sum to 1."""
    total = sum(prob for _tok, prob in step.topk)
    if total <= 0:
        raise ValueError("degenerate step distribution")
    return {token: prob / total for token, prob in step.topk}


def _sample(dist: dict[int, float], rng: RngStream) -> int:
    draw = rng.uniform()
    cumulative = 0.0
    last = None
    for token, prob in dist.items():
        cumulative += prob
        last = token
        if draw < cumulative:
            return token
    return last  # numeric slack lands on the final token


class SamplingDecoder:
    """Plain autoregressive *sampling* on the target model."""

    def __init__(
        self,
        target: ModelLike,
        config: SamplingConfig = SamplingConfig(),
        name: str = "sampling",
    ) -> None:
        self.target = target
        self.config = config
        self.name = name

    def begin(self, unit) -> PhasedDecodeStepper:
        """Step-resumable decode; each step samples one token."""
        clock = SimClock()
        return PhasedDecodeStepper(self._phases(unit, clock), clock)

    def decode(self, unit) -> DecodeResult:
        return self.begin(unit).drain()

    def _phases(self, unit, clock: SimClock) -> PhaseGenerator:
        # Like greedy autoregressive decoding: every round is a single
        # target-model phase.
        session = self.target.session(unit, clock)
        session.prefill()
        rng = RngStream(self.config.seed, "sampling", unit.seed)
        eos_id = self.target.vocab.eos_id
        tokens: list[int] = []
        cursor = session.cursor()
        limit = session.max_decode_positions()
        while len(tokens) < limit:
            step = session.step(cursor, kind=KIND_DECODE)
            token = _sample(_distribution(step), rng.child("tok", len(tokens)))
            tokens.append(token)
            done = token == eos_id or len(tokens) >= limit
            yield PHASE_VERIFY, self.target.name, (token,), True, done
            if done:
                break
            cursor = cursor.advance(token)
        return DecodeResult(
            tokens=strip_eos(tokens, eos_id),
            clock=clock,
            trace=DecodeTrace(),
            method=self.name,
        )


class SpeculativeSamplingDecoder:
    """Speculative sampling: draft proposals + probability-ratio acceptance.

    Emits tokens with *exactly* the target's sampling distribution (over the
    shared top-k support), while most tokens are proposed by the cheap draft.
    """

    def __init__(
        self,
        draft: ModelLike,
        target: ModelLike,
        config: SamplingConfig = SamplingConfig(),
        name: str | None = None,
    ) -> None:
        self.draft = draft
        self.target = target
        self.config = config
        self.name = name or f"spec-sampling({config.draft_len})"

    def begin(self, unit) -> PhasedDecodeStepper:
        """Step-resumable decode; each step is one draft→verify round, split
        into a draft phase and a verify phase."""
        clock = SimClock()
        rounds = _SamplingRounds(self.config, unit)
        phases = draft_verify_phases(self, unit, clock, rounds.draft, rounds.verify)
        return PhasedDecodeStepper(phases, clock)

    def decode(self, unit) -> DecodeResult:
        return self.begin(unit).drain()


class _SamplingRounds:
    """The draft and verify halves of one speculative-sampling decode, with
    its per-decode state: the random stream and the round index that keys
    every draw.

    :meth:`SpeculativeSamplingDecoder.begin` creates one per decode, so
    concurrent decodes on one decoder never share state.
    """

    __slots__ = ("draft_len", "rng", "round")

    def __init__(self, config: SamplingConfig, unit) -> None:
        self.draft_len = config.draft_len
        self.rng = RngStream(config.seed, "spec-sampling", unit.seed)
        self.round = 0

    def draft(
        self, draft_session, draft_cursor, stats: RoundStats, eos_id: int
    ) -> tuple[list[int], list[dict[int, float]]]:
        """Sample up to ``draft_len`` tokens from the draft."""
        drafts: list[int] = []
        draft_dists: list[dict[int, float]] = []
        cursor = draft_cursor
        for _ in range(self.draft_len):
            step = draft_session.step(cursor, kind=KIND_DRAFT)
            stats.draft_steps += 1
            dist = _distribution(step)
            token = _sample(dist, self.rng.child("draft", self.round, len(drafts)))
            drafts.append(token)
            draft_dists.append(dist)
            if token == eos_id:
                break
            cursor = cursor.advance(token)
        stats.drafted_tokens = len(drafts)
        stats.submitted_tokens = len(drafts)
        stats.tree_nodes = len(drafts)
        return drafts, draft_dists

    def verify(
        self,
        target_session,
        target_cursor,
        proposal: tuple[list[int], list[dict[int, float]]],
        stats: RoundStats,
    ) -> list[int]:
        """One batched target pass; accept each draft token with probability
        ``min(1, p_target / p_draft)``, resample the first rejection from the
        residual, or draw a bonus token when every draft is accepted."""
        drafts, draft_dists = proposal
        rng, round_index = self.rng, self.round
        self.round += 1
        verify_cursors = [target_cursor]
        for token in drafts:
            verify_cursors.append(verify_cursors[-1].advance(token))
        results = target_session.verify_eval(verify_cursors, billed_tokens=len(drafts))
        emitted: list[int] = []
        for index, token in enumerate(drafts):
            target_dist = _distribution(results[index])
            p_target = target_dist.get(token, 0.0)
            p_draft = draft_dists[index].get(token, 1e-12)
            ratio = min(1.0, p_target / p_draft)
            if rng.child("accept", round_index, index).uniform() < ratio:
                emitted.append(token)
                continue
            # Rejected: resample from the residual distribution.
            residual = {
                tok: max(prob - draft_dists[index].get(tok, 0.0), 0.0)
                for tok, prob in target_dist.items()
            }
            total = sum(residual.values())
            if total <= 0.0:
                residual = target_dist
                total = 1.0
            residual = {tok: prob / total for tok, prob in residual.items()}
            emitted.append(_sample(residual, rng.child("resample", round_index, index)))
            return emitted
        # All drafts accepted: bonus token from the final distribution.
        bonus_dist = _distribution(results[len(drafts)])
        emitted.append(_sample(bonus_dist, rng.child("bonus", round_index)))
        return emitted
