"""Adaptive single-sequence prediction (paper Sec. IV-A).

The draft decodes a long sequence (up to 24 tokens) but watches its own
normalised top logit: a position whose top probability falls below the
truncation threshold is likely to fail verification, so the draft stops
there and sends what it has.  This trades a slightly earlier verification
for a large cut in wasted draft steps — the paper reports 74.1 % fewer
ineffective prediction steps and a 94.4 % decoding-acceptance ratio.

The same routine, with truncation disabled, produces the *marked* trunk for
two-pass sparse-tree prediction: uncertain positions are recorded together
with their top-k alternatives instead of stopping generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import SpecASRConfig
from repro.models.latency import KIND_DRAFT
from repro.models.simulated import DecodeSession


@dataclass(frozen=True)
class UncertainPoint:
    """A draft position flagged as likely to fail verification."""

    offset: int  # position within the draft sequence (0-based)
    top_prob: float
    alternatives: tuple[tuple[int, float], ...]  # top-k (token, prob)

    def alternative_token(self, rank: int) -> int | None:
        """Token at 1-based ``rank`` in the draft's top-k, if present."""
        if 1 <= rank <= len(self.alternatives):
            return self.alternatives[rank - 1][0]
        return None


@dataclass
class DraftSequence:
    """Output of one adaptive drafting phase."""

    tokens: list[int] = field(default_factory=list)
    probs: list[float] = field(default_factory=list)
    draft_steps: int = 0
    uncertain: list[UncertainPoint] = field(default_factory=list)
    truncated: bool = False  # stopped early due to a low-confidence token
    hit_eos: bool = False

    def __len__(self) -> int:
        return len(self.tokens)


def draft_adaptive(
    session: DecodeSession,
    prefix,
    config: SpecASRConfig,
    eos_id: int,
    truncate: bool = True,
    max_len: int | None = None,
) -> DraftSequence:
    """Draft a single sequence after ``prefix`` with adaptive truncation.

    ``prefix`` may be a token list or a session cursor.  With
    ``truncate=True`` (ASP) generation stops right after the first
    token whose top probability is below ``config.threshold`` — the token
    itself is still submitted, it just is not extended.  With
    ``truncate=False`` (TSP trunk pass) generation continues to the length
    cap and uncertain positions are only recorded.
    """
    limit = max_len if max_len is not None else config.max_draft_len
    draft = DraftSequence()
    cursor = session.cursor(prefix)
    while len(draft.tokens) < limit:
        result = session.step(cursor, kind=KIND_DRAFT)
        cursor = cursor.advance(result.token)
        draft.draft_steps += 1
        draft.tokens.append(result.token)
        draft.probs.append(result.top_prob)
        if result.token == eos_id:
            draft.hit_eos = True
            break
        if result.top_prob < config.threshold:
            draft.uncertain.append(
                UncertainPoint(
                    offset=len(draft.tokens) - 1,
                    top_prob=result.top_prob,
                    alternatives=result.topk,
                )
            )
            if truncate:
                draft.truncated = True
                break
    return draft
