"""Vanilla speculative decoding — the paper's speculative baselines — and
the draft→verify round loop every speculative decoder shares.

Configurations mirror the paper's baselines: (prediction length, beam size)
of (8, 1), (16, 1) and (8, 2).  With one beam the draft proposes a single
linear sequence of fixed length; with two beams the first uncertain position
spawns a second branch (top-2 token) and both branches are extended in
batched draft passes, then verified together as a token tree.

:func:`draft_verify_phases` owns the round protocol: draft from the
committed prefix, verify in one target pass, commit the accepted tokens
plus the target's correction.  A decoder supplies only its draft half and
its verify half.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.decoding.base import (
    PHASE_DRAFT,
    PHASE_VERIFY,
    DecodeResult,
    DecodeTrace,
    ModelLike,
    PhaseGenerator,
    PhasedDecodeStepper,
    RoundStats,
    strip_eos,
)
from repro.decoding.token_tree import ROOT_PARENT, TokenTree
from repro.decoding.verifier import verify_sequence, verify_tree
from repro.models.latency import KIND_DRAFT, SimClock

#: Draft half of a round: ``(draft_session, draft_cursor, stats, eos_id)``
#: → a proposal, with the round's draft counters filled into ``stats``.
DraftRound = Callable[[Any, Any, RoundStats, int], Any]
#: Verify half of a round: ``(target_session, target_cursor, proposal,
#: stats)`` → the accepted draft tokens followed by one target token (the
#: correction, or the bonus token when every draft was accepted).
VerifyRound = Callable[[Any, Any, Any, RoundStats], list[int]]


@dataclass(frozen=True)
class SpeculativeConfig:
    """(prediction length, beam size) of the speculative baseline."""

    draft_len: int = 8
    beams: int = 1

    def __post_init__(self) -> None:
        if self.draft_len < 1:
            raise ValueError("draft_len must be >= 1")
        if self.beams not in (1, 2):
            raise ValueError("beams must be 1 or 2")

    @property
    def label(self) -> str:
        return f"({self.draft_len}, {self.beams})"


def commit(
    prefix: list[int], new_tokens: list[int], eos_id: int
) -> tuple[list[int], bool]:
    """Append ``new_tokens`` to ``prefix``; stop at the first EOS."""
    done = False
    for token in new_tokens:
        prefix.append(token)
        if token == eos_id:
            done = True
            break
    return prefix, done


def draft_verify_phases(
    decoder,
    unit,
    clock: SimClock,
    draft_round: DraftRound,
    verify_round: VerifyRound,
) -> PhaseGenerator:
    """The draft→verify round loop: one draft phase and one verify phase
    per round, until EOS or the target session's position limit.

    ``decoder`` supplies the ``draft``/``target`` models and the result's
    method name.  The target prefill bills to the first verify phase, so a
    disaggregating router charges it to the target pool.
    """
    draft_session = decoder.draft.session(unit, clock)
    target_session = decoder.target.session(unit, clock)
    draft_session.prefill()
    eos_id = decoder.target.vocab.eos_id
    trace = DecodeTrace()
    prefix: list[int] = []
    # One cursor per session at the committed prefix; both advance in
    # O(1) per committed token instead of re-hashing the whole prefix.
    draft_cursor = draft_session.cursor()
    target_cursor = target_session.cursor()
    limit = target_session.max_decode_positions()
    done = False
    while not done and len(prefix) < limit:
        stats = RoundStats()
        proposal = draft_round(draft_session, draft_cursor, stats, eos_id)
        yield PHASE_DRAFT, decoder.draft.name, (), False, False
        if not trace.rounds:  # the first verify phase
            target_session.prefill()
        emitted = verify_round(target_session, target_cursor, proposal, stats)
        stats.accepted_tokens = len(emitted) - 1
        stats.emitted_tokens = len(emitted)
        trace.rounds.append(stats)
        committed_before = len(prefix)
        prefix, done = commit(prefix, emitted, eos_id)
        newly_committed = prefix[committed_before:]
        draft_cursor = draft_cursor.extend(newly_committed)
        target_cursor = target_cursor.extend(newly_committed)
        draft_cursor.rollback()
        target_cursor.rollback()
        done = done or len(prefix) >= limit
        yield PHASE_VERIFY, decoder.target.name, newly_committed, True, done
    return DecodeResult(
        tokens=strip_eos(prefix, eos_id),
        clock=clock,
        trace=trace,
        method=decoder.name,
    )


def verify_tree_round(
    target_session, target_cursor, tree: TokenTree, stats: RoundStats
) -> list[int]:
    """Verify half of the token-tree decoders: one masked target pass over
    ``tree``, committing the accepted path plus the target's correction."""
    outcome = verify_tree(target_session, target_cursor, tree)
    return [*outcome.accepted_tokens, outcome.correction]


class SpeculativeDecoder:
    """Draft-then-verify decoding with a fixed prediction length."""

    def __init__(
        self,
        draft: ModelLike,
        target: ModelLike,
        config: SpeculativeConfig = SpeculativeConfig(),
        name: str | None = None,
    ) -> None:
        self.draft = draft
        self.target = target
        self.config = config
        self.name = name or f"speculative{config.label}"

    # -- public API ----------------------------------------------------------
    def begin(self, unit) -> PhasedDecodeStepper:
        """Step-resumable decode; each step is one draft→verify round, split
        into a draft phase and a verify phase."""
        clock = SimClock()
        single = self.config.beams == 1
        phases = draft_verify_phases(
            self,
            unit,
            clock,
            self._draft_single if single else self._draft_beams,
            self._verify_single if single else verify_tree_round,
        )
        return PhasedDecodeStepper(phases, clock)

    def decode(self, unit) -> DecodeResult:
        return self.begin(unit).drain()

    # -- single-beam round ------------------------------------------------------
    def _draft_single(self, draft_session, draft_cursor, stats, eos_id) -> list[int]:
        drafts: list[int] = []
        cursor = draft_cursor
        for _ in range(self.config.draft_len):
            result = draft_session.step(cursor, kind=KIND_DRAFT)
            stats.draft_steps += 1
            drafts.append(result.token)
            if result.token == eos_id:
                break
            cursor = cursor.advance(result.token)
        stats.drafted_tokens = len(drafts)
        stats.submitted_tokens = len(drafts)
        stats.tree_nodes = len(drafts)
        return drafts

    def _verify_single(self, target_session, target_cursor, drafts, stats) -> list[int]:
        outcome = verify_sequence(target_session, target_cursor, drafts)
        return [*drafts[: outcome.accepted], outcome.correction]

    # -- two-beam round ------------------------------------------------------
    def _draft_beams(self, draft_session, draft_cursor, stats, eos_id) -> TokenTree:
        tree = TokenTree()
        first = draft_session.step(draft_cursor, kind=KIND_DRAFT)
        stats.draft_steps += 1
        primary = tree.add(first.token, ROOT_PARENT, first.top_prob)
        node_cursors = {primary: draft_cursor.advance(first.token)}
        frontier = [primary]
        if len(first.topk) > 1 and first.topk[1][0] != first.token:
            secondary_token, secondary_prob = first.topk[1]
            secondary = tree.add(secondary_token, ROOT_PARENT, secondary_prob)
            node_cursors[secondary] = draft_cursor.advance(secondary_token)
            frontier.append(secondary)
        # Extend every live branch one token per batched draft pass.
        for _ in range(self.config.draft_len - 1):
            live = [node for node in frontier if tree.nodes[node].token != eos_id]
            if not live:
                break
            results = draft_session.step_frontier(
                [node_cursors[node] for node in live], kind=KIND_DRAFT
            )
            stats.draft_steps += 1
            frontier = []
            for node, result in zip(live, results, strict=True):
                child = tree.add(result.token, node, result.top_prob)
                node_cursors[child] = node_cursors[node].advance(result.token)
                frontier.append(child)
        stats.drafted_tokens = len(tree)
        stats.submitted_tokens = tree.max_depth()
        stats.tree_nodes = len(tree)
        return tree
