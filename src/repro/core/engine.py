"""The SpecASR decoding engine (paper Sec. IV, Fig. 8).

Composes the three techniques according to the configuration:

* ``SpecASRConfig(recycling=False)``            → adaptive single-sequence
  prediction only (the Table II "+ASP" row);
* ``SpecASRConfig(recycling=True)``             → ASP + draft sequence
  recycling ("+recycling" row);
* ``SpecASRConfig(sparse_tree=True)``           → full SpecASR with two-pass
  sparse-tree prediction ("+TSP" row, best for large targets).

The round loop itself is the shared
:func:`~repro.decoding.speculative.draft_verify_phases`.  The engine supplies
its two halves: the draft half drafts adaptively, possibly reusing the
previous round's unaccepted suffix; the verify half runs one masked target
pass and retains the new unaccepted suffix for the next round.  The engine
is lossless: its transcript always equals the target model's greedy decode.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.adaptive import draft_adaptive
from repro.core.adaptive_threshold import ThresholdController, ThresholdControllerConfig
from repro.core.config import SpecASRConfig
from repro.core.recycling import (
    DraftedToken,
    RecycledSuffix,
    draft_with_recycling,
)
from repro.core.sparse_tree import assemble_tree, build_sparse_tree_round
from repro.decoding.base import (
    DecodeResult,
    ModelLike,
    PhasedDecodeStepper,
    RoundStats,
)
from repro.decoding.speculative import draft_verify_phases
from repro.decoding.token_tree import ROOT_PARENT, TokenTree
from repro.decoding.verifier import TreeVerifyOutcome, verify_tree
from repro.models.latency import SimClock


class SpecASREngine:
    """SpecASR speculative decoding for one draft/target model pair."""

    def __init__(
        self,
        draft: ModelLike,
        target: ModelLike,
        config: SpecASRConfig = SpecASRConfig(),
        name: str | None = None,
    ) -> None:
        self.draft = draft
        self.target = target
        self.config = config
        self.name = name or config.mode

    # -- public API ----------------------------------------------------------
    def begin(self, unit) -> PhasedDecodeStepper:
        """Step-resumable decode; each step is one draft→verify round, split
        into a draft phase and a verify phase."""
        clock = SimClock()
        rounds = _EngineRounds(self)
        phases = draft_verify_phases(self, unit, clock, rounds.draft, rounds.verify)
        return PhasedDecodeStepper(phases, clock)

    def decode(self, unit) -> DecodeResult:
        return self.begin(unit).drain()


class _EngineRounds:
    """The draft and verify halves of one SpecASR decode, with its
    per-decode state: the recycled suffix and the adaptive-threshold
    controller.

    :meth:`SpecASREngine.begin` creates one per decode, so concurrent
    decodes on one engine never share state.
    """

    __slots__ = ("config", "eos_id", "suffix", "controller")

    def __init__(self, engine: SpecASREngine) -> None:
        self.config = engine.config
        self.eos_id = engine.target.vocab.eos_id
        self.suffix: RecycledSuffix | None = None
        self.controller = (
            ThresholdController(
                ThresholdControllerConfig(initial=self.config.threshold)
            )
            if self.config.adaptive_threshold
            else None
        )

    # -- drafting ------------------------------------------------------------
    def draft(
        self, draft_session, prefix, stats: RoundStats, eos_id: int
    ) -> tuple[TokenTree, list[DraftedToken]]:
        # Per-round view of the config; differs from `self.config` only when
        # the adaptive threshold controller is active.
        config = self.config
        if self.controller is not None:
            config = replace(config, threshold=self.controller.value)
        suffix = self.suffix if (config.recycling and self.suffix) else None

        if config.sparse_tree:
            drafted = build_sparse_tree_round(
                draft_session, prefix, suffix, config, eos_id
            )
            tree, info = assemble_tree(
                drafted.trunk, drafted.alt_branch, drafted.branches
            )
            stats.draft_steps = drafted.draft_steps
            stats.drafted_tokens = drafted.fresh_tokens
            stats.recycled_tokens = drafted.recycled_tokens
            stats.submitted_tokens = len(drafted.trunk)
            stats.tree_nodes = len(tree)
            return tree, info

        if suffix is not None:
            drafted = draft_with_recycling(
                draft_session, prefix, suffix, config, eos_id, truncate=True
            )
            tree, info = assemble_tree(drafted.main, drafted.alt)
            stats.draft_steps = drafted.draft_steps
            stats.drafted_tokens = drafted.fresh_tokens
            stats.recycled_tokens = drafted.recycled_tokens
            stats.submitted_tokens = len(drafted.main)
            stats.tree_nodes = len(tree)
            return tree, info

        plain = draft_adaptive(draft_session, prefix, config, eos_id, truncate=True)
        items = [
            DraftedToken(token, prob, ())
            for token, prob in zip(plain.tokens, plain.probs, strict=True)
        ]
        tree, info = assemble_tree(items)
        stats.draft_steps = plain.draft_steps
        stats.drafted_tokens = len(items)
        stats.submitted_tokens = len(items)
        stats.tree_nodes = len(tree)
        return tree, info

    # -- verification ----------------------------------------------------------
    def verify(
        self,
        target_session,
        target_cursor,
        drafted: tuple[TokenTree, list[DraftedToken]],
        stats: RoundStats,
    ) -> list[int]:
        tree, info = drafted
        outcome = verify_tree(target_session, target_cursor, tree)
        if self.controller is not None:
            self.controller.observe_round(
                truncated=stats.submitted_tokens < self.config.max_draft_len,
                submitted=stats.submitted_tokens,
                accepted=len(outcome.accepted_tokens),
            )
        self.suffix = self._extract_suffix(tree, info, outcome)
        return [*outcome.accepted_tokens, outcome.correction]

    def _extract_suffix(
        self,
        tree: TokenTree,
        info: list[DraftedToken],
        outcome: TreeVerifyOutcome,
    ) -> RecycledSuffix | None:
        """Retain the unaccepted remainder of the verified main path.

        The path containing the deepest accepted node is "sequence 1" in the
        paper's Fig. 9; everything after its rejected token becomes the
        recycled suffix for the next round.
        """
        if not self.config.recycling:
            return None
        best = outcome.accepted_node
        leaves = tree.leaves()
        if best == ROOT_PARENT:
            eligible = leaves
        else:
            eligible = [leaf for leaf in leaves if best in tree.ancestors(leaf)]
        if not eligible:
            return None
        leaf = max(eligible, key=tree.depth_of)
        path = tree.ancestors(leaf)
        accepted_len = len(outcome.accepted_tokens)
        # path[accepted_len] is the rejected node (replaced by the
        # correction); everything after it is reusable.
        remainder = path[accepted_len + 1 :]
        if not remainder:
            return None
        items = [info[node] for node in remainder]
        retained = RecycledSuffix.from_items(
            items, self.eos_id, self.config.max_draft_len
        )
        return retained if retained else None
