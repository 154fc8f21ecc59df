"""Dynamic token-tree speculative decoding (ProPD / EAGLE-2 family).

The "Dynamic Tree" row of the paper's Table I: instead of a fixed branching
schedule, the draft grows the token tree guided by its own probabilities —
a frontier node is expanded with every candidate whose *path probability*
(product of candidate probabilities along the branch) stays above a
threshold, and the whole tree is capped by a node budget, keeping
verification batches small while spending width only where the draft is
genuinely uncertain.

This is a faithful baseline implementation, not part of SpecASR itself; it
exists so the Table I comparison measures a real dynamic-tree competitor.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.decoding.base import DecodeResult, ModelLike, PhasedDecodeStepper
from repro.decoding.speculative import draft_verify_phases, verify_tree_round
from repro.decoding.token_tree import ROOT_PARENT, TokenTree
from repro.models.latency import KIND_DRAFT, SimClock


@dataclass(frozen=True)
class DynamicTreeConfig:
    """Probability-guided tree growth parameters.

    Attributes:
        node_budget: Maximum tree nodes per round (verification batch cap).
        max_depth: Maximum tree depth per round.
        expand_threshold: Minimum path probability for a candidate to enter
            the tree; below it the branch is pruned (ProPD-style).
        max_children: Cap on children expanded per node.
    """

    node_budget: int = 24
    max_depth: int = 10
    expand_threshold: float = 0.08
    max_children: int = 3

    def __post_init__(self) -> None:
        if self.node_budget < 1:
            raise ValueError("node_budget must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not 0.0 < self.expand_threshold < 1.0:
            raise ValueError("expand_threshold must be in (0, 1)")
        if self.max_children < 1:
            raise ValueError("max_children must be >= 1")


class DynamicTreeDecoder:
    """Speculative decoding with a probability-guided dynamic token tree."""

    def __init__(
        self,
        draft: ModelLike,
        target: ModelLike,
        config: DynamicTreeConfig = DynamicTreeConfig(),
        name: str | None = None,
    ) -> None:
        self.draft = draft
        self.target = target
        self.config = config
        self.name = name or f"dynamic-tree(n={config.node_budget})"

    def begin(self, unit) -> PhasedDecodeStepper:
        """Step-resumable decode; each step is one draft→verify round, split
        into a draft phase and a verify phase."""
        clock = SimClock()
        phases = draft_verify_phases(self, unit, clock, self._draft, verify_tree_round)
        return PhasedDecodeStepper(phases, clock)

    def decode(self, unit) -> DecodeResult:
        return self.begin(unit).drain()

    def _draft(self, draft_session, draft_cursor, stats, eos_id) -> TokenTree:
        tree = TokenTree()
        config = self.config
        # Path probability per node; ROOT_PARENT's is 1.
        path_prob: dict[int, float] = {ROOT_PARENT: 1.0}
        node_cursors = {ROOT_PARENT: draft_cursor}
        # Frontier of nodes whose children have not been generated yet.
        frontier: list[int] = [ROOT_PARENT]
        depth = 0
        while frontier and len(tree) < config.node_budget and depth < config.max_depth:
            results = draft_session.step_frontier(
                [node_cursors[node] for node in frontier], kind=KIND_DRAFT
            )
            stats.draft_steps += 1
            # Collect candidate children across the whole frontier, then
            # admit the highest-path-probability ones within the budget.
            candidates: list[tuple[float, int, int, int, float]] = []
            for order, (node, result) in enumerate(zip(frontier, results, strict=True)):
                seen: set[int] = set()
                for token, prob in result.topk[: config.max_children]:
                    if token in seen:
                        continue
                    seen.add(token)
                    p_path = path_prob[node] * prob
                    if p_path < config.expand_threshold:
                        continue
                    # heapq is a min-heap: negate for best-first.
                    candidates.append((-p_path, order, node, token, prob))
            heapq.heapify(candidates)
            next_frontier: list[int] = []
            while candidates and len(tree) < config.node_budget:
                neg_p, _order, node, token, prob = heapq.heappop(candidates)
                child = tree.add(token, node, prob)
                path_prob[child] = -neg_p
                node_cursors[child] = node_cursors[node].advance(token)
                if token != eos_id:
                    next_frontier.append(child)
            frontier = next_frontier
            depth += 1

        if len(tree) == 0:
            # Degenerate round (nothing above threshold): draft one token.
            result = draft_session.step(draft_cursor, kind=KIND_DRAFT)
            stats.draft_steps += 1
            tree.add(result.token, ROOT_PARENT, result.top_prob)

        stats.drafted_tokens = len(tree)
        stats.submitted_tokens = tree.max_depth()
        stats.tree_nodes = len(tree)
        return tree
