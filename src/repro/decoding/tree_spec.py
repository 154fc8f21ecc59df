"""SpecInfer-style fixed-shape token-tree speculative decoding.

A fixed branching schedule (e.g. top-2 at the first two depths, then single
chains) is expanded every round regardless of model confidence — the
"Fixed Tree" family of the paper's Table I: good verification acceptance,
but the draft burns a full tree of forward passes every round and the tree
depth is capped to keep the node count bounded.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.decoding.base import DecodeResult, ModelLike, PhasedDecodeStepper
from repro.decoding.speculative import draft_verify_phases, verify_tree_round
from repro.decoding.token_tree import ROOT_PARENT, TokenTree
from repro.models.latency import KIND_DRAFT, SimClock


@dataclass(frozen=True)
class FixedTreeConfig:
    """Branching factor per tree depth."""

    branching: tuple[int, ...] = (2, 2, 1, 1, 1, 1, 1, 1)

    def __post_init__(self) -> None:
        if not self.branching:
            raise ValueError("branching schedule cannot be empty")
        if any(b < 1 for b in self.branching):
            raise ValueError("branching factors must be >= 1")

    @property
    def depth(self) -> int:
        return len(self.branching)


class FixedTreeDecoder:
    """Fixed token-tree speculative decoding (SpecInfer-like baseline)."""

    def __init__(
        self,
        draft: ModelLike,
        target: ModelLike,
        config: FixedTreeConfig = FixedTreeConfig(),
        name: str | None = None,
    ) -> None:
        self.draft = draft
        self.target = target
        self.config = config
        self.name = name or f"fixed-tree(depth={config.depth})"

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
        node_cursors = {ROOT_PARENT: draft_cursor}
        frontier: list[int] = [ROOT_PARENT]
        for branch_factor in self.config.branching:
            live = [
                node
                for node in frontier
                if node == ROOT_PARENT or tree.nodes[node].token != eos_id
            ]
            if not live:
                break
            results = draft_session.step_frontier(
                [node_cursors[node] for node in live], kind=KIND_DRAFT
            )
            stats.draft_steps += 1
            next_frontier: list[int] = []
            for node, result in zip(live, results, strict=True):
                taken: set[int] = set()
                for token, prob in result.topk[:branch_factor]:
                    if token in taken:
                        continue
                    taken.add(token)
                    child = tree.add(token, node, prob)
                    node_cursors[child] = node_cursors[node].advance(token)
                    next_frontier.append(child)
            frontier = next_frontier
        stats.drafted_tokens = len(tree)
        stats.submitted_tokens = tree.max_depth()
        stats.tree_nodes = len(tree)
        return tree
