"""Draft token trees: candidate draft sequences that share prefixes.

A token tree holds multiple candidate draft sequences sharing common
prefixes (paper Fig. 4).  Nodes are kept in topological order with parent
links; :func:`~repro.decoding.verifier.verify_tree` evaluates every node in
one target pass, billed as a SpecInfer-style tree-attention forward.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

ROOT_PARENT = -1


@dataclass(slots=True)
class TreeNode:
    """One drafted token in the tree."""

    token: int
    parent: int  # index of parent node, or ROOT_PARENT for first-level nodes
    prob: float = 0.0  # draft top-prob when this token was generated
    recycled: bool = False  # True if reused from a previous draft sequence
    children: list[int] = field(default_factory=list)


class TokenTree:
    """A tree of draft tokens rooted at the committed prefix."""

    def __init__(self) -> None:
        self.nodes: list[TreeNode] = []

    # -- construction ------------------------------------------------------
    def add(
        self,
        token: int,
        parent: int = ROOT_PARENT,
        prob: float = 0.0,
        recycled: bool = False,
    ) -> int:
        """Append a node under ``parent`` and return its index."""
        if parent != ROOT_PARENT and not 0 <= parent < len(self.nodes):
            raise IndexError(f"parent index {parent} out of range")
        index = len(self.nodes)
        self.nodes.append(TreeNode(token, parent, prob, recycled))
        if parent != ROOT_PARENT:
            self.nodes[parent].children.append(index)
        return index

    def add_chain(
        self,
        tokens: Sequence[int],
        parent: int = ROOT_PARENT,
        probs: Sequence[float] | None = None,
        recycled: bool = False,
    ) -> list[int]:
        """Append a linear chain of tokens; returns the new node indices."""
        indices = []
        for offset, token in enumerate(tokens):
            prob = probs[offset] if probs is not None else 0.0
            parent = self.add(token, parent, prob, recycled)
            indices.append(parent)
        return indices

    @classmethod
    def from_sequences(cls, sequences: Iterable[Sequence[int]]) -> "TokenTree":
        """Build a trie merging shared prefixes of candidate sequences."""
        tree = cls()
        # Maps (parent, token) -> node index to merge shared prefixes.
        edges: dict[tuple[int, int], int] = {}
        for sequence in sequences:
            parent = ROOT_PARENT
            for token in sequence:
                key = (parent, token)
                node = edges.get(key)
                if node is None:
                    node = tree.add(token, parent)
                    edges[key] = node
                parent = node
        return tree

    # -- inspection ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def depth_of(self, index: int) -> int:
        """1-based depth (distance from the committed prefix)."""
        depth = 0
        while index != ROOT_PARENT:
            index = self.nodes[index].parent
            depth += 1
        return depth

    def ancestors(self, index: int) -> list[int]:
        """Ancestor indices from first level down to ``index`` inclusive."""
        chain = []
        while index != ROOT_PARENT:
            chain.append(index)
            index = self.nodes[index].parent
        chain.reverse()
        return chain

    def path_tokens(self, index: int) -> list[int]:
        """Tokens along the path from the prefix to ``index`` inclusive."""
        return [self.nodes[i].token for i in self.ancestors(index)]

    def leaves(self) -> list[int]:
        return [i for i, node in enumerate(self.nodes) if not node.children]

    def roots(self) -> list[int]:
        return [i for i, node in enumerate(self.nodes) if node.parent == ROOT_PARENT]

    def max_depth(self) -> int:
        return max((self.depth_of(leaf) for leaf in self.leaves()), default=0)

    def recycled_count(self) -> int:
        return sum(1 for node in self.nodes if node.recycled)

    # -- verification support ------------------------------------------------
    def validate(self) -> None:
        """Raise if parent links or children lists are inconsistent."""
        for index, node in enumerate(self.nodes):
            if node.parent != ROOT_PARENT:
                if not 0 <= node.parent < index:
                    raise ValueError(
                        f"node {index} has forward/invalid parent {node.parent}"
                    )
                if index not in self.nodes[node.parent].children:
                    raise ValueError(f"node {index} missing from parent children")
            for child in node.children:
                if self.nodes[child].parent != index:
                    raise ValueError(f"child link mismatch at node {index}")
