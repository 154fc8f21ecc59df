"""Lossless greedy verification of draft sequences and token trees.

Verification is what guarantees iso-accuracy: a draft token is accepted iff
it equals the token the target model itself would produce at that position
given the same prefix.  By induction the accepted prefix is always exactly
the target's own greedy path, so every speculative strategy in this repo
emits the identical transcript to plain autoregressive decoding — a property
the test suite checks exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.decoding.token_tree import ROOT_PARENT, TokenTree
from repro.models.simulated import DecodeSession, StepResult


@dataclass
class SequenceVerifyOutcome:
    """Result of verifying a linear draft sequence."""

    accepted: int  # number of leading draft tokens accepted
    correction: int  # target token to emit after the accepted ones
    correction_result: StepResult  # full distribution of the correction
    results: list[StepResult]  # target outputs at each draft position


def verify_sequence(
    target: DecodeSession, prefix: Sequence[int], draft_tokens: Sequence[int]
) -> SequenceVerifyOutcome:
    """Verify ``draft_tokens`` after ``prefix`` in one target pass.

    The target evaluates the next-token distribution after every draft
    prefix (one batched forward of ``len(draft_tokens)`` input tokens; the
    distribution after the full prefix is cached from the previous round).

    ``prefix`` may be a token sequence or a session cursor; cursors keep the
    per-position cost O(1) instead of re-hashing the full prefix.
    """
    drafts = list(draft_tokens)
    if not drafts:
        raise ValueError("verify_sequence needs at least one draft token")
    cursor = target.cursor(prefix)
    cursors = [cursor]
    for token in drafts:
        cursor = cursor.advance(token)
        cursors.append(cursor)
    results = target.verify_eval(cursors, billed_tokens=len(drafts))
    accepted = 0
    # results carries one extra entry (the post-acceptance correction
    # distribution), so this zip truncates by design.
    for draft_token, result in zip(drafts, results, strict=False):
        if result.token != draft_token:
            break
        accepted += 1
    correction_result = results[accepted]
    return SequenceVerifyOutcome(
        accepted=accepted,
        correction=correction_result.token,
        correction_result=correction_result,
        results=results[: len(drafts)],
    )


@dataclass
class TreeVerifyOutcome:
    """Result of verifying a token tree."""

    accepted_tokens: list[int]  # tokens along the best accepted path
    accepted_node: int  # deepest accepted node index, or ROOT_PARENT
    correction: int  # target token after the accepted path
    correction_result: StepResult
    accepted_set: frozenset[int]  # all accepted node indices
    node_results: list[StepResult]  # target output *at* each node's path


def verify_tree(
    target: DecodeSession,
    prefix: Sequence[int],
    tree: TokenTree,
    billed_tokens: int | None = None,
) -> TreeVerifyOutcome:
    """Verify every branch of ``tree`` in one masked target pass.

    ``billed_tokens`` defaults to the number of tree nodes — the inputs the
    2-D attention mask evaluates in parallel.  ``prefix`` may be a token
    sequence or a session cursor; each node's evaluation point is reached by
    advancing its parent's cursor one token, so the whole tree costs
    O(nodes) rather than O(nodes × prefix length).
    """
    if len(tree) == 0:
        raise ValueError("cannot verify an empty token tree")
    root_cursor = target.cursor(prefix)
    # Evaluate the target at the bare prefix (root-level distribution, cached
    # from the previous round) and after each node's path.  Nodes are in
    # topological order, so every parent cursor exists before its children.
    node_cursors: list = []
    for node in tree.nodes:
        parent = (
            root_cursor if node.parent == ROOT_PARENT else node_cursors[node.parent]
        )
        node_cursors.append(parent.advance(node.token))
    billed = billed_tokens if billed_tokens is not None else len(tree)
    results = target.verify_eval([root_cursor, *node_cursors], billed_tokens=billed)
    root_result = results[0]
    node_results = results[1:]

    accepted: set[int] = set()
    best_node = ROOT_PARENT
    best_depth = 0
    # Nodes are in topological order (parents precede children).
    for index, node in enumerate(tree.nodes):
        if node.parent == ROOT_PARENT:
            expected = root_result.token
            parent_ok = True
        else:
            expected = node_results[node.parent].token
            parent_ok = node.parent in accepted
        if parent_ok and node.token == expected:
            accepted.add(index)
            depth = tree.depth_of(index)
            if depth > best_depth:
                best_depth = depth
                best_node = index

    if best_node == ROOT_PARENT:
        correction_result = root_result
        accepted_tokens: list[int] = []
    else:
        correction_result = node_results[best_node]
        accepted_tokens = tree.path_tokens(best_node)
    return TreeVerifyOutcome(
        accepted_tokens=accepted_tokens,
        accepted_node=best_node,
        correction=correction_result.token,
        correction_result=correction_result,
        accepted_set=frozenset(accepted),
        node_results=node_results,
    )
