"""Two-pass sparse-tree prediction (paper Sec. IV-C, Fig. 10).

Pass 1 decodes a long greedy "main trunk" *without* truncating at uncertain
positions — those are only marked, together with their top-k alternatives.
Pass 2 explores narrow side branches exclusively at the marked positions,
seeding each branch with the trunk's rank-2 token (the paper shows rank 2
covers over two-thirds of top-1 failures).  Branch extension reuses the
recycling idea: as soon as a branch token matches the trunk (or an earlier
branch) at the corresponding/adjacent position, the branch is concatenated
back instead of extended further.  The result is a *sparse* token tree —
long trunk, few short branches — verified in one SpecInfer-masked target
pass.  TSP shines when the target is much larger than the draft: extra draft
work buys fewer, better-filled verification passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.adaptive import UncertainPoint, draft_adaptive
from repro.core.config import SpecASRConfig
from repro.core.recycling import (
    DraftedToken,
    RecycledSuffix,
    draft_with_recycling,
)
from repro.decoding.token_tree import ROOT_PARENT, TokenTree
from repro.models.latency import KIND_DRAFT
from repro.models.simulated import DecodeSession


@dataclass
class SparseBranch:
    """One side branch rooted at an uncertain trunk position."""

    trunk_offset: int  # uncertain position u in trunk coordinates
    items: list[DraftedToken]  # [alternative token] + fresh extensions
    merged_suffix: list[DraftedToken] = field(default_factory=list)
    merged: bool = False
    merge_at: int | None = None  # absolute trunk offset the branch re-joined

    def path_items(self) -> list[DraftedToken]:
        return self.items + self.merged_suffix


@dataclass
class SparseTreeDraft:
    """Output of the two-pass sparse-tree drafting phase."""

    trunk: list[DraftedToken]
    alt_branch: list[DraftedToken] | None  # unmerged pass-1 regeneration
    branches: list[SparseBranch]
    draft_steps: int
    fresh_tokens: int
    recycled_tokens: int


def _absolute_tokens(
    trunk: list[DraftedToken], branch: SparseBranch
) -> list[DraftedToken]:
    """A branch's candidate sequence laid out in absolute trunk coordinates."""
    return trunk[: branch.trunk_offset] + branch.path_items()


def build_sparse_tree_round(
    session: DecodeSession,
    prefix,
    suffix: RecycledSuffix | None,
    config: SpecASRConfig,
    eos_id: int,
) -> SparseTreeDraft:
    """Run both TSP passes and return the drafted sparse tree.

    ``prefix`` may be a token list or a session cursor.
    """
    base = session.cursor(prefix)
    # ---- pass 1: main trunk (recycled when a suffix is available) -----------
    alt_branch: list[DraftedToken] | None = None
    if suffix:
        recycled = draft_with_recycling(
            session, base, suffix, config, eos_id, truncate=False
        )
        trunk = recycled.main
        alt_branch = recycled.alt
        steps = recycled.draft_steps
        fresh = recycled.fresh_tokens
        recycled_count = recycled.recycled_tokens
    else:
        plain = draft_adaptive(session, base, config, eos_id, truncate=False)
        trunk = [
            DraftedToken(token, prob, ())
            for token, prob in zip(plain.tokens, plain.probs, strict=True)
        ]
        # draft_adaptive records alternatives on uncertain points; fold the
        # top-k back into the trunk items so pass 2 can branch on them.
        for point in plain.uncertain:
            trunk[point.offset] = replace(trunk[point.offset], topk=point.alternatives)
        steps = plain.draft_steps
        fresh = len(plain.tokens)
        recycled_count = 0

    # ---- select branch points ------------------------------------------------
    uncertain = [
        UncertainPoint(offset, item.prob, item.topk)
        for offset, item in enumerate(trunk)
        if item.token != eos_id and item.prob < config.threshold and item.topk
    ]
    uncertain.sort(key=lambda p: p.top_prob)
    branches: list[SparseBranch] = []
    for point in uncertain[: config.max_branches]:
        alternative = point.alternative_token(config.branch_top_k)
        if alternative is None or alternative == trunk[point.offset].token:
            continue
        alt_prob = point.alternatives[config.branch_top_k - 1][1]
        branches.append(
            SparseBranch(
                trunk_offset=point.offset,
                items=[DraftedToken(alternative, alt_prob, ())],
            )
        )

    # ---- pass 2: extend branches, merging back where possible ----------------
    live = [b for b in branches if b.items[-1].token != eos_id]
    # Try zero-cost merges first: the alternative token itself may already
    # match the trunk at an adjacent position.
    still_live: list[SparseBranch] = []
    for branch in live:
        if _try_merge(branch, trunk, branches, config):
            recycled_count += len(branch.merged_suffix)
            continue
        still_live.append(branch)
    live = still_live

    # One cursor per trunk position (trunk_cursors[i] = after trunk[:i]),
    # built once; each live branch then advances its own cursor per step.
    if live:
        trunk_cursors = [base]
        max_offset = max(b.trunk_offset for b in live)
        for item in trunk[:max_offset]:
            trunk_cursors.append(trunk_cursors[-1].advance(item.token))
        branch_cursors = {
            id(b): trunk_cursors[b.trunk_offset].advance(b.items[0].token) for b in live
        }

    while live:
        results = session.step_frontier(
            [branch_cursors[id(b)] for b in live], kind=KIND_DRAFT
        )
        steps += 1
        next_live: list[SparseBranch] = []
        for branch, result in zip(live, results, strict=True):
            branch.items.append(
                DraftedToken(result.token, result.top_prob, result.topk)
            )
            branch_cursors[id(branch)] = branch_cursors[id(branch)].advance(
                result.token
            )
            fresh += 1
            if _try_merge(branch, trunk, branches, config):
                recycled_count += len(branch.merged_suffix)
                continue
            if result.token == eos_id:
                continue
            if result.top_prob < config.threshold:
                continue
            if len(branch.items) - 1 >= config.branch_extension_cap:
                continue
            next_live.append(branch)
        live = next_live

    return SparseTreeDraft(
        trunk=trunk,
        alt_branch=alt_branch,
        branches=branches,
        draft_steps=steps,
        fresh_tokens=fresh,
        recycled_tokens=recycled_count,
    )


def _try_merge(
    branch: SparseBranch,
    trunk: list[DraftedToken],
    branches: list[SparseBranch],
    config: SpecASRConfig,
) -> bool:
    """Merge ``branch`` back onto the trunk or an earlier merged branch.

    The branch's latest token sits at absolute trunk offset
    ``trunk_offset + len(items) - 1``; a match at the corresponding or ±1
    position concatenates the target's remaining tokens (capped by
    ``merge_verify_window``) onto the branch.
    """
    j = branch.trunk_offset + len(branch.items) - 1
    token = branch.items[-1].token
    targets: list[list[DraftedToken]] = [trunk]
    for other in branches:
        if other is not branch and other.merged:
            targets.append(_absolute_tokens(trunk, other))
    offsets = [j, j + 1, j - 1] if config.adjacent_merge else [j]
    for target in targets:
        for m in offsets:
            if m <= branch.trunk_offset:
                continue  # must re-join strictly after the branch point
            if 0 <= m < len(target) and target[m].token == token:
                window = target[m + 1 : m + 1 + config.merge_verify_window]
                branch.merged_suffix = [replace(t, recycled=True) for t in window]
                branch.merged = True
                branch.merge_at = m
                return True
    return False


def assemble_tree(
    trunk: list[DraftedToken],
    alt_branch: list[DraftedToken] | None = None,
    branches: list[SparseBranch] | None = None,
) -> tuple[TokenTree, list[DraftedToken]]:
    """Assemble the verification token tree from drafted paths.

    Returns the tree plus ``node_info`` aligned with ``tree.nodes`` so the
    engine can rebuild a :class:`RecycledSuffix` from any path after
    verification.
    """
    tree = TokenTree()
    info: list[DraftedToken] = []

    def add_chain(items: list[DraftedToken], parent: int) -> list[int]:
        nodes = []
        for item in items:
            parent = tree.add(item.token, parent, item.prob, item.recycled)
            info.append(item)
            nodes.append(parent)
        return nodes

    trunk_nodes = add_chain(trunk, ROOT_PARENT)
    if alt_branch:
        add_chain(alt_branch, ROOT_PARENT)
    for branch in branches or ():
        offset = branch.trunk_offset
        parent = trunk_nodes[offset - 1] if offset > 0 else ROOT_PARENT
        add_chain(branch.path_items(), parent)
    return tree, info
