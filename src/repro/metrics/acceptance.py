"""Acceptance statistics for speculative decoding analysis.

These helpers compute the quantities behind the paper's motivation figures:
accept@top-k curves (Fig. 5b), per-round acceptance-ratio histograms
(Fig. 6a), post-rejection draft/target alignment (Fig. 6b) and the rank of
the target token in the draft's distribution when the top-1 fails
(Fig. 13b).  They operate on *peek* access (no latency accounting) so the
analysis never perturbs the latency results.
"""

from __future__ import annotations

from typing import Sequence

from repro.models.latency import SimClock


def acceptance_histogram(
    ratios: Sequence[float], bins: int = 5
) -> list[tuple[str, float]]:
    """Histogram of per-round acceptance ratios as (label, fraction) rows.

    The last bin is closed at 1.0 so fully-accepted rounds land in it.
    """
    if bins < 1:
        raise ValueError("need at least one bin")
    if not ratios:
        return [(f"{i / bins:.1f}-{(i + 1) / bins:.1f}", 0.0) for i in range(bins)]
    counts = [0] * bins
    for ratio in ratios:
        index = min(int(ratio * bins), bins - 1)
        counts[index] += 1
    total = len(ratios)
    return [
        (f"{i / bins:.1f}-{(i + 1) / bins:.1f}", counts[i] / total) for i in range(bins)
    ]


def _open_sessions(draft_model, target_model, unit):
    """Open latency-silent sessions for analysis."""
    clock = SimClock()
    draft = draft_model.session(unit, clock)
    target = target_model.session(unit, clock)
    return draft, target


def _target_greedy_path(target_session, eos_id: int, limit: int) -> list[int]:
    tokens: list[int] = []
    while len(tokens) < limit:
        token = target_session.peek(tokens).token
        tokens.append(token)
        if token == eos_id:
            break
    return tokens


def accept_at_topk(draft_model, target_model, units, max_k: int = 5) -> list[float]:
    """P(target token within the draft's top-k) along the target greedy path.

    ``accept@1`` is exactly the per-token acceptance probability of greedy
    speculative decoding; higher k shows how much headroom token-tree
    expansion has (paper Fig. 5b).
    """
    eos_id = target_model.vocab.eos_id
    hits = [0] * max_k
    total = 0
    for unit in units:
        draft, target = _open_sessions(draft_model, target_model, unit)
        limit = target.max_decode_positions()
        path = _target_greedy_path(target, eos_id, limit)
        for position in range(len(path)):
            prefix = path[:position]
            target_token = path[position]
            if target_token == eos_id:
                continue
            rank = draft.peek(prefix).rank_of(target_token)
            total += 1
            if rank is not None:
                for k in range(rank, max_k + 1):
                    hits[k - 1] += 1
    if total == 0:
        return [0.0] * max_k
    return [h / total for h in hits]


def rank_distribution_on_failure(
    draft_model, target_model, units, max_rank: int = 5
) -> dict[str, float]:
    """Among positions where the draft top-1 fails verification, the rank of
    the target's actual token in the draft's top-k (paper Fig. 13b).

    Returns fractions keyed ``"2"``, ``"3"``, ..., ``">max_rank"``.
    """
    eos_id = target_model.vocab.eos_id
    counts: dict[str, int] = {str(r): 0 for r in range(2, max_rank + 1)}
    counts[f">{max_rank}"] = 0
    failures = 0
    for unit in units:
        draft, target = _open_sessions(draft_model, target_model, unit)
        limit = target.max_decode_positions()
        path = _target_greedy_path(target, eos_id, limit)
        for position in range(len(path)):
            prefix = path[:position]
            target_token = path[position]
            if target_token == eos_id:
                continue
            step = draft.peek(prefix)
            if step.token == target_token:
                continue
            failures += 1
            rank = step.rank_of(target_token)
            if rank is not None and 2 <= rank <= max_rank:
                counts[str(rank)] += 1
            else:
                counts[f">{max_rank}"] += 1
    if failures == 0:
        return {key: 0.0 for key in counts}
    return {key: value / failures for key, value in counts.items()}


def suffix_alignment_curve(
    draft_model, target_model, units, draft_len: int = 16, max_offset: int = 8
) -> list[float]:
    """Post-rejection alignment between draft and target (paper Fig. 6b).

    Simulates greedy speculative rounds; at every rejection, compares the
    *unaccepted* draft tokens with the target's actual continuation at the
    same offsets.  Returns the match rate by offset after the rejection
    (offset 0 = the token right after the rejected one).  High values mean
    the rejected draft suffix is still aligned with the verification
    sequence — the property draft-sequence recycling exploits.
    """
    eos_id = target_model.vocab.eos_id
    matches = [0] * max_offset
    totals = [0] * max_offset
    for unit in units:
        draft, target = _open_sessions(draft_model, target_model, unit)
        limit = target.max_decode_positions()
        prefix: list[int] = []
        while len(prefix) < limit:
            # Draft a fixed-length sequence (greedy, latency-free).
            drafts: list[int] = []
            while len(drafts) < draft_len:
                token = draft.peek(prefix + drafts).token
                drafts.append(token)
                if token == eos_id:
                    break
            # Verify: target tokens at the same positions.
            accepted = 0
            target_tokens: list[int] = []
            for index in range(len(drafts)):
                expected = target.peek(prefix + drafts[:index]).token
                target_tokens.append(expected)
                if accepted == index and expected == drafts[index]:
                    accepted += 1
            if accepted == len(drafts):
                correction = target.peek(prefix + drafts).token
                prefix = prefix + drafts + [correction]
                if correction == eos_id or eos_id in drafts:
                    break
                continue
            # Rejected at position `accepted`; compare the unaccepted suffix
            # against the target's continuation after the correction.
            correction = target_tokens[accepted]
            new_prefix = prefix + drafts[:accepted] + [correction]
            suffix = drafts[accepted + 1 :]
            continuation: list[int] = []
            for offset in range(min(len(suffix), max_offset)):
                expected = target.peek(new_prefix + continuation).token
                continuation.append(expected)
                totals[offset] += 1
                if expected == suffix[offset]:
                    matches[offset] += 1
                if expected == eos_id:
                    break
            prefix = new_prefix
            if correction == eos_id:
                break
    return [matches[i] / totals[i] if totals[i] else 0.0 for i in range(max_offset)]
