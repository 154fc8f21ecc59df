"""Draft sequence recycling (paper Sec. IV-B, Fig. 9).

After a verification round rejects a draft token, the tokens *behind* the
rejection are normally thrown away.  In ASR they are too valuable to waste:
decoding is audio-conditioned, so the rejected region is usually a localized
acoustic hiccup and the rest of the old draft still matches what both models
will say next.  The recycler therefore keeps the unaccepted suffix
("sequence 1") and, in the next round, runs two draft frontiers inside one
masked token tree:

* the **regeneration frontier** re-drafts from the corrected prefix
  ("sequence 2"), and
* the **extension frontier** keeps extending beyond the end of the retained
  suffix,

advancing both in a single batched draft forward pass per step — the
regeneration delay hides inside the ongoing prediction.  Each regenerated
token is compared against the retained suffix at the corresponding (or, with
``adjacent_merge``, the ±1) position; on a match the two branches merge and
the remainder of the retained suffix is spliced in *without recomputation*.
If no merge happens, both branches are submitted for tree verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.config import SpecASRConfig
from repro.models.latency import KIND_DRAFT
from repro.models.simulated import DecodeSession


@dataclass(frozen=True)
class DraftedToken:
    """One draft token with the metadata recycling and TSP need."""

    token: int
    prob: float
    topk: tuple[tuple[int, float], ...] = ()
    recycled: bool = False


@dataclass
class RecycledSuffix:
    """The unaccepted remainder of a previously submitted draft sequence."""

    items: list[DraftedToken] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.items)

    def __bool__(self) -> bool:
        return bool(self.items)

    @property
    def tokens(self) -> list[int]:
        return [item.token for item in self.items]

    @classmethod
    def from_items(
        cls, items: list[DraftedToken], eos_id: int, max_len: int
    ) -> "RecycledSuffix":
        """Build a suffix: trim after the first EOS and cap the length."""
        trimmed: list[DraftedToken] = []
        for item in items:
            trimmed.append(item)
            if item.token == eos_id:
                break
        return cls(items=trimmed[: max(max_len - 1, 0)])


@dataclass
class RecyclingDraft:
    """Output of one recycling drafting phase.

    ``main`` is the primary candidate path: the merged chain when the
    regeneration re-joined the retained suffix, otherwise the retained
    suffix plus its extension.  ``alt`` is the unmerged regeneration branch
    (None when merged or empty).
    """

    main: list[DraftedToken]
    alt: list[DraftedToken] | None
    merged: bool
    merge_index: int | None  # suffix index the regeneration merged at
    draft_steps: int
    fresh_tokens: int
    recycled_tokens: int


def _match_offset(
    token: int, suffix: list[DraftedToken], j: int, adjacent: bool
) -> int | None:
    """Index in ``suffix`` that ``token`` (regenerated at offset ``j``)
    matches, checking the corresponding position first, then ±1."""
    order = [j, j + 1, j - 1] if adjacent else [j]
    for candidate in order:
        if 0 <= candidate < len(suffix) and suffix[candidate].token == token:
            return candidate
    return None


def draft_with_recycling(
    session: DecodeSession,
    prefix,
    suffix: RecycledSuffix,
    config: SpecASRConfig,
    eos_id: int,
    truncate: bool = True,
) -> RecyclingDraft:
    """Run one recycling drafting phase after ``prefix``.

    ``prefix`` may be a token list or a session cursor.  ``truncate=True``
    applies the ASP threshold to both frontiers; ``truncate=False`` (TSP
    trunk pass) lets generation run through uncertain positions, which are
    only recorded.
    """
    if not suffix:
        raise ValueError("draft_with_recycling requires a non-empty suffix")
    retained = list(suffix.items)
    max_len = config.max_draft_len

    extension: list[DraftedToken] = []
    regen: list[DraftedToken] = []
    merge_index: int | None = None
    steps = 0
    fresh = 0

    base = session.cursor(prefix)
    # Both frontiers advance one token per batched pass; cursors make each
    # advance O(1) instead of rebuilding the full prefix list.
    ext_cursor = base.extend([t.token for t in retained])
    regen_cursor = base

    def ext_room() -> bool:
        return len(retained) + len(extension) < max_len

    last = retained[-1]
    ext_alive = last.token != eos_id and ext_room()
    if truncate and last.prob < config.threshold:
        ext_alive = False
    regen_alive = True

    while ext_alive or (regen_alive and merge_index is None):
        frontier: list[tuple[str, object]] = []
        if ext_alive:
            frontier.append(("ext", ext_cursor))
        if regen_alive and merge_index is None:
            frontier.append(("regen", regen_cursor))
        results = session.step_frontier([c for _, c in frontier], kind=KIND_DRAFT)
        steps += 1
        for (kind, _), result in zip(frontier, results, strict=True):
            drafted = DraftedToken(result.token, result.top_prob, result.topk)
            if kind == "ext":
                extension.append(drafted)
                ext_cursor = ext_cursor.advance(result.token)
                fresh += 1
                if result.token == eos_id or not ext_room():
                    ext_alive = False
                elif truncate and result.top_prob < config.threshold:
                    ext_alive = False
            else:
                regen.append(drafted)
                regen_cursor = regen_cursor.advance(result.token)
                fresh += 1
                j = len(regen) - 1
                matched = _match_offset(
                    result.token, retained, j, config.adjacent_merge
                )
                if matched is not None:
                    merge_index = matched
                elif result.token == eos_id or len(regen) >= max_len:
                    regen_alive = False
                elif truncate and result.top_prob < config.threshold:
                    regen_alive = False

    if merge_index is not None:
        spliced = [replace(t, recycled=True) for t in retained[merge_index + 1 :]]
        main = regen + spliced + extension
        return RecyclingDraft(
            main=main,
            alt=None,
            merged=True,
            merge_index=merge_index,
            draft_steps=steps,
            fresh_tokens=fresh,
            recycled_tokens=len(spliced),
        )

    main = [replace(t, recycled=True) for t in retained] + extension
    return RecyclingDraft(
        main=main,
        alt=regen or None,
        merged=False,
        merge_index=None,
        draft_steps=steps,
        fresh_tokens=fresh,
        recycled_tokens=len(retained),
    )
