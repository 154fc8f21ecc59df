"""Tests for draft sequence recycling."""

import pytest

from repro.core.config import SpecASRConfig
from repro.core.recycling import (
    DraftedToken,
    RecycledSuffix,
    draft_with_recycling,
)
from repro.models.latency import SimClock

from tests.fakes import EOS, FakeUnit, ScriptedModel


def suffix_of(tokens, probs=None):
    probs = probs or [0.9] * len(tokens)
    return RecycledSuffix(
        items=[
            DraftedToken(t, p, ((t, p),)) for t, p in zip(tokens, probs, strict=True)
        ]
    )


def session_for(stream, probs=None, overrides=None):
    model = ScriptedModel(
        stream=stream, probs=probs or {}, overrides=overrides or {}, name="draft"
    )
    session = model.session(FakeUnit(), SimClock())
    session.prefill()
    return session


class TestRecycledSuffix:
    def test_from_items_trims_at_eos(self):
        items = [DraftedToken(5, 0.9), DraftedToken(EOS, 0.9), DraftedToken(7, 0.9)]
        suffix = RecycledSuffix.from_items(items, EOS, max_len=24)
        assert suffix.tokens == [5, EOS]

    def test_from_items_caps_length(self):
        items = [DraftedToken(i, 0.9) for i in range(4, 34)]  # avoid EOS id
        suffix = RecycledSuffix.from_items(items, EOS, max_len=10)
        assert len(suffix) == 9

    def test_bool_and_tokens(self):
        assert not RecycledSuffix()
        assert suffix_of([1, 2]).tokens == [1, 2]


class TestMergeAtCorrespondingPosition:
    def test_immediate_merge_splices_suffix(self):
        """Prefix [5]; the model regenerates token 6 at offset 0, which
        matches the retained suffix[0] — the rest of the suffix is spliced
        in without regeneration."""
        stream = [5, 6, 7, 8, 9, 10, EOS]
        session = session_for(stream)
        suffix = suffix_of([6, 7, 8])
        config = SpecASRConfig(max_draft_len=24)
        result = draft_with_recycling(session, [5], suffix, config, EOS)
        assert result.merged
        assert result.merge_index == 0
        main_tokens = [t.token for t in result.main]
        # regen [6] + spliced [7, 8] + extension continues from position 4
        assert main_tokens[:3] == [6, 7, 8]
        assert result.recycled_tokens == 2
        recycled_flags = [t.recycled for t in result.main]
        assert recycled_flags[1:3] == [True, True]

    def test_merge_hides_regeneration_in_batched_passes(self):
        stream = [5, 6, 7, 8, 9, 10, 11, 12, EOS]
        session = session_for(stream)
        suffix = suffix_of([6, 7, 8])
        config = SpecASRConfig(max_draft_len=8)
        result = draft_with_recycling(session, [5], suffix, config, EOS)
        # Extension ran alongside regeneration; steps are far fewer than a
        # from-scratch redraft of the same tokens.
        fresh_len = sum(1 for t in result.main if not t.recycled)
        assert result.draft_steps <= fresh_len + 1

    def test_no_merge_when_regen_disagrees(self):
        # Regeneration produces 99 at offset 0 (override) with high
        # confidence, never matching the retained suffix [6, 7].
        overrides = {(5,): 99, (5, 99): 98, (5, 99, 98): 97}
        stream = [5, 6, 7, 8, 9, EOS]
        session = session_for(stream, overrides=overrides)
        suffix = suffix_of([6, 7])
        config = SpecASRConfig(max_draft_len=5, adjacent_merge=False)
        result = draft_with_recycling(session, [5], suffix, config, EOS)
        assert not result.merged
        assert result.alt is not None
        assert [t.token for t in result.main[:2]] == [6, 7]  # retained branch
        assert result.recycled_tokens == 2

    def test_suffix_required(self):
        session = session_for([5, EOS])
        with pytest.raises(ValueError):
            draft_with_recycling(session, [], RecycledSuffix(), SpecASRConfig(), EOS)


class TestAdjacentMerge:
    def test_merge_at_next_position(self):
        """Regen token at offset 0 matches suffix[1] (alignment slip):
        merged with the +1 offset rule."""
        overrides = {(5,): 7}  # regen emits 7 immediately (suffix[1])
        stream = [5, 6, 7, 8, 9, EOS]
        session = session_for(stream, overrides=overrides)
        suffix = suffix_of([6, 7, 8])
        config = SpecASRConfig(max_draft_len=6, adjacent_merge=True)
        result = draft_with_recycling(session, [5], suffix, config, EOS)
        assert result.merged
        assert result.merge_index == 1
        main_tokens = [t.token for t in result.main]
        assert main_tokens[0] == 7
        assert 8 in main_tokens  # suffix remainder spliced

    def test_adjacent_disabled(self):
        overrides = {(5,): 7, (5, 7): 99, (5, 7, 99): 98, (5, 7, 99, 98): 97}
        stream = [5, 6, 7, 8, 9, EOS]
        session = session_for(stream, overrides=overrides)
        suffix = suffix_of([6, 7, 8])
        config = SpecASRConfig(max_draft_len=5, adjacent_merge=False)
        result = draft_with_recycling(session, [5], suffix, config, EOS)
        assert not result.merged


class TestTruncationInteraction:
    def test_uncertain_regen_stops_round(self):
        overrides = {(5,): 99}
        stream = [5, 6, 7, 8, EOS]
        session = session_for(stream, probs={1: 0.1}, overrides=overrides)
        suffix = suffix_of([6, 7])
        config = SpecASRConfig(threshold=0.4, adjacent_merge=False)
        result = draft_with_recycling(session, [5], suffix, config, EOS)
        assert not result.merged
        assert result.alt is not None
        assert len(result.alt) == 1  # truncated immediately

    def test_uncertain_suffix_tail_blocks_extension(self):
        stream = [5, 6, 7, 8, 9, EOS]
        session = session_for(stream)
        suffix = suffix_of([6, 7], probs=[0.9, 0.1])  # tail below threshold
        config = SpecASRConfig(threshold=0.4)
        result = draft_with_recycling(session, [5], suffix, config, EOS)
        # merged quickly, but no extension beyond the uncertain tail
        assert result.merged
        assert [t.token for t in result.main] == [6, 7]

    def test_truncate_false_extends_through_uncertainty(self):
        stream = [5, 6, 7, 8, 9, 10, EOS]
        session = session_for(stream, probs={3: 0.1})
        suffix = suffix_of([6, 7], probs=[0.9, 0.1])
        config = SpecASRConfig(threshold=0.4, max_draft_len=5)
        result = draft_with_recycling(session, [5], suffix, config, EOS, truncate=False)
        assert result.merged
        assert len(result.main) == 5  # ran to the cap
