"""Tests for autoregressive, vanilla speculative and fixed-tree decoders."""

import pytest

from repro.decoding.autoregressive import AutoregressiveDecoder
from repro.decoding.base import strip_eos
from repro.decoding.speculative import SpeculativeConfig, SpeculativeDecoder, commit
from repro.decoding.tree_spec import FixedTreeConfig, FixedTreeDecoder

from tests.fakes import EOS, FakeUnit, ScriptedModel


class TestHelpers:
    def test_strip_eos(self):
        assert strip_eos([5, 6, EOS], EOS) == [5, 6]
        assert strip_eos([5, 6], EOS) == [5, 6]
        assert strip_eos([], EOS) == []

    def test_commit_stops_at_eos(self):
        prefix, done = commit([5], [6, EOS, 9], EOS)
        assert prefix == [5, 6, EOS]
        assert done

    def test_commit_without_eos(self):
        prefix, done = commit([5], [6, 7], EOS)
        assert prefix == [5, 6, 7]
        assert not done


class TestAutoregressive:
    def test_decodes_stream(self):
        target = ScriptedModel(stream=[5, 6, 7, EOS], name="target")
        result = AutoregressiveDecoder(target).decode(FakeUnit())
        assert result.tokens == [5, 6, 7]

    def test_one_forward_per_token(self):
        target = ScriptedModel(stream=[5, 6, 7, EOS], name="target")
        result = AutoregressiveDecoder(target).decode(FakeUnit())
        assert result.clock.count_for_kind("decode") == 4  # 3 tokens + EOS

    def test_respects_length_cap(self):
        # The stream never emits EOS within the cap; uncapped, it decodes
        # 100 tokens.
        target = ScriptedModel(stream=[5] * 100, name="target", max_positions=6)
        result = AutoregressiveDecoder(target).decode(FakeUnit())
        assert result.tokens == [5] * 6


class TestSpeculative:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SpeculativeConfig(draft_len=0)
        with pytest.raises(ValueError):
            SpeculativeConfig(beams=3)

    def test_lossless_when_models_agree(self):
        stream = [5, 6, 7, 8, 9, EOS]
        draft = ScriptedModel(stream=list(stream), name="draft")
        target = ScriptedModel(stream=list(stream), name="target")
        result = SpeculativeDecoder(draft, target, SpeculativeConfig(4, 1)).decode(
            FakeUnit()
        )
        assert result.tokens == [5, 6, 7, 8, 9]
        # perfect agreement: first round accepts all 4 drafts
        assert result.trace.rounds[0].accepted_tokens == 4

    def test_lossless_when_models_disagree(self):
        target_stream = [5, 6, 7, 8, EOS]
        draft_stream = [5, 9, 7, 8, EOS]  # disagrees at position 1
        draft = ScriptedModel(stream=draft_stream, name="draft")
        target = ScriptedModel(stream=target_stream, name="target")
        result = SpeculativeDecoder(draft, target, SpeculativeConfig(4, 1)).decode(
            FakeUnit()
        )
        assert result.tokens == [5, 6, 7, 8]

    def test_draft_steps_bounded_by_gamma(self):
        stream = [5] * 20 + [EOS]
        draft = ScriptedModel(stream=list(stream), name="draft")
        target = ScriptedModel(stream=list(stream), name="target")
        result = SpeculativeDecoder(draft, target, SpeculativeConfig(8, 1)).decode(
            FakeUnit()
        )
        assert all(r.draft_steps <= 8 for r in result.trace.rounds)

    def test_two_beams_builds_tree(self):
        stream = [5, 6, 7, EOS]
        draft = ScriptedModel(stream=list(stream), name="draft")
        target = ScriptedModel(stream=list(stream), name="target")
        result = SpeculativeDecoder(draft, target, SpeculativeConfig(4, 2)).decode(
            FakeUnit()
        )
        assert result.tokens == [5, 6, 7]
        first_round = result.trace.rounds[0]
        assert first_round.tree_nodes > first_round.submitted_tokens

    def test_latency_totals_equal_event_sum(self):
        stream = [5, 6, 7, EOS]
        draft = ScriptedModel(stream=list(stream), name="draft")
        target = ScriptedModel(stream=list(stream), name="target")
        result = SpeculativeDecoder(draft, target).decode(FakeUnit())
        assert result.total_ms == pytest.approx(sum(e.ms for e in result.clock.events))


class TestFixedTree:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            FixedTreeConfig(branching=())
        with pytest.raises(ValueError):
            FixedTreeConfig(branching=(2, 0))

    def test_lossless(self):
        stream = [5, 6, 7, 8, EOS]
        draft = ScriptedModel(stream=list(stream), name="draft")
        target = ScriptedModel(stream=list(stream), name="target")
        result = FixedTreeDecoder(
            draft, target, FixedTreeConfig((2, 1, 1))
        ).decode(FakeUnit())
        assert result.tokens == [5, 6, 7, 8]

    def test_tree_width_follows_branching(self):
        stream = [5, 6, 7, 8, EOS]
        draft = ScriptedModel(stream=list(stream), name="draft")
        target = ScriptedModel(stream=list(stream), name="target")
        result = FixedTreeDecoder(
            draft, target, FixedTreeConfig((2, 2, 1))
        ).decode(FakeUnit())
        first = result.trace.rounds[0]
        # depth-wise: 2 roots, then 4, then 4 → 10 nodes
        assert first.tree_nodes == 10

    def test_on_simulated_models_matches_ar(self, whisper_pair, clean_dataset):
        draft, target = whisper_pair
        ar = AutoregressiveDecoder(target)
        tree = FixedTreeDecoder(draft, target)
        for utterance in list(clean_dataset)[:3]:
            assert tree.decode(utterance).tokens == ar.decode(utterance).tokens
