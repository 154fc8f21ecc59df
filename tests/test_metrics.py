"""Tests for the metrics package."""

import pytest

from repro.metrics.acceptance import (
    accept_at_topk,
    acceptance_histogram,
    rank_distribution_on_failure,
    suffix_alignment_curve,
)
from repro.metrics.latency_report import aggregate_latency
from repro.metrics.wer import corpus_wer, model_wer, wer


class TestWer:
    def test_perfect(self):
        assert wer([1, 2, 3], [1, 2, 3]) == 0.0

    def test_substitution(self):
        assert wer([1, 2, 3], [1, 9, 3]) == pytest.approx(1 / 3)

    def test_empty_reference(self):
        assert wer([], []) == 0.0
        assert wer([], [1]) == 1.0

    def test_corpus_pooling(self):
        refs = [[1, 2], [3, 4, 5, 6]]
        hyps = [[1, 9], [3, 4, 5, 6]]
        assert corpus_wer(refs, hyps) == pytest.approx(1 / 6)

    def test_corpus_length_mismatch(self):
        with pytest.raises(ValueError):
            corpus_wer([[1]], [[1], [2]])

    def test_model_wer_in_unit_range(self, whisper_pair, clean_dataset):
        draft, target = whisper_pair
        for model in (draft, target):
            value = model_wer(model, clean_dataset)
            assert 0.0 <= value < 0.5


class TestAcceptanceStats:
    def test_histogram_buckets(self):
        rows = acceptance_histogram([0.0, 0.5, 1.0, 1.0], bins=5)
        assert rows[0][1] == pytest.approx(0.25)
        assert rows[2][1] == pytest.approx(0.25)
        assert rows[4][1] == pytest.approx(0.5)  # full accepts in last bin

    def test_histogram_empty(self):
        rows = acceptance_histogram([], bins=4)
        assert all(fraction == 0.0 for _, fraction in rows)

    def test_histogram_invalid_bins(self):
        with pytest.raises(ValueError):
            acceptance_histogram([0.5], bins=0)


class TestAcceptanceAnalyses:
    def test_accept_at_topk_monotone(self, whisper_pair, clean_dataset):
        draft, target = whisper_pair
        curve = accept_at_topk(draft, target, list(clean_dataset)[:4], max_k=4)
        assert len(curve) == 4
        assert all(0.0 <= v <= 1.0 for v in curve)
        assert all(a <= b + 1e-12 for a, b in zip(curve, curve[1:], strict=False))

    def test_rank_distribution_sums_to_one(
        self, whisper_pair, clean_dataset, other_dataset
    ):
        draft, target = whisper_pair
        units = list(clean_dataset) + list(other_dataset)
        distribution = rank_distribution_on_failure(draft, target, units)
        assert sum(distribution.values()) == pytest.approx(1.0, abs=1e-9)

    def test_suffix_alignment_in_unit_range(self, whisper_pair, other_dataset):
        draft, target = whisper_pair
        curve = suffix_alignment_curve(
            draft, target, list(other_dataset), draft_len=12, max_offset=4
        )
        assert len(curve) == 4
        assert all(0.0 <= v <= 1.0 for v in curve)


class TestLatencyAggregation:
    def test_totals_match_events(self, whisper_pair, clean_dataset):
        from repro.decoding.autoregressive import AutoregressiveDecoder

        _, target = whisper_pair
        decoder = AutoregressiveDecoder(target)
        units = list(clean_dataset)[:3]
        results = [decoder.decode(u) for u in units]
        breakdown = aggregate_latency("ar", results, units)
        expected = sum(e.ms for r in results for e in r.clock.events)
        assert breakdown.total_ms == pytest.approx(expected)
        assert sum(breakdown.by_model_ms.values()) == pytest.approx(expected)
        assert sum(breakdown.by_kind_ms.values()) == pytest.approx(expected)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            aggregate_latency("x", [], [object()])

    def test_shares(self, whisper_pair, clean_dataset):
        from repro.decoding.speculative import SpeculativeDecoder

        draft, target = whisper_pair
        decoder = SpeculativeDecoder(draft, target)
        units = list(clean_dataset)[:3]
        results = [decoder.decode(u) for u in units]
        breakdown = aggregate_latency("spec", results, units)
        total_share = breakdown.model_share(draft.name) + breakdown.model_share(
            target.name
        )
        assert total_share == pytest.approx(1.0)
