"""Tests for repro.data.corpus and repro.data.librisim."""

import pytest

from repro.data import librisim
from repro.data.corpus import Dataset, Utterance
from repro.data.librisim import (
    SPLIT_PROFILES,
    SPLITS,
    LibriSimBuilder,
    LibriSimConfig,
    SplitProfile,
    build_split,
)
from repro.utils.mathutil import clamp
from repro.utils.rng import RngStream

from tests.test_data_lexicon import ReferenceSampler


def make_utterance(**overrides):
    base = dict(
        utterance_id="test/spk00/0000",
        speaker_id="spk00",
        words=("the", "old", "house"),
        tokens=(10, 11, 12),
        duration_s=1.5,
        difficulty=(0.1, 0.2, 0.3),
        split="test-clean",
    )
    base.update(overrides)
    return Utterance(**base)


class TestUtterance:
    def test_valid_construction(self):
        utt = make_utterance()
        assert utt.num_tokens == 3
        assert utt.text == "the old house"

    def test_seed_deterministic_and_id_bound(self):
        assert make_utterance().seed == make_utterance().seed
        other = make_utterance(utterance_id="test/spk00/0001")
        assert other.seed != make_utterance().seed

    def test_token_word_length_mismatch(self):
        with pytest.raises(ValueError):
            make_utterance(tokens=(1, 2))

    def test_difficulty_length_mismatch(self):
        with pytest.raises(ValueError):
            make_utterance(difficulty=(0.1,))

    def test_difficulty_range_checked(self):
        with pytest.raises(ValueError):
            make_utterance(difficulty=(0.1, 0.2, 1.5))

    def test_nonpositive_duration(self):
        with pytest.raises(ValueError):
            make_utterance(duration_s=0.0)

    def test_mean_difficulty(self):
        assert make_utterance().mean_difficulty() == pytest.approx(0.2)


class TestDataset:
    def test_iteration_and_len(self):
        ds = Dataset("x", [make_utterance()])
        assert len(ds) == 1
        assert list(ds)[0].utterance_id == "test/spk00/0000"

    def test_totals(self):
        ds = Dataset("x", [make_utterance()])
        assert ds.total_tokens == 3
        assert ds.total_duration_s == pytest.approx(1.5)


class TestLibriSim:
    def test_all_splits_build(self, vocab):
        config = LibriSimConfig(seed=1, utterances_per_split=4)
        datasets = LibriSimBuilder(vocab, config).build_all()
        assert set(datasets) == set(SPLITS)
        ids = [utt.utterance_id for ds in datasets.values() for utt in ds]
        assert len(ids) == len(set(ids)) == 4 * len(SPLITS)

    def test_deterministic(self, vocab):
        a = build_split("dev-clean", vocab, seed=5, utterances=4)
        b = build_split("dev-clean", vocab, seed=5, utterances=4)
        assert [u.tokens for u in a] == [u.tokens for u in b]
        assert [u.difficulty for u in a] == [u.difficulty for u in b]

    def test_seed_changes_content(self, vocab):
        a = build_split("dev-clean", vocab, seed=5, utterances=4)
        b = build_split("dev-clean", vocab, seed=6, utterances=4)
        assert [u.tokens for u in a] != [u.tokens for u in b]

    def test_other_split_harder_than_clean(self, vocab):
        clean = build_split("test-clean", vocab, seed=3, utterances=12)
        other = build_split("test-other", vocab, seed=3, utterances=12)
        mean_clean = sum(u.mean_difficulty() for u in clean) / len(clean)
        mean_other = sum(u.mean_difficulty() for u in other) / len(other)
        assert mean_other > mean_clean + 0.05

    def test_unknown_split_rejected(self, vocab):
        with pytest.raises(KeyError):
            build_split("test-unknown", vocab)

    def test_durations_match_speaking_rate(self, vocab):
        ds = build_split("dev-clean", vocab, seed=2, utterances=8)
        for utt in ds:
            rate = len(utt.words) / utt.duration_s
            assert 1.5 < rate < 4.5  # plausible words-per-second band

    def test_profiles_cover_all_splits(self):
        assert set(SPLIT_PROFILES) == set(SPLITS)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            LibriSimConfig(utterances_per_split=0)


def scalar_difficulty_profile(
    rng: RngStream, length: int, profile: SplitProfile, speaker_offset: float
) -> list[float]:
    """The per-token drift loop the vectorised draw replaced, kept as an oracle."""
    drift = 0.0
    values: list[float] = []
    for _ in range(length):
        drift = 0.75 * drift + rng.normal(0.0, 0.03)
        values.append(profile.base_difficulty + speaker_offset + drift)
    expected_bursts = profile.burst_rate * length / 10.0
    n_bursts = int(expected_bursts)
    if rng.uniform() < expected_bursts - n_bursts:
        n_bursts += 1
    for _ in range(n_bursts):
        start = rng.integers(0, max(1, length))
        width = rng.integers(1, 4)
        strength = profile.burst_strength * (0.35 + 1.3 * rng.uniform())
        for pos in range(start, min(length, start + width)):
            values[pos] += strength
    return [clamp(v, 0.0, 1.0) for v in values]


class TestReferenceIdentity:
    """Table-driven synthesis builds exactly the reference draws' corpora."""

    @pytest.mark.parametrize("seed", [3, 2025, 7919])
    def test_splits_match_reference_draws(self, vocab, monkeypatch, seed):
        config = LibriSimConfig(seed=seed, utterances_per_split=32)
        built = LibriSimBuilder(vocab, config).build_all()
        monkeypatch.setattr(librisim, "_difficulty_profile", scalar_difficulty_profile)
        reference = LibriSimBuilder(
            vocab, config, sampler=ReferenceSampler()
        ).build_all()
        for split in SPLITS:
            assert len(built[split]) == len(reference[split]) == 32
            for got, want in zip(built[split], reference[split], strict=True):
                assert got.utterance_id == want.utterance_id
                assert got.words == want.words
                assert got.tokens == want.tokens
                assert got.difficulty == want.difficulty
                assert got.duration_s == want.duration_s
