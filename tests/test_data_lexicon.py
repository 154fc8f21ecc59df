"""Tests for repro.data.lexicon."""

import math

import pytest

from repro.data.lexicon import _CLAUSE_TEMPLATES, SentenceSampler, default_lexicon
from repro.utils.rng import RngStream

#: POS tag -> the :class:`Lexicon` field it draws from.
BUCKET_FIELDS = {
    "DET": "determiners",
    "PRON": "pronouns",
    "CONJ": "conjunctions",
    "PREP": "prepositions",
    "ADV": "adverbs",
    "ADJ": "adjectives",
    "NOUN": "nouns",
    "VERB": "verbs",
    "INTJ": "interjections",
}


class ReferenceSampler(SentenceSampler):
    """The per-call pick the cumulative tables replaced, kept as an oracle.

    Rebuilds the bucket's Zipf weights on every pick and draws through
    ``Generator.choice(p=...)``.
    """

    def _pick(self, rng: RngStream, tag: str) -> str:
        bucket = getattr(self.lexicon, BUCKET_FIELDS[tag])
        weights = [1.0 / (i + 2.0) for i in range(len(bucket))]
        total = sum(weights)
        probs = [w / total for w in weights]
        return rng.choice(bucket, p=probs)


class TestLexicon:
    def test_buckets_nonempty(self):
        lex = default_lexicon()
        for bucket in (
            lex.determiners,
            lex.pronouns,
            lex.conjunctions,
            lex.prepositions,
            lex.adverbs,
            lex.adjectives,
            lex.nouns,
            lex.verbs,
            lex.interjections,
        ):
            assert len(bucket) > 0

    def test_all_words_unique_and_sorted(self):
        words = default_lexicon().all_words()
        assert words == sorted(set(words))

    def test_vocabulary_scale(self):
        # The simulation's confusion pools need a reasonably large lexicon.
        assert len(default_lexicon().all_words()) > 700


class TestSentenceSampler:
    def test_deterministic(self):
        sampler = SentenceSampler()
        a = sampler.sentence(RngStream(3))
        b = sampler.sentence(RngStream(3))
        assert a == b

    def test_length_bounds(self):
        # An overshooting last clause is truncated back to the drawn target.
        sampler = SentenceSampler()
        bounds = [(1, 1), (1, 4), (3, 3), (5, 9), (8, 40), (10, 30), (20, 21), (10, 42)]
        for min_words, max_words in bounds:
            for seed in range(300):
                rng = RngStream(seed, "length", min_words, max_words)
                words = sampler.sentence(rng, min_words, max_words)
                assert min_words <= len(words) <= max_words

    def test_words_come_from_lexicon(self):
        sampler = SentenceSampler()
        lexicon_words = set(default_lexicon().all_words())
        words = sampler.sentence(RngStream(11), 12, 20)
        assert set(words) <= lexicon_words

    def test_invalid_bounds_raise(self):
        sampler = SentenceSampler()
        with pytest.raises(ValueError):
            sampler.sentence(RngStream(1), min_words=5, max_words=2)

    def test_different_seeds_differ(self):
        sampler = SentenceSampler()
        assert sampler.sentence(RngStream(1)) != sampler.sentence(RngStream(2))


class TestTableDrivenPick:
    """The cumulative-table pick draws exactly what ``choice(p=...)`` drew."""

    def test_reference_covers_every_tag(self):
        tags = {tag for template in _CLAUSE_TEMPLATES for tag in template}
        assert tags | {"CONJ"} == set(BUCKET_FIELDS)

    def test_extreme_draws_pick_bucket_ends(self):
        # The table ends at exactly 1.0, so no draw in [0, 1) runs past it.
        class FixedDraw:
            def __init__(self, value: float) -> None:
                self.value = value

            def uniform(self) -> float:
                return self.value

        sampler, lexicon = SentenceSampler(), default_lexicon()
        for tag, name in BUCKET_FIELDS.items():
            bucket = getattr(lexicon, name)
            assert sampler._pick(FixedDraw(0.0), tag) == bucket[0]
            assert sampler._pick(FixedDraw(math.nextafter(1.0, 0.0)), tag) == bucket[-1]

    @pytest.mark.parametrize("tag", sorted(BUCKET_FIELDS))
    def test_pick_matches_reference(self, tag):
        sampler, reference = SentenceSampler(), ReferenceSampler()
        for seed in range(256):
            rng, ref_rng = RngStream(seed, "pick", tag), RngStream(seed, "pick", tag)
            assert sampler._pick(rng, tag) == reference._pick(ref_rng, tag)
            # Equal next draws: both picks consumed the same stream.
            assert rng.uniform() == ref_rng.uniform()
