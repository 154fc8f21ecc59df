"""Tests for repro.models.vocab."""

import pytest

from repro.models.vocab import Vocabulary, build_default_vocabulary, phonetic_signature


class TestVocabulary:
    def test_specials_reserved(self, vocab):
        specials = [vocab.id_to_token(token_id) for token_id in range(4)]
        assert specials == ["<pad>", "<s>", "</s>", "<unk>"]
        assert vocab.eos_id == 2
        assert vocab.unk_id == 3

    def test_roundtrip(self, vocab):
        words = ["the", "old", "house"]
        ids = vocab.encode_words(words)
        assert vocab.decode_ids(ids) == words

    def test_unknown_maps_to_unk(self, vocab):
        assert vocab.token_to_id("zzzznotaword") == vocab.unk_id

    def test_decode_skips_specials(self, vocab):
        ids = [1] + vocab.encode_words(["the"]) + [vocab.eos_id]  # 1 = <s>
        assert vocab.decode_ids(ids) == ["the"]
        assert len(vocab.decode_ids(ids, skip_special=False)) == 3

    def test_id_range_checked(self, vocab):
        with pytest.raises(IndexError):
            vocab.id_to_token(vocab.size)

    def test_duplicate_words_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(words=("a", "a"))

    def test_reserved_words_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(words=("<s>",))

    def test_confusion_pools_nonempty_and_exclude_self(self, vocab):
        for word in ["night", "the", "house", "walked"]:
            token_id = vocab.token_to_id(word)
            pool = vocab.confusion_pool(token_id)
            assert len(pool) >= 3
            assert token_id not in pool

    def test_confusion_pool_empty_for_specials(self, vocab):
        assert vocab.confusion_pool(vocab.eos_id) == ()

    def test_regular_ids_excludes_specials(self, vocab):
        regular = vocab.regular_ids()
        assert len(regular) == vocab.size - 4
        assert min(regular) == 4  # ids 0-3 are the specials

    def test_default_vocabulary_size(self):
        vocab = build_default_vocabulary()
        assert vocab.size > 700


class TestPhoneticSignature:
    def test_deterministic(self):
        assert phonetic_signature("night") == phonetic_signature("night")

    def test_similar_words_share_signature(self):
        # Same consonant/vowel skeleton and length bucket.
        assert phonetic_signature("bat") == phonetic_signature("pat")

    def test_different_words_differ(self):
        assert phonetic_signature("a") != phonetic_signature("strength")

    def test_nonalpha_ignored(self):
        assert phonetic_signature("it's") == phonetic_signature("its")
