"""Word-level vocabulary with phonetic confusion pools.

The simulated ASR models decode at word granularity (one token per word),
which matches how the paper's figures count tokens and keeps WER == token
error rate.  Each word also gets a *confusion pool* — vocabulary entries with
a similar coarse phonetic signature — from which the acoustic oracle draws
plausible misrecognitions (e.g. ``night``/``knight``-style neighbours).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.data.lexicon import default_lexicon
from repro.utils.hashing import stable_hash

PAD_TOKEN = "<pad>"
BOS_TOKEN = "<s>"
EOS_TOKEN = "</s>"
UNK_TOKEN = "<unk>"

_SPECIALS = (PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN)

#: Coarse phonetic classes used for the confusion-pool signature.
_PHONE_CLASSES = {
    **{c: "V" for c in "aeiouy"},
    **{c: "S" for c in "szfvc"},  # fricatives
    **{c: "T" for c in "tdkgpbqx"},  # stops
    **{c: "N" for c in "mn"},  # nasals
    **{c: "L" for c in "lrwjh"},  # liquids/glides
}


def phonetic_signature(word: str) -> str:
    """Collapse a word to a coarse phonetic key.

    First sound class + run-length-collapsed class string + length bucket.
    Words sharing a signature are treated as acoustically confusable.
    """
    classes = []
    for char in word.lower():
        cls = _PHONE_CLASSES.get(char)
        if cls is None:
            continue
        if classes and classes[-1] == cls:
            continue
        classes.append(cls)
    if not classes:
        classes = ["V"]
    length_bucket = min(len(word) // 3, 3)
    return f"{classes[0]}{''.join(classes[:4])}:{length_bucket}"


@dataclass
class Vocabulary:
    """Bidirectional word ↔ id mapping with confusion pools.

    Ids 0-3 are reserved for PAD/BOS/EOS/UNK.
    """

    words: tuple[str, ...]
    _word_to_id: dict[str, int] = field(init=False, repr=False)
    _confusion_pools: dict[int, tuple[int, ...]] = field(init=False, repr=False)
    _regular_ids: list[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(set(self.words)) != len(self.words):
            raise ValueError("vocabulary words must be unique")
        for special in _SPECIALS:
            if special in self.words:
                raise ValueError(f"{special} is reserved and cannot be a word")
        all_tokens = list(_SPECIALS) + list(self.words)
        self._word_to_id = {tok: idx for idx, tok in enumerate(all_tokens)}
        self._confusion_pools = self._build_confusion_pools()
        self._regular_ids = [self._word_to_id[w] for w in self.words]

    # -- basic mapping ------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.words) + len(_SPECIALS)

    @property
    def eos_id(self) -> int:
        return 2

    @property
    def unk_id(self) -> int:
        return 3

    def token_to_id(self, token: str) -> int:
        return self._word_to_id.get(token, self.unk_id)

    def id_to_token(self, token_id: int) -> str:
        if not 0 <= token_id < self.size:
            raise IndexError(f"token id {token_id} outside vocabulary of {self.size}")
        if token_id < len(_SPECIALS):
            return _SPECIALS[token_id]
        return self.words[token_id - len(_SPECIALS)]

    def encode_words(self, words: Iterable[str]) -> list[int]:
        return [self.token_to_id(word) for word in words]

    def decode_ids(self, ids: Sequence[int], skip_special: bool = True) -> list[str]:
        tokens = []
        for token_id in ids:
            token = self.id_to_token(token_id)
            if skip_special and token in _SPECIALS:
                continue
            tokens.append(token)
        return tokens

    # -- confusion pools ------------------------------------------------------
    def _build_confusion_pools(self) -> dict[int, tuple[int, ...]]:
        groups: dict[str, list[int]] = {}
        for word in self.words:
            groups.setdefault(phonetic_signature(word), []).append(
                self._word_to_id[word]
            )
        pools: dict[int, tuple[int, ...]] = {}
        word_ids = [self._word_to_id[w] for w in self.words]
        for word in self.words:
            word_id = self._word_to_id[word]
            same_group = [
                other for other in groups[phonetic_signature(word)] if other != word_id
            ]
            if len(same_group) < 3:
                # Pad the pool with deterministic pseudo-random neighbours so
                # every word has at least 3 confusable alternatives.
                need = 3 - len(same_group)
                start = stable_hash("confusion-pad", word) % len(word_ids)
                for offset in range(len(word_ids)):
                    candidate = word_ids[(start + offset) % len(word_ids)]
                    if candidate != word_id and candidate not in same_group:
                        same_group.append(candidate)
                        need -= 1
                        if need == 0:
                            break
            pools[word_id] = tuple(same_group)
        return pools

    def confusion_pool(self, token_id: int) -> tuple[int, ...]:
        """Confusable alternatives for ``token_id`` (empty for specials)."""
        return self._confusion_pools.get(token_id, ())

    def regular_ids(self) -> list[int]:
        """All non-special token ids (shared list — do not mutate)."""
        return self._regular_ids


def build_default_vocabulary() -> Vocabulary:
    """The vocabulary over the embedded lexicon used across the repo."""
    return Vocabulary(words=tuple(default_lexicon().all_words()))
