"""Core corpus datatypes: utterances and datasets.

An :class:`Utterance` carries everything the simulation needs about one
speech segment: the reference transcript (as words and token ids), a
duration, and a per-token *acoustic difficulty profile* in ``[0, 1]``.  The
difficulty profile stands in for the audio: LibriSim draws it with
LibriSpeech-like statistics (:mod:`repro.data.librisim`), and the simulated
models condition their recognition errors on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from repro.utils.hashing import stable_hash


@dataclass(frozen=True)
class Utterance:
    """One speech segment with its reference transcript.

    Attributes:
        utterance_id: Stable identifier, e.g. ``"test-clean/spk03/0007"``.
        speaker_id: Synthetic speaker identifier.
        words: Reference transcript words.
        tokens: Reference transcript as vocabulary token ids (no BOS/EOS).
        duration_s: Audio duration in seconds.
        difficulty: Per-token acoustic difficulty in ``[0, 1]``; higher means
            the local acoustics are harder (noise, fast speech), which raises
            recognition-error probability for every model, smaller ones more.
        split: Corpus split name (``test-clean`` etc.).
    """

    utterance_id: str
    speaker_id: str
    words: tuple[str, ...]
    tokens: tuple[int, ...]
    duration_s: float
    difficulty: tuple[float, ...]
    split: str

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.words):
            raise ValueError(
                f"{self.utterance_id}: {len(self.words)} words but "
                f"{len(self.tokens)} tokens"
            )
        if len(self.difficulty) != len(self.tokens):
            raise ValueError(
                f"{self.utterance_id}: difficulty profile length "
                f"{len(self.difficulty)} != token count {len(self.tokens)}"
            )
        if self.duration_s <= 0:
            raise ValueError(f"{self.utterance_id}: non-positive duration")
        for value in self.difficulty:
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"{self.utterance_id}: difficulty {value} outside [0, 1]"
                )

    @cached_property
    def seed(self) -> int:
        """Deterministic per-utterance seed derived from its identifier."""
        return stable_hash("utterance", self.utterance_id)

    @cached_property
    def content_key(self) -> int:
        """Hash of id *and* content; distinguishes same-id utterances from
        differently-configured corpora (cache keys must use this)."""
        return stable_hash(
            self.utterance_id, self.tokens, self.difficulty, self.duration_s
        )

    @property
    def num_tokens(self) -> int:
        return len(self.tokens)

    @property
    def text(self) -> str:
        return " ".join(self.words)

    def mean_difficulty(self) -> float:
        if not self.difficulty:
            return 0.0
        return sum(self.difficulty) / len(self.difficulty)


@dataclass
class Dataset:
    """A named collection of utterances (one corpus split)."""

    name: str
    utterances: list[Utterance] = field(default_factory=list)

    def __iter__(self) -> Iterator[Utterance]:
        return iter(self.utterances)

    def __len__(self) -> int:
        return len(self.utterances)

    def __getitem__(self, index: int) -> Utterance:
        return self.utterances[index]

    @property
    def total_duration_s(self) -> float:
        return sum(utt.duration_s for utt in self.utterances)

    @property
    def total_tokens(self) -> int:
        return sum(utt.num_tokens for utt in self.utterances)

    def summary(self) -> str:
        return (
            f"{self.name}: {len(self)} utterances, "
            f"{self.total_duration_s:.1f}s audio, {self.total_tokens} tokens"
        )
