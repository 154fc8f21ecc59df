"""LibriSim: a deterministic LibriSpeech-like synthetic corpus.

LibriSpeech has four evaluation splits — ``dev-clean``, ``dev-other``,
``test-clean`` and ``test-other`` — where the "other" splits contain
recordings that are acoustically harder (accents, noise, fast speech).
LibriSim mirrors that structure: every split is generated from prose-like
sentences (:mod:`repro.data.lexicon`) plus a per-token *difficulty profile*
whose statistics differ between clean and other splits:

* a split-level base difficulty (other ≫ clean);
* a per-speaker offset (some speakers are simply harder);
* a smooth AR(1) drift along the utterance (channel/breath effects); and
* occasional short *bursts* of high difficulty — the paper's Observation 2
  attributes low-acceptance rounds to "variations in pronunciation and
  acoustic quality across specific speech segments", i.e. localized error
  regions, which is exactly what the bursts produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.corpus import Dataset, Utterance
from repro.data.lexicon import SentenceSampler
from repro.models.vocab import Vocabulary
from repro.utils.mathutil import clamp
from repro.utils.rng import RngStream

#: Canonical LibriSpeech evaluation split names.
SPLITS = ("dev-clean", "dev-other", "test-clean", "test-other")

#: Average speaking rate (words per second); LibriSpeech averages ~2.8.
_WORDS_PER_SECOND = 2.8


@dataclass(frozen=True)
class SplitProfile:
    """Acoustic statistics for one split."""

    base_difficulty: float
    speaker_spread: float
    burst_rate: float  # expected bursts per 10 tokens
    burst_strength: float


#: Clean splits: mostly easy with rare mild bursts.  Other splits: noticeably
#: harder with frequent strong bursts.  Values were tuned so simulated WERs
#: land near Fig. 5a of the paper (small models ~10 %+, large models 20-33 %
#: relatively better).
SPLIT_PROFILES: dict[str, SplitProfile] = {
    "dev-clean": SplitProfile(0.13, 0.04, 0.62, 0.42),
    "test-clean": SplitProfile(0.14, 0.04, 0.65, 0.44),
    "dev-other": SplitProfile(0.24, 0.06, 0.95, 0.50),
    "test-other": SplitProfile(0.25, 0.06, 0.98, 0.52),
}


@dataclass(frozen=True)
class LibriSimConfig:
    """Configuration for building LibriSim splits."""

    seed: int = 2025
    utterances_per_split: int = 64
    speakers_per_split: int = 8
    min_words: int = 10
    max_words: int = 42

    def __post_init__(self) -> None:
        if self.utterances_per_split < 1:
            raise ValueError("utterances_per_split must be >= 1")
        if self.speakers_per_split < 1:
            raise ValueError("speakers_per_split must be >= 1")


@dataclass
class LibriSimBuilder:
    """Builds the four LibriSim splits deterministically from a config."""

    vocab: Vocabulary
    config: LibriSimConfig = field(default_factory=LibriSimConfig)
    sampler: SentenceSampler = field(default_factory=SentenceSampler)

    def build_all(self) -> dict[str, Dataset]:
        """Build every split, keyed by split name."""
        return {split: self.build(split) for split in SPLITS}

    def build(self, split: str) -> Dataset:
        """Build one split."""
        if split not in SPLIT_PROFILES:
            raise KeyError(f"unknown split {split!r}; expected one of {SPLITS}")
        profile = SPLIT_PROFILES[split]
        root = RngStream(self.config.seed, "librisim", split)
        speakers = [f"spk{idx:02d}" for idx in range(self.config.speakers_per_split)]
        speaker_offsets = {
            spk: root.child("speaker", spk).normal(0.0, profile.speaker_spread)
            for spk in speakers
        }
        utterances = []
        for index in range(self.config.utterances_per_split):
            rng = root.child("utt", index)
            speaker = speakers[index % len(speakers)]
            words = self.sampler.sentence(
                rng.child("text"), self.config.min_words, self.config.max_words
            )
            tokens = tuple(self.vocab.encode_words(words))
            difficulty = _difficulty_profile(
                rng.child("difficulty"),
                len(tokens),
                profile,
                speaker_offsets[speaker],
            )
            rate = _WORDS_PER_SECOND * (1.0 + rng.child("rate").normal(0.0, 0.08))
            duration = max(1.0, len(words) / max(rate, 1.0))
            utterances.append(
                Utterance(
                    utterance_id=f"{split}/{speaker}/{index:04d}",
                    speaker_id=speaker,
                    words=tuple(words),
                    tokens=tokens,
                    duration_s=duration,
                    difficulty=tuple(difficulty),
                    split=split,
                )
            )
        return Dataset(split, utterances)


def _difficulty_profile(
    rng: RngStream,
    length: int,
    profile: SplitProfile,
    speaker_offset: float,
) -> list[float]:
    """Per-token difficulty: base + speaker + AR(1) drift + bursts."""
    # One vectorised draw consumes the stream exactly like per-token scalars.
    drift = 0.0
    values: list[float] = []
    for noise in rng.numpy.normal(0.0, 0.03, size=length).tolist():
        drift = 0.75 * drift + noise
        values.append(profile.base_difficulty + speaker_offset + drift)
    # Overlay short bursts of elevated difficulty (hard segments).
    expected_bursts = profile.burst_rate * length / 10.0
    n_bursts = int(expected_bursts)
    if rng.uniform() < expected_bursts - n_bursts:
        n_bursts += 1
    for _ in range(n_bursts):
        start = rng.integers(0, max(1, length))
        width = rng.integers(1, 4)
        # Wide strength spread: moderate bursts trip only the small model,
        # severe ones trip both — that spread is what separates model WERs.
        strength = profile.burst_strength * (0.35 + 1.3 * rng.uniform())
        for pos in range(start, min(length, start + width)):
            values[pos] += strength
    return [clamp(v, 0.0, 1.0) for v in values]


def build_split(
    split: str,
    vocab: Vocabulary,
    seed: int = 2025,
    utterances: int = 64,
) -> Dataset:
    """Convenience wrapper: build one LibriSim split."""
    config = LibriSimConfig(seed=seed, utterances_per_split=utterances)
    return LibriSimBuilder(vocab, config).build(split)
