"""Corpus runner: decode datasets with methods, collect traces and latency."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.corpus import Dataset
from repro.data.librisim import LibriSimBuilder, LibriSimConfig
from repro.decoding.base import DecodeResult
from repro.metrics.latency_report import LatencyBreakdown, aggregate_latency
from repro.models.vocab import Vocabulary, build_default_vocabulary


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for experiment corpora.

    Defaults are sized so every bench finishes in seconds while utterance
    lengths span the LibriSpeech range (short queries to long read
    sentences).
    """

    seed: int = 2025
    utterances: int = 32
    min_words: int = 12
    max_words: int = 56

    def librisim(self) -> LibriSimConfig:
        return LibriSimConfig(
            seed=self.seed,
            utterances_per_split=self.utterances,
            min_words=self.min_words,
            max_words=self.max_words,
        )


_VOCAB_CACHE: dict[int, Vocabulary] = {}
_SPLIT_CACHE: dict[tuple, Dataset] = {}


def shared_vocabulary() -> Vocabulary:
    """Process-wide vocabulary instance (cheap to share, expensive to build)."""
    if 0 not in _VOCAB_CACHE:
        _VOCAB_CACHE[0] = build_default_vocabulary()
    return _VOCAB_CACHE[0]


def load_split(split: str, config: ExperimentConfig) -> Dataset:
    """Build (and cache) one LibriSim split for an experiment config."""
    key = (split, config.seed, config.utterances, config.min_words, config.max_words)
    if key not in _SPLIT_CACHE:
        builder = LibriSimBuilder(shared_vocabulary(), config.librisim())
        _SPLIT_CACHE[key] = builder.build(split)
    return _SPLIT_CACHE[key]


@dataclass
class MethodRun:
    """All decode results of one method over one corpus."""

    method: str
    results: list[DecodeResult] = field(default_factory=list)
    breakdown: LatencyBreakdown | None = None

    @property
    def mean_rounds(self) -> float:
        if not self.results:
            return 0.0
        return sum(r.trace.num_rounds for r in self.results) / len(self.results)

    @property
    def mean_draft_steps(self) -> float:
        if not self.results:
            return 0.0
        return sum(r.trace.total_draft_steps for r in self.results) / len(self.results)

    @property
    def acceptance_ratio(self) -> float:
        submitted = sum(r.trace.total_submitted for r in self.results)
        accepted = sum(r.trace.total_accepted for r in self.results)
        return accepted / submitted if submitted else 0.0

    @property
    def accepted_per_round(self) -> float:
        rounds = sum(r.trace.num_rounds for r in self.results)
        accepted = sum(r.trace.total_accepted for r in self.results)
        return accepted / rounds if rounds else 0.0

    @property
    def submitted_per_round(self) -> float:
        rounds = sum(r.trace.num_rounds for r in self.results)
        submitted = sum(r.trace.total_submitted for r in self.results)
        return submitted / rounds if rounds else 0.0

    @property
    def recycled_per_utterance(self) -> float:
        if not self.results:
            return 0.0
        return sum(r.trace.total_recycled for r in self.results) / len(self.results)


def run_method(decoder, dataset: Dataset) -> MethodRun:
    """Decode every utterance of ``dataset`` with ``decoder``: a one-method
    :func:`run_methods` grid."""
    return run_methods({decoder.name: decoder}, dataset)[decoder.name]


def run_methods(
    methods: dict[str, object],
    dataset: Dataset,
    check_lossless: bool = True,
) -> dict[str, MethodRun]:
    """Run several methods over one corpus.

    The grid is utterance-major: every method decodes an utterance before
    the next one starts.  The methods share models that keep a bounded LRU
    of per-utterance oracles and tries (``DEFAULT_ORACLE_CACHE``), so each
    (model, utterance) oracle is built once per grid however large the
    corpus.  With ``check_lossless`` every method's transcripts are asserted
    equal to the first method's (conventionally autoregressive target
    decoding) — the paper's iso-accuracy guarantee.
    """
    grid: dict[str, list[DecodeResult]] = {name: [] for name in methods}
    for utterance in dataset:
        for name, decoder in methods.items():
            grid[name].append(decoder.decode(utterance))
    runs: dict[str, MethodRun] = {}
    reference_tokens: list[list[int]] | None = None
    for name, decoder in methods.items():
        results = grid[name]
        run = MethodRun(method=decoder.name, results=results)
        run.breakdown = aggregate_latency(decoder.name, results, list(dataset))
        if check_lossless:
            tokens = [r.tokens for r in results]
            if reference_tokens is None:
                reference_tokens = tokens
            elif tokens != reference_tokens:
                raise AssertionError(
                    f"method {name} produced different transcripts — "
                    "losslessness violated"
                )
        runs[name] = run
    return runs
