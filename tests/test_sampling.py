"""Tests for temperature sampling and speculative sampling.

The critical property: speculative sampling emits tokens with the *target's*
sampling distribution (distribution-level losslessness).  Verified
statistically on scripted models with controlled distributions.
"""

import collections

import pytest

from repro.decoding.sampling import (
    SamplingConfig,
    SamplingDecoder,
    SpeculativeSamplingDecoder,
    _distribution,
    _sample,
)
from repro.models.simulated import StepResult
from repro.utils.rng import RngStream

from tests.fakes import EOS, FakeUnit, ScriptedModel


def make_step(pairs):
    return StepResult(
        token=pairs[0][0],
        top_prob=pairs[0][1],
        topk=tuple(pairs),
        position=0,
    )


class TestPrimitives:
    def test_distribution_renormalises(self):
        dist = _distribution(make_step([(1, 0.6), (2, 0.2)]))
        assert dist[1] == pytest.approx(0.75)
        assert dist[2] == pytest.approx(0.25)

    def test_degenerate_distribution_rejected(self):
        with pytest.raises(ValueError):
            _distribution(make_step([(1, 0.0)]))

    def test_sample_respects_probabilities(self):
        dist = {1: 0.8, 2: 0.2}
        rng = RngStream(0)
        counts = collections.Counter(_sample(dist, rng) for _ in range(2000))
        assert 0.74 < counts[1] / 2000 < 0.86

    def test_sampling_config_validation(self):
        with pytest.raises(ValueError):
            SamplingConfig(draft_len=0)


class TestSamplingDecoder:
    def test_deterministic_given_seed(self):
        target = ScriptedModel(stream=[5, 6, 7, EOS], name="target")
        a = SamplingDecoder(target, SamplingConfig(seed=1)).decode(FakeUnit())
        b = SamplingDecoder(target, SamplingConfig(seed=1)).decode(FakeUnit())
        assert a.tokens == b.tokens

    def test_high_confidence_matches_greedy(self):
        # probs ~0.95 at every position: sampling rarely deviates.
        stream = [5, 6, 7, EOS]
        probs = {i: 0.97 for i in range(4)}
        target = ScriptedModel(stream=stream, probs=probs, name="target")
        result = SamplingDecoder(target, SamplingConfig(seed=3)).decode(FakeUnit())
        assert result.tokens == [5, 6, 7]


class TestSpeculativeSampling:
    def test_runs_and_terminates(self):
        draft = ScriptedModel(stream=[5, 6, 7, EOS], name="draft")
        target = ScriptedModel(stream=[5, 6, 7, EOS], name="target")
        result = SpeculativeSamplingDecoder(draft, target).decode(FakeUnit())
        assert result.tokens  # nonempty
        assert result.trace.num_rounds >= 1

    def test_accepts_most_tokens_when_models_agree(self):
        stream = [5, 6, 7, 8, 9, 10, 11, EOS]
        probs = {i: 0.95 for i in range(len(stream))}
        draft = ScriptedModel(stream=list(stream), probs=probs, name="draft")
        target = ScriptedModel(stream=list(stream), probs=probs, name="target")
        result = SpeculativeSamplingDecoder(
            draft, target, SamplingConfig(seed=5)
        ).decode(FakeUnit())
        assert result.trace.acceptance_ratio > 0.7

    def test_distribution_preservation(self):
        """Empirical first-token distribution of speculative sampling matches
        plain target sampling — the Leviathan/Chen correctness property.

        Scripted setup: target emits token 5 with renormalised prob
        0.6/(0.6+0.4)=0.6 and 105 with 0.4; the draft proposes from a
        *different* distribution (0.9/0.1), so acceptance-correction must do
        real work for the first-token marginals to match.
        """
        n_runs = 1500
        spec_counts: collections.Counter = collections.Counter()
        plain_counts: collections.Counter = collections.Counter()
        for seed in range(n_runs):
            target = ScriptedModel(
                stream=[5, EOS], probs={0: 0.6, 1: 0.99}, name="target"
            )
            draft = ScriptedModel(
                stream=[5, EOS], probs={0: 0.9, 1: 0.99}, name="draft"
            )
            spec = SpeculativeSamplingDecoder(
                draft, target, SamplingConfig(seed=seed, draft_len=1)
            ).decode(FakeUnit())
            spec_counts[spec.tokens[0] if spec.tokens else EOS] += 1
            plain = SamplingDecoder(
                target, SamplingConfig(seed=seed)
            ).decode(FakeUnit())
            plain_counts[plain.tokens[0] if plain.tokens else EOS] += 1
        # Both should emit token 5 with probability ~0.6 (renormalised top-2).
        spec_rate = spec_counts[5] / n_runs
        plain_rate = plain_counts[5] / n_runs
        assert abs(spec_rate - plain_rate) < 0.05
        assert 0.52 < spec_rate < 0.68

    def test_on_simulated_models(self, whisper_pair, clean_dataset):
        draft, target = whisper_pair
        decoder = SpeculativeSamplingDecoder(draft, target, SamplingConfig(seed=9))
        for utterance in list(clean_dataset)[:2]:
            result = decoder.decode(utterance)
            assert result.tokens
            assert result.total_ms > 0
