"""Observation 2 on the simulated models: recognition errors cluster.

The paper attributes low-acceptance rounds to "variations in pronunciation
and acoustic quality across specific speech segments", i.e. recognition
errors are localized, not scattered uniformly.  LibriSim's difficulty bursts
are what should produce that locality in the simulated ASR models.
"""

from repro.data.librisim import build_split


def _error_rows(model, dataset):
    """Per-utterance 0/1 vectors: 1 where the greedy transcript is wrong.

    The simulated decode streams are position-aligned with the reference,
    so indicator ``i`` is simply ``hyp[i] != ref[i]``.
    """
    rows = []
    for utterance in dataset:
        hyp = model.greedy_transcript(utterance)
        rows.append([int(h != r) for h, r in zip(hyp, utterance.tokens, strict=False)])
    return rows


def _lag1_autocorrelation(rows):
    """Pooled lag-1 autocorrelation of the error indicator."""
    values = [value for row in rows for value in row]
    pairs = [pair for row in rows for pair in zip(row, row[1:], strict=False)]
    mean = sum(values) / len(values)
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    covariance = sum((a - mean) * (b - mean) for a, b in pairs) / len(pairs)
    return covariance / variance


def _multi_token_run_share(rows):
    """Share of maximal consecutive-error runs that span two or more tokens."""
    runs = []
    for row in rows:
        length = 0
        for value in (*row, 0):
            if value:
                length += 1
            elif length:
                runs.append(length)
                length = 0
    return sum(length >= 2 for length in runs) / len(runs)


class TestObservation2OnSimulatedModels:
    def test_errors_cluster_in_simulated_asr(self, whisper_pair, vocab):
        """Observation 2: recognition errors concentrate in localized hard
        segments, so the error indicator autocorrelates positively and
        multi-token error runs exceed the independence baseline."""
        draft, _ = whisper_pair
        dataset = build_split("test-other", vocab, seed=33, utterances=24)
        rows = _error_rows(draft, dataset)
        error_rate = sum(map(sum, rows)) / sum(map(len, rows))
        assert 0.05 < error_rate < 0.35  # sanity: noisy split, small model
        assert _lag1_autocorrelation(rows) > 0.05  # clustered, not independent
        # With i.i.d. errors at rate p, run lengths are geometric and the
        # share of runs longer than one error is p.
        assert _multi_token_run_share(rows) > error_rate
