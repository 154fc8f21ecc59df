"""Tests for single-stream SpecASR: one utterance served alone at real time.

This is the setup ``repro run ext01-streaming`` and
``examples/streaming_pipeline.py`` report: the serving scheduler on one
colocated device, one session at a time, audio arriving at real time in
1 s chunks with a 0.3 s lookahead.
"""

import math

import pytest

from repro.core.config import SpecASRConfig
from repro.core.engine import SpecASREngine
from repro.serving import (
    Arrival,
    ContinuousBatchScheduler,
    SchedulerConfig,
    StreamSpec,
    chunk_schedule,
)
from repro.serving.request import STATUS_COMPLETED

CHUNK_S = 1.0


@pytest.fixture(scope="module")
def engine(whisper_pair):
    draft, target = whisper_pair
    return SpecASREngine(draft, target, SpecASRConfig())


@pytest.fixture(scope="module")
def streamed(engine, clean_dataset):
    """The scheduler's record of each of the first three utterances."""
    scheduler = ContinuousBatchScheduler(
        engine,
        SchedulerConfig(max_batch=1, max_inflight=1),
        stream=StreamSpec(chunk_s=CHUNK_S, lookahead_s=0.3),
    )
    records = []
    for index in range(3):
        (record,) = scheduler.run([Arrival(0, index, 0.0, rtf=1.0)], clean_dataset)
        assert record.status == STATUS_COMPLETED
        records.append(record)
    return records


@pytest.fixture
def record(streamed, utterance):
    assert streamed[0].request.utterance == utterance
    return streamed[0]


class TestStreaming:
    def test_transcript_matches_offline(self, streamed, engine):
        for record in streamed:
            offline = engine.decode(record.request.utterance)
            assert record.tokens == list(offline.tokens)

    def test_emission_times_monotone(self, record):
        times = record.emission_ms
        assert len(times) == len(record.tokens)
        assert times == sorted(times)

    def test_tokens_never_precede_their_audio(self, record, utterance):
        """A token cannot finalize before any audio has arrived."""
        events = chunk_schedule(record.request, utterance.duration_s, CHUNK_S)
        assert record.emission_ms[0] >= events[0][0]

    def test_first_token_latency_small(self, record, utterance):
        """Streaming should emit the first token long before end-of-audio."""
        assert record.word_ttft_ms < utterance.duration_s * 1000.0 / 2

    def test_final_latency_bounded(self, record):
        assert record.final_latency_ms < 1000.0  # well under a second of tail

    def test_real_time_factor_below_one(self, streamed):
        for record in streamed:
            duration_ms = record.request.utterance.duration_s * 1000.0
            assert record.decode_ms / duration_ms < 1.0

    def test_chunk_count(self, record, utterance):
        assert record.stream_chunks == max(1, math.ceil(utterance.duration_s / CHUNK_S))
