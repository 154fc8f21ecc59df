"""Streaming serving suite: chunked arrivals, emission timelines, long-form.

The contract under test is the streaming analogue of the serving parity
contract: chunked audio delivery *delays* decode progress (the scheduler may
only advance a session as far as the heard audio supports) but never changes
what is decoded — the final transcript and per-request decode time are
bit-identical to the offline run of the same trace.  On top of that the
emission timeline must be physically sensible: emission times non-decreasing,
partials monotone and ending at the transcript length, every latency
non-negative, and zero revised tokens (the decoder is lossless, so partials
are final).
"""

from __future__ import annotations

import io
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SpecASRConfig
from repro.core.engine import SpecASREngine
from repro.core.streaming import (
    LongFormConfig,
    StreamingResult,
    decode_long_form,
    positions_available,
)
from repro.harness.methods import build_method
from repro.metrics.latency_report import aggregate_latency
from repro.serving import (
    Arrival,
    ClusterConfig,
    ContinuousBatchScheduler,
    SchedulerConfig,
    ServeSimConfig,
    StreamSpec,
    StreamingSummary,
    chunk_schedule,
    load_trace,
    offered_qps,
    poisson_trace,
    save_trace,
    simulate,
)
from repro.serving.request import STATUS_COMPLETED

STABLE = settings(max_examples=12, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def serving_decoder(whisper_pair):
    draft, target = whisper_pair
    return build_method("spec(8,1)", draft, target)


def _shift(trace: list[Arrival], offset_ms: float) -> list[Arrival]:
    return [
        Arrival(a.index, a.utterance_index, a.arrival_ms + offset_ms, a.priority)
        for a in trace
    ]


class TestOfferedQps:
    def test_span_is_first_to_last_arrival(self):
        trace = [Arrival(i, 0, 1000.0 * (i + 1)) for i in range(4)]
        # 4 requests over a 3 s first→last span
        assert offered_qps(trace) == pytest.approx(4.0 / 3.0)

    def test_shift_invariant(self):
        """A replayed trace with an offset clock reports the same load."""
        trace = poisson_trace(20, 2.0, 8, seed=3)
        assert offered_qps(_shift(trace, 90_000.0)) == pytest.approx(
            offered_qps(trace)
        )

    def test_single_arrival_has_no_span(self):
        assert offered_qps([Arrival(0, 0, 500.0)]) == 0.0
        assert offered_qps([]) == 0.0

    def test_coincident_arrivals_report_zero(self):
        trace = [Arrival(i, 0, 250.0) for i in range(3)]
        assert offered_qps(trace) == 0.0


class TestChunkSchedule:
    def test_offline_arrival_is_one_event(self):
        events = chunk_schedule(Arrival(0, 0, 400.0), 7.3, 1.0)
        assert events == [(400.0, 7.3)]

    def test_streamed_chunks_are_paced_at_rtf(self):
        arrival = Arrival(0, 0, 1000.0, rtf=2.0)
        events = chunk_schedule(arrival, 2.5, 1.0)
        # 1 s of audio every 500 ms of simulated time; short final chunk
        assert events == [(1500.0, 1.0), (2000.0, 2.0), (2250.0, 2.5)]

    def test_heard_audio_is_monotone_and_complete(self):
        events = chunk_schedule(Arrival(0, 0, 0.0, rtf=1.0), 9.7, 2.0)
        heard = [h for _, h in events]
        assert heard == sorted(heard)
        assert heard[-1] == pytest.approx(9.7)
        times = [t for t, _ in events]
        assert times == sorted(times)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            chunk_schedule(Arrival(0, 0, 0.0), 0.0, 1.0)
        with pytest.raises(ValueError):
            chunk_schedule(Arrival(0, 0, 0.0), 5.0, 0.0)
        with pytest.raises(ValueError):
            Arrival(0, 0, 0.0, rtf=-1.0)


class TestTraceRtfRoundTrip:
    def test_rtf_survives_save_load(self, tmp_path):
        trace = poisson_trace(6, 2.0, 4, seed=5, rtf=1.5)
        assert all(a.rtf == 1.5 for a in trace)
        path = save_trace(trace, tmp_path / "trace.json")
        assert load_trace(path) == trace

    def test_legacy_trace_defaults_to_offline(self, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text('[{"index": 0, "utterance_index": 2, "arrival_ms": 10.0}]')
        (arrival,) = load_trace(path)
        assert arrival.rtf == 0.0


class TestFirstTokenLatency:
    def _result(self, tokens, emissions) -> StreamingResult:
        return StreamingResult(
            tokens=tokens,
            emission_times_s=emissions,
            audio_duration_s=5.0,
            total_compute_ms=100.0,
            chunks=5,
        )

    def test_empty_transcript_has_no_first_token(self):
        result = self._result([], [])
        assert result.first_token_latency_s is None
        assert result.final_latency_s == 0.0

    def test_nonempty_transcript_reports_first_emission(self):
        result = self._result([4, 7], [1.25, 2.5])
        assert result.first_token_latency_s == pytest.approx(1.25)


class TestAggregateLatencyDuration:
    def test_missing_duration_raises(self, whisper_pair, utterance):
        draft, target = whisper_pair
        decoder = build_method("spec(8,1)", draft, target)
        result = decoder.decode(utterance)

        class Bare:  # a unit with no duration_s attribute
            utterance_id = "bare-0"

        with pytest.raises(ValueError, match="duration_s"):
            aggregate_latency("spec", [result], [Bare()])

    def test_explicit_default_fills_in(self, whisper_pair, utterance):
        draft, target = whisper_pair
        decoder = build_method("spec(8,1)", draft, target)
        result = decoder.decode(utterance)

        class Bare:
            utterance_id = "bare-0"

        breakdown = aggregate_latency(
            "spec", [result], [Bare()], default_duration_s=12.5
        )
        assert breakdown.total_duration_s == pytest.approx(12.5)


def _streamed_trace(dataset, count: int, rtf: float, gap_ms: float = 900.0):
    return [
        Arrival(i, i % len(dataset), gap_ms * (i + 1), rtf=rtf) for i in range(count)
    ]


def _run(decoder, trace, dataset, stream: StreamSpec | None = None, **config):
    scheduler = ContinuousBatchScheduler(
        decoder,
        SchedulerConfig(**config),
        ClusterConfig(devices=2),
        stream=stream,
    )
    return scheduler.run(trace, dataset), scheduler.last_stats


class TestStreamingScheduler:
    def test_transcripts_bit_identical_to_offline(
        self, serving_decoder, clean_dataset
    ):
        """The parity contract: streaming delays work, never changes it."""
        streamed = _streamed_trace(clean_dataset, 8, rtf=1.0)
        offline = [
            Arrival(a.index, a.utterance_index, a.arrival_ms) for a in streamed
        ]
        spec = StreamSpec(enabled=True, chunk_s=1.0, lookahead_s=0.3)
        stream_records, _ = _run(serving_decoder, streamed, clean_dataset, spec)
        offline_records, _ = _run(serving_decoder, offline, clean_dataset)
        assert len(stream_records) == len(offline_records)
        for streamed_r, offline_r in zip(stream_records, offline_records, strict=True):
            assert streamed_r.status == STATUS_COMPLETED
            assert streamed_r.tokens == offline_r.tokens
            assert streamed_r.decode_ms == pytest.approx(offline_r.decode_ms)

    def test_emission_timeline_invariants(self, serving_decoder, clean_dataset):
        trace = _streamed_trace(clean_dataset, 6, rtf=1.0)
        spec = StreamSpec(enabled=True, chunk_s=0.5, lookahead_s=0.3)
        records, _ = _run(serving_decoder, trace, clean_dataset, spec)
        for record in records:
            assert record.streaming
            assert record.status == STATUS_COMPLETED
            utterance = record.request.utterance
            events = chunk_schedule(record.request, utterance.duration_s, 0.5)
            assert record.stream_chunks == len(events)
            assert record.audio_end_ms == pytest.approx(events[-1][0])
            # one emission per transcript token, in non-decreasing order
            assert len(record.emission_ms) == len(record.tokens)
            assert record.emission_ms == sorted(record.emission_ms)
            # partials grow monotonically and end at the transcript length
            counts = [count for _, count in record.partials]
            assert counts == sorted(counts)
            if record.tokens:
                assert counts[-1] == len(record.tokens)
                assert record.word_ttft_ms is not None
                assert record.word_ttft_ms >= 0.0
                # no token can be final before its audio arrived + decoded
                assert record.emission_ms[0] >= record.request.arrival_ms
            assert record.final_latency_ms is not None
            assert record.final_latency_ms >= 0.0
            assert record.slo_latency_ms == record.final_latency_ms
            assert all(lat >= 0.0 for lat in record.chunk_latencies_ms)
            assert record.revised_tokens == 0

    def test_decode_starts_before_audio_ends(self, serving_decoder, clean_dataset):
        """Sessions begin while the utterance is still arriving."""
        trace = _streamed_trace(clean_dataset, 4, rtf=1.0)
        spec = StreamSpec(enabled=True, chunk_s=1.0, lookahead_s=0.3)
        records, _ = _run(serving_decoder, trace, clean_dataset, spec)
        assert any(
            r.service_start_ms is not None
            and r.audio_end_ms is not None
            and r.service_start_ms < r.audio_end_ms
            for r in records
        )

    def test_offline_requests_have_no_streaming_block(
        self, serving_decoder, clean_dataset
    ):
        trace = [Arrival(i, i % len(clean_dataset), 500.0 * i) for i in range(4)]
        records, _ = _run(serving_decoder, trace, clean_dataset)
        assert all(not r.streaming for r in records)
        assert StreamingSummary.from_records(records) is None


class TestStreamingPropertyGrid:
    @given(
        chunk_s=st.sampled_from((0.4, 1.0, 2.5)),
        lookahead_s=st.sampled_from((0.0, 0.3, 1.0)),
        rtf=st.sampled_from((0.5, 1.0, 2.0)),
        max_batch=st.integers(min_value=1, max_value=3),
    )
    @STABLE
    def test_streamed_equals_offline_for_any_grid_point(
        self, serving_decoder, clean_dataset, chunk_s, lookahead_s, rtf, max_batch
    ):
        trace = _streamed_trace(clean_dataset, 5, rtf=rtf, gap_ms=700.0)
        spec = StreamSpec(enabled=True, chunk_s=chunk_s, lookahead_s=lookahead_s)
        records, _ = _run(
            serving_decoder, trace, clean_dataset, spec, max_batch=max_batch
        )
        for record in records:
            assert record.status == STATUS_COMPLETED
            reference = serving_decoder.decode(record.request.utterance)
            assert record.tokens == list(reference.tokens)
            assert record.decode_ms == pytest.approx(reference.total_ms)
            assert record.emission_ms == sorted(record.emission_ms)
            counts = [count for _, count in record.partials]
            assert counts == sorted(counts)
            if counts:
                assert counts[-1] == len(record.tokens)
            assert record.final_latency_ms is not None
            assert record.final_latency_ms >= 0.0
            assert record.revised_tokens == 0


class TestStreamingReport:
    def test_simulate_populates_streaming_summary(self):
        config = ServeSimConfig(
            num_requests=6,
            utterances=6,
            qps=0.5,
            stream=StreamSpec(enabled=True, rtf=1.0, chunk_s=1.0, lookahead_s=0.3),
        )
        report = simulate(config)
        summary = report.streaming
        assert summary is not None
        assert summary.requests == 6
        assert summary.completed == 6
        assert summary.chunks > 6  # each stream delivered several chunks
        assert summary.partial_stability == 0.0
        assert summary.word_ttft is not None and summary.word_ttft.p50 >= 0.0
        assert summary.final_latency is not None
        payload = report.to_dict()
        assert payload["streaming"]["partial_stability"] == 0.0
        assert "word_ttft_ms" in payload["streaming"]
        assert "streaming :" in report.render() or "streaming" in report.render()

    def test_offline_simulate_has_no_streaming_block(self):
        report = simulate(ServeSimConfig(num_requests=4, utterances=4, qps=2.0))
        assert report.streaming is None
        assert "streaming" not in report.to_dict()

    def test_config_pickle_roundtrip_and_legacy_upgrade(self):
        config = ServeSimConfig(stream=StreamSpec(enabled=True, rtf=2.0, chunk_s=0.5))
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config and clone.stream.rtf == 2.0

        class LegacyPickler(pickle.Pickler):
            """Writes configs the way they were pickled before ``stream`` existed."""

            def reducer_override(self, obj):
                if type(obj) is not ServeSimConfig:
                    return NotImplemented
                func, args, state = obj.__reduce_ex__(2)[:3]
                state = dict(state)
                del state["stream"]
                return func, args, state

        buf = io.BytesIO()
        LegacyPickler(buf).dump(config)
        # a pickle predating the stream sub-config loads with its default
        stale = pickle.loads(buf.getvalue())
        assert "stream" not in vars(stale)
        assert stale.stream == StreamSpec()
        assert stale.cluster == config.cluster

    def test_stream_spec_validation(self):
        with pytest.raises(ValueError):
            StreamSpec(rtf=0.0)
        with pytest.raises(ValueError):
            StreamSpec(chunk_s=-1.0)
        with pytest.raises(ValueError):
            StreamSpec(lookahead_s=-0.1)


class TestLongForm:
    @pytest.fixture(scope="class")
    def engine(self, whisper_pair):
        draft, target = whisper_pair
        return SpecASREngine(draft, target, SpecASRConfig())

    def test_stitched_transcript_matches_offline(self, engine, clean_dataset):
        config = LongFormConfig(window_s=3.0, overlap_s=0.5)
        for utterance in clean_dataset:
            offline = engine.decode(utterance)
            result = decode_long_form(engine, utterance, config)
            assert result.tokens == list(offline.tokens)
            assert result.windows >= 1
            assert result.total_compute_ms >= offline.total_ms
            # window spans tile the transcript in order
            assert result.window_spans[0][0] == 0
            for (_, prev_end), (next_start, _) in zip(
                result.window_spans, result.window_spans[1:], strict=False
            ):
                assert next_start <= prev_end  # overlapping, never gapped

    def test_overlap_region_is_checked(self, engine, clean_dataset):
        utterance = max(clean_dataset, key=lambda u: u.num_tokens)
        result = decode_long_form(
            engine, utterance, LongFormConfig(window_s=3.0, overlap_s=1.0)
        )
        if result.windows > 1:
            assert result.overlap_tokens_checked > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LongFormConfig(window_s=0.0)
        with pytest.raises(ValueError):
            LongFormConfig(overlap_s=-1.0)
        with pytest.raises(ValueError):
            LongFormConfig(window_s=2.0, overlap_s=2.0)


class TestEnginePrefixDecode:
    @pytest.fixture(scope="class")
    def engine(self, whisper_pair):
        draft, target = whisper_pair
        return SpecASREngine(draft, target, SpecASRConfig())

    def test_prefix_continuation_is_identical(self, engine, utterance):
        offline = list(engine.decode(utterance).tokens)
        split = max(len(offline) // 2, 1)
        resumed = engine.decode(utterance, start_prefix=tuple(offline[:split]))
        assert list(resumed.tokens) == offline

    def test_max_positions_caps_decode(self, engine, utterance):
        """The cap is round-granular: the decode stops at the first round
        boundary at or past ``max_positions``, and what it produced is a
        prefix of the offline transcript (long-form stitching depends on
        exactly this)."""
        offline = list(engine.decode(utterance).tokens)
        cap = max(len(offline) // 2, 1)
        capped = list(engine.decode(utterance, max_positions=cap).tokens)
        assert len(capped) >= min(cap, len(offline))
        assert len(capped) < len(offline)  # the cap did stop the decode early
        assert capped == offline[: len(capped)]

    def test_cap_below_prefix_rejected(self, engine, utterance):
        offline = list(engine.decode(utterance).tokens)
        with pytest.raises(ValueError):
            engine.decode(
                utterance, start_prefix=tuple(offline[:4]), max_positions=2
            )


class TestStreamingCli:
    def test_serve_sim_streaming_runs(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "serve-sim",
                    "--method",
                    "spec(8,1)",
                    "--qps",
                    "0.5",
                    "--requests",
                    "4",
                    "--utterances",
                    "4",
                    "--streaming",
                    "--rtf",
                    "1.0",
                    "--chunk-s",
                    "1.0",
                    "--lookahead-s",
                    "0.3",
                    "--no-max-qps",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "streaming" in out
        assert "word ttft" in out

    def test_rejects_bad_streaming_flags(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["serve-sim", "--streaming", "--rtf", "0"])
        with pytest.raises(SystemExit):
            main(["serve-sim", "--streaming", "--chunk-s", "-1"])


class TestPositionsAvailable:
    def test_zero_until_lookahead_covered(self, utterance):
        assert positions_available(utterance, 0.0, 0.5) == 0

    def test_full_when_all_audio_heard(self, utterance):
        assert (
            positions_available(utterance, utterance.duration_s, 0.5)
            == utterance.num_tokens
        )

    def test_monotone_in_heard_audio(self, utterance):
        caps = [
            positions_available(utterance, heard / 4.0, 0.3)
            for heard in range(int(utterance.duration_s * 4) + 2)
        ]
        assert caps == sorted(caps)

    def test_negative_lookahead_rejected(self, utterance):
        with pytest.raises(ValueError):
            positions_available(utterance, 1.0, -0.1)
