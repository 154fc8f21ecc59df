"""Streaming serving suite: chunked arrivals and emission timelines.

The contract under test is the streaming analogue of the serving parity
contract: chunked audio delivery *delays* decode progress (the scheduler may
only advance a session as far as the heard audio supports) but never changes
what is decoded — the final transcript and per-request decode time are
bit-identical to the offline run of the same trace.  On top of that the
emission timeline must be physically sensible: one emission per transcript
token, in non-decreasing order, none before the audio that supports it,
every latency non-negative, and zero revised tokens (the decoder is
lossless, so an emitted token is final).  The single-stream latency bounds
live in ``tests/test_streaming.py``.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    parse_fault_spec,
    poisson_trace,
    positions_available,
    save_trace,
    simulate,
)
from repro.serving.request import (
    STATUS_COMPLETED,
    STATUS_REJECTED,
    STATUS_SHED,
    RequestRecord,
    ServeRequest,
)
from repro.serving.scheduler import _ServeLoop

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
        with pytest.raises(ValueError):
            Arrival(0, 0, 0.0, rtf=float("nan"))
        with pytest.raises(ValueError):
            Arrival(0, 0, float("nan"))


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
    def test_nonempty_transcript_reports_first_emission(self, utterance):
        """Word-level TTFT is the first emission, not the first commit."""
        record = RequestRecord(
            ServeRequest("r-0", 0, utterance, 500.0, rtf=1.0),
            first_token_ms=1000.0,
            tokens=[4, 7],
            emission_ms=[1750.0, 3000.0],
        )
        assert record.ttft_ms == pytest.approx(500.0)
        assert record.word_ttft_ms == pytest.approx(1250.0)


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
            # token k is final no earlier than the first chunk whose audio
            # supports k + 1 positions (the lookahead tail: the last chunk)
            caps = [
                (at_ms, positions_available(utterance, heard_s, 0.3))
                for at_ms, heard_s in events
            ]
            for k, emitted_ms in enumerate(record.emission_ms):
                ready_ms = next(
                    (at_ms for at_ms, cap in caps if cap >= k + 1), events[-1][0]
                )
                assert emitted_ms >= ready_ms
            if record.tokens:
                assert record.word_ttft_ms is not None
                assert record.word_ttft_ms >= 0.0
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

    def test_run_span_covers_a_finish_after_the_last_event(
        self, serving_decoder, clean_dataset
    ):
        """A decode that ran ahead of its audio finishes when the audio
        ends, after the last device event; the run's span must include it
        (goodput and utilisation divide by it)."""
        scheduler = ContinuousBatchScheduler(
            serving_decoder,
            SchedulerConfig(max_batch=1, max_inflight=1),
            ClusterConfig(devices=1),
            stream=StreamSpec(enabled=True, chunk_s=1.0, lookahead_s=0.0),
        )
        (record,) = scheduler.run([Arrival(0, 1, 0.0, rtf=1.0)], clean_dataset)
        last_batch_end = max(end for _, _, end, _, _ in scheduler.last_dispatch_log)
        assert record.finish_ms == record.audio_end_ms > last_batch_end
        assert scheduler.last_stats.sim_end_ms == record.finish_ms

    def test_offline_requests_have_no_streaming_block(
        self, serving_decoder, clean_dataset
    ):
        trace = [Arrival(i, i % len(clean_dataset), 500.0 * i) for i in range(4)]
        records, _ = _run(serving_decoder, trace, clean_dataset)
        assert all(not r.streaming for r in records)
        assert StreamingSummary.from_records(records) is None


class TestParkedStreams:
    """A session the audio gate holds between rounds is parked: it holds no
    in-flight slot, so ``max_inflight`` bounds runnable sessions only."""

    def _serve(self, decoder, dataset, *others: Arrival):
        # A batch-class stream parks at once: no audio is heard at t=0.
        streamed = Arrival(0, 0, 0.0, "batch", rtf=1.0)
        scheduler = ContinuousBatchScheduler(
            decoder,
            SchedulerConfig(max_batch=1, max_inflight=1),
            ClusterConfig(devices=1),
            stream=StreamSpec(enabled=True, chunk_s=1.0, lookahead_s=0.3),
        )
        records = scheduler.run([streamed, *others], dataset)
        assert all(r.status == STATUS_COMPLETED for r in records)
        return records, scheduler.last_stats

    def test_parked_stream_frees_its_slot(self, serving_decoder, clean_dataset):
        (streamed, offline), _ = self._serve(
            serving_decoder, clean_dataset, Arrival(1, 1, 10.0, "batch")
        )
        assert offline.service_start_ms == 10.0
        assert offline.finish_ms < streamed.audio_end_ms

    def test_interactive_arrivals_share_the_freed_slot(
        self, serving_decoder, clean_dataset
    ):
        # The first interactive arrival takes the free slot at once; the
        # second waits for that session, not for the parked stream, and
        # finishes long before the stream's audio ends.
        records, _ = self._serve(
            serving_decoder,
            clean_dataset,
            Arrival(1, 1, 10.0, "interactive"),
            Arrival(2, 2, 20.0, "interactive"),
        )
        assert records[1].service_start_ms == 10.0
        assert records[2].service_start_ms > records[2].request.arrival_ms
        assert records[2].finish_ms < records[0].audio_end_ms

    def test_due_streams_wake_only_into_free_slots(
        self, serving_decoder, clean_dataset, monkeypatch
    ):
        # Both batch streams park at once and fall due at their first chunk
        # (1 s), while the first interactive session holds the only slot
        # and the second waits.  Woken regardless of slots, each stream
        # would overflow the bound.
        sizes = []
        admit = _ServeLoop.admit

        def sized_admit(loop):
            sizes.append(len(loop.inflight))
            admit(loop)
            sizes.append(len(loop.inflight))

        monkeypatch.setattr(_ServeLoop, "admit", sized_admit)
        records, _ = self._serve(
            serving_decoder,
            clean_dataset,
            Arrival(1, 3, 1.0, "batch", rtf=1.0),
            Arrival(2, 1, 900.0, "interactive"),
            Arrival(3, 2, 950.0, "interactive"),
        )
        assert max(sizes) == 1
        assert records[2].finish_ms > 1000.0  # the streams fell due meanwhile
        # Request 2 frees the slot at 1193.5 ms, but each due stream wakes
        # into a free slot ahead of the queue, and a slot that a parking
        # stream frees is refilled only at the next event: the other
        # stream's wake-up.  So request 3 waits until 7070.4 ms.  Admitting
        # again at the same ``now`` after a stream parks would let it in.
        assert records[3].service_start_ms == pytest.approx(7070.365)

    def test_due_stream_takes_the_slot_a_parking_session_frees(
        self, serving_decoder, clean_dataset
    ):
        # The second stream falls due at 1001 ms while the first holds the
        # only slot; the first parks at the end of its round (~1157 ms,
        # ahead of its next chunk at 2000 ms).  The freed slot goes to the
        # due stream at once, not at the next arrival (3000 ms).
        records, _ = self._serve(
            serving_decoder,
            clean_dataset,
            Arrival(1, 3, 1.0, "batch", rtf=1.0),
            Arrival(2, 1, 3000.0, "batch"),
        )
        assert records[1].first_token_ms < 2000.0

    def test_unservable_parked_stream_is_shed(self, serving_decoder, clean_dataset):
        # The only device dies for good mid-round: the running stream is
        # stuck, and the parked one, due meanwhile, must still end shed.
        scheduler = ContinuousBatchScheduler(
            serving_decoder,
            SchedulerConfig(max_batch=1, max_inflight=1),
            ClusterConfig(devices=1),
            faults=parse_fault_spec("crash@1100:dev0"),
            stream=StreamSpec(enabled=True, chunk_s=1.0, lookahead_s=0.3),
        )
        records = scheduler.run(
            [
                Arrival(0, 0, 0.0, "batch", rtf=1.0),
                Arrival(1, 3, 1.0, "batch", rtf=1.0),
            ],
            clean_dataset,
        )
        assert [(r.status, r.shed_reason) for r in records] == [
            (STATUS_SHED, "capacity")
        ] * 2

    def test_loaded_stream_completes_every_request(self):
        """At 3 qps the streams waiting for audio outnumber the eight
        in-flight slots; if they held slots the queue would overflow (60/64
        complete, goodput 0.703)."""
        report = simulate(
            ServeSimConfig(
                method="specasr-asp",
                qps=3.0,
                num_requests=64,
                seed=2025,
                utterances=32,
                stream=StreamSpec(enabled=True),
            )
        )
        assert (report.completed, report.rejected, report.shed) == (64, 0, 0)
        assert report.goodput_ratio == 1.0


def _linear_gate_ms(caps, audio_end_ms, emitted, new_round, now_ms):
    """Reference audio gate: a linear scan of ``(at_ms, cap)`` chunk pairs."""
    if not new_round or now_ms >= audio_end_ms:
        return None
    current = 0
    for at_ms, cap in caps:
        if at_ms > now_ms:
            break
        current = cap
    if emitted < current:
        return None
    for at_ms, cap in caps:
        if at_ms > now_ms and cap > emitted:
            return at_ms
    return audio_end_ms


def _linear_audio_ready_ms(caps, audio_end_ms, position):
    """Reference emission time: the first chunk supporting ``position``."""
    for at_ms, cap in caps:
        if cap >= position:
            return at_ms
    return audio_end_ms


class TestAudioGateBisection:
    """The scheduler's bisected audio gate answers exactly like a linear
    scan of the chunk timeline, for any timeline, emitted count and time."""

    @given(
        duration_s=st.floats(min_value=0.05, max_value=8.0),
        num_tokens=st.integers(min_value=0, max_value=40),
        chunk_s=st.floats(min_value=0.25, max_value=3.0),
        lookahead_s=st.floats(min_value=0.0, max_value=1.5),
        rtf=st.floats(min_value=0.25, max_value=4.0),
        arrival_ms=st.floats(min_value=0.0, max_value=1e5),
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_gate_and_ready_times_match_linear_scan(
        self, duration_s, num_tokens, chunk_s, lookahead_s, rtf, arrival_ms
    ):
        utterance = SimpleNamespace(duration_s=duration_s, num_tokens=num_tokens)
        arrival = Arrival(0, 0, arrival_ms, rtf=rtf)
        events = chunk_schedule(arrival, duration_s, chunk_s)
        caps = [
            (at_ms, positions_available(utterance, heard_s, lookahead_s))
            for at_ms, heard_s in events
        ]
        audio_end_ms = events[-1][0]
        times = [at_ms for at_ms, _cap in caps]
        session = SimpleNamespace(
            chunk_ms=times,
            chunk_caps=[cap for _at_ms, cap in caps],
            audio_end_ms=audio_end_ms,
        )
        # now at every chunk time, between each pair, before the first and
        # after the last
        probes = {arrival_ms, times[0] - 1.0, audio_end_ms + 1.0, *times}
        probes.update((a + b) / 2 for a, b in zip(times, times[1:], strict=False))
        for emitted in range(num_tokens + 2):  # the final commit adds EOS
            for new_round in (True, False):
                session.emitted, session.new_round = emitted, new_round
                for now_ms in sorted(probes):
                    expected = _linear_gate_ms(
                        caps, audio_end_ms, emitted, new_round, now_ms
                    )
                    assert _ServeLoop.stream_gate_ms(session, now_ms) == expected
        for position in range(num_tokens + 3):
            expected = _linear_audio_ready_ms(caps, audio_end_ms, position)
            assert _ServeLoop.audio_ready_ms(session, position) == expected


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
            assert len(record.emission_ms) == len(record.tokens)
            assert record.emission_ms == sorted(record.emission_ms)
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
        assert "streaming :" in report.render()

    def test_rejected_streams_count_as_streams(self, serving_decoder, clean_dataset):
        """A streamed arrival the queue bounces still counts as a stream."""
        trace = [Arrival(i, i % len(clean_dataset), 0.0, rtf=1.0) for i in range(6)]
        scheduler = ContinuousBatchScheduler(
            serving_decoder,
            SchedulerConfig(max_batch=1, max_inflight=1, queue_capacity=1),
            ClusterConfig(devices=1),
            stream=StreamSpec(enabled=True, chunk_s=1.0, lookahead_s=0.3),
        )
        records = scheduler.run(trace, clean_dataset)
        assert sum(r.status == STATUS_REJECTED for r in records) > 0
        assert all(r.streaming for r in records)
        summary = StreamingSummary.from_records(records)
        assert summary is not None
        assert summary.requests == len(trace)
        assert summary.completed == sum(r.status == STATUS_COMPLETED for r in records)

    def test_offline_simulate_has_no_streaming_block(self):
        report = simulate(ServeSimConfig(num_requests=4, utterances=4, qps=2.0))
        assert report.streaming is None
        assert "streaming" not in report.to_dict()

    def test_stream_spec_validation(self):
        with pytest.raises(ValueError):
            StreamSpec(rtf=0.0)
        with pytest.raises(ValueError):
            StreamSpec(chunk_s=-1.0)
        with pytest.raises(ValueError):
            StreamSpec(lookahead_s=-0.1)
        for field in ("rtf", "chunk_s", "lookahead_s"):
            with pytest.raises(ValueError, match=field):
                StreamSpec(**{field: float("nan")})


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
