"""Serving-layer suite: steppers, arrivals, queueing, scheduler, SLO report.

The two contracts the continuous-batching scheduler must uphold:

* **Determinism** — a fixed seed + arrival trace reproduces bit-identical
  transcripts and latency totals across runs, and per-request transcripts /
  decode times are *scheduler-independent* (identical between the serial
  run-to-completion corner and any batched configuration).
* **Backpressure** — overload turns into bounded queues and explicit
  rejections, never unbounded latency.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decoding.base import PhaseOutcome, begin_decode
from repro.harness.methods import build_method
from repro.metrics.latency_report import PercentileSummary, percentile
from repro.serving import (
    AdmissionQueue,
    ContinuousBatchScheduler,
    SchedulerConfig,
    ServeSimConfig,
    load_trace,
    make_trace,
    max_sustainable_qps,
    offered_qps,
    poisson_trace,
    save_trace,
    simulate,
    uniform_trace,
)
from repro.serving.arrivals import Arrival, _assign_priorities
from repro.serving.request import (
    STATUS_COMPLETED,
    STATUS_REJECTED,
    RequestRecord,
    ServeRequest,
)
from repro.utils.rng import RngStream

STEPPED_METHODS = (
    "autoregressive",
    "spec(8,1)",
    "spec(8,2)",
    "fixed-tree",
    "dynamic-tree",
    "spec-sampling",
    "specasr-tsp",
)


def _scalar_utterances(seed: int, count: int, dataset_size: int) -> list[int]:
    """One scalar draw per arrival: the reference for the vectorised draw."""
    rng = RngStream(seed, "serve-arrivals", "utterances")
    return [rng.integers(0, dataset_size) for _ in range(count)]


def _scalar_poisson_trace(
    num_requests: int,
    qps: float,
    dataset_size: int,
    seed: int,
    batch_fraction: float,
    rtf: float,
) -> list[Arrival]:
    """The per-gap loop ``poisson_trace`` vectorises, kept as its reference."""
    gaps = RngStream(seed, "serve-arrivals", "gaps")
    mean_gap_ms = 1000.0 / qps
    utterances = _scalar_utterances(seed, num_requests, dataset_size)
    priorities = _assign_priorities(seed, num_requests, batch_fraction)
    arrivals = []
    now = 0.0
    for index in range(num_requests):
        now += gaps.numpy.exponential(mean_gap_ms)
        arrivals.append(
            Arrival(index, utterances[index], float(now), priorities[index], rtf)
        )
    return arrivals


def _record(index: int, utterance, arrival_ms: float = 0.0) -> RequestRecord:
    request = ServeRequest(f"r-{index}", index, utterance, arrival_ms)
    return RequestRecord(request=request)


class TestDecodeStepper:
    @pytest.mark.parametrize("method", STEPPED_METHODS)
    def test_stepper_matches_decode(self, whisper_pair, clean_dataset, method):
        draft, target = whisper_pair
        utterance = clean_dataset[0]
        decoder = build_method(method, draft, target)
        reference = decoder.decode(utterance)

        stepper = begin_decode(decoder, utterance)
        outcomes: list[PhaseOutcome] = []
        while not stepper.done:
            outcomes.append(stepper.step_phase())
        result = stepper.result
        assert result.tokens == reference.tokens
        assert result.total_ms == reference.total_ms
        assert outcomes[-1].done
        assert all(not o.done for o in outcomes[:-1])
        # phase costs partition the clock total exactly
        assert sum(o.ms for o in outcomes) == pytest.approx(result.total_ms)

    def test_result_before_done_raises(self, whisper_pair, clean_dataset):
        draft, target = whisper_pair
        decoder = build_method("spec(8,1)", draft, target)
        stepper = begin_decode(decoder, clean_dataset[0])
        with pytest.raises(RuntimeError):
            _ = stepper.result


class TestArrivals:
    def test_poisson_deterministic(self):
        a = poisson_trace(20, 2.0, 8, seed=7)
        b = poisson_trace(20, 2.0, 8, seed=7)
        assert a == b
        assert poisson_trace(20, 2.0, 8, seed=8) != a

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**63),
        num_requests=st.integers(1, 300),
        qps=st.one_of(
            st.sampled_from([0.5, 1.0, 2.0, 4.0, 8.0, 16.0]), st.floats(0.01, 500.0)
        ),
        dataset_size=st.integers(1, 200),
        batch_fraction=st.sampled_from([0.0, 0.3]),
        rtf=st.sampled_from([0.0, 1.0]),
    )
    def test_vectorised_traces_equal_scalar_draws(
        self, seed, num_requests, qps, dataset_size, batch_fraction, rtf
    ):
        # One sized draw per stream consumes it exactly like the per-arrival
        # scalar draws, and cumsum adds the gaps left to right like the loop.
        trace = poisson_trace(
            num_requests, qps, dataset_size, seed, batch_fraction, rtf
        )
        assert trace == _scalar_poisson_trace(
            num_requests, qps, dataset_size, seed, batch_fraction, rtf
        )
        assert all(type(a.arrival_ms) is float for a in trace)
        assert all(type(a.utterance_index) is int for a in trace)
        paced = uniform_trace(num_requests, qps, dataset_size, seed)
        assert [a.utterance_index for a in paced] == _scalar_utterances(
            seed, num_requests, dataset_size
        )

    def test_poisson_rate_roughly_matches(self):
        trace = poisson_trace(400, 4.0, 8, seed=1)
        assert offered_qps(trace) == pytest.approx(4.0, rel=0.25)

    def test_uniform_spacing(self):
        trace = uniform_trace(5, 2.0, 3, seed=0)
        gaps = [
            b.arrival_ms - a.arrival_ms for a, b in zip(trace, trace[1:], strict=False)
        ]
        assert all(gap == pytest.approx(500.0) for gap in gaps)

    def test_trace_roundtrip(self, tmp_path):
        trace = poisson_trace(10, 1.0, 4, seed=3)
        path = save_trace(trace, tmp_path / "trace.json")
        assert load_trace(path) == trace

    def test_make_trace_validates_kind(self):
        with pytest.raises(ValueError):
            make_trace("burst", 4, 1.0, 4, 0)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            poisson_trace(4, 0.0, 4)
        for build in (poisson_trace, uniform_trace):
            with pytest.raises(ValueError, match="qps must be positive"):
                build(4, float("nan"), 4)
        with pytest.raises(ValueError):
            uniform_trace(0, 1.0, 4)

    @pytest.mark.parametrize("field", ["arrival_ms", "rtf"])
    def test_request_rejects_nan(self, utterance, field):
        times = {"arrival_ms": 0.0, "rtf": 0.0, field: float("nan")}
        with pytest.raises(ValueError, match=field):
            ServeRequest("r-0", 0, utterance, **times)


class TestAdmissionQueue:
    def test_fifo_and_peak_depth(self, clean_dataset):
        queue = AdmissionQueue(capacity=3)
        records = [_record(i, clean_dataset[0]) for i in range(3)]
        for r in records:
            assert queue.offer(r)
        assert queue.peak_depth == 3
        assert [queue.pop() for _ in range(3)] == records

    def test_overflow_rejects(self, clean_dataset):
        queue = AdmissionQueue(capacity=1)
        first, second = (_record(i, clean_dataset[0]) for i in range(2))
        assert queue.offer(first)
        assert not queue.offer(second)
        assert second.status == STATUS_REJECTED
        assert queue.rejected == 1 and queue.admitted == 1

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            AdmissionQueue(0)


class TestSchedulerDeterminism:
    CONFIGS = (
        SchedulerConfig(max_batch=1, max_inflight=1),  # serial FIFO corner
        SchedulerConfig(max_batch=2, max_inflight=4),
        SchedulerConfig(max_batch=4, max_inflight=8),
    )

    @pytest.fixture(scope="class")
    def trace(self, clean_dataset):
        return poisson_trace(12, 3.0, len(clean_dataset), seed=11)

    def _run(self, whisper_pair, clean_dataset, trace, config):
        draft, target = whisper_pair
        decoder = build_method("specasr-asp", draft, target)
        scheduler = ContinuousBatchScheduler(decoder, config)
        return scheduler.run(trace, clean_dataset), scheduler.last_stats

    def test_rerun_bit_identical(self, whisper_pair, clean_dataset, trace):
        config = SchedulerConfig(max_batch=3, max_inflight=6)
        a, stats_a = self._run(whisper_pair, clean_dataset, trace, config)
        b, stats_b = self._run(whisper_pair, clean_dataset, trace, config)
        assert [r.tokens for r in a] == [r.tokens for r in b]
        assert [r.finish_ms for r in a] == [r.finish_ms for r in b]
        assert [r.first_token_ms for r in a] == [r.first_token_ms for r in b]
        assert [r.decode_ms for r in a] == [r.decode_ms for r in b]
        assert stats_a == stats_b

    def test_transcripts_and_decode_ms_scheduler_independent(
        self, whisper_pair, clean_dataset, trace
    ):
        runs = [
            self._run(whisper_pair, clean_dataset, trace, config)[0]
            for config in self.CONFIGS
        ]
        reference = runs[0]
        for records in runs[1:]:
            assert [r.tokens for r in records] == [r.tokens for r in reference]
            assert [r.decode_ms for r in records] == [r.decode_ms for r in reference]

    def test_transcripts_match_offline_decode(self, whisper_pair, clean_dataset, trace):
        draft, target = whisper_pair
        decoder = build_method("specasr-asp", draft, target)
        records, _ = self._run(whisper_pair, clean_dataset, trace, SchedulerConfig())
        for record in records:
            assert record.status == STATUS_COMPLETED
            offline = decoder.decode(record.request.utterance)
            assert record.tokens == offline.tokens
            assert record.decode_ms == offline.total_ms

    def test_timeline_sanity(self, whisper_pair, clean_dataset, trace):
        records, stats = self._run(
            whisper_pair, clean_dataset, trace, SchedulerConfig()
        )
        for r in records:
            assert r.service_start_ms >= r.request.arrival_ms
            assert r.first_token_ms >= r.service_start_ms
            assert r.finish_ms >= r.first_token_ms
            assert r.queue_ms >= 0 and r.ttft_ms > 0
            assert r.ttft_ms <= r.completion_ms
        assert stats.sim_end_ms >= max(r.finish_ms for r in records)
        assert 0 < stats.device_utilisation <= 1.0

    def test_batching_reduces_completion_latency_under_load(
        self, whisper_pair, clean_dataset
    ):
        # At an offered load that saturates a serial device, co-scheduling
        # rounds must strictly reduce total completion time.
        trace = uniform_trace(10, 4.0, len(clean_dataset), seed=5)
        serial, _ = self._run(
            whisper_pair,
            clean_dataset,
            trace,
            SchedulerConfig(max_batch=1, max_inflight=1),
        )
        batched, _ = self._run(
            whisper_pair,
            clean_dataset,
            trace,
            SchedulerConfig(max_batch=4, max_inflight=8),
        )
        serial_total = sum(r.completion_ms for r in serial)
        batched_total = sum(r.completion_ms for r in batched)
        assert batched_total < serial_total


class TestBackpressure:
    def test_overload_rejects_and_reports(self, whisper_pair, clean_dataset):
        draft, target = whisper_pair
        decoder = build_method("autoregressive", draft, target)
        scheduler = ContinuousBatchScheduler(
            decoder,
            SchedulerConfig(max_batch=1, max_inflight=1, queue_capacity=2),
        )
        # Effectively simultaneous arrivals: far more than queue + device.
        trace = uniform_trace(12, 1000.0, len(clean_dataset), seed=2)
        records = scheduler.run(trace, clean_dataset)
        stats = scheduler.last_stats
        rejected = [r for r in records if r.status == STATUS_REJECTED]
        completed = [r for r in records if r.status == STATUS_COMPLETED]
        assert rejected and completed
        assert len(rejected) + len(completed) == len(records)
        assert stats.rejected == len(rejected)
        assert stats.peak_queue_depth <= 2
        for r in rejected:
            assert r.finish_ms is None and r.tokens == []

    def test_report_counts_rejections_against_goodput(self):
        config = ServeSimConfig(
            method="autoregressive",
            qps=50.0,
            num_requests=16,
            utterances=8,
            scheduler=SchedulerConfig(queue_capacity=2, max_batch=1, max_inflight=1),
        )
        report = simulate(config)
        assert report.rejected > 0
        assert report.goodput_ratio < 1.0
        assert report.num_requests == 16
        assert report.completed + report.rejected == 16


class TestServeReportAndSearch:
    def test_report_fields_and_render(self):
        config = ServeSimConfig(
            method="specasr-asp", qps=2.0, num_requests=12, utterances=8
        )
        report = simulate(config)
        assert report.completed == 12
        for summary in (report.completion, report.ttft, report.queue_wait):
            assert summary is not None
            assert summary.p50 <= summary.p95 <= summary.p99 <= summary.maximum
        text = report.render()
        assert "p95" in text and "goodput" in text
        payload = report.to_dict()
        assert payload["latency_ms"]["completion"]["count"] == 12

    def test_simulate_is_deterministic(self):
        config = ServeSimConfig(
            method="spec(8,1)", qps=3.0, num_requests=10, utterances=8
        )
        assert simulate(config).to_dict() == simulate(config).to_dict()

    def test_speculative_sustains_more_qps_than_autoregressive(self):
        ar_qps, _ = max_sustainable_qps(
            ServeSimConfig(method="autoregressive", num_requests=16, utterances=8),
            refine_steps=2,
        )
        spec_qps, _ = max_sustainable_qps(
            ServeSimConfig(method="specasr-tsp", num_requests=16, utterances=8),
            refine_steps=2,
        )
        assert spec_qps > ar_qps

    def test_search_rejects_start_above_ceiling(self):
        config = ServeSimConfig(num_requests=4, utterances=4)
        with pytest.raises(ValueError, match="qps_ceiling"):
            max_sustainable_qps(config, start_qps=8.0, qps_ceiling=4.0)

    @pytest.mark.parametrize(
        "bounds",
        [
            {"start_qps": float("nan")},
            {"start_qps": float("inf")},
            {"qps_ceiling": float("nan")},
            {"qps_ceiling": float("inf")},  # doubling never passes it
        ],
        ids=["nan-start", "inf-start", "nan-ceiling", "inf-ceiling"],
    )
    def test_search_rejects_non_finite_bounds(self, bounds):
        config = ServeSimConfig(num_requests=4, utterances=4)
        with pytest.raises(ValueError, match="finite"):
            max_sustainable_qps(config, **bounds)

    def test_trace_replay_overrides_qps(self, tmp_path):
        config = ServeSimConfig(method="spec(8,1)", num_requests=8, utterances=8)
        trace = uniform_trace(8, 5.0, 8, seed=1)
        path = save_trace(trace, tmp_path / "t.json")
        report = simulate(config, trace=load_trace(path))
        assert report.offered_qps == pytest.approx(offered_qps(trace))
        assert report.num_requests == 8


class TestPercentiles:
    def test_percentile_interpolates(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 0) == 10.0
        assert percentile(values, 100) == 40.0
        assert percentile(values, 50) == pytest.approx(25.0)

    def test_percentile_validates(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_summary_from_values(self):
        summary = PercentileSummary.from_values(float(v) for v in range(1, 101))
        assert summary.count == 100
        assert summary.p50 == pytest.approx(50.5)
        assert summary.maximum == 100.0
        assert PercentileSummary.from_values([]) is None


class TestSchedulerConfigValidation:
    def test_rejects_bad_configs(self):
        with pytest.raises(ValueError):
            SchedulerConfig(max_batch=0)
        with pytest.raises(ValueError):
            SchedulerConfig(max_batch=4, max_inflight=2)
        with pytest.raises(ValueError):
            SchedulerConfig(queue_capacity=0)
        with pytest.raises(ValueError):
            SchedulerConfig(overlap=1.5)
