"""ServeReport edge cases: empty traces, lone requests, total rejection.

The percentile/utilisation paths of :mod:`repro.serving.report` divide by
request counts and simulated spans; these tests pin the degenerate corners
(no records at all, a single completed record, every record rejected) and
the per-device spec/utilisation rows added with heterogeneous clusters.
"""

from __future__ import annotations

import pytest

from repro.data.corpus import Utterance
from repro.serving.report import ServeReport
from repro.serving.request import (
    STATUS_COMPLETED,
    STATUS_REJECTED,
    RequestRecord,
    ServeRequest,
)
from repro.serving.scheduler import ScheduleStats


def _stats(**overrides) -> ScheduleStats:
    defaults = dict(
        sim_end_ms=0.0,
        device_busy_ms=0.0,
        batches=0,
        rounds=0,
        peak_queue_depth=0,
        rejected=0,
        devices=1,
        per_device_busy_ms=(0.0,),
        device_speeds=(1.0,),
        device_roles=("any",),
        draft_share=None,
    )
    defaults.update(overrides)
    return ScheduleStats(**defaults)


def _record(index: int, status: str, finish_ms: float | None = None) -> RequestRecord:
    utterance = Utterance(
        utterance_id=f"utt-{index}",
        speaker_id="spk",
        words=("hello", "world"),
        tokens=(3, 4),
        duration_s=1.0,
        difficulty=(0.1, 0.1),
        split="test-clean",
    )
    record = RequestRecord(
        request=ServeRequest(
            request_id=f"req-{index}",
            index=index,
            utterance=utterance,
            arrival_ms=float(index * 10),
        )
    )
    record.status = status
    if status == STATUS_COMPLETED:
        record.service_start_ms = record.request.arrival_ms + 5.0
        record.first_token_ms = record.service_start_ms + 20.0
        record.finish_ms = finish_ms if finish_ms is not None else 200.0
        record.tokens = [3, 4]
        record.decode_ms = 50.0
    return record


class TestEmptyTrace:
    def test_report_from_no_records(self):
        report = ServeReport.from_records("spec", [], _stats(), 3000.0, 2.0)
        assert report.num_requests == 0
        assert report.completed == 0 and report.rejected == 0
        assert report.goodput_rps == 0.0 and report.goodput_ratio == 0.0
        assert report.completion is None
        assert report.ttft is None
        assert report.decode is None

    def test_empty_render_and_dict(self):
        report = ServeReport.from_records("spec", [], _stats(), 3000.0, 2.0)
        text = report.render()
        assert "(no completed requests)" in text
        payload = report.to_dict()
        assert payload["latency_ms"]["completion"] is None
        assert payload["device_utilisation"] == 0.0
        assert payload["per_device"] == [
            {
                "device": "dev0",
                "speed": 1.0,
                "role": "any",
                "busy_ms": 0.0,
                "utilisation": 0.0,
            }
        ]
        assert payload["draft_share"] is None


class TestSingleRequest:
    def test_percentiles_collapse_to_the_one_value(self):
        stats = _stats(
            sim_end_ms=200.0,
            device_busy_ms=120.0,
            batches=3,
            rounds=3,
            per_device_busy_ms=(120.0,),
        )
        report = ServeReport.from_records(
            "spec", [_record(0, STATUS_COMPLETED)], stats, 3000.0, 2.0
        )
        assert report.num_requests == 1 and report.completed == 1
        assert report.met_deadline == 1
        assert report.goodput_ratio == 1.0
        assert report.completion.p50 == report.completion.p99 == 200.0
        assert report.decode.mean == 50.0
        assert report.goodput_rps == pytest.approx(1 / 0.2)

    def test_missed_deadline_counts_against_goodput(self):
        stats = _stats(sim_end_ms=9000.0, per_device_busy_ms=(100.0,))
        report = ServeReport.from_records(
            "spec",
            [_record(0, STATUS_COMPLETED, finish_ms=8000.0)],
            stats,
            3000.0,
            2.0,
        )
        assert report.completed == 1
        assert report.met_deadline == 0
        assert report.goodput_ratio == 0.0


class TestAllRejected:
    def test_all_rejected_report(self):
        records = [_record(i, STATUS_REJECTED) for i in range(4)]
        report = ServeReport.from_records("spec", records, _stats(), 3000.0, 2.0)
        assert report.num_requests == 4
        assert report.rejected == 4 and report.completed == 0
        assert report.goodput_ratio == 0.0
        assert report.completion is None
        text = report.render()
        assert "rejected 4" in text
        assert "(no completed requests)" in text


class TestPerDeviceRows:
    def test_heterogeneous_rows(self):
        stats = _stats(
            sim_end_ms=1000.0,
            devices=3,
            device_busy_ms=900.0,
            per_device_busy_ms=(500.0, 300.0, 100.0),
            device_speeds=(1.0, 0.5, 0.5),
            device_roles=("target", "draft", "draft"),
            draft_share=0.25,
        )
        report = ServeReport.from_records(
            "spec", [_record(0, STATUS_COMPLETED)], stats, 3000.0, 2.0
        )
        rows = report.per_device_rows()
        assert [row["role"] for row in rows] == ["target", "draft", "draft"]
        assert [row["speed"] for row in rows] == [1.0, 0.5, 0.5]
        assert rows[0]["utilisation"] == pytest.approx(0.5)
        text = report.render()
        assert "draft share 25.0%" in text
        assert "dev1" in text and "draft" in text
        # heterogeneous speed mix is summarised on the cluster line
        assert report.cluster_label() == "3 device(s) [1x1,2x0.5]"
        assert "[1x1,2x0.5]" in text
        payload = report.to_dict()
        assert payload["draft_share"] == 0.25
        assert len(payload["per_device"]) == 3
