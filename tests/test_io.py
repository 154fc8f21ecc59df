"""Tests for report serialization (repro.harness.io)."""

import json

import pytest

from repro.harness.experiments.base import ExperimentReport
from repro.harness.io import report_to_dict, save_report


@pytest.fixture()
def report():
    return ExperimentReport(
        exp_id="fig99",
        title="synthetic",
        headers=["a", "b"],
        rows=[["x", 1.5], ["y", 2.5]],
        metrics={"m1": 1.0, "m2": 10.0},
        extra_sections=["note"],
    )


class TestSerialization:
    def test_roundtrip(self, report, tmp_path):
        path = save_report(report, tmp_path / "sub" / "fig99.json")
        loaded = json.loads(path.read_text())
        assert loaded["exp_id"] == "fig99"
        assert loaded["rows"] == [["x", 1.5], ["y", 2.5]]
        assert loaded["metrics"] == {"m1": 1.0, "m2": 10.0}
        assert "version" in loaded

    def test_dict_view_is_plain_data(self, report):
        data = report_to_dict(report)
        json.dumps(data)  # must be JSON-serialisable as-is

    def test_cli_json_export(self, tmp_path, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "run",
                    "fig13b",
                    "--utterances",
                    "4",
                    "--json-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        saved = json.loads((tmp_path / "fig13b.json").read_text())
        assert saved["exp_id"] == "fig13b"
