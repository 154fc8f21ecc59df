"""Serialization of experiment reports to JSON artifacts.

``repro run --json-dir DIR`` writes one file per experiment, so a run's
reports can be kept and compared outside the simulator.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.harness.experiments.base import ExperimentReport
from repro.version import __version__


def report_to_dict(report: ExperimentReport) -> dict[str, Any]:
    """A JSON-serialisable view of one experiment report."""
    return {
        "exp_id": report.exp_id,
        "title": report.title,
        "headers": list(report.headers),
        "rows": [list(row) for row in report.rows],
        "metrics": dict(report.metrics),
        "extra_sections": list(report.extra_sections),
        "version": __version__,
    }


def save_report(report: ExperimentReport, path: str | Path) -> Path:
    """Write a report as JSON; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report_to_dict(report), indent=2, sort_keys=True))
    return path
