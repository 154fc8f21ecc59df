"""Helpers shared by the benchmark runner, its workloads and its self-tests.

Nothing here imports the ``repro`` package, so the helpers stay testable
(and the benchmark can report a missing source tree) without it.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
from pathlib import Path

#: Directory holding this package; the repository root is its parent.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Seed the published numbers use, and one seed kept out of tuning so a
#: claimed gain can be re-checked on inputs nobody optimised against.
DEFAULT_SEED = 2025
HELD_OUT_SEED = 7919

#: Format limits on the metric lists in ``BENCHMARK.json``.
MAX_END_TO_END = 16
MAX_PER_LAYER = 128
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def load_spec(path: Path = SPEC_PATH) -> dict:
    """The benchmark definition (``BENCHMARK.json``)."""
    return json.loads(path.read_text())


def check_spec(spec: dict) -> list[str]:
    """Problems with the metric lists of ``spec`` (empty when valid)."""
    problems = []
    end_to_end = spec.get("end_to_end", [])
    per_layer = spec.get("per_layer", [])
    if not 1 <= len(end_to_end) <= MAX_END_TO_END:
        problems.append(f"{len(end_to_end)} end-to-end metrics (1..{MAX_END_TO_END})")
    if not 1 <= len(per_layer) <= MAX_PER_LAYER:
        problems.append(f"{len(per_layer)} per-layer metrics (1..{MAX_PER_LAYER})")
    seen = set()
    for entry in [*end_to_end, *per_layer, *spec.get("workloads", [])]:
        name = entry.get("name", "")
        if not NAME_PATTERN.fullmatch(name):
            problems.append(f"bad name {name!r}")
        if name in seen:
            problems.append(f"duplicate name {name!r}")
        seen.add(name)
    for entry in end_to_end:
        if not 0 < entry.get("bound", 0) <= 0.25:
            problems.append(f"{entry['name']}: bound must be in (0, 0.25]")
    if not any(
        e["name"] == "setup_s" and e["unit"] == "s" and e["better"] == "lower"
        for e in end_to_end
    ):
        problems.append("missing setup_s (unit s, lower is better)")
    return problems


def units(spec: dict, section: str) -> dict[str, str]:
    """Metric name -> unit for one section of ``spec``."""
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def max_sustained_rate(points: list[tuple[float, float]], target: float) -> float:
    """Highest ladder rate at which that rate and every lower rate meet
    ``target`` goodput; ``0.0`` when the lowest rate already misses.

    ``points`` holds ``(rate, goodput)`` pairs in any order.
    """
    best = 0.0
    for rate, goodput in sorted(points):
        if goodput < target:
            break
        best = rate
    return best


def nonmonotone_rates(points: list[tuple[float, float]]) -> list[float]:
    """Rates whose goodput is higher than at the next lower ladder rate.

    Goodput should not rise with load; a rise is reported, not smoothed.
    """
    ordered = sorted(points)
    return [
        rate
        for (_, lower), (rate, goodput) in zip(ordered, ordered[1:], strict=False)
        if goodput > lower
    ]


def git_commit(root: Path = ROOT) -> str:
    """Commit of the checkout, or ``"unknown"`` outside a git work tree.

    Only asks git when the root itself is a work tree, so a checkout copied
    inside some other repository never reports that repository's commit.
    """
    if not (root / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    """Where a result was measured."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
    }
