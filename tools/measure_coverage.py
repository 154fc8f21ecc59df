#!/usr/bin/env python
"""Stdlib-only line-coverage measurement for the tier-1 suite.

CI measures coverage with ``pytest-cov`` (see ``.github/workflows/ci.yml``),
whose ``--cov-fail-under`` floor was calibrated with this script: it runs
the tier-1 pytest suite under a ``sys.settrace`` line tracer restricted to
``src/repro`` and reports per-file and total line coverage, where the
executable-line universe is taken from the compiled code objects'
``co_lines()`` tables — the same definition ``coverage.py`` uses for plain
line coverage.  No third-party dependency needed, so the floor can be
re-calibrated in any environment that runs the tests:

    PYTHONPATH=src python tools/measure_coverage.py

The tracer skips frames outside ``src/repro`` at call time, so the
overhead stays within a few multiples of the plain suite runtime.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"
sys.path.insert(0, str(REPO_ROOT / "src"))
# `python -m pytest` puts the cwd on sys.path; pytest.main() from this
# script does not, and the suite imports `tests.fakes` absolutely.
sys.path.insert(0, str(REPO_ROOT))


def executable_lines(path: Path) -> set[int]:
    """Line numbers that carry code, from the compiled code objects."""
    code = compile(path.read_text(), str(path), "exec")
    lines: set[int] = set()
    stack = [code]
    while stack:
        obj = stack.pop()
        lines.update(line for _, _, line in obj.co_lines() if line is not None)
        stack.extend(c for c in obj.co_consts if hasattr(c, "co_lines"))
    return lines


def main() -> int:
    universe: dict[str, set[int]] = {}
    for path in sorted(SRC_ROOT.rglob("*.py")):
        universe[str(path)] = executable_lines(path)

    hit: dict[str, set[int]] = {filename: set() for filename in universe}
    src_prefix = str(SRC_ROOT)

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(src_prefix):
            return None  # never trace lines of foreign frames
        if event == "line":
            lines = hit.get(filename)
            if lines is not None:
                lines.add(frame.f_lineno)
        return tracer

    import pytest

    sys.settrace(tracer)
    try:
        exit_code = pytest.main(["-x", "-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
    if exit_code != 0:
        print(f"pytest failed ({exit_code}); coverage numbers are meaningless")
        return int(exit_code)

    total_lines = 0
    total_hit = 0
    print(f"\n{'file':58s} {'lines':>6s} {'hit':>6s} {'cover':>7s}")
    for filename in sorted(universe):
        lines = universe[filename]
        if not lines:
            continue
        covered = len(hit[filename] & lines)
        total_lines += len(lines)
        total_hit += covered
        rel = str(Path(filename).relative_to(REPO_ROOT))
        print(f"{rel:58s} {len(lines):6d} {covered:6d} {covered / len(lines):6.1%}")
    print(
        f"\nTOTAL: {total_hit}/{total_lines} executable lines "
        f"({total_hit / total_lines:.2%})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
