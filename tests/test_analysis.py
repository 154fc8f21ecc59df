"""Tests for :mod:`repro.analysis` — the ``repro lint`` rule engine.

Every rule gets (a) a fixture that fires it and (b) a suppression test
showing ``# repro: ignore[RULE]`` silences exactly that rule on exactly
that line.  The engine suite covers discovery, baselines, JSON round-trips,
parallel==serial output, and — the point of the whole exercise — a
self-scan: the shipped tree lints clean with an empty baseline.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    LintResult,
    SYNTAX_RULE,
    analyze_source,
    collect_files,
    default_rules,
    load_baseline,
    render_json,
    render_text,
    run_lint,
    suppressed_lines,
    write_baseline,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Default rel for fixtures: inside every rule's scope.
SCOPED = "src/repro/serving/fixture.py"


def lint(source: str, rel: str = SCOPED, rules=None) -> list[Finding]:
    return analyze_source(textwrap.dedent(source), rel, rules=rules)


def rules_fired(source: str, rel: str = SCOPED) -> set[str]:
    return {finding.rule for finding in lint(source, rel)}


# -- rule registry -----------------------------------------------------------


class TestRegistry:
    def test_all_six_rules_registered(self):
        ids = [rule.id for rule in default_rules()]
        assert ids == sorted(ids), "registry must be ordered by rule id"
        assert set(ids) == {
            "API001",
            "DET001",
            "DET002",
            "DET003",
            "DET004",
            "SIM001",
        }

    def test_scopes(self):
        scopes = {rule.id: rule.scope for rule in default_rules()}
        assert scopes["DET001"] == "src/repro"
        assert scopes["SIM001"] == "src/repro"
        assert scopes["DET002"] is None


# -- DET001: wall-clock reads ------------------------------------------------


class TestDet001:
    FIXTURE = """\
        import time
        from time import perf_counter
        import datetime as dt

        def f():
            a = time.time()
            b = perf_counter()
            c = dt.datetime.now()
            return a, b, c
        """

    def test_fires_on_wall_clock_reads(self):
        findings = [f for f in lint(self.FIXTURE) if f.rule == "DET001"]
        assert [f.line for f in findings] == [6, 7, 8]
        assert "time.perf_counter" in findings[1].message

    def test_out_of_scope_tools_are_exempt(self):
        assert "DET001" not in rules_fired(self.FIXTURE, rel="tools/bench.py")

    def test_suppression_silences_only_its_line(self):
        fixture = """\
            import time

            def f():
                a = time.time()  # repro: ignore[DET001]
                return a, time.monotonic()
            """
        findings = [f for f in lint(fixture) if f.rule == "DET001"]
        assert [f.line for f in findings] == [5]


# -- DET002: unseeded randomness ---------------------------------------------


class TestDet002:
    def test_fires_on_global_stdlib_random(self):
        fired = lint("import random\nx = random.random()\n")
        assert [f.rule for f in fired] == ["DET002"]
        assert "process-global" in fired[0].message

    def test_fires_on_numpy_legacy_global(self):
        fired = lint("import numpy as np\nnp.random.seed(0)\n")
        assert [f.rule for f in fired] == ["DET002"]
        assert "legacy" in fired[0].message

    def test_fires_on_unseeded_default_rng(self):
        fired = lint("import numpy as np\nrng = np.random.default_rng()\n")
        assert [f.rule for f in fired] == ["DET002"]
        assert "OS entropy" in fired[0].message

    def test_seeded_default_rng_is_clean(self):
        assert lint("import numpy as np\nrng = np.random.default_rng(7)\n") == []
        assert lint("import numpy as np\nr = np.random.default_rng(seed=7)\n") == []

    def test_fires_on_intrinsically_nondeterministic_sources(self):
        fired = rules_fired("import uuid\ntoken = uuid.uuid4()\n")
        assert fired == {"DET002"}

    def test_seeded_random_class_is_clean(self):
        assert lint("import random\nrng = random.Random(13)\n") == []

    def test_suppression(self):
        clean = lint(
            "import random\nx = random.random()  # repro: ignore[DET002]\n"
        )
        assert clean == []


# -- DET003: builtin hash()/id() ---------------------------------------------


class TestDet003:
    def test_hash_always_fires(self):
        fired = lint("key = hash('utterance-7')\n")
        assert [f.rule for f in fired] == ["DET003"]
        assert "PYTHONHASHSEED" in fired[0].message

    def test_id_in_sort_key_fires(self):
        fired = lint("items = sorted(pool, key=lambda d: id(d))\n")
        assert [f.rule for f in fired] == ["DET003"]

    def test_id_in_seed_arithmetic_fires(self):
        assert rules_fired("seed = id(obj) % 1000\n") == {"DET003"}

    def test_id_fed_to_stable_hash_fires(self):
        fired = lint(
            "from repro.utils.hashing import stable_hash\ns = stable_hash(id(x))\n"
        )
        assert [f.rule for f in fired] == ["DET003"]

    def test_id_as_plain_cache_key_is_clean(self):
        # Identity caching is deterministic in behaviour — must NOT fire.
        assert lint("cache[id(model)] = value\n") == []
        assert lint("seen = {id(node) for node in nodes}\n") == []

    def test_suppression(self):
        assert lint("key = hash(text)  # repro: ignore[DET003]\n") == []


# -- DET004: unordered selection ---------------------------------------------


class TestDet004:
    def test_min_over_set_without_key_fires(self):
        fired = lint("best = min({3, 1, 2})\n")
        assert [f.rule for f in fired] == ["DET004"]

    def test_min_with_key_is_clean(self):
        assert lint("best = min(set(xs), key=lambda x: (x.cost, x.name))\n") == []

    def test_next_iter_over_set_fires(self):
        assert rules_fired("probe = next(iter(set(devices)))\n") == {"DET004"}

    def test_next_iter_over_values_fires(self):
        assert rules_fired("probe = next(iter(live.values()))\n") == {"DET004"}

    def test_set_pop_fires(self):
        assert rules_fired("x = set(pending).pop()\n") == {"DET004"}

    def test_list_selection_is_clean(self):
        assert lint("first = next(iter([1, 2, 3]))\nbest = min([3, 1])\n") == []

    def test_suppression(self):
        clean = lint("probe = next(iter(live.values()))  # repro: ignore[DET004]\n")
        assert clean == []


# -- SIM001: explicit phase costs --------------------------------------------


class TestSim001:
    def test_phase_outcome_without_ms_fires(self):
        fired = lint("out = PhaseOutcome('draft', 4)\n")
        assert [f.rule for f in fired] == ["SIM001"]
        assert "ms=" in fired[0].message

    def test_phase_outcome_zero_ms_fires(self):
        fired = lint("out = PhaseOutcome('draft', 4, ms=0.0)\n")
        assert [f.rule for f in fired] == ["SIM001"]
        assert "zero" in fired[0].message

    def test_phase_outcome_with_cost_is_clean(self):
        assert lint("out = PhaseOutcome('draft', 4, ms=clock.elapsed())\n") == []

    def test_device_execute_missing_phases_fires(self):
        assert rules_fired("device.execute(now_ms)\n") == {"SIM001"}

    def test_device_execute_with_start_and_phases_is_clean(self):
        assert lint("device.execute(now_ms, phases)\n") == []
        assert lint("device.execute(start_ms=t, phases=batch)\n") == []

    def test_non_device_execute_is_clean(self):
        assert lint("cursor.execute('SELECT 1')\n") == []

    def test_out_of_scope(self):
        assert lint("out = PhaseOutcome('draft', 4)\n", rel="tools/bench.py") == []

    def test_suppression(self):
        src = "out = PhaseOutcome('warm', 0, ms=0.0)  # repro: ignore[SIM001]\n"
        assert lint(src) == []


# -- API001: __all__ drift ---------------------------------------------------


class TestApi001:
    def test_phantom_export_fires(self):
        fixture = """\
            __all__ = ["real", "phantom"]

            def real():
                return 1
            """
        fired = lint(fixture, rel="src/repro/util.py")
        assert [f.rule for f in fired] == ["API001"]
        assert "'phantom'" in fired[0].message

    def test_duplicate_export_fires(self):
        fixture = """\
            __all__ = ["twice", "twice"]

            def twice():
                return 2
            """
        fired = lint(fixture, rel="src/repro/util.py")
        assert any("more than once" in f.message for f in fired)

    def test_pep562_lazy_export_is_bound(self):
        fixture = """\
            __all__ = ["Lazy"]

            def __getattr__(name):
                if name == "Lazy":
                    from repro.models.kv import Lazy
                    return Lazy
                raise AttributeError(name)
            """
        assert lint(fixture, rel="src/repro/util.py") == []

    def test_own_submodule_import_missing_from_all_fires(self):
        fixture = """\
            from repro.pkg.impl import helper

            __all__ = ["main"]

            def main():
                return helper()
            """
        fired = lint(fixture, rel="src/repro/pkg/__init__.py")
        assert [f.rule for f in fired] == ["API001"]
        assert "'helper'" in fired[0].message

    def test_foreign_imports_are_not_exports(self):
        fixture = """\
            from typing import Sequence

            __all__ = ["main"]

            def main(xs: Sequence[int]) -> int:
                return len(xs)
            """
        assert lint(fixture, rel="src/repro/pkg/__init__.py") == []

    def test_suppression(self):
        fixture = """\
            __all__ = ["phantom"]  # repro: ignore[API001]
            """
        assert lint(fixture, rel="src/repro/util.py") == []


# -- engine mechanics --------------------------------------------------------


class TestEngine:
    def test_syntax_error_becomes_e999_finding(self):
        fired = lint("def broken(:\n")
        assert [f.rule for f in fired] == [SYNTAX_RULE]

    def test_suppressed_lines_parses_multiple_ids(self):
        lines = suppressed_lines("x = 1  # repro: ignore[DET003, DET004]\n")
        assert lines == {1: frozenset({"DET003", "DET004"})}

    def test_suppression_is_rule_specific(self):
        # The ignore names DET003 but the line violates DET004 — it stays.
        src = "probe = next(iter(set(xs)))  # repro: ignore[DET003]\n"
        assert rules_fired(src) == {"DET004"}

    def test_findings_sort_like_a_compiler_log(self):
        src = "import time\nb = time.time()\na = hash(b)\n"
        findings = lint(src)
        assert findings == sorted(findings)
        assert [f.line for f in findings] == [2, 3]

    def test_finding_json_round_trip(self):
        finding = Finding(
            path="src/repro/x.py", line=12, rule="DET001", message="m"
        )
        assert Finding.from_dict(finding.to_dict()) == finding

    def test_render_json_round_trips(self):
        result = LintResult(
            findings=(Finding("a.py", 1, "DET003", "msg"),),
            files_scanned=3,
        )
        data = json.loads(render_json(result))
        assert data["files_scanned"] == 3
        assert [Finding.from_dict(f) for f in data["findings"]] == [
            result.findings[0]
        ]

    def test_render_text_shape(self):
        result = LintResult(
            findings=(Finding("a.py", 1, "DET003", "msg"),), files_scanned=2
        )
        text = render_text(result)
        assert text.splitlines() == ["a.py:1: DET003 msg", "1 finding in 2 files"]


class TestRunLint:
    @pytest.fixture()
    def mini_repo(self, tmp_path):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(
            "import time\nSTAMP = time.time()\nKEY = hash(STAMP)\n"
        )
        (pkg / "good.py").write_text("VALUE = 42\n")
        return tmp_path

    def test_run_lint_reports_relative_sorted_findings(self, mini_repo):
        result = run_lint(["src"], mini_repo)
        assert result.files_scanned == 2
        assert [f.rule for f in result.findings] == ["DET001", "DET003"]
        assert all(f.path == "src/repro/bad.py" for f in result.findings)

    def test_baseline_round_trip_filters_findings(self, mini_repo, tmp_path):
        first = run_lint(["src"], mini_repo)
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, list(first.findings))
        second = run_lint(
            ["src"], mini_repo, baseline=load_baseline(baseline_path)
        )
        assert second.clean
        assert second.baselined == len(first.findings)

    def test_missing_target_raises(self, mini_repo):
        with pytest.raises(FileNotFoundError):
            run_lint(["no_such_dir"], mini_repo)

    def test_collect_files_skips_caches(self, mini_repo):
        cache = mini_repo / "src" / "repro" / "__pycache__"
        cache.mkdir()
        (cache / "bad.cpython-312.py").write_text("x = hash(1)\n")
        files = collect_files(["src"], mini_repo)
        assert [f.name for f in files] == ["bad.py", "good.py"]


# -- the contract: the shipped tree is clean ---------------------------------


def _cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


class TestSelfScan:
    def test_src_and_tools_lint_clean_with_empty_baseline(self):
        result = run_lint(["src", "tools"], REPO_ROOT)
        assert result.files_scanned > 80
        assert result.findings == (), render_text(result)

    def test_cli_strict_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint", "--strict", "src", "tools"],
            cwd=REPO_ROOT,
            env=_cli_env(),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_cli_json_format(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "lint",
                "--format",
                "json",
                "src/repro/analysis",
            ],
            cwd=REPO_ROOT,
            env=_cli_env(),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        data = json.loads(proc.stdout)
        assert data["findings"] == []
        assert data["files_scanned"] >= 10

    def test_cli_rules_listing(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint", "--rules"],
            cwd=REPO_ROOT,
            env=_cli_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        listed = [line.split(":")[0] for line in proc.stdout.splitlines()]
        heads = [entry.split(" ")[0] for entry in listed]
        assert heads == sorted(heads)
        assert any(entry.startswith("DET001 [src/repro]") for entry in listed)
