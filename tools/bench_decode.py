#!/usr/bin/env python
"""Wall-clock decode benchmark: serial vs. parallel vs. vectorised scoring.

Times the standard method suite over a LibriSim split in three modes:

* ``serial_cursor``  — the trie-cursor fast path, serial corpus loop;
* ``parallel_cursor`` — the trie-cursor fast path through
  :class:`repro.harness.executor.CorpusExecutor` with ``--workers`` workers
  (the ``auto`` backend picks the fastest plan for the hardware: process
  pool on multi-core machines, plain serial on single-core boxes where
  pools are pure overhead);
* ``vectorized``     — the block-vectorised emission oracle: every (model,
  utterance) anchored distribution is materialised through one grouped
  array pass (``prewarm_models``, paid inside the measured wall), then the
  suite decodes over warm caches.  The first two modes pin
  ``oracle_block_size=1`` so the scalar per-position path stays the
  reference; transcripts and SimClock totals are asserted bit-identical
  across all three.

Each mode runs ``--reps`` times with fresh models and cleared module-level
caches (cold oracle state, like a fresh serving process); the best wall
time is kept.  Transcripts and SimClock totals are asserted identical
across modes before anything is written.

The ``seed_reference`` block records the wall time of the original
pre-refactor serial runner, measured at the seed commit on the same
machine/config; regeneration carries it forward from the existing JSON
(or accepts ``--seed-baseline-s``).

Usage::

    PYTHONPATH=src python tools/bench_decode.py                 # full bench
    PYTHONPATH=src python tools/bench_decode.py --smoke         # CI guard

``--smoke`` runs a reduced corpus and exits non-zero if utterances/sec
regressed more than ``--tolerance`` (default 20%) against the checked-in
``BENCH_decode.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.harness.executor import CorpusExecutor  # noqa: E402
from repro.harness.methods import STANDARD_METHODS, standard_methods  # noqa: E402
from repro.harness.runner import (  # noqa: E402
    ExperimentConfig,
    load_split,
    run_methods,
    shared_vocabulary,
)
from repro.models.acoustic import clear_acoustic_caches  # noqa: E402
from repro.models.registry import model_pair  # noqa: E402
from repro.models.simulated import prewarm_models  # noqa: E402


def _fresh_methods(pairing: str, block_size: int | None = 1):
    """Standard method suite plus its model pair.

    The cursor modes pin ``oracle_block_size=1`` — the scalar per-position
    oracle is the reference cost shape; the ``vectorized`` mode passes
    ``None`` to keep the models' block-vectorised default.
    """
    draft, target = model_pair(
        pairing, shared_vocabulary(), oracle_block_size=block_size
    )
    return standard_methods(draft, target), (draft, target)


def _measure(
    pairing,
    dataset,
    reps,
    executor=None,
    block_size: int | None = 1,
    prewarm=False,
):
    """Best wall time over ``reps`` cold runs; returns (wall_s, runs).

    ``prewarm`` materialises every (model, utterance) anchored distribution
    through the grouped array pass *inside* the measured wall — the
    vectorised mode pays its batching up front, so the comparison against
    the lazy scalar modes stays honest.
    """
    best = float("inf")
    runs = None
    for _ in range(reps):
        clear_acoustic_caches()
        methods, models = _fresh_methods(pairing, block_size)
        start = time.perf_counter()
        if prewarm:
            prewarm_models(models, dataset)
        result = run_methods(methods, dataset, executor=executor)
        wall = time.perf_counter() - start
        if wall < best:
            best = wall
        runs = result
    return best, runs


def _environment() -> dict:
    """Interpreter/library versions the wall numbers were measured under."""
    import platform

    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__}


def _mode_stats(wall_s, dataset, runs):
    decodes = len(dataset) * len(runs)
    emitted = sum(len(r.tokens) for run in runs.values() for r in run.results)
    return {
        "wall_s": round(wall_s, 4),
        "utterances_per_s": round(len(dataset) / wall_s, 2),
        "decodes_per_s": round(decodes / wall_s, 2),
        "ms_per_emitted_token": round(wall_s * 1000.0 / emitted, 4),
        "emitted_tokens": emitted,
    }


def _transcripts(runs):
    return {name: [r.tokens for r in run.results] for name, run in runs.items()}


def _clock_totals(runs):
    return {
        name: [round(r.total_ms, 6) for r in run.results] for name, run in runs.items()
    }


def run_bench(args) -> dict:
    config = ExperimentConfig(seed=args.seed, utterances=args.utterances)
    dataset = load_split(args.split, config)

    wall_cursor, runs_cursor = _measure(args.pairing, dataset, args.reps)
    executor = CorpusExecutor(workers=args.workers, backend=args.backend)
    wall_parallel, runs_parallel = _measure(
        args.pairing, dataset, args.reps, executor=executor
    )
    wall_vector, runs_vector = _measure(
        args.pairing, dataset, args.reps, block_size=None, prewarm=True
    )

    identical_transcripts = (
        _transcripts(runs_cursor)
        == _transcripts(runs_parallel)
        == _transcripts(runs_vector)
    )
    identical_clocks = (
        _clock_totals(runs_cursor)
        == _clock_totals(runs_parallel)
        == _clock_totals(runs_vector)
    )
    if not identical_transcripts or not identical_clocks:
        raise AssertionError(
            "bench modes diverged: transcripts identical="
            f"{identical_transcripts}, simclock identical={identical_clocks}"
        )

    ar_ms = sum(r.total_ms for r in runs_cursor["autoregressive"].results)
    sim_speedups = {
        name: round(ar_ms / sum(r.total_ms for r in run.results), 3)
        for name, run in runs_cursor.items()
    }

    report = {
        "config": {
            "split": args.split,
            "utterances": args.utterances,
            "seed": args.seed,
            "pairing": args.pairing,
            "methods": list(STANDARD_METHODS),
            "workers": args.workers,
            "backend": args.backend,
            "reps": args.reps,
        },
        "modes": {
            "serial_cursor": _mode_stats(wall_cursor, dataset, runs_cursor),
            "parallel_cursor": {
                **_mode_stats(wall_parallel, dataset, runs_parallel),
                "effective_backend": (
                    executor.last_stats.backend if executor.last_stats else "?"
                ),
            },
            "vectorized": _mode_stats(wall_vector, dataset, runs_vector),
        },
        "speedups": {
            "vectorized_vs_parallel_cursor": round(wall_parallel / wall_vector, 3),
        },
        "sim_speedup_vs_autoregressive": sim_speedups,
        "identical_transcripts": identical_transcripts,
        "identical_simclock_totals": identical_clocks,
        "environment": _environment(),
    }

    seed_wall = args.seed_baseline_s
    if seed_wall is None and args.output.exists():
        try:
            prior = json.loads(args.output.read_text())
            prior_config = prior.get("config", {})
            # Only carry the baseline forward onto the same corpus; a wall
            # time measured on a different split/size is not comparable.
            comparable = all(
                prior_config.get(key) == report["config"][key]
                for key in ("split", "utterances", "seed", "pairing")
            )
            if comparable:
                seed_wall = prior.get("seed_reference", {}).get("wall_s")
        except (json.JSONDecodeError, OSError):
            seed_wall = None
    if seed_wall is not None:
        report["seed_reference"] = {
            "wall_s": seed_wall,
            "note": (
                "wall time of the pre-refactor serial runner (tuple-keyed "
                "DecodeSession, commit c93222d) over the same corpus/config, "
                "measured on the machine that generated this file; carried "
                "forward on regeneration, or overridden with "
                "--seed-baseline-s"
            ),
        }
        report["speedups"]["parallel_vs_seed_serial"] = round(
            seed_wall / wall_parallel, 3
        )
        report["speedups"]["cursor_vs_seed_serial"] = round(seed_wall / wall_cursor, 3)
    return report


#: Smoke floor for the vectorised mode: it must beat the scalar cursor
#: reference by at least this factor (the full bench demonstrates >=1.5x on
#: the 32-utterance corpus; the smoke corpus is smaller, so the gate is
#: looser to absorb fixed costs and runner noise).
SMOKE_VECTOR_MIN_SPEEDUP = 1.2


def run_smoke(args) -> int:
    """Quick regression guard against the checked-in baseline."""
    config = ExperimentConfig(seed=args.seed, utterances=args.smoke_utterances)
    dataset = load_split(args.split, config)
    wall, runs = _measure(args.pairing, dataset, max(args.reps, 2))
    stats = _mode_stats(wall, dataset, runs)
    print(
        f"smoke: {stats['utterances_per_s']} utterances/s "
        f"({args.smoke_utterances} utterances, best of {max(args.reps, 2)})"
    )
    wall_vector, runs_vector = _measure(
        args.pairing, dataset, max(args.reps, 2), block_size=None, prewarm=True
    )
    vector_stats = _mode_stats(wall_vector, dataset, runs_vector)
    vector_speedup = round(wall / wall_vector, 3)
    print(
        f"smoke vectorized: {vector_stats['utterances_per_s']} utterances/s "
        f"({vector_speedup}x the scalar cursor mode)"
    )
    if args.smoke_output:
        payload = {
            "utterances": args.smoke_utterances,
            **stats,
            "vectorized": vector_stats,
            "vectorized_speedup": vector_speedup,
            "environment": _environment(),
        }
        args.smoke_output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.smoke_output}")
    if _transcripts(runs_vector) != _transcripts(runs) or _clock_totals(
        runs_vector
    ) != _clock_totals(runs):
        print(
            "FAIL: vectorized mode diverged from the scalar reference "
            "(transcripts or SimClock totals) — bit-identity contract "
            "violated",
            file=sys.stderr,
        )
        return 1
    if vector_speedup < SMOKE_VECTOR_MIN_SPEEDUP:
        print(
            f"FAIL: vectorized mode is only {vector_speedup}x the scalar "
            f"cursor mode (< {SMOKE_VECTOR_MIN_SPEEDUP}x)",
            file=sys.stderr,
        )
        return 1
    if not args.baseline.exists():
        print(f"no baseline at {args.baseline}; nothing to compare", file=sys.stderr)
        return 0
    baseline = json.loads(args.baseline.read_text())
    reference = baseline.get("smoke", {}).get("utterances_per_s")
    if not reference:
        print("baseline JSON has no smoke reference; skipping check")
        return 0
    floor = reference * (1.0 - args.tolerance)
    print(
        f"baseline {reference} utterances/s -> floor {floor:.2f} "
        f"(tolerance {args.tolerance:.0%})"
    )
    if stats["utterances_per_s"] < floor:
        print(
            f"FAIL: throughput regressed more than {args.tolerance:.0%} "
            f"({stats['utterances_per_s']} < {floor:.2f})",
            file=sys.stderr,
        )
        return 1
    print("OK: within tolerance")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--split", default="test-clean")
    parser.add_argument("--utterances", type=int, default=32)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--pairing", default="whisper")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--backend", default="auto", choices=("auto", "serial", "thread", "process")
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=3,
        help="cold repetitions per mode; best wall time kept",
    )
    parser.add_argument("--output", type=Path, default=REPO_ROOT / "BENCH_decode.json")
    parser.add_argument(
        "--seed-baseline-s",
        type=float,
        default=None,
        help="measured wall time of the seed serial runner",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced run; fail on >tolerance regression",
    )
    parser.add_argument("--smoke-utterances", type=int, default=8)
    parser.add_argument(
        "--smoke-output",
        type=Path,
        default=None,
        help="write the smoke measurement JSON here (CI " "artifact)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=REPO_ROOT / "BENCH_decode.json"
    )
    parser.add_argument("--tolerance", type=float, default=0.20)
    args = parser.parse_args(argv)

    if args.smoke:
        return run_smoke(args)

    report = run_bench(args)

    # Record the smoke reference alongside, so --smoke has a baseline.
    smoke_config = ExperimentConfig(seed=args.seed, utterances=args.smoke_utterances)
    smoke_dataset = load_split(args.split, smoke_config)
    smoke_wall, smoke_runs = _measure(args.pairing, smoke_dataset, max(args.reps, 2))
    report["smoke"] = {
        "utterances": args.smoke_utterances,
        **_mode_stats(smoke_wall, smoke_dataset, smoke_runs),
    }
    smoke_vector_wall, _ = _measure(
        args.pairing,
        smoke_dataset,
        max(args.reps, 2),
        block_size=None,
        prewarm=True,
    )
    report["smoke"]["vectorized_speedup"] = round(smoke_wall / smoke_vector_wall, 3)

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
