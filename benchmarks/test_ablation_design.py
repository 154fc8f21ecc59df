"""Ablation benches for SpecASR's internal design choices.

Beyond the paper's Table II ladder, these ablate the engine knobs of
``SpecASRConfig`` (``src/repro/core/``, see the README's "Layout" section):
recycling on/off, adjacent-position merging, the merge verification window,
branch count, and the online-threshold extension.  Each run prints a
table and asserts that the chosen defaults are no worse than the ablated
variants (within tolerance — some knobs are ties on small corpora).
"""

from dataclasses import replace

from conftest import BENCH_CONFIG, run_once

from repro.core.config import SpecASRConfig, full_specasr
from repro.core.engine import SpecASREngine
from repro.harness.figures import ascii_table
from repro.harness.runner import load_split, shared_vocabulary
from repro.models.registry import model_pair


def _evaluate(config: SpecASRConfig, pairing: str = "whisper"):
    vocab = shared_vocabulary()
    dataset = load_split("test-clean", BENCH_CONFIG)
    draft, target = model_pair(pairing, vocab)
    engine = SpecASREngine(draft, target, config)
    total_ms = steps = recycled = 0.0
    for utterance in dataset:
        result = engine.decode(utterance)
        total_ms += result.total_ms
        steps += result.trace.total_draft_steps
        recycled += result.trace.total_recycled
    n = len(dataset)
    return {"ms": total_ms / n, "steps": steps / n, "recycled": recycled / n}


def test_ablate_recycling(benchmark, capsys):
    def run():
        return {
            "recycling on": _evaluate(SpecASRConfig(recycling=True)),
            "recycling off": _evaluate(SpecASRConfig(recycling=False)),
        }

    rows = run_once(benchmark, run)
    with capsys.disabled():
        print()
        print(
            ascii_table(
                ["variant", "ms/utt", "draft steps/utt", "recycled/utt"],
                [[k, v["ms"], v["steps"], v["recycled"]] for k, v in rows.items()],
                title="[ablation] draft sequence recycling",
            )
        )
    on, off = rows["recycling on"], rows["recycling off"]
    assert on["ms"] < off["ms"]  # recycling pays
    assert on["steps"] < off["steps"]  # because it saves draft passes
    assert on["recycled"] > 0 and off["recycled"] == 0


def test_ablate_adjacent_merge(benchmark, capsys):
    def run():
        return {
            "adjacent on": _evaluate(full_specasr()),
            "adjacent off": _evaluate(replace(full_specasr(), adjacent_merge=False)),
        }

    rows = run_once(benchmark, run)
    with capsys.disabled():
        print()
        print(
            ascii_table(
                ["variant", "ms/utt", "draft steps/utt", "recycled/utt"],
                [[k, v["ms"], v["steps"], v["recycled"]] for k, v in rows.items()],
                title="[ablation] corresponding-vs-adjacent merge positions",
            )
        )
    on, off = rows["adjacent on"], rows["adjacent off"]
    # Substitution-dominated alignment: adjacent merging is a safety net, so
    # parity is acceptable — it must simply never hurt.
    assert on["ms"] <= off["ms"] * 1.02


def test_ablate_merge_window(benchmark, capsys):
    def run():
        return {
            f"window={w}": _evaluate(
                replace(full_specasr(), merge_verify_window=w), pairing="vicuna-13b"
            )
            for w in (0, 4, 8, 16)
        }

    rows = run_once(benchmark, run)
    with capsys.disabled():
        print()
        print(
            ascii_table(
                ["variant", "ms/utt", "draft steps/utt", "recycled/utt"],
                [[k, v["ms"], v["steps"], v["recycled"]] for k, v in rows.items()],
                title="[ablation] TSP merge verification window (vicuna-13b)",
            )
        )
    # Some window beats no window: branch catches must be able to extend.
    best_with_window = min(rows[f"window={w}"]["ms"] for w in (4, 8, 16))
    assert best_with_window <= rows["window=0"]["ms"] * 1.01
    # The default (16) is within 3 % of the best swept value.
    best = min(v["ms"] for v in rows.values())
    assert rows["window=16"]["ms"] <= best * 1.03


def test_ablate_branch_count(benchmark, capsys):
    def run():
        return {
            f"branches={b}": _evaluate(
                replace(full_specasr(), max_branches=b), pairing="vicuna-13b"
            )
            for b in (0, 1, 2, 4)
        }

    rows = run_once(benchmark, run)
    with capsys.disabled():
        print()
        print(
            ascii_table(
                ["variant", "ms/utt", "draft steps/utt", "recycled/utt"],
                [[k, v["ms"], v["steps"], v["recycled"]] for k, v in rows.items()],
                title="[ablation] TSP uncertainty branches (vicuna-13b)",
            )
        )
    # In this simulation branch catches roughly pay for their verification
    # nodes: branching must stay within 2 % of the pure trunk (the paper's
    # statistics, with a higher rank-2 hit rate, tip this net positive).
    with_branches = min(rows[f"branches={b}"]["ms"] for b in (1, 2, 4))
    assert with_branches <= rows["branches=0"]["ms"] * 1.02
    # Default (2) within 3 % of the swept best.
    best = min(v["ms"] for v in rows.values())
    assert rows["branches=2"]["ms"] <= best * 1.03


def test_ablate_adaptive_threshold(benchmark, capsys):
    def run():
        return {
            "fixed 0.4": _evaluate(SpecASRConfig()),
            "adaptive from 0.4": _evaluate(SpecASRConfig(adaptive_threshold=True)),
            "fixed 0.65 (mistuned)": _evaluate(SpecASRConfig(threshold=0.65)),
            "adaptive from 0.65": _evaluate(
                SpecASRConfig(threshold=0.65, adaptive_threshold=True)
            ),
        }

    rows = run_once(benchmark, run)
    with capsys.disabled():
        print()
        print(
            ascii_table(
                ["variant", "ms/utt", "draft steps/utt", "recycled/utt"],
                [[k, v["ms"], v["steps"], v["recycled"]] for k, v in rows.items()],
                title="[ablation] online threshold adaptation (extension)",
            )
        )
    # Adaptation from the tuned value must not hurt materially...
    assert rows["adaptive from 0.4"]["ms"] <= rows["fixed 0.4"]["ms"] * 1.10
    # ...and from a mistuned start it must recover toward the optimum.
    assert (rows["adaptive from 0.65"]["ms"] <= rows["fixed 0.65 (mistuned)"]["ms"])
