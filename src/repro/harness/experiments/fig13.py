"""Fig. 13 — truncation-threshold sweep (a) and failure rank distribution (b)."""

from __future__ import annotations

from dataclasses import replace

from repro.core.config import SpecASRConfig
from repro.core.engine import SpecASREngine
from repro.harness.experiments.base import ExperimentReport
from repro.harness.runner import (
    ExperimentConfig,
    load_split,
    run_methods,
    shared_vocabulary,
)
from repro.metrics.acceptance import rank_distribution_on_failure
from repro.models.registry import model_pair

THRESHOLDS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)


def run_threshold(
    config: ExperimentConfig = ExperimentConfig(),
) -> ExperimentReport:
    """Fig. 13a: draft/target step counts across truncation thresholds."""
    report = ExperimentReport(
        exp_id="fig13a",
        title="ASP step counts vs truncation threshold (test-clean, whisper pair)",
        headers=["threshold", "draft steps/utt", "verify rounds/utt", "total ms/10s"],
    )
    vocab = shared_vocabulary()
    dataset = load_split("test-clean", config)
    draft, target = model_pair("whisper", vocab)
    base = SpecASRConfig(recycling=False)
    best_threshold, best_ms = None, float("inf")
    engines = {
        f"asp@{threshold}": SpecASREngine(
            draft, target, replace(base, threshold=threshold), name="asp"
        )
        for threshold in THRESHOLDS
    }
    runs = run_methods(engines, dataset, check_lossless=False)
    for threshold in THRESHOLDS:
        run_result = runs[f"asp@{threshold}"]
        ms = run_result.breakdown.ms_per_10s
        report.rows.append(
            [threshold, run_result.mean_draft_steps, run_result.mean_rounds, ms]
        )
        report.metrics[f"ms/threshold{threshold}"] = ms
        if ms < best_ms:
            best_threshold, best_ms = threshold, ms
    report.metrics["best_threshold"] = best_threshold or 0.0
    report.extra_sections.append(
        f"fastest threshold: {best_threshold} (paper optimum: 0.4)"
    )
    return report


def run_rank(config: ExperimentConfig = ExperimentConfig()) -> ExperimentReport:
    """Fig. 13b: rank of the target token in the draft logits on failure."""
    report = ExperimentReport(
        exp_id="fig13b",
        title="Rank of target token in draft top-k when top-1 fails",
        headers=["rank", "share (%)"],
    )
    vocab = shared_vocabulary()
    units = list(load_split("test-clean", config)) + list(
        load_split("test-other", config)
    )
    draft, target = model_pair("whisper", vocab)
    distribution = rank_distribution_on_failure(draft, target, units, max_rank=5)
    for rank, share in distribution.items():
        report.rows.append([rank, 100.0 * share])
        report.metrics[f"rank_share/{rank}"] = share
    return report
