"""Fig. 12 — rounds and per-round token statistics of speculative methods."""

from __future__ import annotations

from repro.harness.experiments.base import ExperimentReport
from repro.harness.methods import standard_methods
from repro.harness.runner import (
    ExperimentConfig,
    load_split,
    run_methods,
    shared_vocabulary,
)
from repro.models.registry import model_pair


def run(config: ExperimentConfig = ExperimentConfig()) -> ExperimentReport:
    report = ExperimentReport(
        exp_id="fig12",
        title="Rounds and per-round statistics on test-clean (whisper pair)",
        headers=[
            "method",
            "rounds/utt",
            "draft steps/utt",
            "predicted tok/round",
            "accepted tok/round",
            "acceptance ratio (%)",
            "recycled tok/utt",
        ],
    )
    vocab = shared_vocabulary()
    dataset = load_split("test-clean", config)
    draft, target = model_pair("whisper", vocab)
    methods = standard_methods(draft, target)
    methods.pop("autoregressive")  # no speculation rounds to report
    runs = run_methods(methods, dataset, check_lossless=True)

    baseline = runs["spec(8,1)"]
    base_ineffective = (
        baseline.mean_draft_steps - baseline.accepted_per_round * baseline.mean_rounds
    )
    for name, run_result in runs.items():
        report.rows.append(
            [
                name,
                run_result.mean_rounds,
                run_result.mean_draft_steps,
                run_result.submitted_per_round,
                run_result.accepted_per_round,
                100.0 * run_result.acceptance_ratio,
                run_result.recycled_per_utterance,
            ]
        )
        report.metrics[f"rounds/{name}"] = run_result.mean_rounds
        report.metrics[f"accepted_per_round/{name}"] = run_result.accepted_per_round
        report.metrics[f"acceptance_ratio/{name}"] = run_result.acceptance_ratio

    # Headline derived quantities the paper quotes.
    asp = runs["specasr-asp"]
    asp_ineffective = asp.mean_draft_steps - asp.accepted_per_round * asp.mean_rounds
    if base_ineffective > 0:
        reduction = 100.0 * (1.0 - asp_ineffective / base_ineffective)
        report.metrics["ineffective_step_reduction_pct"] = reduction
        report.extra_sections.append(
            f"ineffective draft-step reduction (ASP vs spec(8,1)): {reduction:.1f} % "
            "(paper: 74.1 %)"
        )
    tsp = runs["specasr-tsp"]
    gain = 100.0 * (tsp.accepted_per_round / baseline.accepted_per_round - 1.0)
    report.metrics["accepted_length_gain_pct"] = gain
    report.extra_sections.append(
        f"accepted tokens/round gain (TSP vs spec(8,1)): +{gain:.1f} % "
        "(paper: +106.6 %)"
    )
    return report
