"""Fig. 11 — speedup of every method over AR and speculative baselines,
on all four LibriSim splits, for the Llama-7B and Vicuna-13B targets."""

from __future__ import annotations

from repro.data.librisim import SPLITS
from repro.harness.experiments.base import ExperimentReport
from repro.harness.methods import standard_methods
from repro.harness.runner import (
    ExperimentConfig,
    load_split,
    run_methods,
    shared_vocabulary,
)
from repro.models.registry import model_pair


def run(
    config: ExperimentConfig = ExperimentConfig(),
    pairings: tuple[str, ...] = ("llama-7b", "vicuna-13b"),
    splits: tuple[str, ...] = SPLITS,
) -> ExperimentReport:
    report = ExperimentReport(
        exp_id="fig11",
        title="Speedup over autoregressive and speculative baselines",
        headers=[
            "pairing", "split", "method", "ms/10s", "x over AR", "x over best spec"
        ],
    )
    vocab = shared_vocabulary()
    for pairing in pairings:
        draft, target = model_pair(pairing, vocab)
        for split in splits:
            dataset = load_split(split, config)
            runs = run_methods(standard_methods(draft, target), dataset)
            ar_ms = runs["autoregressive"].breakdown.total_ms
            spec_names = [n for n in runs if n.startswith("spec(")]
            best_spec_ms = min(runs[n].breakdown.total_ms for n in spec_names)
            for name, run_result in runs.items():
                ms = run_result.breakdown.total_ms
                report.rows.append(
                    [
                        pairing,
                        split,
                        name,
                        run_result.breakdown.ms_per_10s,
                        ar_ms / ms,
                        best_spec_ms / ms,
                    ]
                )
                if name.startswith("specasr"):
                    report.metrics[f"xar/{pairing}/{split}/{name}"] = ar_ms / ms
                    report.metrics[f"xspec/{pairing}/{split}/{name}"] = (
                        best_spec_ms / ms
                    )
    return report
