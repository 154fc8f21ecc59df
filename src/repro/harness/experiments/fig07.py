"""Fig. 7 — draft vs target share of decoding latency across configurations."""

from __future__ import annotations

from repro.decoding.speculative import SpeculativeConfig, SpeculativeDecoder
from repro.harness.experiments.base import ExperimentReport
from repro.harness.runner import (
    ExperimentConfig,
    load_split,
    run_methods,
    shared_vocabulary,
)
from repro.models.registry import PAIRINGS, model_pair


def run(config: ExperimentConfig = ExperimentConfig()) -> ExperimentReport:
    report = ExperimentReport(
        exp_id="fig07",
        title="Draft/target latency share vs prediction length (test-clean)",
        headers=["pairing", "prediction len", "draft share (%)", "target share (%)"],
    )
    vocab = shared_vocabulary()
    dataset = load_split("test-clean", config)
    gammas = (4, 8, 16, 24)
    for pairing in PAIRINGS:
        draft, target = model_pair(pairing, vocab)
        decoders = {
            f"gamma{gamma}": SpeculativeDecoder(
                draft, target, SpeculativeConfig(draft_len=gamma)
            )
            for gamma in gammas
        }
        runs = run_methods(decoders, dataset, check_lossless=False)
        for gamma in gammas:
            breakdown = runs[f"gamma{gamma}"].breakdown
            draft_share = 100.0 * breakdown.model_share(draft.name)
            target_share = 100.0 * breakdown.model_share(target.name)
            report.rows.append([pairing, gamma, draft_share, target_share])
            report.metrics[f"draft_share/{pairing}/gamma{gamma}"] = draft_share
    return report
