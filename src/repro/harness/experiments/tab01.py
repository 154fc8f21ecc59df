"""Table I — qualitative comparison of speculative families, annotated with
measured quantities from this reproduction."""

from __future__ import annotations

from repro.harness.experiments.base import ExperimentReport
from repro.harness.methods import build_method, table1_families
from repro.harness.runner import (
    ExperimentConfig,
    load_split,
    run_methods,
    shared_vocabulary,
)
from repro.models.registry import model_pair

#: Representative implemented method per qualitative family.
FAMILY_METHODS = {
    "Single Sequence": "spec(16,1)",
    "Fixed Tree": "fixed-tree",
    "Dynamic Tree": "dynamic-tree",
    "Ours (SpecASR)": "specasr-tsp",
}


def run(config: ExperimentConfig = ExperimentConfig()) -> ExperimentReport:
    report = ExperimentReport(
        exp_id="tab01",
        title="Speculative-decoding families (qualitative + measured)",
        headers=[
            "family",
            "draft eff.",
            "verify eff.",
            "draft len",
            "accept rate",
            "flexibility",
            "measured: waste (drafted/accepted)",
            "measured: acc tok/round",
        ],
    )
    vocab = shared_vocabulary()
    dataset = load_split("test-clean", config)
    draft, target = model_pair("whisper", vocab)
    methods = {
        family: build_method(method_name, draft, target)
        for family, method_name in FAMILY_METHODS.items()
    }
    runs = run_methods(methods, dataset, check_lossless=True)
    for family_info in table1_families():
        run_result = runs[family_info.family]
        drafted = sum(r.trace.total_drafted for r in run_result.results)
        accepted = sum(r.trace.total_accepted for r in run_result.results)
        waste = drafted / accepted if accepted else float("inf")
        report.rows.append(
            [
                family_info.family,
                family_info.draft_efficiency,
                family_info.verify_efficiency,
                family_info.draft_length,
                family_info.accept_rate,
                family_info.flexibility,
                waste,
                run_result.accepted_per_round,
            ]
        )
        report.metrics[f"waste/{family_info.family}"] = waste
        report.metrics[f"accepted_per_round/{family_info.family}"] = (
            run_result.accepted_per_round
        )
    return report
