"""Table II — ablation: baseline speculative → +ASP → +recycling → +TSP.

Reports draft/target/total *decoding* milliseconds per 10 s of audio on the
LibriSim test-clean split with the Whisper tiny+medium simulated pair — the
same protocol as the paper's Table II.  Decoding latency excludes the audio
encoder and prefill (constant across methods); a separate column shows the
end-to-end total for completeness.
"""

from __future__ import annotations

from repro.core.config import SpecASRConfig
from repro.core.engine import SpecASREngine
from repro.decoding.speculative import SpeculativeConfig, SpeculativeDecoder
from repro.harness.experiments.base import ExperimentReport
from repro.harness.runner import (
    ExperimentConfig,
    load_split,
    run_methods,
    shared_vocabulary,
)
from repro.models.registry import model_pair

#: Paper Table II values: (draft ms, target ms, total ms) per 10 s audio.
PAPER_TABLE2 = {
    "baseline speculative": (231.06, 254.48, 485.54),
    "+adaptive single-sequence prediction": (236.23, 191.20, 427.43),
    "+draft sequence recycling": (189.48, 199.52, 389.00),
    "+two-pass sparse-tree prediction": (244.62, 123.17, 367.79),
}


def ablation_ladder(draft, target) -> dict[str, object]:
    """The four ablation configurations of Table II."""
    return {
        "baseline speculative": SpeculativeDecoder(
            draft, target, SpeculativeConfig(draft_len=8, beams=1)
        ),
        "+adaptive single-sequence prediction": SpecASREngine(
            draft, target, SpecASRConfig(recycling=False), name="asp"
        ),
        "+draft sequence recycling": SpecASREngine(
            draft, target, SpecASRConfig(recycling=True), name="asp+rec"
        ),
        "+two-pass sparse-tree prediction": SpecASREngine(
            draft, target, SpecASRConfig(recycling=True, sparse_tree=True), name="tsp"
        ),
    }


def run(config: ExperimentConfig = ExperimentConfig()) -> ExperimentReport:
    report = ExperimentReport(
        exp_id="tab02",
        title="Ablation: decoding ms per 10 s audio (test-clean, whisper pair)",
        headers=[
            "method",
            "draft (ms)",
            "target (ms)",
            "total (ms)",
            "paper draft",
            "paper target",
            "paper total",
        ],
    )
    vocab = shared_vocabulary()
    dataset = load_split("test-clean", config)
    draft, target = model_pair("whisper", vocab)
    runs = run_methods(ablation_ladder(draft, target), dataset, check_lossless=True)
    duration = dataset.total_duration_s
    for name, run_result in runs.items():
        draft_ms = target_ms = 0.0
        for result in run_result.results:
            # Decoding only: draft speculation steps + target verification.
            draft_ms += sum(
                e.ms
                for e in result.clock.events
                if e.model == draft.name and e.kind == "draft"
            )
            target_ms += sum(
                e.ms
                for e in result.clock.events
                if e.model == target.name and e.kind in ("verify", "decode")
            )
        scale = 10.0 / duration
        paper = PAPER_TABLE2[name]
        report.rows.append(
            [
                name,
                draft_ms * scale,
                target_ms * scale,
                (draft_ms + target_ms) * scale,
                paper[0],
                paper[1],
                paper[2],
            ]
        )
        report.metrics[f"draft_ms/{name}"] = draft_ms * scale
        report.metrics[f"target_ms/{name}"] = target_ms * scale
        report.metrics[f"total_ms/{name}"] = (draft_ms + target_ms) * scale
    return report
