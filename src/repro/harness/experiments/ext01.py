"""Extension experiments (beyond the paper's figures).

``ext01-adaptive``  — online threshold adaptation vs fixed thresholds.
``ext01-sampling``  — speculative sampling acceptance/latency profile.
``ext01-streaming`` — streaming latency profile of SpecASR on the serve scheduler.
"""

from __future__ import annotations

from repro.core.config import SpecASRConfig, full_specasr
from repro.core.engine import SpecASREngine
from repro.decoding.sampling import SamplingConfig, SpeculativeSamplingDecoder
from repro.harness.experiments.base import ExperimentReport
from repro.harness.runner import (
    ExperimentConfig,
    load_split,
    run_method,
    run_methods,
    shared_vocabulary,
)
from repro.models.registry import model_pair
from repro.serving import (
    Arrival,
    ContinuousBatchScheduler,
    SchedulerConfig,
    StreamSpec,
)


def run_adaptive(config: ExperimentConfig = ExperimentConfig()) -> ExperimentReport:
    """Fixed vs adaptive truncation thresholds, well- and mis-tuned starts."""
    report = ExperimentReport(
        exp_id="ext01-adaptive",
        title="Online threshold adaptation (extension)",
        headers=["variant", "ms/10s", "draft steps/utt", "rounds/utt"],
    )
    vocab = shared_vocabulary()
    dataset = load_split("test-clean", config)
    draft, target = model_pair("whisper", vocab)
    variants = {
        "fixed 0.4": SpecASRConfig(),
        "adaptive from 0.4": SpecASRConfig(adaptive_threshold=True),
        "fixed 0.65 (mistuned)": SpecASRConfig(threshold=0.65),
        "adaptive from 0.65": SpecASRConfig(threshold=0.65, adaptive_threshold=True),
    }
    engines = {
        label: SpecASREngine(draft, target, cfg, name=label)
        for label, cfg in variants.items()
    }
    runs = run_methods(engines, dataset, check_lossless=False)
    for label, run in runs.items():
        report.rows.append(
            [label, run.breakdown.ms_per_10s, run.mean_draft_steps, run.mean_rounds]
        )
        report.metrics[f"ms/{label}"] = run.breakdown.ms_per_10s
    return report


def run_sampling(config: ExperimentConfig = ExperimentConfig()) -> ExperimentReport:
    """Speculative sampling acceptance and latency across model pairs."""
    report = ExperimentReport(
        exp_id="ext01-sampling",
        title="Speculative sampling (extension)",
        headers=["pairing", "ms/10s", "acceptance ratio (%)", "rounds/utt"],
    )
    vocab = shared_vocabulary()
    dataset = load_split("test-clean", config)
    for pairing in ("whisper", "llama-7b", "vicuna-13b"):
        draft, target = model_pair(pairing, vocab)
        decoder = SpeculativeSamplingDecoder(
            draft, target, SamplingConfig(seed=config.seed, draft_len=8)
        )
        run = run_method(decoder, dataset)
        report.rows.append(
            [
                pairing,
                run.breakdown.ms_per_10s,
                100.0 * run.acceptance_ratio,
                run.mean_rounds,
            ]
        )
        report.metrics[f"acceptance/{pairing}"] = run.acceptance_ratio
    return report


def run_streaming(config: ExperimentConfig = ExperimentConfig()) -> ExperimentReport:
    """Streaming latency profile: first-token latency, tail latency, RTF.

    Each utterance streams alone at real time (1 s chunks, 0.3 s lookahead)
    through the serving scheduler on one device, one session at a time, so
    every latency is the simulated round-by-round timeline with no queueing.
    """
    report = ExperimentReport(
        exp_id="ext01-streaming",
        title="Streaming SpecASR latency profile (extension)",
        headers=[
            "pairing",
            "first-token (s)",
            "tail after EOS (ms)",
            "real-time factor",
        ],
    )
    vocab = shared_vocabulary()
    dataset = load_split("test-clean", config)
    for pairing in ("whisper", "vicuna-13b"):
        draft, target = model_pair(pairing, vocab)
        scheduler = ContinuousBatchScheduler(
            SpecASREngine(draft, target, full_specasr()),
            SchedulerConfig(max_batch=1, max_inflight=1),
            stream=StreamSpec(chunk_s=1.0, lookahead_s=0.3),
        )
        firsts: list[float] = []
        tail = rtf = 0.0
        for index, utterance in enumerate(dataset):
            (record,) = scheduler.run([Arrival(0, index, 0.0, rtf=1.0)], dataset)
            # Empty transcripts have no first token: excluded from the mean
            # rather than counted at their completion time.
            if record.tokens:
                firsts.append(record.word_ttft_ms / 1000.0)
            tail += record.final_latency_ms
            rtf += record.decode_ms / 1000.0 / utterance.duration_s
        n = len(dataset)
        mean_first = sum(firsts) / len(firsts) if firsts else 0.0
        report.rows.append([pairing, mean_first, tail / n, rtf / n])
        report.metrics[f"rtf/{pairing}"] = rtf / n
    return report
