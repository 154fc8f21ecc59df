"""Evaluation metrics: WER, acceptance analyses, latency reports."""

from repro.metrics.acceptance import (
    accept_at_topk,
    acceptance_histogram,
    rank_distribution_on_failure,
    suffix_alignment_curve,
)
from repro.metrics.latency_report import (
    LatencyBreakdown,
    PercentileSummary,
    aggregate_latency,
    percentile,
)
from repro.metrics.wer import corpus_wer, wer

__all__ = [
    "LatencyBreakdown",
    "PercentileSummary",
    "accept_at_topk",
    "acceptance_histogram",
    "aggregate_latency",
    "corpus_wer",
    "percentile",
    "rank_distribution_on_failure",
    "suffix_alignment_curve",
    "wer",
]
