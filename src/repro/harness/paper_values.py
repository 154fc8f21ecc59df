"""Values the paper reports, used for paper-vs-measured comparison.

Each entry records the quantity, where it appears in the paper, and the
published value(s).  Every experiment report prints its entries under the
measured values, so ``repro run all`` shows both side by side.  Absolute
milliseconds are calibration anchors (our latency model is tuned toward
Table II); speedup *ratios* and qualitative orderings are the reproduction
targets.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PaperValue:
    experiment: str
    quantity: str
    value: str


PAPER_VALUES: dict[str, list[PaperValue]] = {
    "fig01": [
        PaperValue("fig01", "audio encoder size", "generally <1 B, often <100 M"),
        PaperValue("fig01", "LLM decoder size", "1.1 B (BESTOW) / 7 B (Speech-Llama) / >10 B (Seed-ASR)"),
        PaperValue("fig01", "latency split", "LLM decoder dominates end-to-end ASR latency"),
    ],
    "fig05a": [
        PaperValue("fig05a", "WER reduction large vs small", "20-33 %"),
        PaperValue("fig05a", "small-model WER", "as low as 10 % or less"),
    ],
    "fig05b": [
        PaperValue("fig05b", "draft acceptance, ASR vs text", "ASR drafts accepted significantly more often at every top-k"),
    ],
    "fig06a": [
        PaperValue("fig06a", "acceptance-ratio distribution", "large fully-accepted mass; remainder concentrated at low ratios"),
    ],
    "fig06b": [
        PaperValue("fig06b", "unaccepted suffix vs verification sequence", "high alignment (motivates recycling)"),
    ],
    "fig07": [
        PaperValue("fig07", "latency share vs prediction length", "draft share grows with prediction length; target share grows with target size"),
    ],
    "fig11": [
        PaperValue("fig11", "speedup over AR (Llama-7B)", "2.08-2.60x"),
        PaperValue("fig11", "speedup over AR (Vicuna-13B)", "3.04-3.79x"),
        PaperValue("fig11", "speedup over spec baselines", "1.25-1.84x (Vicuna-13B), 1.21-1.45x (Llama-7B)"),
        PaperValue("fig11", "noisy-set degradation", "~19 % lower speedup on -other splits"),
    ],
    "fig12": [
        PaperValue("fig12", "ineffective draft steps removed by ASP", "74.1 %"),
        PaperValue("fig12", "decoding-acceptance ratio (ASP)", "94.4 %"),
        PaperValue("fig12", "accepted length per round (TSP)", "+106.6 % vs baseline speculative"),
    ],
    "fig13a": [
        PaperValue("fig13a", "optimal truncation threshold", "0.4"),
        PaperValue("fig13a", "draft steps vs threshold", "decrease as threshold rises; target steps rise sharply past optimum"),
    ],
    "fig13b": [
        PaperValue("fig13b", "target token at draft rank 2", "over two-thirds of top-1 failures"),
    ],
    "tab01": [
        PaperValue("tab01", "SpecASR profile", "high draft efficiency, high verify efficiency, high draft length, high accept rate, high flexibility"),
    ],
    "tab02": [
        PaperValue("tab02", "baseline speculative (draft/target/total ms per 10 s)", "231.06 / 254.48 / 485.54"),
        PaperValue("tab02", "+ASP", "236.23 / 191.20 / 427.43"),
        PaperValue("tab02", "+recycling", "189.48 / 199.52 / 389.00"),
        PaperValue("tab02", "+TSP", "244.62 / 123.17 / 367.79"),
        PaperValue("tab02", "TSP target-verification reduction", ">50 % vs baseline speculative"),
    ],
}


def paper_notes(experiment: str) -> str:
    """One-line-per-quantity summary of the paper's reported values."""
    entries = PAPER_VALUES.get(experiment, [])
    return "\n".join(f"  paper: {e.quantity} = {e.value}" for e in entries)
