"""Bring your own models: SpecASR over a custom draft/target pair.

The registry presets mirror the paper's models, but the engine works with
any :class:`SimulatedASRModel` — or any model whose ``session()`` returns a
``DecodeSession`` over its own emission (see
``repro.models.simulated.Emission`` — wrapping a real HuggingFace model
means implementing the emission's ``step(node)`` against its logits).  This
example builds a custom pair from scratch: a fast distilled draft and a slow
high-quality target with user-chosen capacity and latency constants, then
compares ASP vs TSP to pick the right SpecASR mode for the pair's size
disparity.

Run:  python examples/custom_model_pair.py
"""

from repro.core.config import SpecASRConfig
from repro.core.engine import SpecASREngine
from repro.decoding.autoregressive import AutoregressiveDecoder
from repro.harness.figures import ascii_table
from repro.harness.runner import ExperimentConfig, load_split, shared_vocabulary
from repro.models.latency import LatencyProfile
from repro.models.simulated import SimulatedASRModel


def build_custom_pair(vocab):
    """A distilled 0.5 B draft and a 30 B-class target (huge disparity)."""
    draft = SimulatedASRModel(
        name="distil-asr-0.5b",
        capacity=0.82,
        latency=LatencyProfile(
            name="distil-asr-0.5b",
            base_ms=4.0,
            per_token_ms=0.10,
            kv_us_per_token=1.0,
            prefill_per_token_ms=0.03,
        ),
        vocab=vocab,
        encoder_latency_ms_per_10s=12.0,
    )
    target = SimulatedASRModel(
        name="asr-30b",
        capacity=0.96,
        latency=LatencyProfile(
            name="asr-30b",
            base_ms=95.0,
            per_token_ms=0.50,
            kv_us_per_token=4.0,
            prefill_per_token_ms=0.15,
        ),
        vocab=vocab,
        encoder_latency_ms_per_10s=40.0,
    )
    return draft, target


def main() -> None:
    vocab = shared_vocabulary()
    dataset = load_split("test-clean", ExperimentConfig(utterances=16))
    draft, target = build_custom_pair(vocab)

    decoders = {
        "autoregressive": AutoregressiveDecoder(target),
        "specasr-asp": SpecASREngine(
            draft, target, SpecASRConfig(recycling=True), name="specasr-asp"
        ),
        "specasr-tsp": SpecASREngine(
            draft,
            target,
            SpecASRConfig(recycling=True, sparse_tree=True),
            name="specasr-tsp",
        ),
    }

    rows = []
    reference = None
    ar_ms = None
    for name, decoder in decoders.items():
        total_ms = 0.0
        tokens = []
        for utterance in dataset:
            result = decoder.decode(utterance)
            total_ms += result.total_ms
            tokens.append(result.tokens)
        if reference is None:
            reference, ar_ms = tokens, total_ms
        assert tokens == reference, f"{name} is not lossless!"
        rows.append([name, total_ms / len(dataset), ar_ms / total_ms])

    print(
        ascii_table(
            ["method", "ms/utterance", "speedup vs AR"],
            rows,
            title="Custom pair: distil-asr-0.5b drafting for asr-30b",
        )
    )
    asp_ms = rows[1][1]
    tsp_ms = rows[2][1]
    recommended = "specasr-tsp" if tsp_ms < asp_ms else "specasr-asp"
    print(
        f"\nrecommended mode for this pair: {recommended}\n"
        "(rule of thumb from the paper: the larger the draft/target size\n"
        " disparity, the more two-pass sparse-tree prediction pays off)"
    )


if __name__ == "__main__":
    main()
