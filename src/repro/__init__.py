"""SpecASR reproduction: speculative decoding specialised for LLM-based ASR.

Reproduces "SpecASR: Accelerating LLM-based Automatic Speech Recognition via
Speculative Decoding" (DAC 2025) on a fully offline, deterministic simulated
substrate.  See the README's "Layout" section for the system inventory;
``python -m repro run all`` prints paper-vs-measured results.

Quickstart::

    from repro import (
        SpecASRConfig, SpecASREngine, AutoregressiveDecoder,
        build_default_vocabulary, build_split, model_pair,
    )

    vocab = build_default_vocabulary()
    dataset = build_split("test-clean", vocab, utterances=8)
    draft, target = model_pair("whisper", vocab)
    engine = SpecASREngine(draft, target, SpecASRConfig())
    result = engine.decode(dataset[0])
    print(vocab.decode_ids(result.tokens), result.total_ms)
"""

from repro.core.config import SpecASRConfig, asp_only, asp_with_recycling, full_specasr
from repro.core.engine import SpecASREngine
from repro.data.corpus import Dataset, Utterance
from repro.data.librisim import LibriSimBuilder, LibriSimConfig, build_split
from repro.data.text_tasks import TextTaskConfig, build_text_corpus
from repro.decoding.autoregressive import AutoregressiveDecoder
from repro.decoding.speculative import SpeculativeConfig, SpeculativeDecoder
from repro.decoding.tree_spec import FixedTreeConfig, FixedTreeDecoder
from repro.models.registry import get_model, list_models, model_pair
from repro.models.vocab import Vocabulary, build_default_vocabulary
from repro.version import __version__

__all__ = [
    "AutoregressiveDecoder",
    "Dataset",
    "FixedTreeConfig",
    "FixedTreeDecoder",
    "LibriSimBuilder",
    "LibriSimConfig",
    "SpecASRConfig",
    "SpecASREngine",
    "SpeculativeConfig",
    "SpeculativeDecoder",
    "TextTaskConfig",
    "Utterance",
    "Vocabulary",
    "__version__",
    "asp_only",
    "asp_with_recycling",
    "build_default_vocabulary",
    "build_split",
    "build_text_corpus",
    "full_specasr",
    "get_model",
    "list_models",
    "model_pair",
]
