"""Decoding algorithms: autoregressive and speculative baselines, token trees."""

from repro.decoding.autoregressive import AutoregressiveDecoder
from repro.decoding.base import (
    PHASE_DRAFT,
    PHASE_VERIFY,
    DecodeResult,
    DecodeStepper,
    DecodeTrace,
    Decoder,
    PhasedDecodeStepper,
    PhaseOutcome,
    RoundStats,
    begin_decode,
)
from repro.decoding.dynamic_tree import DynamicTreeConfig, DynamicTreeDecoder
from repro.decoding.sampling import (
    SamplingConfig,
    SamplingDecoder,
    SpeculativeSamplingDecoder,
)
from repro.decoding.speculative import SpeculativeConfig, SpeculativeDecoder
from repro.decoding.token_tree import TokenTree, TreeNode
from repro.decoding.tree_spec import FixedTreeConfig, FixedTreeDecoder
from repro.decoding.verifier import (
    SequenceVerifyOutcome,
    TreeVerifyOutcome,
    verify_sequence,
    verify_tree,
)

__all__ = [
    "AutoregressiveDecoder",
    "DecodeResult",
    "DecodeStepper",
    "DecodeTrace",
    "Decoder",
    "DynamicTreeConfig",
    "DynamicTreeDecoder",
    "FixedTreeConfig",
    "FixedTreeDecoder",
    "PHASE_DRAFT",
    "PHASE_VERIFY",
    "PhaseOutcome",
    "PhasedDecodeStepper",
    "RoundStats",
    "begin_decode",
    "SamplingConfig",
    "SamplingDecoder",
    "SequenceVerifyOutcome",
    "SpeculativeConfig",
    "SpeculativeDecoder",
    "SpeculativeSamplingDecoder",
    "TokenTree",
    "TreeNode",
    "TreeVerifyOutcome",
    "verify_sequence",
    "verify_tree",
]
