"""SpecASR core: the paper's contribution.

Adaptive single-sequence prediction (ASP), draft sequence recycling (DSR)
and two-pass sparse-tree prediction (TSP), composed by
:class:`~repro.core.engine.SpecASREngine`.
"""

from repro.core.adaptive import DraftSequence, UncertainPoint, draft_adaptive
from repro.core.adaptive_threshold import ThresholdController, ThresholdControllerConfig
from repro.core.config import SpecASRConfig
from repro.core.engine import SpecASREngine
from repro.core.recycling import RecycledSuffix, RecyclingDraft, draft_with_recycling
from repro.core.sparse_tree import SparseTreeDraft, build_sparse_tree_round

__all__ = [
    "DraftSequence",
    "RecycledSuffix",
    "RecyclingDraft",
    "SparseTreeDraft",
    "SpecASRConfig",
    "SpecASREngine",
    "ThresholdController",
    "ThresholdControllerConfig",
    "UncertainPoint",
    "build_sparse_tree_round",
    "draft_adaptive",
    "draft_with_recycling",
]
