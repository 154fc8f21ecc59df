"""Shared utilities: seeded randomness, alignment, hashing, math helpers."""

from repro.utils.editdist import AlignmentOp, align, edit_distance, wer_counts
from repro.utils.hashing import stable_hash, stable_uniform
from repro.utils.mathutil import clamp, softmax
from repro.utils.rng import RngStream, derive_seed

__all__ = [
    "AlignmentOp",
    "RngStream",
    "align",
    "clamp",
    "derive_seed",
    "edit_distance",
    "softmax",
    "stable_hash",
    "stable_uniform",
    "wer_counts",
]
