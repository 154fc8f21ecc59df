"""Small numeric helpers shared across the simulation."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into ``[low, high]``."""
    if low > high:
        raise ValueError(f"clamp bounds inverted: low={low} > high={high}")
    return max(low, min(high, value))


def softmax_array(scores: Sequence[float], temperature: float = 1.0) -> np.ndarray:
    """Softmax over ``scores`` as a float64 array summing to 1."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    arr = np.asarray(scores, dtype=np.float64) / temperature
    arr -= arr.max()
    exp = np.exp(arr)
    total = exp.sum()
    return exp / total


def softmax_block(scores: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Row-wise softmax over a 2-D score block.

    Bit-identical to calling :func:`softmax_array` on each row: the max
    subtraction is exact, exp is elementwise, and the normalising sum
    reduces along the contiguous last axis with the same pairwise tree as
    the 1-D per-row reduction.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    arr = np.asarray(scores, dtype=np.float64) / temperature
    arr -= arr.max(axis=-1, keepdims=True)
    exp = np.exp(arr)
    return exp / exp.sum(axis=-1, keepdims=True)


def softmax(scores: Sequence[float], temperature: float = 1.0) -> list[float]:
    """Softmax over ``scores`` with the given temperature.

    Returns a plain list of floats summing to 1.
    """
    return softmax_array(scores, temperature).tolist()

