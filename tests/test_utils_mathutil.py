"""Tests for repro.utils.mathutil."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.mathutil import clamp, softmax


class TestClamp:
    def test_inside(self):
        assert clamp(0.5, 0.0, 1.0) == 0.5

    def test_below_and_above(self):
        assert clamp(-1.0, 0.0, 1.0) == 0.0
        assert clamp(2.0, 0.0, 1.0) == 1.0

    def test_inverted_bounds_raise(self):
        with pytest.raises(ValueError):
            clamp(0.5, 1.0, 0.0)


class TestSoftmax:
    def test_sums_to_one(self):
        probs = softmax([1.0, 2.0, 3.0])
        assert sum(probs) == pytest.approx(1.0)

    def test_monotone_in_scores(self):
        probs = softmax([1.0, 2.0, 3.0])
        assert probs[0] < probs[1] < probs[2]

    def test_temperature_sharpens(self):
        cold = softmax([1.0, 2.0], temperature=0.1)
        warm = softmax([1.0, 2.0], temperature=2.0)
        assert cold[1] > warm[1]

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            softmax([1.0], temperature=0.0)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=10))
    def test_always_a_distribution(self, scores):
        probs = softmax(scores)
        assert all(0.0 <= p <= 1.0 for p in probs)
        assert math.isclose(sum(probs), 1.0, rel_tol=1e-9)
