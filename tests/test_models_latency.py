"""Tests for repro.models.latency."""

import pytest

from repro.models.latency import (
    LatencyProfile,
    SimClock,
    forward_ms,
    prefill_ms,
)

PROFILE = LatencyProfile(
    "m", base_ms=10.0, per_token_ms=0.5, kv_us_per_token=2.0, prefill_per_token_ms=0.1
)


class TestForwardCost:
    def test_single_token(self):
        assert forward_ms(PROFILE, 1, 0) == pytest.approx(10.5)

    def test_batched_cheaper_than_sequential(self):
        batched = forward_ms(PROFILE, 8, 0)
        sequential = sum(forward_ms(PROFILE, 1, i) for i in range(8))
        assert batched < sequential

    def test_kv_term_grows_with_cache(self):
        assert forward_ms(PROFILE, 1, 1000) > forward_ms(PROFILE, 1, 0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            forward_ms(PROFILE, 0, 0)
        with pytest.raises(ValueError):
            forward_ms(PROFILE, 1, -1)

    def test_prefill(self):
        assert prefill_ms(PROFILE, 100) == pytest.approx(10.0 + 10.0)
        with pytest.raises(ValueError):
            prefill_ms(PROFILE, -1)

    def test_negative_constants_rejected(self):
        with pytest.raises(ValueError):
            LatencyProfile("bad", -1.0, 0.1, 0.1, 0.1)


class TestSimClock:
    def test_totals_equal_sum_of_events(self):
        clock = SimClock()
        clock.record("a", "draft", 1, 0, 5.0)
        clock.record("b", "verify", 4, 10, 7.5)
        assert clock.total_ms() == pytest.approx(12.5)
        assert clock.total_for_kind("verify") == pytest.approx(7.5)

    def test_counts_and_tokens(self):
        clock = SimClock()
        clock.record("a", "draft", 2, 0, 1.0)
        clock.record("a", "draft", 3, 2, 1.0)
        assert clock.count_for_kind("draft") == 2
        assert clock.tokens_for_kind("draft") == 5

    def test_negative_duration_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.record("a", "draft", 1, 0, -1.0)
