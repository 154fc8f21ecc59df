"""Tests for repro.models.latency and the KV-cache tracker."""

import pytest

from repro.models.latency import (
    LatencyEvent,
    LatencyProfile,
    SimClock,
    forward_ms,
    prefill_ms,
    summarize_events,
)
from repro.serving import KVCacheTracker

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
        assert clock.total_for_model("a") == pytest.approx(5.0)
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

    def test_merge(self):
        a, b = SimClock(), SimClock()
        a.record("x", "draft", 1, 0, 1.0)
        b.record("y", "verify", 1, 0, 2.0)
        a.merge(b)
        assert a.total_ms() == pytest.approx(3.0)

    def test_summarize(self):
        events = [
            LatencyEvent("a", "draft", 1, 0, 1.0),
            LatencyEvent("a", "draft", 1, 0, 2.0),
        ]
        assert summarize_events(events) == {"a/draft": 3.0}


class TestKVCache:
    def test_append_and_peak(self):
        kv = KVCacheTracker()
        kv.append(10)
        kv.append(5)
        assert kv.length == 15
        assert kv.peak == 15

    def test_rollback(self):
        kv = KVCacheTracker()
        kv.append(10)
        kv.rollback_to(4)
        assert kv.length == 4
        assert kv.rolled_back_total == 6
        assert kv.rollback_events == 1

    def test_waste_ratio(self):
        kv = KVCacheTracker()
        kv.append(10)
        kv.rollback_to(5)
        assert kv.waste_ratio == pytest.approx(0.5)
