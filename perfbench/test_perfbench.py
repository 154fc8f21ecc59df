"""Self-tests for the benchmark's own helpers.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    MAX_END_TO_END,
    MAX_PER_LAYER,
    NAME_PATTERN,
    check_spec,
    load_spec,
    max_sustained_rate,
    nonmonotone_rates,
)
from tracer import Tracer, layer_totals, unattributed_s  # noqa: E402


class FakeClock:
    """Advances only when told to, so span arithmetic is exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


class Leaf:
    def __init__(self, clock: FakeClock) -> None:
        self.clock = clock

    def work(self) -> None:
        self.clock.tick(2.0)


class Middle:
    def __init__(self, clock: FakeClock, leaf: Leaf) -> None:
        self.clock = clock
        self.leaf = leaf

    def work(self) -> None:
        self.clock.tick(1.0)
        self.leaf.work()
        self.leaf.work()
        self.clock.tick(0.5)


def test_self_times_and_unattributed_sum_to_wall():
    clock = FakeClock()
    leaf = Leaf(clock)
    middle = Middle(clock, leaf)
    with Tracer(clock) as tracer:
        tracer.install([("low", Leaf, "work"), ("high", Middle, "work")])
        start = clock()
        clock.tick(0.25)  # outside any span
        middle.work()
        leaf.work()
        wall = clock() - start
        snapshot = tracer.snapshot()
    layers = layer_totals(snapshot)
    assert layers["high"] == {"calls": 1, "self_s": 1.5}
    assert layers["low"] == {"calls": 3, "self_s": 6.0}
    assert snapshot["Middle.work"]["total_s"] == 5.5
    assert unattributed_s(snapshot, wall) == 0.25
    assert sum(layer["self_s"] for layer in layers.values()) + 0.25 == wall


def test_uninstall_restores_methods_and_functions():
    import common

    original_method = Leaf.__dict__["work"]
    original_function = common.max_sustained_rate
    with Tracer() as tracer:
        tracer.install([("x", Leaf, "work"), ("y", common, "max_sustained_rate")])
        assert Leaf.__dict__["work"] is not original_method
        assert common.max_sustained_rate is not original_function
        # The name this module imported is traced as well.
        assert globals()["max_sustained_rate"] is not original_function
    assert Leaf.__dict__["work"] is original_method
    assert common.max_sustained_rate is original_function
    assert globals()["max_sustained_rate"] is original_function


def test_spans_close_when_the_call_raises():
    clock = FakeClock()

    class Boom:
        def run(self) -> None:
            clock.tick(1.0)
            raise RuntimeError("boom")

    with Tracer(clock) as tracer:
        tracer.install([("x", Boom, "run")])
        with pytest.raises(RuntimeError):
            Boom().run()
        assert tracer.snapshot()["Boom.run"]["self_s"] == 1.0
        assert tracer._stack == []


@pytest.mark.parametrize(
    ("points", "expected"),
    [
        ([(1, 1.0), (2, 0.99), (4, 0.96), (8, 0.5)], 4),
        ([(1, 0.9), (2, 1.0)], 0.0),  # the lowest rate misses: nothing holds
        ([(4, 1.0), (1, 1.0), (2, 0.94), (8, 1.0)], 1),  # a later pass is ignored
        ([(1, 1.0), (2, 0.95)], 2),  # the target itself passes
    ],
)
def test_max_sustained_rate_ladder_rule(points, expected):
    assert max_sustained_rate(points, 0.95) == expected


def test_nonmonotone_rates_flags_rises_only():
    points = [(1, 1.0), (2, 0.9), (3, 0.95), (4, 0.95), (5, 0.2)]
    assert nonmonotone_rates(points) == [3]
    assert nonmonotone_rates([(2, 0.5), (1, 0.9)]) == []


def test_benchmark_json_is_within_its_format_limits():
    spec = load_spec()
    assert check_spec(spec) == []
    assert len(spec["end_to_end"]) <= MAX_END_TO_END
    assert len(spec["per_layer"]) <= MAX_PER_LAYER
    for entry in [*spec["end_to_end"], *spec["per_layer"]]:
        assert NAME_PATTERN.fullmatch(entry["name"]), entry["name"]


def test_check_spec_catches_bad_names_and_counts():
    spec = load_spec()
    broken = dict(spec, per_layer=[*spec["per_layer"], {"name": "bad name!"}])
    assert any("bad name" in p for p in check_spec(broken))
    too_many = dict(
        spec,
        end_to_end=[
            {"name": f"m{i}", "unit": "s", "better": "lower", "bound": 0.1}
            for i in range(MAX_END_TO_END + 1)
        ],
    )
    problems = check_spec(too_many)
    assert any("end-to-end metrics" in p for p in problems)
    assert any("setup_s" in p for p in problems)
    duplicate = dict(spec, per_layer=[*spec["per_layer"], spec["per_layer"][0]])
    assert any("duplicate" in p for p in check_spec(duplicate))
