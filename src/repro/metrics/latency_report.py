"""Latency aggregation over decode results.

Produces the per-model / per-kind millisecond breakdowns the paper reports,
normalised per 10 seconds of audio (Table II) or as corpus totals (Fig. 7,
Fig. 11), plus the percentile summaries the serving layer's SLO reports are
built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.data.corpus import Utterance
from repro.decoding.base import DecodeResult


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` (linear interpolation).

    Deterministic pure-Python implementation (no numpy dtype dependence) so
    SLO reports are bit-stable across platforms.  ``q`` is in ``[0, 100]``.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return float(ordered[low] * (1.0 - frac) + ordered[high] * frac)


@dataclass(frozen=True)
class PercentileSummary:
    """p50/p95/p99 + mean of one latency population (milliseconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    maximum: float

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "PercentileSummary | None":
        """Summarise ``values``; None when the population is empty."""
        data = [float(v) for v in values]
        if not data:
            return None
        return cls(
            count=len(data),
            mean=sum(data) / len(data),
            p50=percentile(data, 50.0),
            p95=percentile(data, 95.0),
            p99=percentile(data, 99.0),
            maximum=max(data),
        )

    def to_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean": round(self.mean, 3),
            "p50": round(self.p50, 3),
            "p95": round(self.p95, 3),
            "p99": round(self.p99, 3),
            "max": round(self.maximum, 3),
        }


@dataclass
class LatencyBreakdown:
    """Aggregated latency for one decoding method over a corpus."""

    method: str
    total_ms: float = 0.0
    total_duration_s: float = 0.0
    by_model_ms: dict[str, float] = field(default_factory=dict)
    by_kind_ms: dict[str, float] = field(default_factory=dict)
    num_units: int = 0

    @property
    def ms_per_10s(self) -> float:
        if self.total_duration_s <= 0:
            return 0.0
        return self.total_ms * 10.0 / self.total_duration_s

    def model_share(self, model: str) -> float:
        if self.total_ms <= 0:
            return 0.0
        return self.by_model_ms.get(model, 0.0) / self.total_ms


def aggregate_latency(
    method: str,
    results: Sequence[DecodeResult],
    units: Sequence[Utterance],
    default_duration_s: float | None = None,
) -> LatencyBreakdown:
    """Aggregate recorded latency events across a corpus run.

    Every unit must carry ``duration_s`` (the audio length the RTF/per-10s
    normalisations divide by).  A unit without one raises unless the caller
    threads an explicit ``default_duration_s`` — silently inventing audio
    length would corrupt every normalised latency downstream.
    """
    if len(results) != len(units):
        raise ValueError(f"{len(results)} results vs {len(units)} units")
    breakdown = LatencyBreakdown(method=method)
    by_model = breakdown.by_model_ms
    by_kind = breakdown.by_kind_ms
    total_ms = 0.0
    for result, unit in zip(results, units, strict=True):
        duration = getattr(unit, "duration_s", default_duration_s)
        if duration is None:
            raise ValueError(
                f"unit {getattr(unit, 'utterance_id', breakdown.num_units)!r} "
                "has no duration_s and no default_duration_s was given; "
                "latency normalisation needs a real audio length"
            )
        breakdown.num_units += 1
        breakdown.total_duration_s += duration
        for event in result.clock.events:
            ms = event.ms
            total_ms += ms
            model = event.model
            by_model[model] = by_model.get(model, 0.0) + ms
            kind = event.kind
            by_kind[kind] = by_kind.get(kind, 0.0) + ms
    breakdown.total_ms = total_ms
    return breakdown
