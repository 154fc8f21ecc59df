"""Arrival traces: when requests hit the server and which utterance each is.

A trace is a list of :class:`Arrival` entries sorted by arrival time (ties
broken by index).  Traces are either synthesised — Poisson (memoryless open
loop, the standard serving-workload model) or uniform (a paced load
generator) — or loaded from JSON, so recorded production traces can be
replayed deterministically.

All synthesis is seeded through :mod:`repro.utils.rng`: the same
``(seed, qps, num_requests)`` always yields the bit-identical trace, which
is what makes serve simulations reproducible end to end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.data.corpus import Utterance
from repro.serving.request import (
    PRIORITY_BATCH,
    PRIORITY_INTERACTIVE,
    priority_rank,
)
from repro.utils.rng import RngStream


@dataclass(frozen=True)
class Arrival:
    """One request arrival: who arrives when, and which utterance it wants.

    ``priority`` tags the request's SLO class (``interactive`` by default;
    ``batch`` for throughput-oriented offline transcription jobs).

    ``rtf`` is the request's audio real-time factor.  ``0.0`` (the default)
    means the whole utterance is available at ``arrival_ms`` — the offline
    workload every earlier trace encodes.  A positive value streams the
    audio in: ``rtf=1.0`` delivers it at real time (one second of audio per
    second of simulated time), ``rtf=2.0`` at double speed, and the arrival
    expands into timed chunk events (:func:`chunk_schedule`).
    """

    index: int
    utterance_index: int
    arrival_ms: float
    priority: str = PRIORITY_INTERACTIVE
    rtf: float = 0.0

    def __post_init__(self) -> None:
        # NaN fails every comparison: each check is written to reject it.
        if not self.arrival_ms >= 0:
            raise ValueError(
                f"arrival {self.index}: arrival_ms must be >= 0, got "
                f"{self.arrival_ms}"
            )
        if self.utterance_index < 0:
            raise ValueError(f"arrival {self.index}: negative utterance index")
        if not self.rtf >= 0:
            raise ValueError(f"arrival {self.index}: rtf must be >= 0, got {self.rtf}")
        priority_rank(self.priority)  # validates the class name


def _assign_utterances(rng: RngStream, count: int, dataset_size: int) -> list[int]:
    """Uniform utterance draws, one per arrival.

    One ``integers(size=count)`` call consumes the stream exactly like
    ``count`` scalar draws, so the result equals the per-arrival loop.
    """
    if dataset_size < 1:
        raise ValueError("dataset must hold at least one utterance")
    return rng.numpy.integers(0, dataset_size, size=count).tolist()


def _assign_priorities(seed: int, count: int, batch_fraction: float) -> list[str]:
    """Seeded per-arrival class draw (``batch`` with prob ``batch_fraction``).

    Drawn from its own stream scope, so enabling a class mix never perturbs
    the gap/utterance draws of existing traces (and ``batch_fraction=0``
    reproduces the legacy all-interactive trace bit-identically).
    """
    if not 0.0 <= batch_fraction <= 1.0:
        raise ValueError(f"batch_fraction must be in [0, 1], got {batch_fraction}")
    if batch_fraction == 0.0:
        return [PRIORITY_INTERACTIVE] * count
    classes = RngStream(seed, "serve-arrivals", "classes")
    return [
        PRIORITY_BATCH if classes.uniform() < batch_fraction else PRIORITY_INTERACTIVE
        for _ in range(count)
    ]


def poisson_trace(
    num_requests: int,
    qps: float,
    dataset_size: int,
    seed: int = 0,
    batch_fraction: float = 0.0,
    rtf: float = 0.0,
) -> list[Arrival]:
    """Open-loop Poisson arrivals at ``qps`` requests/second.

    Inter-arrival gaps are exponential with mean ``1000 / qps`` ms; utterances
    are drawn uniformly from the corpus.  Deterministic in ``seed``.
    ``rtf > 0`` tags every arrival as a streamed audio source at that
    real-time factor (chunk timing is derived later, per utterance).
    All gaps come from one ``exponential(size=n)`` call and add up in one
    ``cumsum``: the same draws, summed left to right in the same order, as
    a per-gap loop.
    """
    if num_requests < 1:
        raise ValueError("need at least one request")
    if not qps > 0:
        raise ValueError(f"qps must be positive, got {qps}")
    gaps = RngStream(seed, "serve-arrivals", "gaps")
    times = np.cumsum(gaps.numpy.exponential(1000.0 / qps, size=num_requests))
    utterances = _assign_utterances(
        RngStream(seed, "serve-arrivals", "utterances"), num_requests, dataset_size
    )
    priorities = _assign_priorities(seed, num_requests, batch_fraction)
    return [
        Arrival(index, utterance, at_ms, priority, rtf)
        for index, (utterance, at_ms, priority) in enumerate(
            zip(utterances, times.tolist(), priorities, strict=True)
        )
    ]


def uniform_trace(
    num_requests: int,
    qps: float,
    dataset_size: int,
    seed: int = 0,
    batch_fraction: float = 0.0,
    rtf: float = 0.0,
) -> list[Arrival]:
    """Evenly paced arrivals at ``qps`` requests/second (a paced load test)."""
    if num_requests < 1:
        raise ValueError("need at least one request")
    if not qps > 0:
        raise ValueError(f"qps must be positive, got {qps}")
    gap_ms = 1000.0 / qps
    utterances = _assign_utterances(
        RngStream(seed, "serve-arrivals", "utterances"), num_requests, dataset_size
    )
    priorities = _assign_priorities(seed, num_requests, batch_fraction)
    return [
        Arrival(index, utterances[index], gap_ms * (index + 1), priorities[index], rtf)
        for index in range(num_requests)
    ]


def make_trace(
    kind: str,
    num_requests: int,
    qps: float,
    dataset_size: int,
    seed: int = 0,
    batch_fraction: float = 0.0,
    rtf: float = 0.0,
) -> list[Arrival]:
    """Build a trace by kind name (``poisson`` or ``uniform``)."""
    if kind == "poisson":
        return poisson_trace(num_requests, qps, dataset_size, seed, batch_fraction, rtf)
    if kind == "uniform":
        return uniform_trace(num_requests, qps, dataset_size, seed, batch_fraction, rtf)
    raise ValueError(f"unknown arrival kind {kind!r}; use 'poisson' or 'uniform'")


def chunk_schedule(
    arrival: Arrival, duration_s: float, chunk_s: float
) -> list[tuple[float, float]]:
    """Timed audio-chunk events for one arrival.

    Returns ``(at_ms, heard_s)`` pairs: by simulated time ``at_ms`` the
    server has heard the first ``heard_s`` seconds of the utterance.  An
    offline arrival (``rtf == 0``) is a single event delivering the whole
    utterance at ``arrival_ms``; a streamed one delivers ``chunk_s``-second
    chunks paced at its real-time factor (the final chunk may be shorter).
    """
    if duration_s <= 0:
        raise ValueError(f"duration_s must be positive, got {duration_s}")
    if chunk_s <= 0:
        raise ValueError(f"chunk_s must be positive, got {chunk_s}")
    if arrival.rtf <= 0:
        return [(arrival.arrival_ms, duration_s)]
    events = []
    heard = 0.0
    while heard < duration_s:
        heard = min(heard + chunk_s, duration_s)
        events.append((arrival.arrival_ms + heard * 1000.0 / arrival.rtf, heard))
    return events


def positions_available(
    utterance: Utterance, heard_s: float, lookahead_s: float
) -> int:
    """How many transcript positions ``heard_s`` seconds of audio support.

    Zero until the lookahead margin is covered, then proportional to the
    usable audio; the full ``num_tokens`` once the whole utterance is heard.
    The serve scheduler's chunk-arrival gate caps a streamed session at
    this many positions after each :func:`chunk_schedule` event.
    """
    if lookahead_s < 0:
        raise ValueError("lookahead_s must be >= 0")
    if heard_s >= utterance.duration_s:
        return utterance.num_tokens
    usable = max(heard_s - lookahead_s, 0.0)
    rate = utterance.num_tokens / utterance.duration_s
    return min(int(usable * rate), utterance.num_tokens)


def offered_qps(trace: Sequence[Arrival]) -> float:
    """Offered load of a trace: requests per second of arrival span.

    The span is measured first→last arrival, so a replayed/trimmed trace
    that starts late (or was recorded with an offset clock) reports the
    same load as the equivalent trace shifted to t=0.  A single-arrival
    trace has no span and reports ``0.0``.
    """
    if len(trace) < 2:
        return 0.0
    first = min(a.arrival_ms for a in trace)
    last = max(a.arrival_ms for a in trace)
    span_ms = last - first
    if span_ms <= 0:
        return 0.0
    return len(trace) * 1000.0 / span_ms


def save_trace(trace: Sequence[Arrival], path: str | Path) -> Path:
    """Write a trace as JSON (replayable with :func:`load_trace`)."""
    path = Path(path)
    payload = [
        {
            "index": a.index,
            "utterance_index": a.utterance_index,
            "arrival_ms": a.arrival_ms,
            "priority": a.priority,
            "rtf": a.rtf,
        }
        for a in trace
    ]
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def load_trace(path: str | Path) -> list[Arrival]:
    """Load a JSON trace; entries are re-sorted into arrival order."""
    entries = json.loads(Path(path).read_text())
    trace = [
        Arrival(
            int(entry["index"]),
            int(entry["utterance_index"]),
            float(entry["arrival_ms"]),
            str(entry.get("priority", PRIORITY_INTERACTIVE)),
            float(entry.get("rtf", 0.0)),
        )
        for entry in entries
    ]
    trace.sort(key=lambda a: (a.arrival_ms, a.index))
    return trace
