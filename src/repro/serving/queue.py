"""Bounded admission queue with backpressure and priority classes.

The queue sits between the arrival stream and the scheduler.  When it is
full, new arrivals are *rejected* immediately (load shedding) rather than
waiting unboundedly — the serving-system analogue of HTTP 429/503
backpressure.  Rejections count against goodput, so an overloaded
configuration shows up in the SLO report instead of in an ever-growing
latency tail.

Requests carry a priority class (see :mod:`repro.serving.request`):
``interactive`` entries always dequeue before ``batch`` entries, with FIFO
order within each class.  When the queue is full, an arriving interactive
request *displaces* the newest waiting batch entry (which is rejected in its
place) — batch traffic absorbs overload so interactive SLOs survive.  A
batch arrival at a full queue is simply rejected.  Only arrivals enter the
queue: a request leaves it once, into a free in-flight slot or shed, so a
displaced or rejected entry was never served.
"""

from __future__ import annotations

from collections import deque

from repro.serving.request import (
    PRIORITY_INTERACTIVE,
    STATUS_REJECTED,
    RequestRecord,
)


class AdmissionQueue:
    """Two-class priority queue bounded at ``capacity`` waiting requests."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._interactive: deque[RequestRecord] = deque()
        self._batch: deque[RequestRecord] = deque()
        self.rejected = 0
        self.admitted = 0
        self.displaced = 0  # batch entries bumped out by interactive arrivals
        self.peak_depth = 0

    def __len__(self) -> int:
        return len(self._interactive) + len(self._batch)

    def __bool__(self) -> bool:
        return bool(self._interactive) or bool(self._batch)

    def offer(self, record: RequestRecord) -> bool:
        """Admit ``record``, displacing batch work if needed, or reject it."""
        if len(self) >= self.capacity:
            if record.request.priority == PRIORITY_INTERACTIVE and self._batch:
                bumped = self._batch.pop()  # newest batch entry yields its slot
                bumped.status = STATUS_REJECTED
                self.rejected += 1
                self.displaced += 1
            else:
                self.rejected += 1
                record.status = STATUS_REJECTED
                return False
        lane = (
            self._interactive
            if record.request.priority == PRIORITY_INTERACTIVE
            else self._batch
        )
        lane.append(record)
        self.admitted += 1
        if len(self) > self.peak_depth:
            self.peak_depth = len(self)
        return True

    def pop(self) -> RequestRecord:
        """Dequeue the oldest waiting request of the highest waiting class."""
        if self._interactive:
            return self._interactive.popleft()
        return self._batch.popleft()
