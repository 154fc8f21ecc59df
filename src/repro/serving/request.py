"""Request datatypes and per-request latency accounting.

A :class:`ServeRequest` is one utterance arriving at the serving front-end at
a point in *simulated* time (milliseconds, the same unit as
:class:`~repro.models.latency.SimClock`).  Its :class:`RequestRecord`
accumulates the timeline the SLO report is computed from:

``arrival → queue wait → service start → first token → finish``

Two latency notions coexist and must not be conflated:

* **decode_ms** — the request's own simulated model time (its SimClock
  total).  This depends only on (method, utterance) and is bit-identical
  across scheduler configurations; the determinism suite asserts it.
* **completion_ms / ttft_ms** — wall latency experienced by the client,
  including queueing and time spent sharing the device with other requests.
  This is what the scheduler shapes and what SLOs are written against.

Requests carry a **priority class**: ``interactive`` traffic (the default —
live captioning, voice assistants) outranks ``batch`` transcription jobs in
admission and dispatch order, and an interactive arrival at a full queue
displaces the newest queued batch request.  A request holds its in-flight
slot from admission until it finishes, parks or sheds.

Beyond completion and queue rejection, a request can end **shed**: dropped
by the server itself, either because its SLO was already unreachable when a
slot opened (``"deadline"``), because a phase exhausted its bounded retries
on a faulty cluster (``"retries"``), or because no device could ever serve
it after a permanent capacity loss (``"capacity"``).  The conservation
invariant the property suite enforces is
``completed + rejected + shed == arrived``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.corpus import Utterance

#: Terminal request states.
STATUS_PENDING = "pending"
STATUS_REJECTED = "rejected"  # bounced by admission-queue backpressure
STATUS_COMPLETED = "completed"
STATUS_SHED = "shed"  # dropped by the server (deadline / retries / capacity)

#: Priority classes, highest first.
PRIORITY_INTERACTIVE = "interactive"
PRIORITY_BATCH = "batch"
PRIORITY_CLASSES = (PRIORITY_INTERACTIVE, PRIORITY_BATCH)

#: Shed reasons recorded on :attr:`RequestRecord.shed_reason`.
SHED_DEADLINE = "deadline"  # SLO already unreachable at admission
SHED_RETRIES = "retries"  # a phase exhausted its bounded retries
SHED_CAPACITY = "capacity"  # no device can ever serve the request
SHED_MEMORY = "memory"  # KV blocks can never fit on any pool device


def priority_rank(priority: str) -> int:
    """Dispatch/admission ordering key: lower ranks first."""
    try:
        return PRIORITY_CLASSES.index(priority)
    except ValueError:
        raise ValueError(
            f"unknown priority class {priority!r}; "
            f"use one of {', '.join(PRIORITY_CLASSES)}"
        ) from None


@dataclass(frozen=True)
class ServeRequest:
    """One inbound transcription request.

    ``rtf`` is the audio real-time factor carried over from the arrival:
    ``0.0`` means the whole utterance was available at ``arrival_ms``
    (offline); a positive value means the audio streams in chunk by chunk
    at that speed and the scheduler gates decode progress on audio heard.
    """

    request_id: str
    index: int  # arrival sequence number (ties broken by this)
    utterance: Utterance
    arrival_ms: float
    priority: str = PRIORITY_INTERACTIVE
    rtf: float = 0.0

    def __post_init__(self) -> None:
        # NaN fails every comparison: each check is written to reject it.
        if not self.arrival_ms >= 0:
            raise ValueError(
                f"{self.request_id}: arrival_ms must be >= 0, got {self.arrival_ms}"
            )
        if not self.rtf >= 0:
            raise ValueError(f"{self.request_id}: rtf must be >= 0, got {self.rtf}")
        priority_rank(self.priority)  # validates


@dataclass
class RequestRecord:
    """Mutable per-request timeline filled in by the scheduler."""

    request: ServeRequest
    status: str = STATUS_PENDING
    service_start_ms: float | None = None  # first scheduled round began
    first_token_ms: float | None = None  # first committed tokens visible
    finish_ms: float | None = None  # transcript complete
    tokens: list[int] = field(default_factory=list)
    decode_ms: float = 0.0  # own simulated model time (SimClock total)
    rounds: int = 0  # scheduler steps this request consumed

    # -- chaos accounting (failure-aware scheduling) -----------------------
    retries: int = 0  # failed phase executions (crash aborts + transients)
    requeues: int = 0  # phases returned to the waiting state after failure
    shed_reason: str | None = None  # deadline | retries | capacity | memory

    # -- streaming timeline (populated only for rtf > 0 requests) ----------
    audio_end_ms: float | None = None  # when the last audio chunk arrived
    stream_chunks: int = 0  # audio chunk events delivered
    emission_ms: list[float] = field(default_factory=list)
    # absolute emission time per transcript token: max(commit, audio ready)
    chunk_latencies_ms: list[float] = field(default_factory=list)
    # per cap-raising chunk: emission of its last due token - chunk arrival
    revised_tokens: int = 0  # emitted tokens later revised (0: lossless)

    # -- derived latencies (client-observed, scheduler-dependent) ----------
    @property
    def queue_ms(self) -> float | None:
        """Time from arrival until the first scheduled round began."""
        if self.service_start_ms is None:
            return None
        return self.service_start_ms - self.request.arrival_ms

    @property
    def ttft_ms(self) -> float | None:
        """Time to first token, from arrival."""
        if self.first_token_ms is None:
            return None
        return self.first_token_ms - self.request.arrival_ms

    @property
    def completion_ms(self) -> float | None:
        """End-to-end latency, from arrival to final token."""
        if self.finish_ms is None:
            return None
        return self.finish_ms - self.request.arrival_ms

    @property
    def per_token_ms(self) -> float | None:
        """Mean client-observed latency per emitted token."""
        completion = self.completion_ms
        if completion is None or not self.tokens:
            return None
        return completion / len(self.tokens)

    # -- streaming-derived latencies ---------------------------------------
    @property
    def streaming(self) -> bool:
        """True when this request's audio streams in timed chunks.

        A property of the request itself (``rtf > 0``), so a streamed
        arrival the queue rejected still counts as a stream.
        """
        return self.request.rtf > 0

    @property
    def word_ttft_ms(self) -> float | None:
        """First *emitted* token latency from arrival (word-level TTFT).

        For streaming requests emission waits for the token's supporting
        audio, so this is >= the scheduler-side ``ttft_ms``; for offline
        requests they coincide.
        """
        if self.emission_ms:
            return self.emission_ms[0] - self.request.arrival_ms
        return self.ttft_ms

    @property
    def final_latency_ms(self) -> float | None:
        """Delay from end-of-audio to transcript-final (streaming only).

        The streaming analogue of completion latency: a live stream cannot
        finish before its audio does, so the clamp at zero only engages
        when the decode EOS'd early (transcript shorter than the audio).
        """
        if self.audio_end_ms is None or self.finish_ms is None:
            return None
        return max(self.finish_ms - self.audio_end_ms, 0.0)

    @property
    def slo_latency_ms(self) -> float | None:
        """Latency the SLO deadline is judged against.

        Offline requests are judged on completion (arrival → final token);
        streaming requests on final latency (end-of-audio → final token) —
        an utterance longer than the deadline would otherwise be
        unservable by construction, however fast the decode.
        """
        if self.streaming:
            return self.final_latency_ms
        return self.completion_ms

    def meets_deadline(self, deadline_ms: float) -> bool:
        """True when the request completed within ``deadline_ms``.

        Measured from arrival (offline) or end-of-audio (streaming) — see
        :attr:`slo_latency_ms`.
        """
        latency = self.slo_latency_ms
        return latency is not None and latency <= deadline_ms
