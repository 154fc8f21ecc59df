"""Plain autoregressive (greedy) decoding — the paper's primary baseline."""

from __future__ import annotations

from repro.decoding.base import (
    PHASE_VERIFY,
    DecodeResult,
    DecodeTrace,
    ModelLike,
    PhaseGenerator,
    PhasedDecodeStepper,
    strip_eos,
)
from repro.models.latency import KIND_DECODE, SimClock


class AutoregressiveDecoder:
    """One forward pass per output token on the target model."""

    def __init__(self, target: ModelLike, name: str = "autoregressive") -> None:
        self.target = target
        self.name = name

    def begin(self, unit) -> PhasedDecodeStepper:
        """Step-resumable decode; each step emits one token."""
        clock = SimClock()
        return PhasedDecodeStepper(self._phases(unit, clock), clock)

    def decode(self, unit) -> DecodeResult:
        return self.begin(unit).drain()

    def _phases(self, unit, clock: SimClock) -> PhaseGenerator:
        # There is no draft model: every round is a single target-model
        # phase, so a disaggregating router keeps AR decodes entirely on
        # the target pool.
        session = self.target.session(unit, clock)
        session.prefill()
        tokens: list[int] = []
        cursor = session.cursor()
        limit = session.max_decode_positions()
        while len(tokens) < limit:
            result = session.step(cursor, kind=KIND_DECODE)
            tokens.append(result.token)
            done = session.is_eos(result.token) or len(tokens) >= limit
            yield PHASE_VERIFY, self.target.name, (result.token,), True, done
            if done:
                break
            cursor = cursor.advance(result.token)
        return DecodeResult(
            tokens=strip_eos(tokens, self.target.vocab.eos_id),
            clock=clock,
            trace=DecodeTrace(),
            method=self.name,
        )
