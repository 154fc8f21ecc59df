"""Simulated *text* language models — the non-audio-conditioned comparator.

Fig. 5b of the paper contrasts speculative acceptance in ASR against plain
text generation.  The crucial structural difference: a text LM's next-token
distribution depends on the *text prefix alone*.  There is no audio anchor,
so the candidate set itself is a function of the recent context — change one
token and the continuation is redrawn.  Draft and target text models still
share "semantics" (candidate sets and shared noise derive from a pair seed),
which gives realistic top-1 agreement, but there is no re-anchoring
mechanism: acceptance decays geometrically and unaccepted draft suffixes are
useless, unlike ASR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.data.text_tasks import TextPrompt
from repro.models.acoustic import StepResult
from repro.models.latency import (
    KIND_DECODE,
    KIND_DRAFT,
    LatencyProfile,
    SimClock,
    forward_ms,
    prefill_ms,
)
from repro.models.simulated import SessionCursor
from repro.models.vocab import Vocabulary
from repro.utils.hashing import stable_hash
from repro.utils.mathutil import softmax
from repro.utils.rng import fast_generator as _fast_rng

Prefix = tuple[int, ...]

#: How many trailing tokens of context determine the next-token distribution.
CONTEXT_WINDOW = 4


@dataclass(frozen=True)
class TextLMParams:
    """Emission constants for the text-task simulation.

    ``difficulty`` plays the role the acoustic profile plays in ASR but is
    constant — text has no per-position acoustic anchor.  ``shared_noise`` is
    lower than in ASR: text draft/target correlation comes only from shared
    training data, not from conditioning on the same audio.
    """

    difficulty: float = 0.35
    ref_gain: float = 3.2
    confusion_gains: tuple[float, ...] = (2.0, 1.7, 1.5)
    distractor_count: int = 4
    distractor_score: float = -0.2
    shared_noise: float = 0.35
    model_noise_base: float = 0.40
    model_noise_capacity: float = 0.45
    temperature: float = 0.42
    topk: int = 8

    def model_noise(self, capacity: float) -> float:
        return self.model_noise_base + self.model_noise_capacity * (1.0 - capacity)


class SimulatedTextLM:
    """A text LM over the shared vocabulary, identified by a pair seed.

    Draft and target must be built with the *same* ``pair_seed`` so they
    model the same underlying text distribution.
    """

    def __init__(
        self,
        name: str,
        capacity: float,
        latency: LatencyProfile,
        vocab: Vocabulary,
        pair_seed: int = 0,
        params: TextLMParams | None = None,
    ) -> None:
        if not 0.0 < capacity <= 1.0:
            raise ValueError(f"capacity must be in (0, 1], got {capacity}")
        self.name = name
        self.capacity = capacity
        self.latency = latency
        self.vocab = vocab
        self.pair_seed = pair_seed
        self.model_seed = stable_hash("textlm", name)
        self.params = params or TextLMParams()

    def session(self, prompt: TextPrompt, clock: SimClock) -> "TextSession":
        return TextSession(self, prompt, clock)


class _TextNode:
    """One explored prefix of a text session: context window + cached step.

    The next-token distribution is a pure function of ``(window, depth)``,
    so each node carries exactly those plus child links — no full prefix
    tuples anywhere, which is what makes cursor advancement O(1) instead of
    the old per-call full-tuple hash.
    """

    __slots__ = ("token", "parent", "depth", "window", "children", "step")

    def __init__(
        self,
        token: int | None,
        parent: "_TextNode | None",
        depth: int,
        window: Prefix,
    ) -> None:
        self.token = token
        self.parent = parent
        self.depth = depth
        self.window = window  # trailing CONTEXT_WINDOW ids incl. the prompt
        self.children: dict[int, _TextNode] = {}
        self.step: StepResult | None = None

    def prefix(self) -> Prefix:
        tokens: list[int] = []
        node: _TextNode | None = self
        while node is not None and node.token is not None:
            tokens.append(node.token)
            node = node.parent
        tokens.reverse()
        return tuple(tokens)


class TextSession:
    """Decode session over one text prompt (latency-accounted)."""

    def __init__(
        self, model: SimulatedTextLM, prompt: TextPrompt, clock: SimClock
    ) -> None:
        self.model = model
        self.prompt = prompt
        self.clock = clock
        self._prompt_ids = tuple(model.vocab.encode_words(prompt.prompt_words))
        self._root = _TextNode(None, None, 0, self._prompt_ids[-CONTEXT_WINDOW:])
        self._prefilled = False

    # -- lifecycle ------------------------------------------------------------
    def prefill(self) -> None:
        if self._prefilled:
            raise RuntimeError("session already prefilled")
        self._prefilled = True
        ms = prefill_ms(self.model.latency, len(self._prompt_ids))
        self.clock.record(self.model.name, "prefill", len(self._prompt_ids), 0, ms)

    @property
    def prompt_tokens(self) -> int:
        return len(self._prompt_ids)

    # -- prefix trie -----------------------------------------------------------
    def cursor(self, prefix: Sequence[int] = ()) -> SessionCursor:
        """A cursor at ``prefix`` (walks the trie once; root is free)."""
        return SessionCursor(self, self._resolve(prefix))

    def _child(self, node: _TextNode, token: int) -> _TextNode:
        child = node.children.get(token)
        if child is None:
            child = _TextNode(
                token,
                node,
                node.depth + 1,
                (node.window + (token,))[-CONTEXT_WINDOW:],
            )
            node.children[token] = child
        return child

    def _resolve(self, prefix) -> _TextNode:
        if isinstance(prefix, SessionCursor):
            if prefix.session is self:
                return prefix.node
            prefix = prefix.tokens  # foreign cursor: fall back to its tokens
        node = self._root
        child = self._child
        for token in prefix:
            node = child(node, token)
        return node

    # -- emission ------------------------------------------------------------
    def _node_step(self, node: _TextNode) -> StepResult:
        step = node.step
        if step is None:
            ctx = stable_hash("text-ctx", node.window, node.depth)
            step = self._compute(node.depth, ctx)
            node.step = step
        return step

    def peek(self, prefix) -> StepResult:
        return self._node_step(self._resolve(prefix))

    def _compute(self, position: int, ctx: int) -> StepResult:
        p = self.model.params
        vocab = self.model.vocab
        pair = self.model.pair_seed

        if position >= self.prompt.max_new_tokens:
            return StepResult(
                token=vocab.eos_id,
                top_prob=1.0,
                topk=((vocab.eos_id, 1.0),),
                position=position,
            )

        regular = vocab.regular_ids()
        pick = _fast_rng(stable_hash(pair, "text-ref", ctx))
        ref = regular[int(pick.integers(0, len(regular)))]
        pool = vocab.confusion_pool(ref)
        confusions = [tok for tok in pool[: len(p.confusion_gains)] if tok != ref]
        excluded = {ref, *confusions}
        distractors: list[int] = []
        draw = _fast_rng(stable_hash(pair, "text-distract", ctx))
        while len(distractors) < p.distractor_count:
            cand = regular[int(draw.integers(0, len(regular)))]
            if cand not in excluded:
                distractors.append(cand)
                excluded.add(cand)
        candidates = [ref, *confusions, *distractors]
        n = len(candidates)

        gains = np.empty(n)
        gains[0] = p.ref_gain * (1.0 - p.difficulty) * self.model.capacity
        for idx in range(len(confusions)):
            gains[1 + idx] = p.confusion_gains[idx] * p.difficulty
        for idx in range(1 + len(confusions), n):
            gains[idx] = p.distractor_score

        shared = p.shared_noise * _fast_rng(
            stable_hash(pair, "text-shared", ctx)
        ).standard_normal(n)
        own = p.model_noise(self.model.capacity) * _fast_rng(
            stable_hash(self.model.model_seed, "text-own", ctx)
        ).standard_normal(n)
        scores = gains + shared + own
        probs = softmax(scores.tolist(), temperature=p.temperature)
        order = sorted(range(n), key=lambda i: (-probs[i], candidates[i]))
        topk = tuple((candidates[i], probs[i]) for i in order[: p.topk])
        return StepResult(
            token=topk[0][0],
            top_prob=topk[0][1],
            topk=topk,
            position=position,
        )

    # -- forward passes (latency-accounted) --------------------------------------
    def step(self, prefix, kind: str = KIND_DECODE) -> StepResult:
        self._require_prefill()
        node = self._resolve(prefix)
        cached = len(self._prompt_ids) + node.depth
        ms = forward_ms(self.model.latency, 1, cached)
        self.clock.record(self.model.name, kind, 1, cached, ms)
        return self._node_step(node)

    def step_frontier(self, prefixes, kind: str = KIND_DRAFT) -> list[StepResult]:
        self._require_prefill()
        nodes = [self._resolve(p) for p in prefixes]
        if not nodes:
            raise ValueError("step_frontier needs at least one prefix")
        cached = len(self._prompt_ids) + max(node.depth for node in nodes)
        ms = forward_ms(self.model.latency, len(nodes), cached)
        self.clock.record(self.model.name, kind, len(nodes), cached, ms)
        return [self._node_step(node) for node in nodes]

    def verify_eval(
        self, prefixes, billed_tokens: int | None = None
    ) -> list[StepResult]:
        self._require_prefill()
        nodes = [self._resolve(p) for p in prefixes]
        if not nodes:
            raise ValueError("verify_eval needs at least one prefix")
        billed = billed_tokens if billed_tokens is not None else len(nodes)
        cached = len(self._prompt_ids) + min(node.depth for node in nodes)
        ms = forward_ms(self.model.latency, billed, cached)
        self.clock.record(self.model.name, "verify", billed, cached, ms)
        return [self._node_step(node) for node in nodes]

    def rollback(self, kept_prefix_len: int, keep: SessionCursor | None = None) -> None:
        """A no-op: text sessions keep no divergence state to prune, and
        billing reads only ``prompt + depth``."""

    def is_eos(self, token: int) -> bool:
        return token == self.model.vocab.eos_id

    def max_decode_positions(self) -> int:
        return self.prompt.max_new_tokens + 1

    def _require_prefill(self) -> None:
        if not self._prefilled:
            raise RuntimeError("call prefill() before decoding")
