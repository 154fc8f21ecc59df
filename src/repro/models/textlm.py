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

A text LM's sessions are the shared :class:`~repro.models.simulated.DecodeSession`;
:class:`TextEmission` supplies only the next-token distribution, from the
trailing ``CONTEXT_WINDOW`` token ids (prompt included) and the position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.text_tasks import TextPrompt
from repro.models.acoustic import StepResult
from repro.models.latency import LatencyProfile, SimClock
from repro.models.simulated import DecodeSession, TrieNode
from repro.models.vocab import Vocabulary
from repro.utils.hashing import stable_hash
from repro.utils.mathutil import softmax
from repro.utils.rng import fast_generator as _fast_rng

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

    def session(self, prompt: TextPrompt, clock: SimClock) -> DecodeSession:
        return DecodeSession(self, TextEmission(self, prompt), clock)


class TextEmission:
    """Emission of a text LM over one prompt: no audio anchor, so no
    divergence state; each session walks its own trie."""

    window = 0
    context = CONTEXT_WINDOW
    encoder = None

    def __init__(self, model: SimulatedTextLM, prompt: TextPrompt) -> None:
        self.model = model
        self.prompt = prompt
        prompt_ids = tuple(model.vocab.encode_words(prompt.prompt_words))
        self.root = TrieNode(None, None, 0, 0, prompt_ids[-CONTEXT_WINDOW:])
        self.prompt_tokens = len(prompt_ids)
        self.max_positions = prompt.max_new_tokens + 1

    def step(self, node: TrieNode) -> StepResult:
        return self._compute(node.depth, stable_hash("text-ctx", node.last, node.depth))

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
