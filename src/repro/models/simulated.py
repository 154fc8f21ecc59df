"""Simulated ASR models and the decode session every model family shares.

A :class:`SimulatedASRModel` behaves, from a decoder's point of view, exactly
like a real cascaded LLM-ASR model: you open a session on an utterance,
prefill (audio embeddings + text prompt), then request next-token
distributions given a text prefix.  Internally the next token comes from the
audio-conditioned :class:`~repro.models.acoustic.EmissionOracle`, and every
forward pass is charged to a :class:`~repro.models.latency.SimClock` over
``prompt + depth`` cached positions.

A :class:`DecodeSession` is the one session implementation.  It owns the
prefix trie, cursors, prefill, every forward pass and all billing; a model
family supplies only an :class:`Emission`, which says how a trie node's
next-token distribution is computed.  ASR's :class:`AcousticEmission` is
audio-conditioned; the text LM's emission
(:class:`~repro.models.textlm.TextEmission`) depends on the text prefix
alone; the test fakes script theirs.

Sessions track the *divergence state* of each prefix: how many perturbation
steps remain since the prefix last departed from this model's own greedy
path.  That state is what makes the simulation audio-conditioned — the model
re-anchors a couple of tokens after any injected correction (see
``acoustic.py`` for the rationale).  An emission with a divergence window of
0 keeps no such state.

Divergence states live in a **prefix trie**: one node per explored prefix,
each holding the state after that prefix, its trailing tokens (the context
input) and a pointer to the next position's distribution.  For ASR the trie
is shared by every session over the same (model, utterance), and that
pointer is the only thing in front of the oracle: the oracle's step cache
is the one memo of distributions.  A :class:`SessionCursor` is a handle onto
a trie node; advancing a cursor by one token is an O(1) dictionary hop, so
decoders that keep cursors pay O(L) per utterance instead of the O(L²) cost
of re-hashing full prefix tuples on every forward pass.  Plain token
sequences are accepted everywhere too; they walk the trie from the root.
"""

from __future__ import annotations

import weakref
from typing import Iterator, Protocol, Sequence

from repro.data.corpus import Utterance
from repro.models.acoustic import (
    BASE_BLOCK_SIZE,
    EmissionOracle,
    OracleFactory,
    OracleParams,
    StepResult,
    prewarm_oracles,
)
from repro.models.latency import (
    KIND_DECODE,
    KIND_DRAFT,
    KIND_ENCODE,
    KIND_PREFILL,
    KIND_VERIFY,
    LatencyProfile,
    SimClock,
    forward_ms,
    prefill_ms,
)
from repro.models.vocab import Vocabulary
from repro.utils.hashing import stable_hash

#: Audio embeddings produced per second of audio after encoder downsampling.
EMBEDDINGS_PER_SECOND = 5.0

#: Fixed text-prompt length prepended during prefill ("transcribe:" etc.).
TEXT_PROMPT_TOKENS = 8


def prompt_token_count(utterance) -> int:
    """Prompt positions one session prefills for ``utterance``.

    Audio embeddings (encoder output after downsampling) plus the fixed
    text prompt.  The serving memory gate uses the same arithmetic to bill
    a session's resident prompt blocks without building a session.
    """
    duration = getattr(utterance, "duration_s", 0.0)
    return max(1, int(duration * EMBEDDINGS_PER_SECOND)) + TEXT_PROMPT_TOKENS

#: Default bound on the per-model oracle cache (distinct utterances held).
DEFAULT_ORACLE_CACHE = 64

Prefix = tuple[int, ...]

#: Memo of context keys by trailing-3-token window.  The key is a pure
#: function of the window (model-independent), and decode sessions revisit
#: the same windows constantly, so a dict hit replaces a blake2b hash.
_CTX_CACHE: dict[Prefix, int] = {}
_CTX_CACHE_MAX = 1 << 16

#: Per-oracle shared trie root.  Divergence states and distributions are
#: pure functions of (model, utterance, prefix), so every session over the
#: same oracle can walk one trie: decoding an utterance with a second
#: method reuses the committed-path nodes the first method left behind.
#: Rollback pruning keeps the shared trie from growing without bound.
_TRIE_CACHES: "weakref.WeakKeyDictionary[EmissionOracle, TrieNode]" = (
    weakref.WeakKeyDictionary()
)


def _context_key(last3: Prefix) -> int:
    ctx = _CTX_CACHE.get(last3)
    if ctx is None:
        if len(_CTX_CACHE) >= _CTX_CACHE_MAX:
            _CTX_CACHE.clear()
        ctx = stable_hash("ctx", last3)
        _CTX_CACHE[last3] = ctx
    return ctx


def prewarm_models(
    models: "Sequence[SimulatedASRModel]", utterances: "Sequence[Utterance]"
) -> None:
    """Materialise every (model, utterance) anchored distribution in one
    cross-oracle grouped array pass — the corpus-grid entry point of the
    vectorised scoring path.  No latency is billed (cache warming only);
    scalar-path models (``oracle_block_size <= 1``) are left untouched so
    the per-position reference stays pure.
    """
    prewarm_oracles(
        [model.oracle(utterance) for model in models for utterance in utterances]
    )


class SimulatedASRModel:
    """One simulated cascaded ASR model (audio encoder + LLM decoder)."""

    def __init__(
        self,
        name: str,
        capacity: float,
        latency: LatencyProfile,
        vocab: Vocabulary,
        oracle_params: OracleParams | None = None,
        encoder_latency_ms_per_10s: float = 0.0,
        seed: int = 0,
        oracle_cache_size: int = DEFAULT_ORACLE_CACHE,
        oracle_block_size: int = BASE_BLOCK_SIZE,
    ) -> None:
        self.name = name
        self.capacity = capacity
        self.latency = latency
        self.vocab = vocab
        self.oracle_params = oracle_params or OracleParams()
        self.encoder_latency_ms_per_10s = encoder_latency_ms_per_10s
        self.seed = stable_hash("model", name, seed)
        self.oracle_block_size = int(oracle_block_size)
        self._oracles = OracleFactory(
            model_name=self.name,
            model_seed=self.seed,
            capacity=self.capacity,
            vocab=self.vocab,
            params=self.oracle_params,
            cache_size=oracle_cache_size,
            block_size=self.oracle_block_size,
        )

    def oracle(self, utterance: Utterance) -> EmissionOracle:
        return self._oracles.for_utterance(utterance)

    def session(self, utterance: Utterance, clock: SimClock) -> "DecodeSession":
        """Open a decode session for ``utterance`` billing to ``clock``."""
        return DecodeSession(self, AcousticEmission(self, utterance), clock)

    def greedy_transcript(self, utterance: Utterance) -> list[int]:
        """The model's anchored greedy transcript, without the trailing EOS."""
        stream = self.oracle(utterance).greedy_stream()
        eos = self.vocab.eos_id
        return stream[:-1] if stream and stream[-1] == eos else stream

    def score_batch(
        self,
        requests: "Sequence[tuple[DecodeSession, Sequence]]",
        kind: str = KIND_VERIFY,
    ) -> "list[list[StepResult]]":
        """Score several sessions' frontiers, one session at a time.

        Each ``(session, prefixes)`` entry is one
        :meth:`DecodeSession.verify_eval` call for ``kind=KIND_VERIFY`` and
        one :meth:`DecodeSession.step_frontier` call otherwise, billed
        exactly as that call bills.  Returns one list of StepResults per
        entry, in entry order.
        """
        results: list[list[StepResult]] = []
        for session, prefixes in requests:
            if kind == KIND_VERIFY:
                results.append(session.verify_eval(prefixes))
            else:
                results.append(session.step_frontier(prefixes, kind=kind))
        return results

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimulatedASRModel({self.name!r}, capacity={self.capacity})"


class TrieNode:
    """One explored prefix: divergence state, trailing tokens and a pointer
    to the emission's distribution for the next position."""

    __slots__ = ("token", "parent", "depth", "state", "last", "children", "step")

    def __init__(
        self,
        token: int | None,
        parent: "TrieNode | None",
        depth: int,
        state: int,
        last: Prefix,
    ) -> None:
        self.token = token
        self.parent = parent
        self.depth = depth
        self.state = state
        self.last = last  # trailing tokens, at most the emission's context
        self.children: dict[int, TrieNode] = {}
        self.step: StepResult | None = None  # the emission's result, lazily

    def prefix(self) -> Prefix:
        tokens: list[int] = []
        node: TrieNode | None = self
        while node is not None and node.token is not None:
            tokens.append(node.token)
            node = node.parent
        tokens.reverse()
        return tuple(tokens)


class Emission(Protocol):
    """What a model family supplies to a :class:`DecodeSession`.

    The session calls :meth:`step` at most once per trie node and keeps the
    result on the node.
    """

    root: TrieNode  # trie root; may be shared by several sessions
    prompt_tokens: int  # prompt positions the prefill bills
    max_positions: int  # hard cap on decode length
    window: int  # divergence window; 0 keeps no divergence state
    context: int  # trailing tokens each node keeps in ``last`` (>= 1)
    encoder: tuple[int, float] | None  # (embeddings, ms) billed at prefill

    def step(self, node: TrieNode) -> StepResult:
        """The next-token distribution for the position *after* ``node``."""
        ...


class AcousticEmission:
    """Audio-conditioned emission of one (model, utterance): the oracle.

    Every session over the same oracle walks one shared trie root.
    """

    context = 3  # trailing tokens behind the oracle's context key

    def __init__(self, model: SimulatedASRModel, utterance: Utterance) -> None:
        oracle = self._oracle = model.oracle(utterance)
        root = _TRIE_CACHES.get(oracle)
        if root is None:
            root = _TRIE_CACHES[oracle] = TrieNode(None, None, 0, 0, ())
        self.root = root
        self.prompt_tokens = prompt_token_count(utterance)
        self.max_positions = utterance.num_tokens + 8  # reference + margin
        self.window = model.oracle_params.perturb_window
        self.encoder: tuple[int, float] | None = None
        if model.encoder_latency_ms_per_10s > 0:
            duration = utterance.duration_s
            self.encoder = (
                max(1, int(duration * EMBEDDINGS_PER_SECOND)),
                model.encoder_latency_ms_per_10s * duration / 10.0,
            )

    def step(self, node: TrieNode) -> StepResult:
        context = _context_key(node.last) if node.state else 0
        return self._oracle.step(node.depth, node.state, context)


class SessionCursor:
    """O(1) handle onto one prefix of a session's prefix trie.

    Cursors are immutable: :meth:`advance` and :meth:`extend` return new
    cursors, so a decoder can keep cursors for several branches of a token
    tree at once.  Iterating a cursor yields its prefix tokens (an O(depth)
    walk), which keeps cursors usable anywhere a token sequence is expected.
    """

    __slots__ = ("session", "node")

    def __init__(self, session: "DecodeSession", node: TrieNode) -> None:
        self.session = session
        self.node = node

    def advance(self, token: int) -> "SessionCursor":
        """Cursor for this prefix extended by one token (O(1))."""
        node = self.node
        # Inlined hit path of the session's _child: existing trie edges are
        # the overwhelmingly common case in the per-token decode loops.
        child = node.children.get(token)
        if child is None:
            child = self.session._child(node, token)
        return SessionCursor(self.session, child)

    def extend(self, tokens: Sequence[int]) -> "SessionCursor":
        node = self.node
        child = self.session._child
        for token in tokens:
            hit = node.children.get(token)
            node = hit if hit is not None else child(node, token)
        return SessionCursor(self.session, node)

    def rollback(self) -> None:
        """Commit this prefix: the session prunes dead divergence branches
        (everything off the committed path)."""
        self.session.rollback(self)

    @property
    def tokens(self) -> Prefix:
        return self.node.prefix()

    def __len__(self) -> int:
        return self.node.depth

    def __iter__(self) -> Iterator[int]:
        return iter(self.tokens)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SessionCursor(depth={self.node.depth})"


class DecodeSession:
    """Per-unit decoding interface with latency accounting.

    ``model`` supplies the name, latency profile and vocabulary the session
    bills and stops with; ``emission`` supplies the trie root and the
    next-token distributions.
    """

    def __init__(self, model, emission: Emission, clock: SimClock) -> None:
        self.model = model
        self.emission = emission
        self.clock = clock
        self._root = emission.root
        self._committed = self._root  # deepest node on the committed path
        self._prompt_tokens = emission.prompt_tokens
        self._prefilled = False

    # -- setup -----------------------------------------------------------------
    def prefill(self) -> None:
        """Bill the encoder pass (if any) and the prompt prefill."""
        if self._prefilled:
            raise RuntimeError("session already prefilled")
        self._prefilled = True
        if self.emission.encoder is not None:
            embeddings, encoder_ms = self.emission.encoder
            self.clock.record(self.model.name, KIND_ENCODE, embeddings, 0, encoder_ms)
        ms = prefill_ms(self.model.latency, self._prompt_tokens)
        self.clock.record(self.model.name, KIND_PREFILL, self._prompt_tokens, 0, ms)

    @property
    def prompt_tokens(self) -> int:
        return self._prompt_tokens

    # -- prefix trie -----------------------------------------------------------
    def cursor(self, prefix: Sequence[int] = ()) -> SessionCursor:
        """A cursor at ``prefix`` (walks the trie once; root is free)."""
        return SessionCursor(self, self._resolve(prefix))

    def _node_step(self, node: TrieNode) -> StepResult:
        """The next-token distribution for the position *after* ``node``."""
        step = node.step
        if step is None:
            step = node.step = self.emission.step(node)
        return step

    def _child(self, node: TrieNode, token: int) -> TrieNode:
        child = node.children.get(token)
        if child is None:
            window = self.emission.window
            if not window:
                state = 0
            elif token == self._node_step(node).token:
                state = node.state - 1
                if state < 0:
                    state = 0
            else:
                state = window
            last = (node.last + (token,))[-self.emission.context :]
            child = TrieNode(token, node, node.depth + 1, state, last)
            node.children[token] = child
        return child

    def _resolve(self, prefix) -> TrieNode:
        if isinstance(prefix, SessionCursor):
            if prefix.session is self:
                return prefix.node
            prefix = prefix.tokens  # foreign cursor: fall back to its tokens
        node = self._root
        child = self._child
        for token in prefix:
            node = child(node, token)
        return node

    def perturb_state(self, prefix: Sequence[int]) -> int:
        """Remaining perturbation steps after decoding ``prefix``.

        0 means the model is anchored (the prefix ends on this model's own
        greedy path); k > 0 means the prefix diverged within the last
        ``perturb_window`` tokens.
        """
        return self._resolve(prefix).state

    def trie_size(self) -> int:
        """Number of live trie nodes (excluding the root) — memory metric."""
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            children = node.children.values()
            count += len(children)
            stack.extend(children)
        return count

    # -- forward passes ------------------------------------------------------
    def peek(self, prefix) -> StepResult:
        """Next-token distribution without charging any latency."""
        return self._node_step(self._resolve(prefix))

    def step(self, prefix, kind: str = KIND_DECODE) -> StepResult:
        """One single-token forward pass."""
        self._require_prefill()
        # Inlined cursor fast path of _resolve: per-token decode loops pass
        # this session's own cursors almost exclusively.
        if type(prefix) is SessionCursor and prefix.session is self:
            node = prefix.node
        else:
            node = self._resolve(prefix)
        cached = self._prompt_tokens + node.depth
        ms = forward_ms(self.model.latency, 1, cached)
        self.clock.record(self.model.name, kind, 1, cached, ms)
        step = node.step
        return step if step is not None else self._node_step(node)

    def step_frontier(self, prefixes, kind: str = KIND_DRAFT) -> list[StepResult]:
        """One batched forward pass over several tree-frontier prefixes.

        Models the masked token tree of the paper's recycling strategy: the
        draft advances all branches in a single forward pass, so regenerating
        a rejected segment hides inside the ongoing prediction.
        """
        self._require_prefill()
        nodes = [self._resolve(p) for p in prefixes]
        if not nodes:
            raise ValueError("step_frontier needs at least one prefix")
        cached = self._prompt_tokens + max(node.depth for node in nodes)
        ms = forward_ms(self.model.latency, len(nodes), cached)
        self.clock.record(self.model.name, kind, len(nodes), cached, ms)
        return [self._node_step(node) for node in nodes]

    def verify_eval(
        self, prefixes, billed_tokens: int | None = None
    ) -> list[StepResult]:
        """One verification forward pass evaluating ``prefixes`` in parallel.

        ``billed_tokens`` is the number of *input* tokens fed to the target
        in this pass (tree nodes / draft tokens).  It defaults to
        ``len(prefixes)``; tree verification passes the number of unique
        nodes, which is what the 2-D attention mask actually evaluates.
        """
        self._require_prefill()
        nodes = [self._resolve(p) for p in prefixes]
        if not nodes:
            raise ValueError("verify_eval needs at least one prefix")
        billed = billed_tokens if billed_tokens is not None else len(nodes)
        if billed < 1:
            raise ValueError(f"billed_tokens must be >= 1, got {billed}")
        cached = self._prompt_tokens + min(node.depth for node in nodes)
        ms = forward_ms(self.model.latency, billed, cached)
        self.clock.record(self.model.name, KIND_VERIFY, billed, cached, ms)
        return [self._node_step(node) for node in nodes]

    def rollback(self, keep: SessionCursor) -> None:
        """Commit the prefix at ``keep``: prune dead divergence branches.

        Billing keeps no cache state (every pass bills ``prompt + depth``),
        so committing only prunes: divergence branches off the committed
        path leave the trie, so long utterances with many speculation
        rounds don't accumulate dead divergence-state entries.  The subtree
        *below* the committed node is retained — it is the live speculation
        cache for the next round.
        """
        self._prune_to(keep.node)

    def _prune_to(self, node: TrieNode) -> None:
        # Collect the chain from the previously committed node down to the
        # newly committed one, then drop every off-chain sibling subtree.
        chain: list[TrieNode] = []
        walk: TrieNode | None = node
        while walk is not None and walk is not self._committed:
            chain.append(walk)
            walk = walk.parent
        if walk is None:
            return  # not a descendant of the committed path; nothing to prune
        for child in reversed(chain):
            parent = child.parent
            assert parent is not None
            if len(parent.children) > 1:
                parent.children = {child.token: child}
        self._committed = node

    # -- helpers ------------------------------------------------------------
    def is_eos(self, token: int) -> bool:
        return token == self.model.vocab.eos_id

    def max_decode_positions(self) -> int:
        """Hard cap on decode length (the emission's), safety net."""
        return self.emission.max_positions

    def _require_prefill(self) -> None:
        if not self._prefilled:
            raise RuntimeError("call prefill() before decoding")
