"""Simulated ASR models and per-utterance decode sessions.

A :class:`SimulatedASRModel` behaves, from a decoder's point of view, exactly
like a real cascaded LLM-ASR model: you open a session on an utterance,
prefill (audio embeddings + text prompt), then request next-token
distributions given a text prefix.  Internally the next token comes from the
audio-conditioned :class:`~repro.models.acoustic.EmissionOracle`, and every
forward pass is charged to a :class:`~repro.models.latency.SimClock`.

Sessions track the *divergence state* of each prefix: how many perturbation
steps remain since the prefix last departed from this model's own greedy
path.  That state is what makes the simulation audio-conditioned — the model
re-anchors a couple of tokens after any injected correction (see
``acoustic.py`` for the rationale).

Divergence states live in a per-session **prefix trie**: one node per
explored prefix, each holding the state after that prefix, the (cached)
context key of its last three tokens, and the (cached) oracle distribution
for the next position.  A :class:`SessionCursor` is a handle onto a trie
node; advancing a cursor by one token is an O(1) dictionary hop, so decoders
that keep cursors pay O(L) per utterance instead of the O(L²) cost of
re-hashing full prefix tuples on every forward pass.  Plain token sequences
are still accepted everywhere (they walk the trie from the root), so legacy
callers and test fakes keep working unchanged.
"""

from __future__ import annotations

import weakref
from typing import Iterator, NamedTuple, Sequence

from repro.data.corpus import Utterance
from repro.models.acoustic import (
    BASE_BLOCK_SIZE,
    EmissionOracle,
    OracleFactory,
    OracleParams,
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

#: Per-oracle memo of finished StepResults keyed by (position, state, ctx).
#: All sessions over the same (model, utterance) share it, so re-decoding an
#: utterance with another method rebuilds its trie from dict lookups instead
#: of re-deriving distributions.  Dies with the oracle (which the model
#: bounds with an LRU).
_RESULT_CACHES: "weakref.WeakKeyDictionary[EmissionOracle, dict]" = (
    weakref.WeakKeyDictionary()
)

#: Per-oracle shared trie root.  Divergence states and distributions are
#: pure functions of (model, utterance, prefix), so every session over the
#: same oracle can walk one trie: decoding an utterance with a second
#: method reuses the committed-path nodes the first method left behind.
#: Rollback pruning keeps the shared trie from growing without bound.
_TRIE_CACHES: "weakref.WeakKeyDictionary[EmissionOracle, _TrieNode]" = (
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


class StepResult(NamedTuple):
    """Next-token output of one simulated forward position.

    A NamedTuple rather than a dataclass: construction sits on the decode
    hot path (one per evaluated tree node / draft position).
    """

    token: int
    top_prob: float
    topk: tuple[tuple[int, float], ...]
    position: int
    perturb_level: int

    def rank_of(self, token: int) -> int | None:
        for rank, (candidate, _prob) in enumerate(self.topk, start=1):
            if candidate == token:
                return rank
        return None


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


def _resolve_pending_steps(oracle: EmissionOracle, pending: list) -> None:
    """Fill ``node.step`` for every ``(results, node, key)`` entry via one
    batched oracle pass.

    ``results`` is the per-oracle StepResult memo the node's session shares;
    entries may span several sessions as long as they share ``oracle``.
    Results are bit-identical to resolving each node through the scalar
    ``_node_step`` path (the oracle's batched scoring is bit-identical to
    its scalar scoring, and StepResult construction is the same).
    """
    oracle_steps = oracle.step_many([key for _results, _node, key in pending])
    for (results, node, key), oracle_step in zip(pending, oracle_steps, strict=True):
        step = results.get(key)
        if step is None:
            step = StepResult(
                token=oracle_step.token,
                top_prob=oracle_step.top_prob,
                topk=oracle_step.topk,
                position=oracle_step.position,
                perturb_level=node.state,
            )
            results[key] = step
        node.step = step


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
        return DecodeSession(self, utterance, clock)

    def greedy_transcript(self, utterance: Utterance) -> list[int]:
        """The model's anchored greedy transcript, without the trailing EOS."""
        stream = self.oracle(utterance).greedy_stream()
        eos = self.vocab.eos_id
        return stream[:-1] if stream and stream[-1] == eos else stream

    def score_batch(
        self,
        requests: "Sequence[tuple]",
        kind: str = KIND_VERIFY,
    ) -> "list[list[StepResult]]":
        """One cross-session batched scoring pass.

        ``requests`` is a sequence of ``(session, prefixes)`` or
        ``(session, prefixes, billed_tokens)`` entries; each ``prefixes``
        is the frontier of one :class:`DecodeSession` (token sequences or
        cursors).  Per session the pass bills **exactly** the latency record
        the equivalent solo call would write — ``verify_eval`` semantics for
        ``kind=KIND_VERIFY`` (billed tokens default to the frontier size,
        KV context at the shallowest node), ``step_frontier`` semantics
        otherwise — so SimClock totals are bit-identical to looping the
        per-session calls.  All uncached distributions across every request
        are then resolved with one grouped array pass per distinct
        utterance oracle, instead of a python loop per session.

        Returns one list of StepResults per request, in request order.
        """
        prepared: list[tuple[DecodeSession, list[_TrieNode]]] = []
        for entry in requests:
            session, prefixes = entry[0], entry[1]
            billed_tokens = entry[2] if len(entry) > 2 else None
            session._require_prefill()
            nodes = [session._resolve(p) for p in prefixes]
            if not nodes:
                raise ValueError("score_batch needs at least one prefix per entry")
            if kind == KIND_VERIFY:
                billed = billed_tokens if billed_tokens is not None else len(nodes)
                if billed < 1:
                    raise ValueError(f"billed_tokens must be >= 1, got {billed}")
                cached = session.kv.context_length(
                    min(node.depth for node in nodes)
                )
            else:
                billed = len(nodes)
                cached = session.kv.context_length(
                    max(node.depth for node in nodes)
                )
            ms = forward_ms(session.model.latency, billed, cached)
            session.clock.record(session.model.name, kind, billed, cached, ms)
            session.kv.append(billed)
            prepared.append((session, nodes))
        # Group uncached queries by oracle: sessions over the same utterance
        # share one grouped pass (and one StepResult memo).
        buckets: dict[int, tuple[EmissionOracle, list]] = {}
        for session, nodes in prepared:
            results = session._results
            oracle = session._oracle
            for node in nodes:
                if node.step is None:
                    context = _context_key(node.last3) if node.state else 0
                    key = (node.depth, node.state, context)
                    step = results.get(key)
                    if step is None:
                        bucket = buckets.get(id(oracle))
                        if bucket is None:
                            bucket = buckets[id(oracle)] = (oracle, [])
                        bucket[1].append((results, node, key))
                    else:
                        node.step = step
        for oracle, pending in buckets.values():
            _resolve_pending_steps(oracle, pending)
        return [
            [session._node_step(node) for node in nodes]
            for session, nodes in prepared
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimulatedASRModel({self.name!r}, capacity={self.capacity})"


class _TrieNode:
    """One explored prefix: divergence state plus cached oracle output."""

    __slots__ = ("token", "parent", "depth", "state", "last3", "children", "step")

    def __init__(
        self,
        token: int | None,
        parent: "_TrieNode | None",
        depth: int,
        state: int,
        last3: Prefix,
    ) -> None:
        self.token = token
        self.parent = parent
        self.depth = depth
        self.state = state
        self.last3 = last3  # up to three trailing tokens (context key input)
        self.children: dict[int, _TrieNode] = {}
        self.step: StepResult | None = None  # lazily computed distribution

    def prefix(self) -> Prefix:
        tokens: list[int] = []
        node: _TrieNode | None = self
        while node is not None and node.token is not None:
            tokens.append(node.token)
            node = node.parent
        tokens.reverse()
        return tuple(tokens)


class SessionCursor:
    """O(1) handle onto one prefix of a :class:`DecodeSession` trie.

    Cursors are immutable: :meth:`advance` and :meth:`extend` return new
    cursors, so a decoder can keep cursors for several branches of a token
    tree at once.  Iterating a cursor yields its prefix tokens (an O(depth)
    walk), which keeps cursors usable anywhere a token sequence is expected.
    """

    __slots__ = ("session", "node")

    def __init__(self, session: "DecodeSession", node: _TrieNode) -> None:
        self.session = session
        self.node = node

    def advance(self, token: int) -> "SessionCursor":
        """Cursor for this prefix extended by one token (O(1))."""
        node = self.node
        # Inlined hit path of DecodeSession._child: existing trie edges are
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
        """Roll the session's KV cache back to this prefix and prune dead
        divergence branches (everything off the committed path)."""
        self.session.rollback(self.node.depth, keep=self)

    @property
    def tokens(self) -> Prefix:
        return self.node.prefix()

    @property
    def perturb_level(self) -> int:
        return self.node.state

    def __len__(self) -> int:
        return self.node.depth

    def __iter__(self) -> Iterator[int]:
        return iter(self.tokens)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SessionCursor(depth={self.node.depth})"


class DecodeSession:
    """Per-utterance decoding interface with latency and KV accounting."""

    def __init__(
        self, model: SimulatedASRModel, utterance: Utterance, clock: SimClock
    ) -> None:
        self.model = model
        self.utterance = utterance
        self.clock = clock
        # Deferred import: the tracker lives with the serving-layer block
        # allocator, and a module-level import here would cycle through
        # repro.serving.__init__ while repro.models is still initialising.
        from repro.serving.memory import KVCacheTracker

        self.kv = KVCacheTracker()
        self._oracle = model.oracle(utterance)
        results = _RESULT_CACHES.get(self._oracle)
        if results is None:
            results = {}
            _RESULT_CACHES[self._oracle] = results
        self._results: dict[tuple[int, int, int], StepResult] = results
        self._window = model.oracle_params.perturb_window
        root = _TRIE_CACHES.get(self._oracle)
        if root is None:
            root = _TrieNode(None, None, 0, 0, ())
            _TRIE_CACHES[self._oracle] = root
        self._root = root
        self._committed = root  # deepest node on this session's committed path
        self._prompt_tokens = 0
        self._prefilled = False

    # -- setup -----------------------------------------------------------------
    def prefill(self) -> None:
        """Run the audio encoder and prefill audio embeddings + text prompt."""
        if self._prefilled:
            raise RuntimeError("session already prefilled")
        self._prefilled = True
        duration = self.utterance.duration_s
        audio_embeddings = max(1, int(duration * EMBEDDINGS_PER_SECOND))
        self._prompt_tokens = prompt_token_count(self.utterance)
        if self.model.encoder_latency_ms_per_10s > 0:
            encoder_ms = self.model.encoder_latency_ms_per_10s * duration / 10.0
            self.clock.record(
                self.model.name, KIND_ENCODE, audio_embeddings, 0, encoder_ms
            )
        ms = prefill_ms(self.model.latency, self._prompt_tokens)
        self.clock.record(self.model.name, KIND_PREFILL, self._prompt_tokens, 0, ms)
        self.kv.prefill(self._prompt_tokens)

    @property
    def prompt_tokens(self) -> int:
        return self._prompt_tokens

    # -- prefix trie -----------------------------------------------------------
    def cursor(self, prefix: Sequence[int] = ()) -> SessionCursor:
        """A cursor at ``prefix`` (walks the trie once; root is free)."""
        return SessionCursor(self, self._resolve(prefix))

    def _node_step(self, node: _TrieNode) -> StepResult:
        """The next-token distribution for the position *after* ``node``."""
        step = node.step
        if step is None:
            context = _context_key(node.last3) if node.state else 0
            key = (node.depth, node.state, context)
            step = self._results.get(key)
            if step is None:
                oracle_step = self._oracle.step(node.depth, node.state, context)
                step = StepResult(
                    token=oracle_step.token,
                    top_prob=oracle_step.top_prob,
                    topk=oracle_step.topk,
                    position=oracle_step.position,
                    perturb_level=node.state,
                )
                self._results[key] = step
            node.step = step
        return step

    def _node_steps(self, nodes: "list[_TrieNode]") -> list[StepResult]:
        """Batched :meth:`_node_step`: every uncached distribution in
        ``nodes`` is resolved through one grouped oracle pass
        (:meth:`EmissionOracle.step_many`), bit-identical to the scalar
        per-node path."""
        pending: list = []
        results = self._results
        for node in nodes:
            if node.step is None:
                context = _context_key(node.last3) if node.state else 0
                key = (node.depth, node.state, context)
                step = results.get(key)
                if step is None:
                    pending.append((results, node, key))
                else:
                    node.step = step
        if pending:
            _resolve_pending_steps(self._oracle, pending)
        # Every node's step is populated by now (hit, memo, or batch above).
        return [node.step for node in nodes]

    def _child(self, node: _TrieNode, token: int) -> _TrieNode:
        child = node.children.get(token)
        if child is None:
            if token == self._node_step(node).token:
                state = node.state - 1
                if state < 0:
                    state = 0
            else:
                state = self._window
            child = _TrieNode(
                token, node, node.depth + 1, state, (node.last3 + (token,))[-3:]
            )
            node.children[token] = child
        return child

    def _resolve(self, prefix) -> _TrieNode:
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
        kv = self.kv
        cached = kv.context_length(node.depth)
        ms = forward_ms(self.model.latency, 1, cached)
        self.clock.record(self.model.name, kind, 1, cached, ms)
        kv.append(1)
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
        cached = self.kv.context_length(max(node.depth for node in nodes))
        ms = forward_ms(self.model.latency, len(nodes), cached)
        self.clock.record(self.model.name, kind, len(nodes), cached, ms)
        self.kv.append(len(nodes))
        return self._node_steps(nodes)

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
        cached = self.kv.context_length(min(node.depth for node in nodes))
        ms = forward_ms(self.model.latency, billed, cached)
        self.clock.record(self.model.name, KIND_VERIFY, billed, cached, ms)
        self.kv.append(billed)
        return self._node_steps(nodes)

    def rollback(self, kept_prefix_len: int, keep: SessionCursor | None = None) -> None:
        """Roll the KV cache back to ``prompt + kept_prefix_len`` positions.

        When ``keep`` (a cursor at the committed prefix) is given, divergence
        branches off the committed path are pruned from the trie, so long
        utterances with many speculation rounds don't accumulate dead
        divergence-state entries.  The subtree *below* the committed node is
        retained — it is the live speculation cache for the next round.
        """
        target = self.kv.context_length(kept_prefix_len)
        if target <= self.kv.length:
            self.kv.rollback_to(target)
        if keep is not None and keep.session is self:
            self._prune_to(keep.node)

    def _prune_to(self, node: _TrieNode) -> None:
        # Collect the chain from the previously committed node down to the
        # newly committed one, then drop every off-chain sibling subtree.
        chain: list[_TrieNode] = []
        walk: _TrieNode | None = node
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
        """Hard cap on decode length (reference + margin), safety net."""
        return self.utterance.num_tokens + 8

    def _require_prefill(self) -> None:
        if not self._prefilled:
            raise RuntimeError("call prefill() before decoding")
