"""Audio-conditioned emission oracle for simulated ASR models.

This module is the statistical heart of the reproduction.  A real ASR
decoder maps (audio, prefix) → next-token logits; the oracle reproduces the
*statistics* of that mapping that speculative decoding cares about, while
staying a deterministic pure function of seeds:

* **Candidate scoring** — at reference position ``i`` the candidates are the
  reference token, three acoustically *confusable* tokens (shared between
  all models looking at the same audio), and a few distractors.  Scores are
  ``gain ± shared acoustic noise ± model-specific noise``; softmax gives the
  top-k probabilities ("normalized logits" in the paper).
* **Capacity** — larger models weigh the reference evidence more and carry
  less model-specific noise, so they err less (Fig. 5a WER scaling).
* **Correlated errors** — the shared noise makes draft and target errors
  co-occur at genuinely hard audio, producing the high draft/target
  alignment of Observation 1 and the localized-error bursts of
  Observation 2.
* **Audio anchoring** — emission depends on the *position* (the audio
  frame), not on the text prefix.  When a model is pushed off its own greedy
  path (e.g. the draft receives the target's correction), a short
  *perturbation window* adds extra context noise that decays in a couple of
  steps, after which the model re-anchors to the audio exactly — the paper's
  core observation that ASR decoding is audio-conditioned.  (The text-task
  comparator in :mod:`repro.models.textlm` never re-anchors.)
* **Rank structure** — when the draft's top-1 fails verification, the token
  the target actually produced sits at draft rank 2 about two-thirds of the
  time (Fig. 13b).  This emerges from the candidate scores; an occasional
  extra "attention drop" on the reference score reproduces the rank ≥ 3
  tail.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.data.corpus import Utterance
from repro.models.vocab import Vocabulary
from repro.utils.cache import LRUCache
from repro.utils.hashing import hash_prefix, stable_hash_ints
from repro.utils.mathutil import softmax_array, softmax_block
from repro.utils.rng import batched_generators as _batched_rngs
from repro.utils.rng import fast_generator as _fast_rng

#: Default width of one vectorised base block (positions scored per numpy
#: pass).  ``block_size <= 1`` on the oracle selects the scalar reference
#: path; both paths are bit-identical (see ``tests/test_acoustic_parity.py``).
BASE_BLOCK_SIZE = 32

#: Bound on the per-oracle ``_base`` cache: blocks held when vectorised,
#: positions held on the scalar path (same worst-case position budget).
BASE_CACHE_BLOCKS = 64
BASE_CACHE_POSITIONS = BASE_CACHE_BLOCKS * BASE_BLOCK_SIZE


@dataclass(frozen=True)
class OracleParams:
    """Tunable constants of the emission process.

    Defaults were calibrated (see ``tests/test_calibration.py`` and the
    Fig. 5a bench) so that simulated WERs and draft/target agreement land in
    the ranges the paper reports for Whisper tiny/medium on LibriSpeech.
    """

    ref_gain: float = 4.5
    capacity_power: float = 1.6
    confusion_gains: tuple[float, ...] = (2.5, 1.30, 1.05)
    distractor_count: int = 8
    distractor_score: float = -0.6
    distractor_slope: float = 2.0
    distractor_cap: float = 0.45
    distractor_noise_factor: float = 0.40
    shared_noise: float = 0.55
    model_noise_base: float = 0.28
    model_noise_capacity: float = 0.60
    noise_floor: float = 0.35
    noise_slope: float = 1.10
    temperature: float = 0.58
    perturb_window: int = 2
    perturb_noise: float = 0.55
    rank_drop_prob: float = 0.20
    rank_drop_penalty: float = 0.80
    topk: int = 8
    eos_gain: float = 4.0

    def model_noise(self, capacity: float) -> float:
        """Model-specific noise scale; smaller for higher-capacity models."""
        return self.model_noise_base + self.model_noise_capacity * (1.0 - capacity)

    def noise_scale(self, difficulty: float) -> float:
        """Noise multiplier as a function of local acoustic difficulty.

        Easy audio is recognised near-deterministically with high
        confidence; hard audio is both error-prone *and* visibly uncertain.
        This coupling is what makes the paper's normalised-logit truncation
        threshold informative (Fig. 13a) and concentrates errors in
        localized hard segments (Observation 2).
        """
        return self.noise_floor + self.noise_slope * difficulty


class StepResult(NamedTuple):
    """Next-token distribution at one decode position.

    The oracle's step cache stores these and decode sessions hand out the
    cached object itself, so there is one instance per distinct
    ``(position, perturb_level, context_key)``.  A NamedTuple rather than a
    dataclass: tens of thousands are built per corpus decode and tuple
    construction is measurably cheaper.
    """

    position: int
    token: int
    top_prob: float
    topk: tuple[tuple[int, float], ...]

    def rank_of(self, token: int) -> int | None:
        """1-based rank of ``token`` in the top-k, or None if absent."""
        for rank, (candidate, _prob) in enumerate(self.topk, start=1):
            if candidate == token:
                return rank
        return None


#: Memo for deterministic normal draws.  Seeds are content-derived, so the
#: same draw recurs across models (shared acoustic noise) and decode rounds;
#: entries are tiny (~a dozen floats).
_NORMALS_CACHE: LRUCache = LRUCache(maxsize=65536)


def _normals(seed: int, count: int) -> np.ndarray:
    """``count`` deterministic standard-normal draws from ``seed``."""
    key = (seed, count)
    draws = _NORMALS_CACHE.get(key)
    if draws is None:
        draws = _fast_rng(seed).standard_normal(count)
        draws.setflags(write=False)
        _NORMALS_CACHE.put(key, draws)
    return draws


#: Candidate token sets are a pure function of (vocabulary, utterance
#: content, position, candidate-count params) — *not* of the model — so the
#: draft and target of a pairing share one cache per vocabulary.  Keyed by
#: vocabulary identity (Vocabulary is an eq-dataclass, hence unhashable);
#: a finalizer drops the cache when its vocabulary is collected.
_CANDIDATE_CACHES: dict[int, LRUCache] = {}


def _candidate_cache(vocab: Vocabulary) -> LRUCache:
    key = id(vocab)
    cache = _CANDIDATE_CACHES.get(key)
    if cache is None:
        cache = LRUCache(maxsize=65536)
        _CANDIDATE_CACHES[key] = cache
        weakref.finalize(vocab, _CANDIDATE_CACHES.pop, key, None)
    return cache


def clear_acoustic_caches() -> None:
    """Drop the module-level memo caches (for cold-cache benchmarking)."""
    _NORMALS_CACHE.clear()
    for cache in _CANDIDATE_CACHES.values():
        cache.clear()


class EmissionOracle:
    """Deterministic emission process for one (model, utterance) pair.

    ``step(position, perturb_level, context_key)`` returns the model's
    next-token distribution at an audio position.  ``perturb_level`` is the
    number of remaining off-path perturbation steps (0 = anchored);
    ``context_key`` folds the divergent context into the perturbation draw so
    different corrections perturb differently.
    """

    def __init__(
        self,
        model_name: str,
        model_seed: int,
        capacity: float,
        utterance: Utterance,
        vocab: Vocabulary,
        params: OracleParams | None = None,
        block_size: int = BASE_BLOCK_SIZE,
    ) -> None:
        if not 0.0 < capacity <= 1.0:
            raise ValueError(f"capacity must be in (0, 1], got {capacity}")
        self.model_name = model_name
        self.model_seed = model_seed
        self.capacity = capacity
        self.utterance = utterance
        self.vocab = vocab
        self.params = params or OracleParams()
        self.block_size = int(block_size)
        # The step cache: the only memo of finished distributions.  An entry
        # never changes once step() has returned it, so decode-session trie
        # nodes point into it.
        self._cache: dict[tuple[int, int, int], StepResult] = {}
        # Per-position pre-perturbation state: (candidates, candidate array,
        # base scores).  Perturbed variants of a position share it, so
        # re-anchoring after a correction costs one noise draw + softmax,
        # not a full rebuild.  LRU-bounded: on the vectorised path entries
        # are whole blocks keyed by block start; on the scalar path single
        # positions keyed by position (overflow positions past the EOS
        # region use ("ovf", position) keys on either path).
        if self.block_size > 1:
            self._base: LRUCache = LRUCache(maxsize=BASE_CACHE_BLOCKS)
        else:
            self._base = LRUCache(maxsize=BASE_CACHE_POSITIONS)
        self._greedy: list[int] | None = None
        # Per-oracle scalars of the grouped block pass (identical floats to
        # the expressions in _compute_base, precomputed once).
        self._effective_capacity = self.capacity**self.params.capacity_power
        self._own_noise = self.params.model_noise(self.capacity)
        self._drop_scale = max(1.1 - self.capacity, 0.0)
        # Precomputed stable_hash payload prefixes for the per-position
        # seeds (bit-identical to hashing the full argument lists).
        useed = self.utterance.seed
        self._h_shared = hash_prefix(useed, "shared-noise")
        self._h_own = hash_prefix(self.model_seed, useed, "model-noise")
        self._h_drop = hash_prefix(self.model_seed, useed, "rank-drop")
        self._h_perturb = hash_prefix(self.model_seed, useed, "perturb")
        self._h_confusions = hash_prefix(useed, "confusions")
        self._h_distractors = hash_prefix(useed, "distractors")

    # -- public API ----------------------------------------------------------
    @property
    def max_positions(self) -> int:
        """Positions 0..len(tokens)-1 are words; len(tokens) is EOS."""
        return self.utterance.num_tokens + 1

    def step(
        self, position: int, perturb_level: int = 0, context_key: int = 0
    ) -> StepResult:
        """Next-token distribution at ``position``."""
        if position < 0:
            raise ValueError(f"negative position {position}")
        if perturb_level == 0:
            context_key = 0
        key = (position, perturb_level, context_key)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._compute_step(position, perturb_level, context_key)
            self._cache[key] = cached
        return cached

    def greedy_stream(self) -> list[int]:
        """The model's anchored greedy transcript (EOS-terminated)."""
        if self._greedy is None:
            self._greedy = [self.step(pos).token for pos in range(self.max_positions)]
        return list(self._greedy)

    # -- emission process ------------------------------------------------------
    def _candidate_tokens(self, position: int) -> list[int]:
        """Candidate token ids at ``position`` (shared across models)."""
        p = self.params
        cache = _candidate_cache(self.vocab)
        key = (
            self.utterance.content_key,
            position,
            len(p.confusion_gains),
            p.distractor_count,
        )
        cached = cache.get(key)
        if cached is None:
            cached = self._build_candidates(position)
            cache.put(key, cached)
        return cached

    def _build_candidates(self, position: int, rng=None, drng=None) -> list[int]:
        """Candidate set at ``position``; ``rng``/``drng`` inject pre-built
        confusion/distractor generators (the batched prewarm path) and must
        be seeded exactly as the lazy constructions below."""
        p = self.params
        utt_seed = self.utterance.seed
        if position >= self.utterance.num_tokens:
            # EOS region: EOS plus a couple of distractors.
            distractors = self._distractors(
                position, 2, exclude=(self.vocab.eos_id,), rng=drng
            )
            return [self.vocab.eos_id, *distractors]
        ref = self.utterance.tokens[position]
        pool = self.vocab.confusion_pool(ref)
        confusions: list[int] = []
        if pool:
            if rng is None:
                rng = _fast_rng(stable_hash_ints(self._h_confusions, position))
            # tolist() up front: indexing python ints beats boxing one
            # np.int64 per pool element on this hot path.
            order = rng.permutation(len(pool)).tolist()
            for idx in order:
                candidate = pool[idx]
                if candidate != ref and candidate not in confusions:
                    confusions.append(candidate)
                if len(confusions) == len(p.confusion_gains):
                    break
        exclude = (ref, *confusions)
        distractors = self._distractors(
            position, p.distractor_count, exclude, rng=drng
        )
        return [ref, *confusions, *distractors]

    def _distractors(
        self, position: int, count: int, exclude: tuple[int, ...], rng=None
    ) -> list[int]:
        regular = self.vocab.regular_ids()
        if rng is None:
            rng = _fast_rng(stable_hash_ints(self._h_distractors, position))
        picked: list[int] = []
        excluded = set(exclude)
        pool_size = len(regular)
        # Batched draws are stream-identical to repeated scalar draws from
        # the same generator, so over-drawing a block and consuming it in
        # order picks exactly the tokens the one-at-a-time loop would.
        while len(picked) < count:
            for index in rng.integers(0, pool_size, size=count + 4).tolist():
                candidate = regular[index]
                if candidate not in excluded:
                    picked.append(candidate)
                    excluded.add(candidate)
                    if len(picked) == count:
                        break
        return picked

    def step_many(self, queries: "list[tuple[int, int, int]]") -> list[StepResult]:
        """:meth:`step` over ``(position, perturb_level, context_key)``
        triples, in order."""
        return [self.step(position, level, ctx) for position, level, ctx in queries]

    def _base_for(self, position: int) -> tuple[list[int], np.ndarray, np.ndarray]:
        """Base state for one position, via the block or scalar cache."""
        block_size = self.block_size
        if block_size > 1 and position < self.max_positions:
            start = position - position % block_size
            return self._block_for(start)[position - start]
        key = ("ovf", position) if block_size > 1 else position
        base = self._base.get(key)
        if base is None:
            base = self._compute_base(position)
            self._base.put(key, base)
        return base

    def _block_for(self, start: int) -> list[tuple[list[int], np.ndarray, np.ndarray]]:
        block = self._base.get(start)
        if block is None:
            block = self._compute_base_block(start)
            self._base.put(start, block)
        return block

    def _compute_step(
        self, position: int, perturb_level: int, context_key: int
    ) -> StepResult:
        p = self.params
        candidates, cand_arr, scores = self._base_for(position)
        n = len(candidates)

        if perturb_level > 0:
            level_frac = perturb_level / max(p.perturb_window, 1)
            # Model-specific seed: these draws are never shared across
            # models, so skip the cross-model memo and draw directly.
            perturb = p.perturb_noise * level_frac * _fast_rng(
                stable_hash_ints(self._h_perturb, position, perturb_level, context_key)
            ).standard_normal(n)
            scores = scores + perturb

        # Passing the array through is bit-identical to scores.tolist():
        # tolist() round-trips the exact same float64 values.
        prob_arr = softmax_array(scores, temperature=p.temperature)
        probs = prob_arr.tolist()
        # lexsort (last key primary): descending prob, candidate id as the
        # tie-break — the same total order as sorting (-prob, candidate).
        order = np.lexsort((cand_arr, -prob_arr))
        top = order[: p.topk]
        topk = tuple((candidates[i], probs[i]) for i in top)
        return StepResult(
            position=position,
            token=topk[0][0],
            top_prob=topk[0][1],
            topk=topk,
        )

    def _compute_base(self, position: int) -> tuple[list[int], np.ndarray, np.ndarray]:
        """Candidates (list + array) and pre-perturbation scores."""
        p = self.params
        utt = self.utterance
        candidates = self._candidate_tokens(position)
        n = len(candidates)

        if position >= utt.num_tokens:
            gains = np.array([p.eos_gain] + [p.distractor_score] * (n - 1))
            difficulty = 0.05
        else:
            difficulty = utt.difficulty[position]
            gains = np.empty(n)
            effective_capacity = self.capacity**p.capacity_power
            gains[0] = p.ref_gain * (1.0 - difficulty) * effective_capacity
            n_conf = min(len(p.confusion_gains), n - 1 - p.distractor_count)
            n_conf = max(n_conf, 0)
            for idx in range(n_conf):
                gains[1 + idx] = p.confusion_gains[idx] * difficulty
            # Distractors grow competitive with local difficulty: at hard
            # positions many tokens plausibly fit the audio, flattening the
            # distribution (low normalised top logit) like a real ASR
            # decoder's subword lattice does.  The cap keeps the crowd below
            # the real contenders so the reference stays near rank 2 even at
            # severe positions (Fig. 13b).
            distractor_gain = min(
                p.distractor_score + p.distractor_slope * difficulty,
                p.distractor_cap,
            )
            gains[1 + n_conf:] = distractor_gain

        scale = p.noise_scale(difficulty)
        shared = p.shared_noise * scale * _normals(
            stable_hash_ints(self._h_shared, position), n
        )
        own = p.model_noise(self.capacity) * scale * _fast_rng(
            stable_hash_ints(self._h_own, position)
        ).standard_normal(n)
        noise = shared + own
        if position < utt.num_tokens:
            # Distractors crowd the distribution (they carry probability
            # mass at hard positions) but must rarely outrank the real
            # contenders: they move with a single damped *crowd level* per
            # position instead of independent draws, so they depress the
            # normalised top logit without burying the reference token —
            # preserving the failure-rank structure of Fig. 13b.
            n_conf = min(len(p.confusion_gains), n - 1 - p.distractor_count)
            first_distractor = 1 + max(n_conf, 0)
            # noise[fd:] holds exactly shared[fd:] + own[fd:] at this point.
            crowd_level = p.distractor_noise_factor * (
                noise[first_distractor:]
            ).mean() if first_distractor < n else 0.0
            noise[first_distractor:] = crowd_level
        scores = gains + noise

        # Occasional "attention drop" on the reference evidence: when the
        # model errs, the reference sometimes falls below rank 2 (Fig. 13b's
        # rank >= 3 tail).  Larger models are less prone to it.
        drop_draw = _fast_rng(stable_hash_ints(self._h_drop, position)).uniform()
        drop_prob = p.rank_drop_prob * difficulty * max(1.1 - self.capacity, 0.0)
        if position < utt.num_tokens and drop_draw < drop_prob:
            scores[0] -= p.rank_drop_penalty

        return candidates, np.asarray(candidates), scores

    def _compute_base_block(
        self, start: int
    ) -> list[tuple[list[int], np.ndarray, np.ndarray]]:
        """Base state for positions ``[start, stop)`` in grouped numpy passes."""
        return _compute_base_blocks([(self, start)])[0]


def _prewarm_candidates(requests: "list[tuple[EmissionOracle, int]]") -> None:
    """Materialise every uncached candidate set touched by ``requests``,
    constructing all confusion/distractor generators in batched vectorised
    passes.  Candidate sets are utterance-level (model-independent), so
    duplicate keys across a pairing's oracles build once."""
    jobs: dict[tuple, tuple] = {}
    for oracle, start in requests:
        stop = min(start + oracle.block_size, oracle.max_positions)
        cache = _candidate_cache(oracle.vocab)
        p = oracle.params
        utt = oracle.utterance
        num_tokens = utt.num_tokens
        for pos in range(start, stop):
            key = (utt.content_key, pos, len(p.confusion_gains), p.distractor_count)
            if key in jobs or key in cache:
                continue
            need_conf = pos < num_tokens and bool(
                oracle.vocab.confusion_pool(utt.tokens[pos])
            )
            jobs[key] = (oracle, pos, cache, need_conf)
    if not jobs:
        return
    job_list = list(jobs.items())
    conf_jobs = [job for job in job_list if job[1][3]]
    conf_rngs = iter(
        _batched_rngs(
            [
                stable_hash_ints(oracle._h_confusions, pos)
                for _key, (oracle, pos, _cache, _nc) in conf_jobs
            ]
        )
    )
    conf_by_key = {
        key: rng for (key, _job), rng in zip(conf_jobs, conf_rngs, strict=True)
    }
    dist_rngs = _batched_rngs(
        [
            stable_hash_ints(oracle._h_distractors, pos)
            for _key, (oracle, pos, _cache, _nc) in job_list
        ]
    )
    for (key, (oracle, pos, cache, _need_conf)), drng in zip(
        job_list, dist_rngs, strict=True
    ):
        cache.put(
            key, oracle._build_candidates(pos, rng=conf_by_key.get(key), drng=drng)
        )


def _compute_base_blocks(
    requests: "list[tuple[EmissionOracle, int]]",
) -> list[list[tuple[list[int], np.ndarray, np.ndarray]]]:
    """Base state for several ``(oracle, block_start)`` requests in grouped
    numpy passes — one stacked array pass per (params, candidate count,
    word/EOS region) group, across *all* requested oracles at once.

    Bit-identity contract with :meth:`EmissionOracle._compute_base`: rows
    are grouped so every row keeps the exact shape — and therefore the
    exact numpy reduction tree — of its scalar counterpart (every op along
    the stacked axis is row-wise independent); per-position RNG streams are
    drawn from the same seeds; all arithmetic keeps the scalar path's
    operand order (per-oracle scalars become per-row factors, which is the
    same elementwise float64 product).  Only result-irrelevant work is
    skipped (e.g. the attention-drop draw at EOS positions, which the
    scalar path draws but never applies).

    Returns one base-block list per request, in request order.  Anchored
    next-token distributions are eagerly written to each oracle's step
    cache as a side effect.
    """
    _prewarm_candidates(requests)
    row_oracle: list[EmissionOracle] = []
    row_pos: list[int] = []
    row_cands: list[list[int]] = []
    row_out: list[tuple[list, int]] = []
    results: list[list] = []
    groups: dict[tuple, list[int]] = {}
    for oracle, start in requests:
        stop = min(start + oracle.block_size, oracle.max_positions)
        bases: list = [None] * (stop - start)
        results.append(bases)
        num_tokens = oracle.utterance.num_tokens
        params = oracle.params
        for offset, pos in enumerate(range(start, stop)):
            cands = oracle._candidate_tokens(pos)
            index = len(row_oracle)
            row_oracle.append(oracle)
            row_pos.append(pos)
            row_cands.append(cands)
            row_out.append((bases, offset))
            key = (params, len(cands), pos >= num_tokens)
            groups.setdefault(key, []).append(index)

    for (p, n, is_eos), indices in groups.items():
        rows = len(indices)
        # Shared-noise draws recur across models (the memo hits for the
        # second model of a pairing); misses expand their PCG64 states in
        # one vectorised pass.
        shared_rows: list = [None] * rows
        miss_rows: list[int] = []
        miss_keys: list[tuple[int, int]] = []
        for row, i in enumerate(indices):
            key = (stable_hash_ints(row_oracle[i]._h_shared, row_pos[i]), n)
            draws = _NORMALS_CACHE.get(key)
            if draws is None:
                miss_rows.append(row)
                miss_keys.append(key)
            else:
                shared_rows[row] = draws
        for row, key, rng in zip(
            miss_rows,
            miss_keys,
            _batched_rngs([key[0] for key in miss_keys]),
            strict=True,
        ):
            draws = rng.standard_normal(n)
            draws.setflags(write=False)
            _NORMALS_CACHE.put(key, draws)
            shared_rows[row] = draws
        shared2 = np.stack(shared_rows)
        # Own-noise seeds are model-specific (never shared across models),
        # so the draws bypass the cross-model memo.
        own2 = np.stack(
            [
                rng.standard_normal(n)
                for rng in _batched_rngs(
                    [
                        stable_hash_ints(row_oracle[i]._h_own, row_pos[i])
                        for i in indices
                    ]
                )
            ]
        )
        if is_eos:
            scale = p.noise_scale(0.05)
            gains2 = np.empty((rows, n))
            gains2[:, 0] = p.eos_gain
            gains2[:, 1:] = p.distractor_score
            own_scale = np.array([row_oracle[i]._own_noise for i in indices]) * scale
            noise2 = p.shared_noise * scale * shared2 + own_scale[:, None] * own2
            scores2 = gains2 + noise2
        else:
            diff = np.array(
                [row_oracle[i].utterance.difficulty[row_pos[i]] for i in indices]
            )
            effcap = np.array([row_oracle[i]._effective_capacity for i in indices])
            own_arr = np.array([row_oracle[i]._own_noise for i in indices])
            drop_arr = np.array([row_oracle[i]._drop_scale for i in indices])
            gains2 = np.empty((rows, n))
            gains2[:, 0] = p.ref_gain * (1.0 - diff) * effcap
            n_conf = min(len(p.confusion_gains), n - 1 - p.distractor_count)
            n_conf = max(n_conf, 0)
            for idx in range(n_conf):
                gains2[:, 1 + idx] = p.confusion_gains[idx] * diff
            gains2[:, 1 + n_conf:] = np.minimum(
                p.distractor_score + p.distractor_slope * diff,
                p.distractor_cap,
            )[:, None]
            scale = p.noise_scale(diff)
            noise2 = (p.shared_noise * scale)[:, None] * shared2
            noise2 += (own_arr * scale)[:, None] * own2
            first_distractor = 1 + n_conf
            if first_distractor < n:
                crowd = p.distractor_noise_factor * noise2[
                    :, first_distractor:
                ].mean(axis=1)
                noise2[:, first_distractor:] = crowd[:, None]
            scores2 = gains2 + noise2
            # tolist(): the row loop compares python floats, and the
            # float64 round-trip is exact (same comparison the scalar
            # path makes).
            drop_probs = (p.rank_drop_prob * diff * drop_arr).tolist()
            drop_rows = [
                (row, i) for row, i in enumerate(indices) if drop_probs[row] > 0.0
            ]
            drop_rngs = _batched_rngs(
                [
                    stable_hash_ints(row_oracle[i]._h_drop, row_pos[i])
                    for _row, i in drop_rows
                ]
            )
            for (row, _i), rng in zip(drop_rows, drop_rngs, strict=True):
                if rng.uniform() < drop_probs[row]:
                    scores2[row, 0] -= p.rank_drop_penalty

        # Anchored next-token distributions for the whole group in one
        # softmax + lexsort pass (axis=-1 keeps rows independent and
        # bit-identical to the per-row scalar calls).  cand2 is built
        # once and its rows double as the per-position candidate arrays
        # (read-only downstream, so shared views are safe).
        prob2 = softmax_block(scores2, temperature=p.temperature)
        cand2 = np.array([row_cands[i] for i in indices])
        order2 = np.lexsort((cand2, -prob2), axis=-1)
        topk_n = p.topk
        for row, i in enumerate(indices):
            candidates = row_cands[i]
            bases, offset = row_out[i]
            bases[offset] = (candidates, cand2[row], scores2[row])
            pos = row_pos[i]
            cache = row_oracle[i]._cache
            key = (pos, 0, 0)
            if key not in cache:
                probs = prob2[row].tolist()
                top = order2[row, :topk_n].tolist()
                topk = tuple((candidates[c], probs[c]) for c in top)
                cache[key] = StepResult(
                    position=pos,
                    token=topk[0][0],
                    top_prob=topk[0][1],
                    topk=topk,
                )
    return results


def prewarm_oracles(oracles: "list[EmissionOracle]") -> None:
    """Materialise every uncached base block of ``oracles`` in one grouped
    cross-oracle array pass (the corpus-grid form of the vectorised scoring
    path; see :func:`_compute_base_blocks` for the bit-identity contract).

    Scalar-path oracles (``block_size <= 1``) are left untouched — the
    scalar path is the per-position reference and computes lazily.
    """
    requests: list[tuple[EmissionOracle, int]] = []
    seen: set[tuple[int, int]] = set()
    for oracle in oracles:
        block_size = oracle.block_size
        if block_size <= 1:
            continue
        for start in range(0, oracle.max_positions, block_size):
            if (id(oracle), start) in seen:
                continue
            seen.add((id(oracle), start))
            if oracle._base.get(start) is None:
                requests.append((oracle, start))
    if not requests:
        return
    for (oracle, start), block in zip(
        requests, _compute_base_blocks(requests), strict=True
    ):
        oracle._base.put(start, block)


@dataclass
class OracleFactory:
    """Builds per-utterance oracles for a model, with a bounded LRU cache.

    The cache key is :attr:`Utterance.content_key` — the same key the model
    layer uses — so an oracle is never double-built for the same audio by
    two caching layers, and same-id utterances from differently-configured
    corpora don't collide.  ``cache_size <= 0`` disables the bound.
    """

    model_name: str
    model_seed: int
    capacity: float
    vocab: Vocabulary
    params: OracleParams = field(default_factory=OracleParams)
    cache_size: int = 64
    block_size: int = BASE_BLOCK_SIZE
    _cache: LRUCache = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self._cache is None:
            self._cache = LRUCache(self.cache_size)

    def for_utterance(self, utterance: Utterance) -> EmissionOracle:
        key = utterance.content_key
        oracle = self._cache.get(key)
        if oracle is None:
            oracle = EmissionOracle(
                self.model_name,
                self.model_seed,
                self.capacity,
                utterance,
                self.vocab,
                self.params,
                block_size=self.block_size,
            )
            self._cache.put(key, oracle)
        return oracle
