"""Bit-identity parity suite: vectorised oracle scoring == scalar reference.

The block-vectorised emission path (grouped array passes over position
blocks, cross-oracle prewarm) carries a hard contract: every number it
produces is **bit-identical** to the scalar per-position reference
(``oracle_block_size=1``) — same tokens, same float probabilities, same
SimClock records.  This suite pins that contract at each seam:

* anchored + perturbed + EOS-region + overflow positions, across
  utterances, capacities, model seeds and block sizes (hypothesis-driven);
* block boundaries (first/last position of a block, the ragged final
  block, positions past ``max_positions``);
* ``step_many`` (a loop over ``step``) against the scalar reference;
* ``prewarm_oracles`` / ``prewarm_models`` / ``_prewarm_candidates`` (the
  grouped cross-oracle passes) — warming must never change a value;
* ``score_batch`` (a per-session loop over ``verify_eval`` /
  ``step_frontier``) on the block path against solo calls on the scalar
  path, latency billing included;
* a whole serve run on the ``merged`` router: records and ``ScheduleStats``
  match between the two oracle paths;
* ``batched_generators`` / ``batched_seed_states`` (the vectorised
  SeedSequence expansion) against numpy's own seeding, fallbacks included;
* the bounded ``_base`` LRU: a long sweep keeps the per-oracle block cache
  flat, and values recomputed after eviction are unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.methods import build_method
from repro.models import acoustic
from repro.models.acoustic import (
    BASE_BLOCK_SIZE,
    EmissionOracle,
    prewarm_oracles,
)
from repro.models.latency import SimClock
from repro.models.registry import model_pair
from repro.models.simulated import prewarm_models
from repro.serving import ClusterSpec, ContinuousBatchScheduler
from repro.serving.arrivals import poisson_trace
from repro.utils import rng as rng_module
from repro.utils.rng import (
    batched_generators,
    batched_seed_states,
    fast_generator,
)


def _oracle(utterance, vocab, block_size, capacity=0.8, seed=1, params=None):
    return EmissionOracle(
        "m", seed, capacity, utterance, vocab, params, block_size=block_size
    )


def _probe_keys(utterance):
    """(position, perturb_level, context_key) probes covering every branch:
    anchored, perturbed (context-sensitive), the EOS region and overflow
    positions past ``max_positions``."""
    n = utterance.num_tokens
    positions = sorted({0, 1, n // 2, max(n - 1, 0), n, n + 1, n + 3})
    keys = []
    for pos in positions:
        keys.append((pos, 0, 0))
        keys.append((pos, 1, 7))
        keys.append((pos, 2, 123))
    return keys


def _assert_steps_equal(a, b):
    assert a.position == b.position
    assert a.token == b.token
    assert a.top_prob == b.top_prob  # exact float equality: bit-identity
    assert a.topk == b.topk


class TestScalarVectorParity:
    def test_full_corpus_all_positions(self, clean_dataset, vocab):
        for utterance in clean_dataset:
            scalar = _oracle(utterance, vocab, block_size=1)
            vector = _oracle(utterance, vocab, block_size=BASE_BLOCK_SIZE)
            assert scalar.greedy_stream() == vector.greedy_stream()
            for key in _probe_keys(utterance):
                _assert_steps_equal(scalar.step(*key), vector.step(*key))

    def test_block_boundary_positions(self, utterance, vocab):
        """First/last position of each block and the ragged final block."""
        block_size = 4
        scalar = _oracle(utterance, vocab, block_size=1)
        vector = _oracle(utterance, vocab, block_size=block_size)
        ceiling = vector.max_positions
        probes = set()
        for start in range(0, ceiling, block_size):
            probes.update({start, start + block_size - 1, ceiling - 1})
        for pos in sorted(p for p in probes if p >= 0):
            _assert_steps_equal(scalar.step(pos), vector.step(pos))

    def test_eos_branch_beyond_num_tokens(self, utterance, vocab):
        """``position >= num_tokens``: EOS region inside ``max_positions``
        and overflow positions past it (scalar fallback on both paths)."""
        scalar = _oracle(utterance, vocab, block_size=1)
        vector = _oracle(utterance, vocab, block_size=BASE_BLOCK_SIZE)
        n = utterance.num_tokens
        for pos in (n, n + 1, n + 2, n + 5):
            _assert_steps_equal(scalar.step(pos), vector.step(pos))
            _assert_steps_equal(scalar.step(pos, 1, 9), vector.step(pos, 1, 9))

    @settings(max_examples=20, deadline=None)
    @given(
        index=st.integers(min_value=0, max_value=5),
        capacity=st.floats(min_value=0.3, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32),
        block_size=st.sampled_from([2, 3, 5, 8, BASE_BLOCK_SIZE]),
        level=st.integers(min_value=0, max_value=3),
        context=st.integers(min_value=0, max_value=2**20),
    )
    def test_parity_hypothesis(
        self, clean_dataset, vocab, index, capacity, seed, block_size, level, context
    ):
        utterance = clean_dataset[index % len(clean_dataset)]
        scalar = _oracle(utterance, vocab, 1, capacity=capacity, seed=seed)
        vector = _oracle(utterance, vocab, block_size, capacity=capacity, seed=seed)
        for pos in (0, utterance.num_tokens // 2, utterance.num_tokens):
            _assert_steps_equal(
                scalar.step(pos, level, context), vector.step(pos, level, context)
            )

    def test_step_many_matches_scalar_loop(self, utterance, vocab):
        scalar = _oracle(utterance, vocab, block_size=1)
        vector = _oracle(utterance, vocab, block_size=BASE_BLOCK_SIZE)
        queries = _probe_keys(utterance)
        # Duplicates exercise the memo path inside one batch.
        queries = queries + queries[:3]
        batched = vector.step_many(queries)
        solo = [scalar.step(*query) for query in queries]
        for a, b in zip(solo, batched, strict=True):
            _assert_steps_equal(a, b)

    def test_prewarm_oracles_changes_no_value(self, clean_dataset, vocab):
        """The grouped cross-oracle pass (``_compute_base_blocks`` +
        ``_prewarm_candidates``) only warms caches."""
        for utterance in clean_dataset[:3]:
            scalar = _oracle(utterance, vocab, block_size=1)
            warmed = _oracle(utterance, vocab, block_size=BASE_BLOCK_SIZE)
            prewarm_oracles([warmed])
            prewarm_oracles([warmed])  # idempotent
            for key in _probe_keys(utterance):
                _assert_steps_equal(scalar.step(*key), warmed.step(*key))

    def test_prewarm_oracles_skips_scalar_path(self, utterance, vocab):
        scalar = _oracle(utterance, vocab, block_size=1)
        prewarm_oracles([scalar])
        assert len(scalar._base) == 0  # the reference path stays lazy

    def test_prewarm_models_cross_product(self, clean_dataset, vocab):
        units = list(clean_dataset[:2])
        draft, target = model_pair("whisper", vocab)
        draft_ref, target_ref = model_pair("whisper", vocab, oracle_block_size=1)
        prewarm_models([draft, target], units)
        for unit in units:
            for warm, ref in ((draft, draft_ref), (target, target_ref)):
                assert (
                    warm.oracle(unit).greedy_stream()
                    == ref.oracle(unit).greedy_stream()
                )


class TestSessionBatchParity:
    """``score_batch`` vs solo per-session calls."""

    def _frontiers(self, model, units):
        """Per-unit (session, prefixes) pairs over fresh clocks: the empty
        prefix, on-path prefixes, and one off-path (perturbed) branch."""
        entries = []
        off_path = model.vocab.regular_ids()[0]
        for unit in units:
            session = model.session(unit, SimClock())
            session.prefill()
            tokens = list(unit.tokens[:2])
            prefixes = [(), (tokens[0],), tuple(tokens), (*tokens, off_path)]
            entries.append((session, prefixes))
        return entries

    @pytest.mark.parametrize("kind", ["verify", "draft"])
    def test_score_batch_matches_solo_calls(self, clean_dataset, vocab, kind):
        units = list(clean_dataset[:3])
        vector_model = model_pair("whisper", vocab)[1]
        scalar_model = model_pair("whisper", vocab, oracle_block_size=1)[1]
        batch_entries = self._frontiers(vector_model, units)
        solo_entries = self._frontiers(scalar_model, units)
        batched = vector_model.score_batch(batch_entries, kind=kind)
        for (b_session, _), (s_session, prefixes), results in zip(
            batch_entries, solo_entries, batched, strict=True
        ):
            if kind == "verify":
                solo = s_session.verify_eval(prefixes)
            else:
                solo = s_session.step_frontier(prefixes, kind=kind)
            assert results == solo
            # Latency billing parity: same events, same totals.
            assert [
                (e.model, e.kind, e.ms) for e in b_session.clock.events
            ] == [(e.model, e.kind, e.ms) for e in s_session.clock.events]

    def test_score_batch_rejects_empty_frontier(self, clean_dataset, vocab):
        model = model_pair("whisper", vocab)[1]
        session = model.session(clean_dataset[0], SimClock())
        session.prefill()
        with pytest.raises(ValueError):
            model.score_batch([(session, [])])


class TestServeParity:
    """The serving loop sees the same phases on either oracle path."""

    def test_merged_cluster_scalar_equals_block_oracle(self, clean_dataset, vocab):
        trace = poisson_trace(24, 32.0, len(clean_dataset), seed=5)
        runs = []
        for block_size in (1, None):  # scalar reference, then the default
            draft, target = model_pair("whisper", vocab, oracle_block_size=block_size)
            scheduler = ContinuousBatchScheduler(
                build_method("specasr-asp", draft, target),
                cluster=ClusterSpec(devices=4, router="merged"),
            )
            records = scheduler.run(trace, clean_dataset)
            outcomes = [
                (r.status, r.tokens, r.decode_ms, r.first_token_ms, r.finish_ms)
                for r in records
            ]
            runs.append((outcomes, scheduler.last_stats))
        assert runs[0] == runs[1]
        assert runs[0][1].mean_batch_occupancy > 1.5  # verify passes coalesced


class TestBatchedGenerators:
    """The vectorised SeedSequence expansion behind the grouped passes."""

    EDGE_SEEDS = [0, 1, 2025, 2**31, 2**32 - 1, 2**32, 2**63 + 11, 2**64 - 1]

    def test_import_probe_passed(self):
        # The probe compares against numpy's own expansion at import time;
        # on any numpy this repo supports it must pass (otherwise the whole
        # batched path silently degrades to per-seed construction).
        assert rng_module._BATCH_OK is True

    def test_states_match_seedsequence(self):
        seeds = self.EDGE_SEEDS + [
            int(x) for x in fast_generator(99).integers(0, 2**63, size=32)
        ]
        states = batched_seed_states(seeds)
        for row, seed in enumerate(seeds):
            expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
            assert np.array_equal(states[row], expected)

    def test_generators_match_default_rng(self):
        for seed, rng in zip(
            self.EDGE_SEEDS, batched_generators(self.EDGE_SEEDS), strict=True
        ):
            stock = np.random.default_rng(seed)
            assert rng.standard_normal(4).tolist() == stock.standard_normal(
                4
            ).tolist()
            assert rng.uniform() == stock.uniform()
            assert rng.integers(0, 1000) == stock.integers(0, 1000)

    def test_fallback_for_out_of_range_seeds(self):
        seeds = [3, 2**64 + 17]  # beyond 64-bit: per-seed fallback path
        for seed, rng in zip(seeds, batched_generators(seeds), strict=True):
            assert (
                rng.standard_normal(4).tolist()
                == np.random.default_rng(seed).standard_normal(4).tolist()
            )

    def test_empty(self):
        assert batched_generators([]) == []


class TestBaseCacheBounded:
    """Satellite: the per-oracle ``_base`` cache is LRU-bounded, so a long
    sweep keeps memory flat — and eviction never changes a value."""

    def test_long_sweep_memory_flat_vectorised(
        self, clean_dataset, vocab, monkeypatch
    ):
        utterance = max(clean_dataset, key=lambda u: u.num_tokens)
        monkeypatch.setattr(acoustic, "BASE_CACHE_BLOCKS", 3)
        vector = _oracle(utterance, vocab, block_size=2)
        assert vector._base.maxsize == 3
        scalar = _oracle(utterance, vocab, block_size=1)
        positions = list(range(vector.max_positions)) + [vector.max_positions + 1]
        for _sweep in range(2):
            for pos in positions:
                vector._cache.clear()  # force re-reads through _base
                _assert_steps_equal(scalar.step(pos), vector.step(pos))
                assert len(vector._base) <= 3
        assert vector._base.evictions > 0  # the sweep actually overflowed

    def test_long_sweep_memory_flat_scalar(self, clean_dataset, vocab, monkeypatch):
        utterance = max(clean_dataset, key=lambda u: u.num_tokens)
        monkeypatch.setattr(acoustic, "BASE_CACHE_POSITIONS", 5)
        scalar = _oracle(utterance, vocab, block_size=1)
        assert scalar._base.maxsize == 5
        reference = _oracle(utterance, vocab, block_size=1)
        for pos in range(scalar.max_positions):
            scalar._cache.clear()
            scalar.step(pos)
            assert len(scalar._base) <= 5
        assert scalar._base.evictions > 0
        # Re-reading an evicted position recomputes the identical value.
        _assert_steps_equal(scalar.step(0), reference.step(0))
