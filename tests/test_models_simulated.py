"""Tests for SimulatedASRModel / DecodeSession."""

import pytest

from repro.models.acoustic import BASE_BLOCK_SIZE
from repro.models.latency import KIND_DRAFT, KIND_VERIFY, SimClock
from repro.models.registry import model_pair
from repro.models.simulated import (
    EMBEDDINGS_PER_SECOND,
    TEXT_PROMPT_TOKENS,
    DecodeSession,
)
from repro.utils.hashing import stable_hash


class TestSessionLifecycle:
    def test_prefill_required_before_step(self, whisper_pair, utterance):
        _, target = whisper_pair
        session = target.session(utterance, SimClock())
        with pytest.raises(RuntimeError):
            session.step(())

    def test_double_prefill_rejected(self, whisper_pair, utterance):
        _, target = whisper_pair
        session = target.session(utterance, SimClock())
        session.prefill()
        with pytest.raises(RuntimeError):
            session.prefill()

    def test_prefill_records_events_and_kv(self, whisper_pair, utterance):
        _, target = whisper_pair
        clock = SimClock()
        session = target.session(utterance, clock)
        session.prefill()
        expected_prompt = (
            int(utterance.duration_s * EMBEDDINGS_PER_SECOND) + TEXT_PROMPT_TOKENS
        )
        assert session.prompt_tokens == expected_prompt
        assert clock.count_for_kind("prefill") == 1
        assert clock.count_for_kind("encode") == 1
        assert clock.tokens_for_kind("prefill") == expected_prompt


class TestStepping:
    def test_peek_is_free(self, whisper_pair, utterance):
        _, target = whisper_pair
        clock = SimClock()
        session = target.session(utterance, clock)
        session.peek(())
        assert clock.total_ms() == 0.0

    def test_step_charges_latency(self, whisper_pair, utterance):
        _, target = whisper_pair
        clock = SimClock()
        session = target.session(utterance, clock)
        session.prefill()
        before = clock.total_ms()
        session.step(())
        assert clock.total_ms() > before

    def test_step_matches_peek(self, whisper_pair, utterance):
        _, target = whisper_pair
        session = target.session(utterance, SimClock())
        session.prefill()
        assert session.step(()).token == session.peek(()).token

    def test_frontier_batch_single_event(self, whisper_pair, utterance):
        draft, _ = whisper_pair
        clock = SimClock()
        session = draft.session(utterance, clock)
        session.prefill()
        results = session.step_frontier([(), (5,)])
        assert len(results) == 2
        assert clock.count_for_kind("draft") == 1
        assert clock.tokens_for_kind("draft") == 2

    def test_frontier_batch_cheaper_than_two_steps(self, whisper_pair, utterance):
        draft, _ = whisper_pair
        clock_a = SimClock()
        session_a = draft.session(utterance, clock_a)
        session_a.prefill()
        session_a.step_frontier([(), (5,)])
        batched = clock_a.total_for_kind("draft")

        clock_b = SimClock()
        session_b = draft.session(utterance, clock_b)
        session_b.prefill()
        session_b.step((), kind="draft")
        session_b.step((5,), kind="draft")
        sequential = clock_b.total_for_kind("draft")
        assert batched < sequential

    def test_empty_frontier_rejected(self, whisper_pair, utterance):
        draft, _ = whisper_pair
        session = draft.session(utterance, SimClock())
        session.prefill()
        with pytest.raises(ValueError):
            session.step_frontier([])

    def test_verify_eval_billing(self, whisper_pair, utterance):
        _, target = whisper_pair
        clock = SimClock()
        session = target.session(utterance, clock)
        session.prefill()
        prefixes = [(), (1,), (1, 2)]
        results = session.verify_eval(prefixes, billed_tokens=2)
        assert len(results) == 3
        assert clock.tokens_for_kind("verify") == 2

    def test_passes_bill_prompt_plus_depth(self, whisper_pair, utterance):
        """Every pass attends over ``prompt + depth`` cached positions: the
        deepest prefix for a draft frontier, the shallowest for a verify."""
        _, target = whisper_pair
        clock = SimClock()
        session = target.session(utterance, clock)
        session.prefill()
        prompt = session.prompt_tokens
        greedy = tuple(target.greedy_transcript(utterance))

        def billed_context() -> int:
            return clock.events[-1].cached_tokens

        for depth in range(4):
            session.step(greedy[:depth])
            assert billed_context() == prompt + depth
        session.step_frontier([greedy[:1], greedy[:3], greedy[:2]])
        assert billed_context() == prompt + 3
        session.verify_eval([greedy[:2], greedy[:4], greedy[:3]])
        assert billed_context() == prompt + 2
        frontier = [greedy[:3], greedy[:1]]
        target.score_batch([(session, frontier)], kind=KIND_VERIFY)
        assert billed_context() == prompt + 1
        target.score_batch([(session, frontier)], kind=KIND_DRAFT)
        assert billed_context() == prompt + 3
        # Rollback only prunes the trie; billing is unchanged after it.
        session.cursor(greedy[:1]).rollback()
        session.step(greedy[:2])
        assert billed_context() == prompt + 2

    @pytest.mark.parametrize("block_size", [1, BASE_BLOCK_SIZE])
    def test_steps_are_the_oracle_cache_entries(
        self, vocab, clean_dataset, block_size
    ):
        """The oracle's step cache is the only memo: sessions hand out the
        cached object itself, on and off the model's own greedy path."""
        _, target = model_pair("whisper", vocab, oracle_block_size=block_size)
        utterance = clean_dataset[2]
        oracle = target.oracle(utterance)
        session = target.session(utterance, SimClock())
        session.prefill()

        def cache_entry(prefix):
            state = session.perturb_state(prefix)
            context = stable_hash("ctx", prefix[-3:]) if state else 0
            return oracle._cache[(len(prefix), state, context)]

        greedy = oracle.greedy_stream()
        on_path = tuple(greedy[:3])
        off_path = on_path[:-1] + (session.peek(on_path[:-1]).topk[1][0],)
        assert session.perturb_state(on_path) == 0
        assert session.perturb_state(off_path) > 0
        for prefix in (on_path, off_path):
            assert session.peek(prefix) is cache_entry(prefix)
        # A verify pass over several nodes hands out the entries too.
        deeper = [on_path + (greedy[3],), off_path + (session.peek(off_path).token,)]
        assert session.perturb_state(deeper[1]) > 0
        for prefix, step in zip(deeper, session.verify_eval(deeper), strict=True):
            assert step is cache_entry(prefix)


class TestAudioAnchoring:
    def test_greedy_decode_is_anchored(self, whisper_pair, utterance):
        """Following the model's own outputs never triggers perturbation."""
        _, target = whisper_pair
        session = target.session(utterance, SimClock())
        prefix: list[int] = []
        for _ in range(utterance.num_tokens):
            assert session.perturb_state(prefix) == 0
            prefix.append(session.peek(prefix).token)

    def test_divergence_perturbs_then_reanchors(
        self, whisper_pair, clean_dataset, vocab
    ):
        """Injecting a wrong token perturbs the next steps, after which the
        model re-anchors to its greedy stream — the audio-conditioning
        property the paper's recycling strategy relies on."""
        draft, _ = whisper_pair
        utterance = clean_dataset[2]
        session = draft.session(utterance, SimClock())
        greedy = draft.oracle(utterance).greedy_stream()
        window = draft.oracle_params.perturb_window
        # Take the greedy prefix of length 3, then swap in a wrong token.
        prefix = tuple(greedy[:3])
        wrong = prefix[:-1] + (prefix[-1] + 1,)
        assert session.perturb_state(wrong) == window
        # Extend along whatever the model now produces: the level decays.
        current = wrong
        for _ in range(window):
            token = session.peek(current).token
            current = current + (token,)
        assert session.perturb_state(current) == 0
        # Re-anchored: next token equals the greedy stream at that position.
        assert session.peek(current).token == greedy[len(current)]

    def test_transcript_helper_strips_eos(self, whisper_pair, utterance, vocab):
        _, target = whisper_pair
        transcript = target.greedy_transcript(utterance)
        assert vocab.eos_id not in transcript

    def test_session_is_decode_session(self, whisper_pair, utterance):
        _, target = whisper_pair
        assert isinstance(target.session(utterance, SimClock()), DecodeSession)
