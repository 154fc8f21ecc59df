"""Property tests: trie-cursor sessions match the legacy tuple-prefix path.

The reference implementation below is a line-for-line port of the seed's
tuple-keyed divergence-state algorithm (``_states`` dict, forward walk from
the longest cached ancestor).  Cursor-based sessions must agree with it on
perturbation state and on every next-token distribution, over random token
trees that mix on-greedy and off-greedy branches.  :class:`TestSessionContract`
checks that the one session class behaves the same over the acoustic, text
and scripted emissions.
"""

from __future__ import annotations

import random

import pytest

from repro.models.latency import (
    KIND_DECODE,
    KIND_DRAFT,
    KIND_PREFILL,
    KIND_VERIFY,
    LatencyProfile,
    SimClock,
    forward_ms,
)
from repro.utils.hashing import stable_hash


class LegacyStateTracker:
    """The seed's tuple-keyed perturbation-state algorithm."""

    def __init__(self, oracle, window: int) -> None:
        self._oracle = oracle
        self._window = window
        self._states: dict[tuple, int] = {(): 0}

    def _context_key(self, prefix: tuple) -> int:
        return stable_hash("ctx", prefix[-3:])

    def perturb_state(self, prefix: tuple) -> int:
        state = self._states.get(prefix)
        if state is not None:
            return state
        depth = len(prefix) - 1
        while depth >= 0 and prefix[:depth] not in self._states:
            depth -= 1
        state = self._states[prefix[:depth]] if depth >= 0 else 0
        for pos in range(max(depth, 0), len(prefix)):
            sub = prefix[:pos]
            expected = self._oracle.step(
                pos, state, self._context_key(sub) if state else 0
            ).token
            state = max(state - 1, 0) if prefix[pos] == expected else self._window
            self._states[prefix[: pos + 1]] = state
        return state

    def step(self, prefix: tuple):
        state = self.perturb_state(prefix)
        context = self._context_key(prefix) if state else 0
        return self._oracle.step(len(prefix), state, context)


def _random_prefixes(session, rng, count=120, max_len=18):
    """Random prefixes biased towards the model's own greedy continuations."""
    prefixes = [()]
    for _ in range(count):
        prefix = ()
        for _ in range(rng.randrange(max_len)):
            greedy = session.peek(prefix).token
            if rng.random() < 0.7:
                token = greedy
            else:
                topk = session.peek(prefix).topk
                token = rng.choice([tok for tok, _ in topk])
            prefix = prefix + (token,)
            prefixes.append(prefix)
    return prefixes


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cursor_states_match_legacy_walk(whisper_pair, clean_dataset, seed):
    _, target = whisper_pair
    utterance = clean_dataset[seed % len(clean_dataset)]
    session = target.session(utterance, SimClock())
    legacy = LegacyStateTracker(
        target.oracle(utterance), target.oracle_params.perturb_window
    )
    rng = random.Random(seed)
    for prefix in _random_prefixes(session, rng):
        assert session.perturb_state(prefix) == legacy.perturb_state(prefix), prefix
        got = session.peek(prefix)
        want = legacy.step(prefix)
        assert (got.token, got.top_prob, got.topk) == (
            want.token,
            want.top_prob,
            want.topk,
        ), prefix


def test_cursor_advance_matches_tuple_calls(whisper_pair, clean_dataset):
    """Advancing cursors token-by-token equals passing full tuples."""
    draft, _ = whisper_pair
    utterance = clean_dataset[0]
    tuple_session = draft.session(utterance, SimClock())
    cursor_session = draft.session(utterance, SimClock())
    rng = random.Random(7)
    for _ in range(40):
        cursor = cursor_session.cursor()
        prefix = ()
        for _ in range(rng.randrange(14)):
            token = rng.choice([tok for tok, _ in tuple_session.peek(prefix).topk[:3]])
            cursor = cursor.advance(token)
            prefix = prefix + (token,)
            assert len(cursor) == len(prefix)
            assert cursor.tokens == prefix
            got = cursor_session.peek(cursor)
            want = tuple_session.peek(prefix)
            assert got == want


def test_rollback_prunes_dead_branches(vocab, clean_dataset):
    # A fresh model: the trie is shared per (model, utterance), so reusing
    # the session-scoped fixture would start from other tests' branches.
    from repro.models.registry import model_pair

    _, target = model_pair("whisper", vocab)
    utterance = clean_dataset[1]
    clock = SimClock()
    session = target.session(utterance, clock)
    session.prefill()
    cursor = session.cursor()
    # Explore several wrong branches at each committed position, then commit
    # the greedy token and roll back with pruning.
    for _ in range(8):
        step = session.peek(cursor)
        for wrong, _prob in step.topk[1:4]:
            probe = cursor.advance(wrong)
            session.peek(probe)  # materialise a dead branch
        cursor = cursor.advance(step.token)
        cursor.rollback()
    # After pruning, the trie holds the committed chain (plus at most the
    # live frontier below it), not the ~3 dead probes per position.
    assert session.trie_size() <= 2 * len(cursor) + 4


def test_foreign_cursor_falls_back_to_tokens(whisper_pair, clean_dataset):
    draft, target = whisper_pair
    utterance = clean_dataset[0]
    draft_session = draft.session(utterance, SimClock())
    target_session = target.session(utterance, SimClock())
    prefix = tuple(target.greedy_transcript(utterance)[:5])
    foreign = draft_session.cursor(prefix)
    assert target_session.peek(foreign) == target_session.peek(prefix)


def _acoustic_case(vocab, clean_dataset):
    # A fresh model: the acoustic trie is shared per (model, utterance).
    from repro.models.registry import model_pair

    _, target = model_pair("whisper", vocab)
    utterance = clean_dataset[0]
    return target, utterance, utterance.num_tokens + 8


def _text_case(vocab, clean_dataset):
    from repro.data.text_tasks import TextTaskConfig, build_text_corpus
    from repro.models.textlm import SimulatedTextLM

    profile = LatencyProfile("t", 5.0, 0.2, 1.0, 0.05)
    model = SimulatedTextLM("text-draft", 0.80, profile, vocab, pair_seed=5)
    prompts = build_text_corpus(
        TextTaskConfig(seed=3, num_prompts=2, max_new_tokens=20)
    )
    return model, prompts[0], prompts[0].max_new_tokens + 1


def _scripted_case(vocab, clean_dataset):
    from tests.fakes import EOS, FakeUnit, ScriptedModel

    model = ScriptedModel(
        stream=[5, 6, 7, 8, 9, EOS],
        overrides={(5, 106): 11},  # 106: the runner-up after 5
        latency=LatencyProfile("s", 10.0, 0.5, 2.0, 0.1),
    )
    return model, FakeUnit(), 6 + 4


SESSION_CASES = {
    "acoustic": _acoustic_case,
    "text": _text_case,
    "scripted": _scripted_case,
}


class TestSessionContract:
    """One DecodeSession serves every emission: the trie, cursors, billing,
    lifecycle and position cap behave the same over each of them."""

    @pytest.fixture(params=list(SESSION_CASES))
    def case(self, request, vocab, clean_dataset):
        return SESSION_CASES[request.param](vocab, clean_dataset)

    def test_cursor_advance_equals_tuple_resolve(self, case):
        model, unit, _cap = case
        cursor_session = model.session(unit, SimClock())
        tuple_session = model.session(unit, SimClock())
        rng = random.Random(13)
        for _ in range(30):
            cursor = cursor_session.cursor()
            prefix = ()
            for _ in range(rng.randrange(12)):
                topk = tuple_session.peek(prefix).topk
                token = rng.choice([tok for tok, _ in topk[:3]])
                cursor = cursor.advance(token)
                prefix = prefix + (token,)
                assert cursor.tokens == prefix
                assert len(cursor) == len(prefix)
                assert cursor_session.cursor(prefix).node is cursor.node
                want = tuple_session.peek(prefix)
                assert cursor_session.peek(cursor) == want
                # A foreign cursor resolves by its tokens.
                assert tuple_session.peek(cursor) == want

    def test_passes_bill_prompt_plus_depth(self, case):
        model, unit, _cap = case
        clock = SimClock()
        session = model.session(unit, clock)
        session.prefill()
        prompt = session.prompt_tokens
        assert clock.tokens_for_kind(KIND_PREFILL) == prompt
        path = [()]
        for _ in range(4):
            path.append(path[-1] + (session.peek(path[-1]).token,))

        def assert_billed(kind, new, depth):
            event = clock.events[-1]
            assert (event.kind, event.new_tokens) == (kind, new)
            assert event.cached_tokens == prompt + depth
            assert event.ms == forward_ms(model.latency, new, prompt + depth)

        for depth in range(4):
            session.step(session.cursor(path[depth]))
            assert_billed(KIND_DECODE, 1, depth)
        session.step_frontier([path[1], path[3], path[2]])
        assert_billed(KIND_DRAFT, 3, 3)
        session.verify_eval([path[2], path[4], path[3]])
        assert_billed(KIND_VERIFY, 3, 2)
        session.verify_eval([path[3], path[1]], billed_tokens=5)
        assert_billed(KIND_VERIFY, 5, 1)

    def test_prefill_once_before_any_pass(self, case):
        model, unit, _cap = case
        session = model.session(unit, SimClock())
        with pytest.raises(RuntimeError):
            session.step(())
        session.prefill()
        with pytest.raises(RuntimeError):
            session.prefill()

    def test_max_decode_positions_is_the_emission_cap(self, case):
        model, unit, cap = case
        assert model.session(unit, SimClock()).max_decode_positions() == cap


class TestTextSessionCursor:
    """The text model's session cursor must be bit-identical to tuple prefixes."""

    @pytest.fixture(scope="class")
    def text_model(self, vocab):
        model, prompt, _cap = _text_case(vocab, None)
        return model, prompt

    def test_cursor_matches_tuple_prefixes(self, text_model):
        model, prompt = text_model
        session = model.session(prompt, SimClock())
        rng = random.Random(13)
        for _ in range(30):
            cursor = session.cursor()
            prefix = ()
            for _ in range(rng.randrange(12)):
                token = rng.choice(
                    [tok for tok, _ in session.peek(prefix).topk[:4]]
                )
                cursor = cursor.advance(token)
                prefix = prefix + (token,)
                assert cursor.tokens == prefix
                assert len(cursor) == len(prefix)
                assert session.peek(cursor) == session.peek(prefix)

    def test_two_sessions_agree(self, text_model):
        """A trie session and a fresh session walked by tuples agree."""
        model, prompt = text_model
        cursor_session = model.session(prompt, SimClock())
        tuple_session = model.session(prompt, SimClock())
        greedy = ()
        cursor = cursor_session.cursor()
        for _ in range(15):
            got = cursor_session.peek(cursor)
            want = tuple_session.peek(greedy)
            assert got == want
            if tuple_session.is_eos(want.token):
                break
            cursor = cursor.advance(want.token)
            greedy = greedy + (want.token,)

    def test_foreign_cursor_resolves_by_tokens(self, text_model, whisper_pair,
                                               clean_dataset):
        model, prompt = text_model
        _, target = whisper_pair
        asr_session = target.session(clean_dataset[0], SimClock())
        text_session = model.session(prompt, SimClock())
        foreign = asr_session.cursor((1, 2, 3))
        assert text_session.peek(foreign) == text_session.peek((1, 2, 3))
