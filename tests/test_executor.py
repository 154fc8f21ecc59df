"""Parity suite for the parallel corpus executor.

The contract: for every backend and worker count, transcripts, traces and
SimClock totals are byte-identical to the serial runner — parallelism may
only change wall-clock time, never results.
"""

from __future__ import annotations

import sys

import pytest

from repro.harness.executor import CorpusExecutor
from repro.harness.methods import standard_methods
from repro.harness.runner import run_method, run_methods
from repro.models.acoustic import EmissionOracle
from repro.models.registry import PAIRINGS, get_spec, model_pair
from repro.models.simulated import SimulatedASRModel


@pytest.fixture(scope="module")
def serial_runs(vocab, clean_dataset):
    draft, target = model_pair("whisper", vocab)
    return run_methods(standard_methods(draft, target), clean_dataset)


def _assert_identical(runs, reference):
    assert set(runs) == set(reference)
    for name in reference:
        got, want = runs[name].results, reference[name].results
        assert [r.tokens for r in got] == [r.tokens for r in want]
        assert [r.total_ms for r in got] == [r.total_ms for r in want]
        assert [r.trace.rounds for r in got] == [r.trace.rounds for r in want]
        assert [r.clock.events for r in got] == [r.clock.events for r in want]
        assert runs[name].breakdown.total_ms == reference[name].breakdown.total_ms


class TestBackendParity:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_pool_matches_serial(
        self, vocab, clean_dataset, serial_runs, backend, workers
    ):
        draft, target = model_pair("whisper", vocab)
        executor = CorpusExecutor(workers=workers, backend=backend)
        runs = run_methods(
            standard_methods(draft, target), clean_dataset, executor=executor
        )
        assert executor.last_stats.backend == backend
        _assert_identical(runs, serial_runs)

    def test_auto_backend_matches_serial(self, vocab, clean_dataset, serial_runs):
        draft, target = model_pair("whisper", vocab)
        runs = run_methods(standard_methods(draft, target), clean_dataset, workers=4)
        _assert_identical(runs, serial_runs)

    def test_factory_process_pool(self, vocab, clean_dataset, serial_runs):
        def factory():
            draft, target = model_pair("whisper")
            return standard_methods(draft, target)

        executor = CorpusExecutor(workers=2, backend="process")
        grids = executor.map_decode(factory, clean_dataset)
        for name, reference in serial_runs.items():
            assert [r.tokens for r in grids[name]] == [
                r.tokens for r in reference.results
            ]
            assert [r.total_ms for r in grids[name]] == [
                r.total_ms for r in reference.results
            ]


class TestRunnerIntegration:
    def test_run_method_workers(self, whisper_pair, clean_dataset):
        _, target = whisper_pair
        from repro.decoding.autoregressive import AutoregressiveDecoder

        serial = run_method(AutoregressiveDecoder(target), clean_dataset)
        parallel = run_method(AutoregressiveDecoder(target), clean_dataset, workers=2)
        assert [r.tokens for r in parallel.results] == [
            r.tokens for r in serial.results
        ]
        assert [r.total_ms for r in parallel.results] == [
            r.total_ms for r in serial.results
        ]

    def test_lossless_check_still_applies(self, vocab, clean_dataset):
        draft, target = model_pair("whisper", vocab)
        executor = CorpusExecutor(workers=2, backend="thread")
        runs = run_methods(
            standard_methods(draft, target), clean_dataset, executor=executor
        )
        reference = [r.tokens for r in runs["autoregressive"].results]
        for run in runs.values():
            assert [r.tokens for r in run.results] == reference


class TestGridOrder:
    CACHE = 2  # oracles per model: fewer than the corpus has utterances

    def _model(self, name, vocab):
        spec = get_spec(name)
        return SimulatedASRModel(
            name=spec.name,
            capacity=spec.capacity,
            latency=spec.latency,
            vocab=vocab,
            encoder_latency_ms_per_10s=spec.encoder_latency_ms_per_10s,
            oracle_cache_size=self.CACHE,
        )

    def test_each_oracle_built_once_past_the_cache(
        self, vocab, clean_dataset, monkeypatch
    ):
        """Every method decodes an utterance before the next one starts, so
        each (model, utterance) oracle is built once per grid even when the
        corpus outgrows the models' oracle cache."""
        assert len(clean_dataset) > self.CACHE
        draft, target = (self._model(name, vocab) for name in PAIRINGS["whisper"])
        builds = []
        init = EmissionOracle.__init__

        def counting_init(oracle, *args, **kwargs):
            init(oracle, *args, **kwargs)
            builds.append((oracle.model_name, oracle.utterance.content_key))

        monkeypatch.setattr(EmissionOracle, "__init__", counting_init)
        run_methods(standard_methods(draft, target), clean_dataset)
        assert len(builds) == 2 * len(clean_dataset)
        assert len(set(builds)) == len(builds)

    def test_threads_share_one_utterance_under_contention(
        self, vocab, clean_dataset, serial_runs
    ):
        """One thread per method, so every method decodes the same utterance
        at once over its shared oracle and trie, with the interpreter
        switching threads as often as it can: results must still equal the
        serial grid's."""
        draft, target = model_pair("whisper", vocab)
        methods = standard_methods(draft, target)
        executor = CorpusExecutor(workers=len(methods), backend="thread")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = run_methods(methods, clean_dataset, executor=executor)
        finally:
            sys.setswitchinterval(interval)
        _assert_identical(runs, serial_runs)


class TestExecutorValidation:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            CorpusExecutor(backend="gpu")

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            CorpusExecutor(workers=0)

    def test_single_worker_is_serial(self, vocab, clean_dataset):
        draft, target = model_pair("whisper", vocab)
        executor = CorpusExecutor(workers=1, backend="process")
        executor.map_decode(
            {"autoregressive": standard_methods(draft, target)["autoregressive"]},
            clean_dataset,
        )
        assert executor.last_stats.backend == "serial"


class TestIterResults:
    def test_serial_streaming_matches_map(self, vocab, clean_dataset, serial_runs):
        draft, target = model_pair("whisper", vocab)
        executor = CorpusExecutor(workers=1)
        triples = list(
            executor.iter_results(standard_methods(draft, target), clean_dataset)
        )
        # deterministic grid order: corpus index outer, methods inner
        expected_order = [
            (name, index)
            for index in range(len(clean_dataset))
            for name in serial_runs
        ]
        assert [(name, index) for name, index, _ in triples] == expected_order
        for name, index, result in triples:
            want = serial_runs[name].results[index]
            assert result.tokens == want.tokens
            assert result.total_ms == want.total_ms

    def test_serial_is_lazy(self, vocab, clean_dataset):
        draft, target = model_pair("whisper", vocab)
        executor = CorpusExecutor(workers=1)
        stream = executor.iter_results(
            standard_methods(draft, target), clean_dataset
        )
        first = next(stream)  # only the first decode has run
        assert first[:2] == ("autoregressive", 0)
        stream.close()

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_pool_streaming_matches_serial(
        self, vocab, clean_dataset, serial_runs, backend
    ):
        draft, target = model_pair("whisper", vocab)
        executor = CorpusExecutor(workers=2, backend=backend)
        triples = list(
            executor.iter_results(
                standard_methods(draft, target), clean_dataset, window=3
            )
        )
        for name, index, result in triples:
            want = serial_runs[name].results[index]
            assert result.tokens == want.tokens
            assert result.total_ms == want.total_ms
        assert executor.last_stats.backend == backend

    def test_window_validated(self, vocab, clean_dataset):
        draft, target = model_pair("whisper", vocab)
        executor = CorpusExecutor(workers=2, backend="thread")
        with pytest.raises(ValueError):
            list(
                executor.iter_results(
                    standard_methods(draft, target), clean_dataset, window=0
                )
            )


def _square_job(value):
    return value * value


class TestMapJobs:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_results_in_job_order(self, backend):
        workers = 1 if backend == "serial" else 3
        executor = CorpusExecutor(workers=workers, backend=backend)
        jobs = list(range(17))
        assert executor.map_jobs(_square_job, jobs) == [v * v for v in jobs]

    def test_auto_never_picks_process_for_unpicklable(self):
        executor = CorpusExecutor(workers=2, backend="auto")
        jobs = [1, 2, 3]
        results = executor.map_jobs(lambda v: v + 1, jobs)  # lambda: no pickle
        assert results == [2, 3, 4]
        # thread on multi-core hosts, serial on single-core — never process
        assert executor.last_stats.backend in ("thread", "serial")
