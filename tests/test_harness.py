"""Tests for the harness: figures, methods registry, runner."""

import pytest

from repro.data.corpus import Dataset
from repro.harness.figures import ascii_bars, ascii_table, format_value
from repro.harness.methods import STANDARD_METHODS, build_method, standard_methods
from repro.harness.paper_values import PAPER_VALUES, paper_notes
from repro.harness.runner import (
    ExperimentConfig,
    load_split,
    run_method,
    run_methods,
    shared_vocabulary,
)
from repro.models.acoustic import EmissionOracle
from repro.models.registry import PAIRINGS, get_spec
from repro.models.simulated import SimulatedASRModel


class TestFigures:
    def test_format_value(self):
        assert format_value(123.456) == "123"
        assert format_value(12.34) == "12.3"
        assert format_value(1.234) == "1.23"
        assert format_value("x") == "x"

    def test_table_renders_all_rows(self):
        text = ascii_table(["a", "b"], [[1, 2], [3, 4]], title="t")
        assert "t" in text
        assert text.count("\n") == 4

    def test_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            ascii_table(["a"], [[1, 2]])

    def test_bars(self):
        text = ascii_bars(["x", "yy"], [1.0, 2.0], width=10)
        assert "yy" in text
        assert "#" in text

    def test_bars_length_mismatch(self):
        with pytest.raises(ValueError):
            ascii_bars(["x"], [1.0, 2.0])


class TestMethods:
    def test_all_standard_methods_build(self, whisper_pair):
        draft, target = whisper_pair
        methods = standard_methods(draft, target)
        assert list(methods) == list(STANDARD_METHODS)

    def test_spec_name_parsing(self, whisper_pair):
        draft, target = whisper_pair
        decoder = build_method("spec(16, 2)", draft, target)
        assert decoder.config.draft_len == 16
        assert decoder.config.beams == 2

    def test_unknown_method(self, whisper_pair):
        draft, target = whisper_pair
        with pytest.raises(KeyError):
            build_method("oracle-decode", draft, target)

    def test_fixed_tree_buildable(self, whisper_pair):
        draft, target = whisper_pair
        assert build_method("fixed-tree", draft, target).name == "fixed-tree"


class TestRunner:
    def test_load_split_cached(self):
        config = ExperimentConfig(seed=1, utterances=3)
        a = load_split("dev-clean", config)
        b = load_split("dev-clean", config)
        assert a is b

    def test_run_method_collects_everything(self, whisper_pair):
        from repro.decoding.autoregressive import AutoregressiveDecoder

        _, target = whisper_pair
        dataset = load_split("dev-clean", ExperimentConfig(seed=1, utterances=3))
        run = run_method(AutoregressiveDecoder(target), dataset)
        assert len(run.results) == 3
        assert run.breakdown.total_ms > 0

    def test_run_methods_lossless_check_passes(self, whisper_pair):
        draft, target = whisper_pair
        dataset = load_split("dev-clean", ExperimentConfig(seed=1, utterances=3))
        from repro.decoding.autoregressive import AutoregressiveDecoder
        from repro.decoding.speculative import SpeculativeDecoder

        runs = run_methods(
            {
                "ar": AutoregressiveDecoder(target),
                "spec": SpeculativeDecoder(draft, target),
            },
            dataset,
        )
        assert set(runs) == {"ar", "spec"}

    def test_run_methods_detects_divergence(self, whisper_pair):
        """A decoder producing different tokens trips the lossless check."""
        draft, target = whisper_pair
        dataset = load_split("dev-clean", ExperimentConfig(seed=1, utterances=2))
        from repro.decoding.autoregressive import AutoregressiveDecoder

        class Corrupting:
            name = "corrupting"

            def decode(self, unit):
                result = AutoregressiveDecoder(target).decode(unit)
                result.tokens = result.tokens[:-1]
                return result

        with pytest.raises(AssertionError):
            run_methods(
                {"ar": AutoregressiveDecoder(target), "bad": Corrupting()},
                dataset,
            )

    def test_run_methods_on_empty_corpus(self, whisper_pair):
        """An empty corpus still yields one empty run per method."""
        methods = standard_methods(*whisper_pair)
        runs = run_methods(methods, Dataset("empty"))
        assert list(runs) == list(methods)
        for run in runs.values():
            assert run.results == []
            assert run.breakdown.total_ms == 0.0

    def test_shared_vocabulary_singleton(self):
        assert shared_vocabulary() is shared_vocabulary()


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


class TestPaperValues:
    def test_every_experiment_has_notes(self):
        for exp_id in (
            "fig01",
            "fig05a",
            "fig05b",
            "fig06a",
            "fig06b",
            "fig07",
            "fig11",
            "fig12",
            "fig13a",
            "fig13b",
            "tab01",
            "tab02",
        ):
            assert exp_id in PAPER_VALUES
            assert paper_notes(exp_id)
