"""End-to-end integration tests across subsystems."""

from repro.core.config import full_specasr
from repro.core.engine import SpecASREngine
from repro.data.corpus import Utterance
from repro.decoding.autoregressive import AutoregressiveDecoder
from repro.metrics.wer import wer
from repro.models.registry import model_pair


class TestDifficultyConditioning:
    def test_recognition_quality_tracks_audio_noise(self, vocab, clean_dataset):
        """A harder acoustic difficulty profile worsens recognition WER."""
        source = clean_dataset[1]
        draft, _ = model_pair("whisper", vocab)

        def wer_with_difficulty(level):
            utt = Utterance(
                utterance_id=f"{source.utterance_id}/d{level}",
                speaker_id=source.speaker_id,
                words=source.words,
                tokens=source.tokens,
                duration_s=source.duration_s,
                difficulty=tuple([level] * source.num_tokens),
                split=source.split,
            )
            return wer(list(utt.tokens), draft.greedy_transcript(utt))

        assert wer_with_difficulty(0.9) > wer_with_difficulty(0.05)


class TestCrossMethodConsistency:
    def test_all_methods_identical_transcripts(self, whisper_pair, clean_dataset):
        from repro.harness.methods import standard_methods

        draft, target = whisper_pair
        methods = standard_methods(draft, target)
        for utterance in list(clean_dataset)[:2]:
            outputs = {
                name: decoder.decode(utterance).tokens
                for name, decoder in methods.items()
            }
            reference = outputs["autoregressive"]
            for name, tokens in outputs.items():
                assert tokens == reference, name

    def test_specasr_never_slower_than_ar(self, vicuna_pair, clean_dataset):
        draft, target = vicuna_pair
        engine = SpecASREngine(draft, target, full_specasr())
        ar = AutoregressiveDecoder(target)
        for utterance in list(clean_dataset)[:3]:
            assert (engine.decode(utterance).total_ms < ar.decode(utterance).total_ms)
