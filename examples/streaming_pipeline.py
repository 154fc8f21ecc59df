"""Streaming SpecASR: live transcription with chunked audio.

Streams one utterance at real time, in one-second chunks, through the
serving scheduler on a single device and prints the emission timeline —
when each group of tokens became final, the first-token latency, and the
tail latency after end-of-audio.  This is the deployment mode the paper's
real-time constraints are about: the decoder must keep pace with the
microphone, not just be fast in aggregate.

Run:  python examples/streaming_pipeline.py
"""

from itertools import groupby

from repro.core.config import SpecASRConfig
from repro.core.engine import SpecASREngine
from repro.harness.runner import ExperimentConfig, load_split, shared_vocabulary
from repro.models.registry import model_pair
from repro.serving import (
    Arrival,
    ContinuousBatchScheduler,
    SchedulerConfig,
    StreamSpec,
)


def main() -> None:
    vocab = shared_vocabulary()
    dataset = load_split("test-clean", ExperimentConfig(utterances=8))
    index, utterance = max(enumerate(dataset), key=lambda item: item[1].duration_s)
    draft, target = model_pair("whisper", vocab)
    scheduler = ContinuousBatchScheduler(
        SpecASREngine(draft, target, SpecASRConfig(sparse_tree=True)),
        SchedulerConfig(max_batch=1, max_inflight=1),
        stream=StreamSpec(chunk_s=1.0, lookahead_s=0.3),
    )

    print(f"utterance : {utterance.utterance_id} ({utterance.duration_s:.1f} s)")
    print(f"reference : {utterance.text}\n")
    (record,) = scheduler.run([Arrival(0, index, 0.0, rtf=1.0)], dataset)
    words = vocab.decode_ids(record.tokens)

    print("stream timeline (chunk arrivals every 1.0 s):")
    shown = 0
    # Tokens emitted at the same instant became final together.
    for emission_ms, group in groupby(record.emission_ms):
        count = shown + len(list(group))
        new_words = " ".join(words[shown:count])
        print(
            f"  t={emission_ms / 1000:6.2f}s  +{count - shown:2d} tokens: {new_words}"
        )
        shown = count

    first_label = (
        f"{record.word_ttft_ms / 1000:.2f} s"
        if record.tokens
        else "n/a (empty transcript)"
    )
    print(f"\nfirst-token latency : {first_label}")
    print(f"tail latency        : {record.final_latency_ms:.0f} ms after end-of-audio")
    rtf = record.decode_ms / 1000 / utterance.duration_s
    print(f"real-time factor    : {rtf:.3f} (must stay < 1)")
    print(f"chunks processed    : {record.stream_chunks}")


if __name__ == "__main__":
    main()
