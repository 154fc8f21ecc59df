"""Transcript digest for the hash-seed determinism cross-check.

Runs a small but representative slice of the simulation — a decode grid
over every standard method plus one serve simulation — and folds every
transcript, simulated latency and SLO counter into one SHA-256 digest.

CI runs this twice, once under ``PYTHONHASHSEED=0`` and once under
``PYTHONHASHSEED=random``, and diffs the digests.  If anything in the
stack leaked a builtin ``hash()``/``id()`` ordering or an unseeded RNG
into a simulated decision (the bug classes DET002-004 lint for), the
digests diverge — proving the lint rules guard a real, end-to-end
property rather than a style preference.

Usage::

    PYTHONPATH=src python tools/determinism_digest.py [--output FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.harness.methods import standard_methods  # noqa: E402
from repro.harness.runner import (  # noqa: E402
    ExperimentConfig,
    load_split,
    shared_vocabulary,
)
from repro.models.registry import model_pair  # noqa: E402
from repro.serving import (  # noqa: E402
    ChaosSpec,
    ClusterSpec,
    MemorySpec,
    ServeSimConfig,
    StreamSpec,
    simulate,
)


def decode_component(utterances: int, seed: int) -> dict:
    """Every standard method over a small corpus: transcripts + latencies."""
    config = ExperimentConfig(seed=seed, utterances=utterances)
    dataset = load_split("test-clean", config)
    draft, target = model_pair("whisper", shared_vocabulary())
    grid = {}
    for name, decoder in standard_methods(draft, target).items():
        rows = []
        for index in range(len(dataset)):
            result = decoder.decode(dataset[index])
            rows.append(
                {
                    "index": index,
                    "tokens": list(result.tokens),
                    "total_ms": result.total_ms,
                }
            )
        grid[name] = rows
    return grid


def serve_component(seed: int) -> dict:
    """One multi-device serve simulation, chaos + memory + streaming on."""
    config = ServeSimConfig(
        method="specasr-asp",
        qps=6.0,
        num_requests=16,
        utterances=8,
        seed=seed,
        cluster=ClusterSpec(devices=2, router="merged"),
        chaos=ChaosSpec(faults="perr:0.05", fault_seed=seed),
        memory=MemorySpec(device_blocks=96),
        stream=StreamSpec(enabled=True),
    )
    report = simulate(config)
    return report.to_dict()


def build_payload(utterances: int, seed: int) -> dict:
    return {
        "decode": decode_component(utterances, seed),
        "serve": serve_component(seed),
    }


def digest_payload(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--utterances", type=int, default=6)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument(
        "--output", default=None, metavar="FILE", help="write digest JSON here"
    )
    args = parser.parse_args(argv)
    payload = build_payload(args.utterances, args.seed)
    digest = digest_payload(payload)
    record = {
        "digest": digest,
        "seed": args.seed,
        "utterances": args.utterances,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "<unset>"),
    }
    print(json.dumps(record, indent=2))
    if args.output:
        Path(args.output).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
