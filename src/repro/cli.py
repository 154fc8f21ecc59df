"""Command-line interface: ``specasr`` / ``python -m repro``.

Subcommands:

* ``list``            — list reproducible experiments (paper figures/tables)
* ``run EXP [...]``   — run one or all experiments and print their reports
* ``decode``          — decode a sample utterance with every method
* ``serve-sim``       — simulate live traffic against a latency SLO
* ``lint``            — statically check the determinism/simulation contracts
* ``models``          — show the model registry
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.data.librisim import SPLITS
from repro.harness.experiments import list_experiments, run_experiment
from repro.harness.methods import STANDARD_METHODS, standard_methods
from repro.harness.runner import ExperimentConfig, load_split, shared_vocabulary
from repro.models.registry import PAIRINGS, get_spec, list_models, model_pair
from repro.serving.router import ROUTER_POLICIES, SPLIT_POLICIES
from repro.version import PAPER_TITLE, __version__


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not value > 0:  # NaN fails every comparison
        raise argparse.ArgumentTypeError(f"expected a positive number, got {value}")
    return value


def _unit_interval(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a value in [0, 1], got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specasr",
        description=f"Reproduction of {PAPER_TITLE!r} (v{__version__})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments")

    run_parser = sub.add_parser("run", help="run experiment(s)")
    run_parser.add_argument(
        "experiment",
        choices=["all", *list_experiments()],
        help="experiment id or 'all'",
    )
    run_parser.add_argument("--utterances", type=_positive_int, default=32)
    run_parser.add_argument("--seed", type=int, default=2025)
    run_parser.add_argument(
        "--json-dir",
        default=None,
        help="also save each report as JSON under this directory",
    )
    run_parser.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        help="profile the run under cProfile and write pstats data to PATH "
        "(inspect with `python -m pstats PATH` or snakeviz); results are "
        "unchanged — profiling only observes the run",
    )

    decode_parser = sub.add_parser("decode", help="decode a sample utterance")
    decode_parser.add_argument("--pairing", choices=sorted(PAIRINGS), default="whisper")
    decode_parser.add_argument("--split", choices=SPLITS, default="test-clean")
    decode_parser.add_argument("--index", type=int, default=0)

    serve_parser = sub.add_parser(
        "serve-sim",
        help="simulate live request traffic and report SLO metrics",
    )
    serve_parser.add_argument(
        "--method",
        default="specasr-asp",
        help=f"decoding method (e.g. {', '.join(STANDARD_METHODS)})",
    )
    serve_parser.add_argument(
        "--qps",
        type=_positive_float,
        default=2.0,
        help="offered load, requests per second",
    )
    serve_parser.add_argument("--requests", type=_positive_int, default=48)
    serve_parser.add_argument("--seed", type=int, default=2025)
    serve_parser.add_argument(
        "--utterances",
        type=_positive_int,
        default=32,
        help="corpus size backing the request mix",
    )
    serve_parser.add_argument("--pairing", choices=sorted(PAIRINGS), default="whisper")
    serve_parser.add_argument(
        "--arrival", choices=("poisson", "uniform"), default="poisson"
    )
    serve_parser.add_argument(
        "--trace", default=None, help="replay a JSON arrival trace instead"
    )
    serve_parser.add_argument(
        "--deadline-ms",
        type=_positive_float,
        default=3000.0,
        help="completion SLO deadline per request",
    )
    serve_parser.add_argument(
        "--max-batch",
        "--batch",
        dest="batch",
        type=_positive_int,
        default=4,
        help="max phases co-scheduled per device pass",
    )
    serve_parser.add_argument(
        "--inflight",
        type=_positive_int,
        default=8,
        help="max runnable decode sessions (streams waiting for audio hold "
        "no slot)",
    )
    serve_parser.add_argument("--queue-capacity", type=_positive_int, default=32)
    serve_parser.add_argument(
        "--overlap",
        type=_unit_interval,
        default=0.8,
        help="batching efficiency in [0, 1]",
    )
    serve_parser.add_argument(
        "--devices",
        type=_positive_int,
        default=None,
        help="simulated accelerators in the serving cluster (default 1, or "
        "the size of --device-spec; an explicit mismatch is an error)",
    )
    serve_parser.add_argument(
        "--router",
        choices=ROUTER_POLICIES,
        default="colocated",
        help="placement policy: colocated K-way sharding, disaggregated "
        "draft/target pools, or merged cross-request verification",
    )
    serve_parser.add_argument(
        "--device-spec",
        default="",
        help="heterogeneous cluster shorthand, comma-separated COUNTxSPEED "
        "groups with an optional @BLOCKS KV capacity (e.g. "
        "2x1.0@64,2x0.5 = two full-speed devices with 64 KV blocks each "
        "+ two half-speed ones); sets the device count, so --devices may "
        "be omitted",
    )
    serve_parser.add_argument(
        "--split",
        choices=SPLIT_POLICIES,
        default="fixed",
        help="draft/target pool sizing for disaggregating routers: 'fixed' "
        "keeps the K//2 prefix split, 'balanced' sizes pools from the "
        "measured draft:verify cost ratio and device speeds",
    )
    serve_parser.add_argument(
        "--faults",
        default="",
        help="inject a deterministic fault plan, ';'-separated events: "
        "crash@T:devI[:restart=MS], stall@T+D:devI, slow[@T+D]:devI:xF, "
        "perr:RATE (see repro.serving.faults)",
    )
    serve_parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed of the transient phase-error hash in --faults",
    )
    serve_parser.add_argument(
        "--max-retries",
        type=int,
        default=3,
        help="per-phase failure budget before a request is shed",
    )
    serve_parser.add_argument(
        "--retry-backoff-ms",
        type=float,
        default=25.0,
        help="base of the exponential retry backoff",
    )
    serve_parser.add_argument(
        "--admission-deadline-ms",
        type=float,
        default=None,
        help="shed interactive requests already older than this at admission",
    )
    serve_parser.add_argument(
        "--batch-deadline-ms",
        type=float,
        default=None,
        help="SLO deadline and admission shed bound for batch-class requests",
    )
    serve_parser.add_argument(
        "--batch-fraction",
        type=_unit_interval,
        default=0.0,
        help="share in [0, 1] of synthetic arrivals tagged batch-class (seeded)",
    )
    serve_parser.add_argument(
        "--memory-blocks",
        type=int,
        default=None,
        help="KV-cache capacity per device, in blocks (default: memory is "
        "unconstrained; per-device @BLOCKS in --device-spec overrides)",
    )
    serve_parser.add_argument(
        "--block-size",
        type=int,
        default=16,
        help="tokens per KV block",
    )
    serve_parser.add_argument(
        "--no-prefix-sharing",
        action="store_true",
        help="disable copy-on-write prefix sharing across requests that "
        "decode the same utterance",
    )
    serve_parser.add_argument(
        "--reprefill-ms-per-block",
        type=float,
        default=2.0,
        help="device-time cost of rebuilding one evicted KV block on resume",
    )
    serve_parser.add_argument(
        "--streaming",
        action="store_true",
        help="stream each request's audio in timed chunks instead of "
        "delivering whole utterances at arrival; decode progress is gated "
        "on audio heard and the report gains word-level TTFT / emission "
        "latency percentiles (transcripts stay identical to offline)",
    )
    serve_parser.add_argument(
        "--rtf",
        type=_positive_float,
        default=1.0,
        help="audio delivery speed for --streaming: 1.0 = real time, "
        "2.0 = double speed",
    )
    serve_parser.add_argument(
        "--chunk-s",
        type=_positive_float,
        default=1.0,
        help="seconds of audio per streamed chunk event",
    )
    serve_parser.add_argument(
        "--lookahead-s",
        type=float,
        default=0.3,
        help="audio margin (seconds) the decoder holds back for context",
    )
    serve_parser.add_argument(
        "--no-max-qps", action="store_true", help="skip the max-sustainable-QPS search"
    )
    serve_parser.add_argument(
        "--slo-target",
        type=_unit_interval,
        default=0.95,
        help="goodput ratio in [0, 1] defining 'sustainable'",
    )
    serve_parser.add_argument(
        "--json",
        dest="json_path",
        default=None,
        help="also save the report as JSON here",
    )

    lint_parser = sub.add_parser(
        "lint",
        help="statically check the determinism & simulation contracts",
        description="AST-based lint over the repo's determinism contracts "
        "(DET001-004), simulation cost billing (SIM001) and export surfaces "
        "(API001).  Suppress one finding with a '# repro: ignore[RULE]' "
        "comment on its line.",
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tools"],
        help="files or directories to lint (default: src tools)",
    )
    lint_parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report style: compiler-log text or machine-readable JSON",
    )
    lint_parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when any finding survives suppressions/baseline",
    )
    lint_parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="JSON baseline of grandfathered findings to filter out "
        "(matched on rule+path+message; line numbers are ignored)",
    )
    lint_parser.add_argument(
        "--write-baseline",
        default=None,
        metavar="FILE",
        help="record the current findings as the new baseline and exit 0",
    )
    lint_parser.add_argument(
        "--rules",
        action="store_true",
        help="list the registered rules and exit",
    )

    sub.add_parser("models", help="show the model registry")
    return parser


def _cmd_list() -> int:
    for exp_id in list_experiments():
        print(exp_id)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            return _run_experiments(args)
        finally:
            profiler.disable()
            profiler.dump_stats(args.profile)
            print(f"profile written to {args.profile}", file=sys.stderr)
    return _run_experiments(args)


def _run_experiments(args: argparse.Namespace) -> int:
    config = ExperimentConfig(seed=args.seed, utterances=args.utterances)
    targets = list_experiments() if args.experiment == "all" else [args.experiment]
    for exp_id in targets:
        report = run_experiment(exp_id, config)
        print(report.render())
        print()
        if args.json_dir:
            from repro.harness.io import save_report

            path = save_report(report, f"{args.json_dir}/{exp_id}.json")
            print(f"saved {path}")
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    vocab = shared_vocabulary()
    dataset = load_split(args.split, ExperimentConfig())
    if not 0 <= args.index < len(dataset):
        print(f"index {args.index} outside dataset of {len(dataset)}", file=sys.stderr)
        return 1
    utterance = dataset[args.index]
    draft, target = model_pair(args.pairing, vocab)
    print(f"utterance : {utterance.utterance_id} ({utterance.duration_s:.1f}s)")
    print(f"reference : {utterance.text}")
    for name, decoder in standard_methods(draft, target).items():
        result = decoder.decode(utterance)
        text = " ".join(vocab.decode_ids(result.tokens))
        print(f"\n[{name}] {result.total_ms:.1f} ms simulated")
        print(f"  {text}")
    return 0


def _cmd_serve_sim(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.serving import (
        ChaosSpec,
        ClusterSpec,
        MemorySpec,
        ServeSimConfig,
        StreamSpec,
        build_decoder,
        load_trace,
        max_sustainable_qps,
        simulate,
    )

    try:
        # Construction validates the memory and stream specs; the calls
        # below do the cross-argument validation (e.g. disaggregation needs
        # >= 2 devices, max_inflight >= max_batch, fault events naming absent
        # devices) and load the replayed trace — fail with a clean message,
        # not a traceback.
        config = ServeSimConfig(
            method=args.method,
            pairing=args.pairing,
            qps=args.qps,
            num_requests=args.requests,
            seed=args.seed,
            utterances=args.utterances,
            arrival=args.arrival,
            deadline_ms=args.deadline_ms,
            max_batch=args.batch,
            max_inflight=args.inflight,
            queue_capacity=args.queue_capacity,
            overlap=args.overlap,
            batch_fraction=args.batch_fraction,
            cluster=ClusterSpec(
                devices=args.devices,
                router=args.router,
                pool_split=args.split,
                device_spec=args.device_spec,
            ),
            chaos=ChaosSpec(
                faults=args.faults,
                fault_seed=args.fault_seed,
                max_retries=args.max_retries,
                retry_backoff_ms=args.retry_backoff_ms,
                admission_deadline_ms=args.admission_deadline_ms,
                batch_deadline_ms=args.batch_deadline_ms,
            ),
            memory=MemorySpec(
                device_blocks=args.memory_blocks,
                block_size=args.block_size,
                prefix_sharing=not args.no_prefix_sharing,
                reprefill_ms_per_block=args.reprefill_ms_per_block,
            ),
            stream=StreamSpec(
                enabled=args.streaming,
                rtf=args.rtf,
                chunk_s=args.chunk_s,
                lookahead_s=args.lookahead_s,
            ),
        )
        config.scheduler_config()
        cluster = config.cluster_config()
        plan = config.fault_plan()
        if plan is not None:
            plan.validate_for(cluster.devices)
        trace = load_trace(args.trace) if args.trace else None
    except ValueError as error:
        raise SystemExit(f"specasr serve-sim: error: {error}") from None
    decoder = build_decoder(config)
    report = simulate(config, trace=trace, decoder=decoder)
    if not args.no_max_qps and trace is None:
        max_qps, _ = max_sustainable_qps(
            config, target_ratio=args.slo_target, decoder=decoder
        )
        report = report.with_max_qps(max_qps)
    elif trace is not None and not args.no_max_qps:
        print(
            "note: max-sustainable-QPS search skipped — it measures a "
            "synthetic arrival process, not the replayed --trace workload",
            file=sys.stderr,
        )
    print(report.render())
    if args.json_path:
        path = Path(args.json_path)
        path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
        print(f"saved {path}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import (
        default_rules,
        load_baseline,
        render_json,
        render_text,
        run_lint,
        write_baseline,
    )

    if args.rules:
        for rule in default_rules():
            scope = f" [{rule.scope}]" if rule.scope else ""
            print(f"{rule.id}{scope}: {rule.summary}")
        return 0
    root = Path.cwd()
    baseline = None
    if args.baseline:
        baseline_path = Path(args.baseline)
        if not baseline_path.exists():
            raise SystemExit(
                f"specasr lint: error: baseline file {args.baseline!r} not found"
            )
        baseline = load_baseline(baseline_path)
    try:
        result = run_lint(args.paths, root, baseline=baseline)
    except FileNotFoundError as error:
        raise SystemExit(f"specasr lint: error: {error}") from None
    if args.write_baseline:
        write_baseline(Path(args.write_baseline), list(result.findings))
        print(
            f"baseline with {len(result.findings)} finding(s) written to "
            f"{args.write_baseline}"
        )
        return 0
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    if args.strict and not result.clean:
        return 1
    return 0


def _cmd_models() -> int:
    print(
        f"{'model':22s} {'family':8s} {'dec (B)':>8s} {'enc (B)':>8s} "
        f"{'capacity':>8s}"
    )
    for name in list_models():
        spec = get_spec(name)
        print(
            f"{spec.name:22s} {spec.family:8s} {spec.decoder_params_b:8.3f} "
            f"{spec.encoder_params_b:8.3f} {spec.capacity:8.2f}"
        )
    print("\npairings:")
    for pairing, (draft, target) in PAIRINGS.items():
        print(f"  {pairing}: draft={draft} target={target}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "decode":
        return _cmd_decode(args)
    if args.command == "serve-sim":
        return _cmd_serve_sim(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "models":
        return _cmd_models()
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
