"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig11" in out
        assert "tab02" in out

    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "whisper-tiny-sim" in out
        assert "vicuna-13b-sim" in out
        assert "pairings" in out

    def test_run_single_experiment(self, capsys):
        assert main(["run", "fig13b", "--utterances", "4"]) == 0
        out = capsys.readouterr().out
        assert "fig13b" in out
        assert "paper" in out

    def test_run_unknown_experiment(self, capsys):
        """A usage error (exit 2), not a KeyError traceback from the runner."""
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig99"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "fig99" in err

    def test_decode(self, capsys):
        assert main(["decode", "--pairing", "whisper", "--index", "0"]) == 0
        out = capsys.readouterr().out
        assert "reference" in out
        assert "specasr-tsp" in out
        assert "autoregressive" in out

    def test_decode_bad_index(self, capsys):
        assert main(["decode", "--index", "9999"]) == 1

    def test_decode_rejects_unknown_split(self, capsys):
        """A usage error (exit 2), not a KeyError traceback from the builder."""
        with pytest.raises(SystemExit) as excinfo:
            main(["decode", "--split", "bogus"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "tab01", "--utterances", "0"],
            ["run", "tab01", "--utterances", "-3"],
        ],
    )
    def test_run_rejects_nonpositive_counts(self, capsys, argv):
        """A usage error (exit 2), not a traceback or a silent serial run."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err


class TestServeSimValidation:
    """Bad serve-sim arguments fail with a clean SystemExit, not a traceback."""

    def _error_text(self, capsys) -> str:
        captured = capsys.readouterr()
        return captured.err + captured.out

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["serve-sim", "--qps", "0"], "positive number"),
            (["serve-sim", "--qps", "-2"], "positive number"),
            (["serve-sim", "--devices", "0"], "positive integer"),
            (["serve-sim", "--max-batch", "-1"], "positive integer"),
            (["serve-sim", "--requests", "0"], "positive integer"),
            (["serve-sim", "--overlap", "1.5"], "in [0, 1]"),
            (["serve-sim", "--overlap", "-0.1"], "in [0, 1]"),
            (["serve-sim", "--qps", "nan"], "positive number"),
            (["serve-sim", "--deadline-ms", "nan"], "positive number"),
            (["serve-sim", "--rtf", "nan"], "positive number"),
            (["serve-sim", "--chunk-s", "nan"], "positive number"),
            # --max-batch has one spelling; --batch is an ambiguous prefix.
            (["serve-sim", "--batch", "2"], "ambiguous option: --batch could match"),
        ],
    )
    def test_rejects_out_of_range_values(self, capsys, argv, fragment):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert fragment in self._error_text(capsys)

    @pytest.mark.parametrize(
        "flags, fragment",
        [
            (["--retry-backoff-ms", "nan"], "retry_backoff_ms"),
            (["--retry-backoff-ms", "inf"], "retry_backoff_ms"),
            (["--max-retries", "-1"], "max_retries"),
            (["--admission-deadline-ms", "nan"], "admission_deadline_ms"),
            (["--batch-deadline-ms", "nan"], "batch_deadline_ms"),
            (["--streaming", "--lookahead-s", "nan"], "lookahead_s"),
            (
                ["--memory-blocks", "8", "--reprefill-ms-per-block", "nan"],
                "reprefill_ms_per_block",
            ),
            (
                ["--memory-blocks", "8", "--reprefill-ms-per-block", "inf"],
                "reprefill_ms_per_block",
            ),
        ],
    )
    def test_rejects_nan_config_values(self, flags, fragment):
        """Values the config classes validate fail with the one-line error
        (exit status 1), before any simulation starts."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve-sim", "--no-max-qps", *flags])
        message = str(excinfo.value.code)
        assert message.startswith("specasr serve-sim: error: ")
        assert fragment in message

    def test_rejects_nan_arrival_in_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text('[{"index": 0, "utterance_index": 0, "arrival_ms": NaN}]')
        with pytest.raises(SystemExit, match="arrival 0: arrival_ms must be >= 0"):
            main(["serve-sim", "--no-max-qps", "--trace", str(path)])

    def test_rejects_unknown_router(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve-sim", "--router", "sharded"])

    def test_rejects_disagg_shorthand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve-sim", "--router", "disagg", "--devices", "2"])
        assert excinfo.value.code == 2
        assert "invalid choice" in self._error_text(capsys)

    def test_rejects_disagg_on_single_device(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve-sim", "--router", "disaggregated", "--devices", "1"])
        assert "at least 2 devices" in str(excinfo.value)

    def test_rejects_inflight_below_batch(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve-sim", "--max-batch", "8", "--inflight", "2"])
        assert "max_inflight" in str(excinfo.value)

    @pytest.mark.parametrize("spec", ("2xfast", "2x1.0@64"))
    def test_rejects_malformed_device_spec(self, capsys, spec):
        # A group has no KV-capacity suffix: --memory-blocks sizes every device.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve-sim", "--device-spec", spec])
        message = str(excinfo.value)
        assert message.startswith(
            f"specasr serve-sim: error: bad device group {spec!r}"
        )
        assert "COUNTxSPEED" in message

    def test_rejects_device_spec_count_mismatch(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve-sim", "--devices", "3", "--device-spec", "2x1.0"])
        assert "does not match" in str(excinfo.value)

    def test_rejects_explicit_single_device_with_multi_spec(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve-sim", "--devices", "1", "--device-spec", "2x1.0,2x0.5"])
        assert "does not match" in str(excinfo.value)

    def test_rejects_unknown_split(self, capsys):
        """The planner alone sizes the pools: serve-sim has no --split
        (``decode --split`` picks the corpus split)."""
        for policy in ("fixed", "balanced"):
            with pytest.raises(SystemExit) as excinfo:
                main(["serve-sim", "--split", policy])
            assert excinfo.value.code == 2
            assert "--split" in self._error_text(capsys)

    def test_serve_sim_cluster_runs(self, capsys):
        assert (
            main(
                [
                    "serve-sim",
                    "--method",
                    "spec(8,1)",
                    "--qps",
                    "3",
                    "--requests",
                    "6",
                    "--utterances",
                    "6",
                    "--devices",
                    "2",
                    "--router",
                    "disaggregated",
                    "--no-max-qps",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 device(s)" in out

    def test_serve_sim_tree_baseline_on_merged_router(self, capsys):
        argv = [
            "serve-sim",
            "--method",
            "fixed-tree",
            "--router",
            "merged",
            "--devices",
            "2",
            "--requests",
            "8",
            "--no-max-qps",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "requests  : 8 (completed 8," in out

    def test_rejects_malformed_fault_spec(self, capsys):
        with pytest.raises(SystemExit, match="serve-sim: error"):
            main(["serve-sim", "--faults", "explode@100:dev0"])

    @pytest.mark.parametrize(
        "spec", ["stall@100+50:dev0", "slow:dev0:x0.5"], ids=["stall", "slow"]
    )
    def test_rejects_removed_fault_kinds(self, spec):
        """A device is alive or dead: stall and slowdown windows are not
        fault kinds (a slow part is a --device-spec), so they exit 1."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve-sim", "--no-max-qps", "--faults", spec])
        message = str(excinfo.value.code)
        assert message.startswith("specasr serve-sim: error: ")
        assert "unknown fault kind" in message

    def test_rejects_fault_plan_naming_missing_device(self, capsys):
        with pytest.raises(SystemExit, match="dev0..dev1"):
            main(
                [
                    "serve-sim",
                    "--devices",
                    "2",
                    "--faults",
                    "crash@100:dev7",
                ]
            )

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve-sim", "--batch-fraction", "1.5"],
            ["serve-sim", "--slo-target", "2"],
            ["serve-sim", "--slo-target", "-1"],
        ],
        ids=["batch-fraction-1.5", "slo-target-2", "slo-target--1"],
    )
    def test_rejects_out_of_range_batch_fraction(self, capsys, argv):
        """A usage error (exit 2), not a silent max-QPS of 0 or 64."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "in [0, 1]" in self._error_text(capsys)

    def test_rejects_removed_straggler_flag(self, capsys):
        """Straggler hedging is gone, so its flag is a usage error."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve-sim", "--straggler-k", "1.5"])
        assert excinfo.value.code == 2
        assert "--straggler-k" in self._error_text(capsys)

    def test_serve_sim_chaos_runs(self, capsys):
        assert (
            main(
                [
                    "serve-sim",
                    "--method",
                    "spec(8,1)",
                    "--qps",
                    "6",
                    "--requests",
                    "8",
                    "--utterances",
                    "6",
                    "--devices",
                    "4",
                    "--router",
                    "disaggregated",
                    "--faults",
                    "crash@500:dev3:restart=800;perr:0.05",
                    "--batch-fraction",
                    "0.5",
                    "--batch-deadline-ms",
                    "9000",
                    "--no-max-qps",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "chaos" in out
        assert "degraded" in out
        assert "class" in out

    def test_serve_sim_heterogeneous_balanced_runs(self, capsys):
        assert (
            main(
                [
                    "serve-sim",
                    "--method",
                    "spec(8,1)",
                    "--qps",
                    "3",
                    "--requests",
                    "6",
                    "--utterances",
                    "6",
                    "--device-spec",
                    "2x1.0,2x0.5",
                    "--router",
                    "merged",
                    "--no-max-qps",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "4 device(s)" in out
        assert "speed 0.5" in out
        assert "measured draft share" in out
