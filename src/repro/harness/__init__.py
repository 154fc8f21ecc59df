"""Experiment harness: method registry, corpus runner, per-figure experiments."""

from repro.harness.figures import ascii_bars, ascii_table, format_value
from repro.harness.methods import build_method, standard_methods
from repro.harness.runner import ExperimentConfig, MethodRun, run_method, run_methods

__all__ = [
    "ExperimentConfig",
    "MethodRun",
    "ascii_bars",
    "ascii_table",
    "build_method",
    "format_value",
    "run_method",
    "run_methods",
    "standard_methods",
]
