"""Benchmark harness: experiment runners and tabular reporting."""

from repro.bench.harness import (
    AlgorithmRun,
    ExperimentResult,
    measure_selection,
    run_k_sweep,
)
from repro.bench.reporting import format_series_table, format_table, print_experiment
from repro.bench.experiments import EXPERIMENTS, PaperExperiment, get_experiment

__all__ = [
    "AlgorithmRun",
    "ExperimentResult",
    "measure_selection",
    "run_k_sweep",
    "format_table",
    "format_series_table",
    "print_experiment",
    "EXPERIMENTS",
    "PaperExperiment",
    "get_experiment",
]
