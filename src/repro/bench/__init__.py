"""Paper-benchmark support: experiment registry, quality metrics and tabular reporting."""

from repro.bench.reporting import format_series_table, format_table
from repro.bench.experiments import EXPERIMENTS, PaperExperiment, get_experiment
from repro.bench.metrics import normalized_rmse_curve, spread_deviation_percent

__all__ = [
    "format_table",
    "format_series_table",
    "normalized_rmse_curve",
    "spread_deviation_percent",
    "EXPERIMENTS",
    "PaperExperiment",
    "get_experiment",
]
