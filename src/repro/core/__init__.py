"""Evaluation helpers behind the benchmark harness and the figures."""

from repro.core.evaluation import (
    compare_seed_sets,
    evaluate_seed_prefixes,
    normalized_rmse_curve,
    SeedSetEvaluation,
)

__all__ = [
    "SeedSetEvaluation",
    "compare_seed_sets",
    "evaluate_seed_prefixes",
    "normalized_rmse_curve",
]
