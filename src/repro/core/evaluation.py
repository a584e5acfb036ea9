"""Seed-set evaluation helpers used by the benchmark harness and the figures.

* :func:`evaluate_seed_prefixes` — the k-sweep evaluation behind every
  "spread vs #seeds" figure: evaluate the first ``k`` seeds of a selection for
  a list of ``k`` values with a shared Monte-Carlo engine.
* :func:`compare_seed_sets` — evaluate several algorithms' seed sets under a
  common reference model (how Figs. 2, 5c and 5d compare OI/OC/IC seeds).
* :func:`normalized_rmse_curve` — the normalised-RMSE-vs-seeds metric of
  Fig. 5b.

RIS k-sweeps go through :class:`repro.api.SketchEstimator` (a fresh RR-sketch
pass) or :class:`repro.api.IndexEstimator` (a prebuilt influence index).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Union

import numpy as np

from repro.api import MonteCarloEstimator
from repro.diffusion.base import DiffusionModel
from repro.exceptions import ConfigurationError
from repro.graphs.digraph import CompiledGraph, DiGraph, Node
from repro.utils.rng import RandomState


@dataclass
class SeedSetEvaluation:
    """Objective values of one seed list evaluated at several prefix sizes."""

    label: str
    seed_counts: List[int]
    values: List[float]
    objective: str

    def as_series(self) -> Dict[int, float]:
        return dict(zip(self.seed_counts, self.values))


def evaluate_seed_prefixes(
    graph: Union[DiGraph, CompiledGraph],
    model: Union[str, DiffusionModel],
    seeds: Sequence[Node],
    seed_counts: Sequence[int],
    objective: str = "spread",
    simulations: int = 500,
    penalty: float = 1.0,
    label: str = "",
    seed: RandomState = 0,
    workers: int = 1,
) -> SeedSetEvaluation:
    """Evaluate prefixes of ``seeds`` at each requested ``k``.

    A :meth:`MonteCarloEstimator.sweep <repro.api.MonteCarloEstimator.sweep>`
    wrapped in a :class:`SeedSetEvaluation`: ``seed_counts`` entries outside
    ``0..len(seeds)`` raise, and ``workers`` > 1 spreads each estimate's
    simulation blocks over that many processes (the result is identical to
    ``workers=1`` for a fixed seed).
    """
    sweep = MonteCarloEstimator(
        graph, model, objective=objective, simulations=simulations,
        penalty=penalty, seed=seed, workers=workers,
    ).sweep(seeds, seed_counts)
    return SeedSetEvaluation(
        label=label or "seeds",
        seed_counts=list(seed_counts),
        values=[sweep[int(k)] for k in seed_counts],
        objective=objective,
    )


def compare_seed_sets(
    graph: Union[DiGraph, CompiledGraph],
    reference_model: Union[str, DiffusionModel],
    seed_sets: Mapping[str, Sequence[Node]],
    seed_counts: Sequence[int],
    objective: str = "effective-opinion",
    simulations: int = 500,
    penalty: float = 1.0,
    seed: RandomState = 0,
    workers: int = 1,
) -> List[SeedSetEvaluation]:
    """Evaluate several labelled seed lists under one reference model.

    This is the comparison pattern of Figs. 2/5c/5d: seeds are *selected*
    under different models (OI, OC, IC) but every selection is *evaluated*
    under the realistic reference model (OI), so the curves are comparable.
    """
    evaluations: List[SeedSetEvaluation] = []
    for label, seeds in seed_sets.items():
        evaluations.append(
            evaluate_seed_prefixes(
                graph,
                reference_model,
                seeds,
                seed_counts,
                objective=objective,
                simulations=simulations,
                penalty=penalty,
                label=label,
                seed=seed,
                workers=workers,
            )
        )
    return evaluations


def normalized_rmse_curve(
    predicted_by_label: Mapping[str, Sequence[float]],
    ground_truth: Sequence[float],
    as_percent: bool = True,
) -> Dict[str, float]:
    """Normalised RMSE of each labelled prediction series vs the ground truth.

    Used for Fig. 5b, where the "prediction" of a model at each seed count is
    its estimated opinion spread and the ground truth is the opinion spread
    observed in the data.
    """
    truth = np.asarray(ground_truth, dtype=np.float64)
    if truth.size == 0:
        raise ConfigurationError("ground_truth must not be empty")
    scale = float(np.abs(truth).max())
    if scale == 0.0:
        scale = 1.0
    results: Dict[str, float] = {}
    for label, predictions in predicted_by_label.items():
        predicted = np.asarray(predictions, dtype=np.float64)
        if predicted.shape != truth.shape:
            raise ConfigurationError(
                f"series {label!r} has shape {predicted.shape}, expected {truth.shape}"
            )
        rmse = float(np.sqrt(np.mean((predicted - truth) ** 2))) / scale
        results[label] = rmse * 100.0 if as_percent else rmse
    return results


def spread_deviation_percent(value: float, reference: float) -> float:
    """Relative deviation of ``value`` from ``reference`` in percent.

    The paper's headline quality claim is that EaSyIM/OSIM stay within 5% of
    the best-known methods; this helper expresses that deviation.
    """
    if reference == 0.0:
        return 0.0 if value == 0.0 else float("inf")
    return abs(value - reference) / abs(reference) * 100.0
