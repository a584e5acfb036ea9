"""Seed-set evaluation helpers used by the benchmark harness and the figures.

* :func:`evaluate_seed_prefixes` — the k-sweep evaluation behind every
  "spread vs #seeds" figure: evaluate the first ``k`` seeds of a selection for
  a list of ``k`` values with a shared Monte-Carlo engine.
* :func:`compare_seed_sets` — evaluate several algorithms' seed sets under a
  common reference model (how Figs. 2, 5c and 5d compare OI/OC/IC seeds).
* :func:`normalized_rmse_curve` — the normalised-RMSE-vs-seeds metric of
  Fig. 5b.
* :func:`sketch_evaluate_seed_prefixes` — the RIS alternative to the
  Monte-Carlo k-sweep: estimate every prefix's spread from one shared
  RR-sketch collection (``n`` times the covered fraction), so the whole
  sweep costs one sampling pass instead of ``len(seed_counts)`` simulation
  campaigns.
* :func:`index_evaluate_seed_prefixes` — the *warm* variant: the same
  k-sweep served from a prebuilt :class:`~repro.serving.index.InfluenceIndex`
  without any resampling at all, so repeated sweeps over a persisted
  artifact cost only batched coverage passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.diffusion.base import DiffusionModel
from repro.diffusion.simulation import MonteCarloEngine
from repro.exceptions import ConfigurationError
from repro.graphs.digraph import CompiledGraph, DiGraph, Node
from repro.utils.rng import RandomState, ensure_rng


@dataclass
class SeedSetEvaluation:
    """Objective values of one seed list evaluated at several prefix sizes."""

    label: str
    seed_counts: List[int]
    values: List[float]
    objective: str
    extras: Dict[str, object] = field(default_factory=dict)

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

    ``seed_counts`` entries larger than ``len(seeds)`` raise, because the
    prefix would silently repeat the full set and distort the curve.
    ``workers`` > 1 spreads each estimate's simulation blocks over that many
    processes (the result is identical to ``workers=1`` for a fixed seed).
    """
    seeds = list(seeds)
    for k in seed_counts:
        if k < 0 or k > len(seeds):
            raise ConfigurationError(
                f"seed count {k} is outside 0..{len(seeds)}"
            )
    engine = MonteCarloEngine(
        graph, model, simulations=simulations, penalty=penalty, seed=seed,
        workers=workers,
    )
    values: List[float] = []
    for k in seed_counts:
        if k == 0:
            values.append(0.0)
            continue
        estimate = engine.estimate(seeds[:k])
        values.append(estimate.objective(objective))
    return SeedSetEvaluation(
        label=label or "seeds",
        seed_counts=list(seed_counts),
        values=values,
        objective=objective,
    )


def sketch_evaluate_seed_prefixes(
    graph: Union[DiGraph, CompiledGraph],
    model: str,
    seeds: Sequence[Node],
    seed_counts: Sequence[int],
    theta: int = 20_000,
    label: str = "",
    seed: RandomState = 0,
    block_size: int = 4096,
) -> SeedSetEvaluation:
    """Evaluate prefixes of ``seeds`` with the RR-sketch spread oracle.

    Draws ``theta`` reverse-reachable sets under ``model`` (one of the RIS
    models ``ic``/``wc``/``lt``) and scores every prefix as ``n`` times the
    fraction of sets it covers — the standard RIS estimator, unbiased for
    the expected number of active nodes.  The number of distinct seeds is
    subtracted so the values match the paper's Def. 3 spread (activated
    nodes *excluding* seeds), i.e. the same objective
    :func:`evaluate_seed_prefixes` reports.
    All prefixes share the same collection, so the whole k-sweep costs a
    single sampling pass; estimator accuracy grows with ``theta``.
    """
    from repro.sketches.collection import RRSetCollection
    from repro.sketches.sampler import BatchRRSampler

    if theta < 1:
        raise ConfigurationError(f"theta must be >= 1, got {theta}")
    if block_size < 1:
        raise ConfigurationError(f"block_size must be >= 1, got {block_size}")
    seeds = list(seeds)
    for k in seed_counts:
        if k < 0 or k > len(seeds):
            raise ConfigurationError(
                f"seed count {k} is outside 0..{len(seeds)}"
            )
    compiled = graph.compile() if isinstance(graph, DiGraph) else graph
    indices = compiled.indices_for(seeds)
    sampler = BatchRRSampler(compiled, model)
    collection = RRSetCollection(compiled.number_of_nodes)
    sampler.sample_into(ensure_rng(seed), collection, theta, block_size)
    values = [
        max(collection.estimated_spread(indices[:k]) - len(set(indices[:k])), 0.0) if k else 0.0
        for k in seed_counts
    ]
    return SeedSetEvaluation(
        label=label or "seeds",
        seed_counts=list(seed_counts),
        values=values,
        objective="spread",
        extras={"estimator": "rr-sketch", "theta": collection.num_sets,
                "model": model},
    )


def index_evaluate_seed_prefixes(
    index,
    seeds: Sequence[Node],
    seed_counts: Sequence[int],
    label: str = "",
) -> SeedSetEvaluation:
    """Warm k-sweep: evaluate prefixes of ``seeds`` from a prebuilt index.

    ``index`` is an :class:`~repro.serving.index.InfluenceIndex`; no RR sets
    are sampled — every prefix is one query against the stored inverted
    index.  Like :func:`sketch_evaluate_seed_prefixes`, the number of
    distinct seeds is subtracted so the values match the paper's Def. 3
    spread (activated nodes *excluding* seeds).
    """
    seeds = list(seeds)
    counts = [int(k) for k in seed_counts]
    for k in counts:
        if k < 0 or k > len(seeds):
            raise ConfigurationError(
                f"seed count {k} is outside 0..{len(seeds)}"
            )
    values = [
        max(index.estimate_spread(seeds[:k]) - len(set(seeds[:k])), 0.0) if k else 0.0
        for k in counts
    ]
    return SeedSetEvaluation(
        label=label or "seeds",
        seed_counts=counts,
        values=values,
        objective="spread",
        extras={
            "estimator": "influence-index",
            "theta": index.theta,
            "model": index.model,
        },
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
