"""Quality metrics the paper benchmarks report over spread curves.

* :func:`normalized_rmse_curve` — the normalised-RMSE-vs-seeds metric of
  Fig. 5b.
* :func:`spread_deviation_percent` — how far one algorithm's spread sits from
  the best competitor's (the paper's "within 5%" claim).
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

import numpy as np

from repro.exceptions import ConfigurationError


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
