"""Unit tests for selecting and evaluating seeds, and the benchmark quality metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import HighDegreeSelector
from repro.algorithms.registry import base_model_layer
from repro.api import MonteCarloEstimator, build_estimator, build_selector, run_experiment
from repro.bench.metrics import normalized_rmse_curve, spread_deviation_percent
from repro.exceptions import BudgetError, ConfigurationError, SpecError
from repro.graphs import figure1_example_graph
from repro.specs import (
    AlgorithmSpec,
    EstimatorSpec,
    EvalSpec,
    ExperimentSpec,
    GraphSpec,
    ModelSpec,
)


def _mc(simulations: int, engine_seed: int = 0) -> EstimatorSpec:
    return EstimatorSpec(
        backend="monte-carlo", simulations=simulations, engine_seed=engine_seed
    )


class TestSelectAndEvaluate:
    def test_easyim_under_ic(self, small_ic_graph):
        selector = build_selector(
            AlgorithmSpec(name="easyim", options={"max_path_length": 2}),
            model="ic", objective="spread",
        )
        seeds = selector.select(small_ic_graph, 4).seeds
        estimator = build_estimator(_mc(100), small_ic_graph, "ic")
        assert len(seeds) == 4
        assert estimator.estimate(seeds) >= 0.0

    def test_osim_under_oi(self, annotated_small_graph):
        selector = build_selector(
            AlgorithmSpec(name="osim"), model="oi-ic", objective="effective-opinion",
        )
        seeds = selector.select(annotated_small_graph, 3).seeds
        estimator = build_estimator(
            _mc(100), annotated_small_graph, "oi-ic", objective="effective-opinion"
        )
        details = estimator.details(seeds)
        assert len(seeds) == 3
        assert estimator.estimate(seeds) == details["effective_opinion_spread"]

    def test_figure1_selection_matches_paper(self):
        graph = figure1_example_graph()
        ic_seeds = build_selector(
            AlgorithmSpec(name="greedy"), model="ic", objective="spread"
        ).select(graph, 1).seeds
        oi_seeds = build_selector(
            AlgorithmSpec(name="osim"), model="oi-ic", objective="effective-opinion"
        ).select(graph, 1).seeds
        assert ic_seeds == ["C"]
        assert oi_seeds == ["A"]

    def test_budget_beyond_graph_raises_budget_error(self, small_ic_graph):
        spec = ExperimentSpec(
            graph=GraphSpec(dataset="nethept", scale=0.12, seed=13),
            model=ModelSpec(name="ic"),
            algorithm=AlgorithmSpec(name="high-degree"),
            budget=small_ic_graph.number_of_nodes + 1,
            evaluation=EvalSpec(estimator=_mc(10)),
        )
        with pytest.raises(BudgetError):
            run_experiment(spec, graph=small_ic_graph)

    def test_budget_below_one_is_spec_error(self):
        with pytest.raises(SpecError, match="budget"):
            ExperimentSpec(
                graph=GraphSpec(dataset="nethept", scale=0.12, seed=13),
                model=ModelSpec(name="ic"),
                algorithm=AlgorithmSpec(name="high-degree"),
                budget=0,
            )

    def test_negative_penalty_is_spec_error(self):
        with pytest.raises(SpecError, match="penalty"):
            EvalSpec(objective="effective-opinion", penalty=-0.5)

    def test_tim_on_opinion_model_needs_explicit_base_layer(
        self, annotated_small_graph
    ):
        options = {"epsilon": 0.4, "max_rr_sets": 1000}
        with pytest.raises(ConfigurationError, match="only supports"):
            build_selector(AlgorithmSpec(name="tim+", options=options), model="oi-ic")
        explicit = dict(options, model=base_model_layer("oi-ic"))
        selector = build_selector(
            AlgorithmSpec(name="tim+", options=explicit), model="oi-ic", seed=0
        )
        assert len(selector.select(annotated_small_graph, 2).seeds) == 2


    def test_run_experiment_refuses_tim_on_opinion_model(self, annotated_small_graph):
        spec = ExperimentSpec(
            graph=GraphSpec(dataset="nethept", scale=0.12, seed=11, annotate=True),
            model=ModelSpec(name="oi-ic"),
            algorithm=AlgorithmSpec(name="tim+"),
            budget=2,
            evaluation=EvalSpec(estimator=_mc(10)),
        )
        with pytest.raises(ConfigurationError, match="only supports"):
            run_experiment(spec, graph=annotated_small_graph)

    def test_penalty_reaches_the_estimate(self, annotated_small_graph):
        seeds = HighDegreeSelector().select(annotated_small_graph, 4).seeds

        def value(penalty: float) -> float:
            spec = ExperimentSpec(
                graph=GraphSpec(dataset="nethept", scale=0.12, seed=11, annotate=True),
                model=ModelSpec(name="oi-ic"),
                seeds=seeds,
                evaluation=EvalSpec(
                    objective="effective-opinion", penalty=penalty,
                    estimator=_mc(100, engine_seed=2),
                ),
            )
            return run_experiment(spec, graph=annotated_small_graph).value

        assert value(0.0) >= value(1.0)

    def test_result_iterates_over_seeds(self, small_ic_graph):
        spec = ExperimentSpec(
            graph=GraphSpec(dataset="nethept", scale=0.12, seed=13),
            model=ModelSpec(name="ic"),
            algorithm=AlgorithmSpec(name="high-degree"),
            budget=3,
            evaluation=EvalSpec(estimator=_mc(20)),
        )
        result = run_experiment(spec, graph=small_ic_graph)
        assert list(result) == result.seeds
        assert len(result) == 3


class TestMonteCarloSweep:
    def test_sweep_prefix_counts(self, small_ic_graph):
        seeds = HighDegreeSelector().select(small_ic_graph, 6).seeds
        estimator = MonteCarloEstimator(small_ic_graph, "ic", simulations=100, seed=0)
        sweep = estimator.sweep(seeds, [0, 2, 4, 6])
        assert list(sweep) == [0, 2, 4, 6]
        assert sweep[0] == 0.0
        assert sweep[2] == MonteCarloEstimator(
            small_ic_graph, "ic", simulations=100, seed=0
        ).estimate(seeds[:2])

    def test_sweep_k_out_of_range(self, small_ic_graph):
        seeds = HighDegreeSelector().select(small_ic_graph, 3).seeds
        estimator = MonteCarloEstimator(small_ic_graph, "ic", simulations=10)
        for k in (5, -1):
            with pytest.raises(ConfigurationError):
                estimator.sweep(seeds, [k])

    def test_sweep_full_prefix_equals_estimate(self, small_ic_graph):
        seeds = HighDegreeSelector().select(small_ic_graph, 4).seeds
        sweep = MonteCarloEstimator(small_ic_graph, "ic", simulations=50, seed=3).sweep(
            seeds, [len(seeds)]
        )
        fresh = MonteCarloEstimator(small_ic_graph, "ic", simulations=50, seed=3)
        assert sweep == {len(seeds): fresh.estimate(seeds)}

    def test_sweep_opinion_objective_matches_prefix_estimates(self, annotated_small_graph):
        # The benchmarks' opinion curves: each k > 0 is the next estimate,
        # on the same engine stream, of the first k seeds under the
        # estimator's objective and penalty.
        seeds = HighDegreeSelector().select(annotated_small_graph, 5).seeds

        def estimator() -> MonteCarloEstimator:
            return MonteCarloEstimator(
                annotated_small_graph, "oi-ic", objective="effective-opinion",
                simulations=60, penalty=0.5, seed=4,
            )

        sweep = estimator().sweep(seeds, [0, 1, 3, 5])
        prefixes = estimator()
        assert sweep == {0: 0.0, **{k: prefixes.estimate(seeds[:k]) for k in (1, 3, 5)}}

    def test_fresh_estimators_give_identical_curves(self, small_ic_graph):
        seeds = HighDegreeSelector().select(small_ic_graph, 5).seeds
        curves = [
            MonteCarloEstimator(small_ic_graph, "ic", simulations=40, seed=9).sweep(
                seeds, [0, 1, 3, 5]
            )
            for _ in range(2)
        ]
        assert curves[0] == curves[1]

    def test_sweep_keeps_request_order_and_int_keys(self, small_ic_graph):
        seeds = HighDegreeSelector().select(small_ic_graph, 4).seeds
        estimator = MonteCarloEstimator(small_ic_graph, "ic", simulations=20, seed=0)
        sweep = estimator.sweep(seeds, np.array([4, 0, 2]))
        assert list(sweep) == [4, 0, 2]
        assert all(type(k) is int for k in sweep)
        assert estimator.sweep(seeds, []) == {}


class TestBenchMetrics:
    def test_normalized_rmse_curve(self):
        results = normalized_rmse_curve(
            {"perfect": [1.0, 2.0], "biased": [2.0, 3.0]}, [1.0, 2.0]
        )
        assert results["perfect"] == pytest.approx(0.0)
        assert results["biased"] > 0.0
        with pytest.raises(ConfigurationError):
            normalized_rmse_curve({"x": [1.0]}, [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            normalized_rmse_curve({"x": [1.0]}, [])

    def test_spread_deviation_percent(self):
        assert spread_deviation_percent(95.0, 100.0) == pytest.approx(5.0)
        assert spread_deviation_percent(0.0, 0.0) == 0.0
        assert spread_deviation_percent(1.0, 0.0) == float("inf")

    def test_normalized_rmse_fraction_and_percent_agree(self):
        predicted = {"a": [1.5, 2.5, 2.0]}
        truth = [1.0, 2.0, 3.0]
        percent = normalized_rmse_curve(predicted, truth)["a"]
        fraction = normalized_rmse_curve(predicted, truth, as_percent=False)["a"]
        assert percent == pytest.approx(fraction * 100.0)
        assert fraction == pytest.approx(np.sqrt((0.25 + 0.25 + 1.0) / 3) / 3.0)

    def test_normalized_rmse_scales_by_largest_magnitude(self):
        # Opinion spreads can be negative: the scale is max |truth|, and an
        # all-zero truth falls back to a scale of 1.
        signed = normalized_rmse_curve({"a": [-2.0, 2.0]}, [-4.0, 2.0], as_percent=False)
        assert signed["a"] == pytest.approx(np.sqrt(2.0) / 4.0)
        zero = normalized_rmse_curve({"a": [3.0, 4.0]}, [0.0, 0.0], as_percent=False)
        assert zero["a"] == pytest.approx(np.sqrt(12.5))

    def test_spread_deviation_percent_is_unsigned(self):
        assert spread_deviation_percent(105.0, 100.0) == pytest.approx(5.0)
        assert spread_deviation_percent(-9.0, -10.0) == pytest.approx(10.0)
        assert spread_deviation_percent(10.0, -10.0) == pytest.approx(200.0)
