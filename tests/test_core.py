"""Unit tests for selecting and evaluating seeds, and the evaluation helpers."""

from __future__ import annotations

import pytest

from repro.algorithms import HighDegreeSelector
from repro.algorithms.registry import base_model_layer
from repro.api import MonteCarloEstimator, build_estimator, build_selector, run_experiment
from repro.core import (
    compare_seed_sets,
    evaluate_seed_prefixes,
    normalized_rmse_curve,
)
from repro.core.evaluation import spread_deviation_percent
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


class TestEvaluationHelpers:
    def test_evaluate_seed_prefixes_monotone_counts(self, small_ic_graph):
        seeds = HighDegreeSelector().select(small_ic_graph, 6).seeds
        evaluation = evaluate_seed_prefixes(
            small_ic_graph, "ic", seeds, [0, 2, 4, 6], simulations=100, seed=0
        )
        assert evaluation.seed_counts == [0, 2, 4, 6]
        assert evaluation.values[0] == 0.0
        assert len(evaluation.values) == 4
        assert evaluation.as_series()[2] == evaluation.values[1]

    def test_evaluate_seed_prefixes_equals_estimator_sweep(self, annotated_small_graph):
        seeds = HighDegreeSelector().select(annotated_small_graph, 5).seeds
        counts = [0, 1, 3, 5]
        evaluation = evaluate_seed_prefixes(
            annotated_small_graph, "oi-ic", seeds, counts,
            objective="effective-opinion", simulations=60, penalty=0.5, seed=4,
        )
        sweep = MonteCarloEstimator(
            annotated_small_graph, "oi-ic", objective="effective-opinion",
            simulations=60, penalty=0.5, seed=4,
        ).sweep(seeds, counts)
        assert evaluation.values == [sweep[k] for k in counts]

    def test_evaluate_seed_prefixes_k_out_of_range(self, small_ic_graph):
        seeds = HighDegreeSelector().select(small_ic_graph, 3).seeds
        with pytest.raises(ConfigurationError):
            evaluate_seed_prefixes(small_ic_graph, "ic", seeds, [5], simulations=10)

    def test_compare_seed_sets_labels(self, annotated_small_graph):
        high_degree = HighDegreeSelector().select(annotated_small_graph, 4).seeds
        reversed_seeds = list(reversed(high_degree))
        evaluations = compare_seed_sets(
            annotated_small_graph,
            "oi-ic",
            {"forward": high_degree, "backward": reversed_seeds},
            seed_counts=[0, 2, 4],
            simulations=50,
        )
        assert {e.label for e in evaluations} == {"forward", "backward"}
        assert all(e.objective == "effective-opinion" for e in evaluations)

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
