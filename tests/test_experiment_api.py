"""Tests for the unified experiment API: specs, estimators, run_experiment.

Covers the spec layer's JSON round-trips (including a property-based
ExperimentSpec -> dict -> ExperimentSpec equality check), schema-style
validation errors, capability negotiation (registry metadata instead of
frozensets), backend equivalence (Monte-Carlo vs sketch vs index within
3 sigma on the same seed set), regression against the pre-redesign entry
points, the deprecation shims, the public-export audit and the rebuilt CLI.
"""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.api import (
    RESULT_SCHEMA,
    IndexEstimator,
    MonteCarloEstimator,
    RunResult,
    ScoreEstimator,
    SketchEstimator,
    SpreadEstimator,
    build_estimator,
    build_selector,
    estimator_capabilities,
    run_experiment,
)
from repro.algorithms.registry import (
    algorithm_capabilities,
    algorithm_info,
    available_algorithms,
    base_model_layer,
)
from repro.cli import main as cli_main
from repro.datasets.registry import load_dataset
from repro.diffusion.simulation import MonteCarloEngine
from repro.exceptions import ConfigurationError, SpecError
from repro.graphs.generators import erdos_renyi_graph
from repro.serving import InfluenceIndex
from repro.specs import (
    AlgorithmSpec,
    EstimatorSpec,
    EvalSpec,
    ExperimentSpec,
    GraphSpec,
    ModelSpec,
    load_experiment_spec,
)


@pytest.fixture(scope="module")
def nethept():
    return load_dataset("nethept", scale=0.1, seed=1)


@pytest.fixture(scope="module")
def nethept_compiled(nethept):
    return nethept.compile()


def _small_spec(**overrides) -> ExperimentSpec:
    base = dict(
        name="test",
        graph=GraphSpec(dataset="nethept", scale=0.1, seed=1),
        model=ModelSpec(name="wc"),
        algorithm=AlgorithmSpec(name="easyim", options={"max_path_length": 3}),
        budget=5,
        seed=0,
        evaluation=EvalSpec(
            estimator=EstimatorSpec(backend="sketch", theta=4000)
        ),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


# ----------------------------------------------------------------- round trips


class TestSpecRoundTrips:
    def test_dict_round_trip(self):
        spec = _small_spec(evaluation=EvalSpec(seed_counts=[0, 2, 5]))
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_is_exact(self):
        spec = _small_spec()
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_file_round_trip(self, tmp_path):
        spec = _small_spec()
        path = spec.save(tmp_path / "spec.json")
        assert load_experiment_spec(path) == spec

    def test_shorthand_forms(self):
        spec = ExperimentSpec.from_dict(
            {
                "graph": {"dataset": "nethept", "scale": 0.1},
                "model": "wc",
                "algorithm": "high-degree",
                "budget": 3,
                "evaluation": {"estimator": "ris"},
            }
        )
        assert spec.model == ModelSpec(name="wc")
        assert spec.algorithm == AlgorithmSpec(name="high-degree")
        # Aliases normalise to canonical backend names.
        assert spec.evaluation.estimator.backend == "sketch"

    def test_seeds_spec_round_trip(self):
        spec = ExperimentSpec(
            graph=GraphSpec(dataset="nethept", scale=0.1, seed=1),
            model=ModelSpec(name="ic"),
            seeds=[0, 1, "labelled"],
        )
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    @settings(max_examples=40, deadline=None)
    @given(
        dataset=st.sampled_from(["nethept", "hepph", "dblp"]),
        scale=st.floats(min_value=0.05, max_value=2.0, allow_nan=False),
        graph_seed=st.integers(min_value=0, max_value=2**31 - 1),
        model=st.sampled_from(["ic", "wc", "lt", "oi-ic", "oi-wc", "icn", "oc"]),
        algorithm=st.sampled_from(
            ["easyim", "osim", "tim+", "imm", "greedy", "high-degree", "random"]
        ),
        budget=st.integers(min_value=1, max_value=50),
        selection_seed=st.none() | st.integers(min_value=0, max_value=1000),
        objective=st.sampled_from(["spread", "opinion", "effective-opinion"]),
        penalty=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        backend=st.sampled_from(["monte-carlo", "sketch", "index", "score"]),
        simulations=st.integers(min_value=1, max_value=10_000),
        theta=st.integers(min_value=1, max_value=100_000),
        annotate=st.booleans(),
        notes=st.text(max_size=40),
    )
    def test_property_round_trip(
        self, dataset, scale, graph_seed, model, algorithm, budget,
        selection_seed, objective, penalty, backend, simulations, theta,
        annotate, notes,
    ):
        spec = ExperimentSpec(
            name="prop",
            graph=GraphSpec(
                dataset=dataset, scale=scale, seed=graph_seed, annotate=annotate
            ),
            model=ModelSpec(name=model),
            algorithm=AlgorithmSpec(name=algorithm),
            budget=budget,
            seed=selection_seed,
            evaluation=EvalSpec(
                objective=objective,
                penalty=penalty,
                seed_counts=[0, budget],
                estimator=EstimatorSpec(
                    backend=backend, simulations=simulations, theta=theta
                ),
            ),
            notes=notes,
        )
        # Through plain dicts *and* through the JSON text form.
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert ExperimentSpec.from_json(spec.to_json()) == spec


# ------------------------------------------------------------ validation errors


class TestSpecValidation:
    def test_graph_requires_exactly_one_source(self):
        with pytest.raises(SpecError, match="exactly one of 'dataset'"):
            GraphSpec()
        with pytest.raises(SpecError, match="exactly one of 'dataset'"):
            GraphSpec(dataset="nethept", edge_list="x.txt")

    def test_error_messages_lead_with_dotted_path(self):
        with pytest.raises(SpecError, match=r"^graph\.scale: must be > 0"):
            GraphSpec(dataset="nethept", scale=-1)
        with pytest.raises(SpecError, match=r"^estimator\.theta: must be >= 1"):
            EstimatorSpec(theta=0)
        with pytest.raises(
            SpecError, match=r"^experiment\.graph\.dataset: unknown dataset"
        ):
            ExperimentSpec.from_dict(
                {"graph": {"dataset": "nope"}, "algorithm": "easyim", "budget": 1}
            )

    def test_shorthand_errors_carry_the_full_path(self):
        with pytest.raises(SpecError, match=r"^experiment\.model\.name"):
            ExperimentSpec.from_dict(
                {"graph": {"dataset": "nethept"}, "model": "bogus",
                 "algorithm": "easyim", "budget": 1}
            )
        with pytest.raises(
            SpecError, match=r"^experiment\.evaluation\.estimator\.backend"
        ):
            ExperimentSpec.from_dict(
                {"graph": {"dataset": "nethept"}, "algorithm": "easyim",
                 "budget": 1, "evaluation": {"estimator": "bogus"}}
            )

    def test_unknown_fields_rejected_with_valid_list(self):
        with pytest.raises(SpecError, match=r"unknown field\(s\) 'scal'.*scale"):
            GraphSpec.from_dict({"dataset": "nethept", "scal": 2})

    def test_unknown_backend_lists_aliases(self):
        with pytest.raises(SpecError, match="monte-carlo, sketch, index, score"):
            EstimatorSpec(backend="bogus")

    def test_unknown_algorithm_and_model(self):
        with pytest.raises(SpecError, match="unknown algorithm"):
            AlgorithmSpec(name="bogus")
        with pytest.raises(SpecError, match="unknown diffusion model"):
            ModelSpec(name="bogus")

    def test_budget_and_seeds_are_mutually_exclusive(self):
        graph = GraphSpec(dataset="nethept")
        with pytest.raises(SpecError, match="exactly one of 'algorithm'"):
            ExperimentSpec(graph=graph)
        with pytest.raises(SpecError, match="budget.*required"):
            ExperimentSpec(graph=graph, algorithm=AlgorithmSpec(name="easyim"))
        with pytest.raises(SpecError, match="implied by the explicit seed list"):
            ExperimentSpec(graph=graph, seeds=[1, 2], budget=2)

    def test_seed_counts_cannot_exceed_budget(self):
        with pytest.raises(SpecError, match=r"seed_counts\[1\].*exceeds"):
            _small_spec(evaluation=EvalSpec(seed_counts=[1, 10]))

    def test_artifact_only_for_index_backend(self):
        with pytest.raises(SpecError, match="only meaningful for the 'index'"):
            EstimatorSpec(backend="sketch", artifact="x.npz")

    def test_invalid_label_type(self):
        with pytest.raises(SpecError, match=r"seeds\[1\].*labels"):
            ExperimentSpec(
                graph=GraphSpec(dataset="nethept"), seeds=[1, 2.5]
            )


# ------------------------------------------------------ capability negotiation


class TestCapabilities:
    def test_registry_table_covers_every_algorithm(self):
        table = algorithm_capabilities()
        assert sorted(table) == available_algorithms()
        assert table["tim+"]["supported_models"] == ["ic", "lt", "wc"]
        assert table["osim"]["opinion_aware"] is True
        assert "supported_models" not in table["greedy"]

    def test_opinion_aware_set_derived_from_metadata(self):
        from repro.algorithms.registry import OPINION_AWARE_ALGORITHMS

        assert OPINION_AWARE_ALGORITHMS == frozenset({"osim", "modified-greedy"})

    def test_base_model_layer(self):
        assert base_model_layer("oi-lt") == "lt"
        assert base_model_layer("oi-wc") == "wc"
        assert base_model_layer("oc") == "ic"
        assert base_model_layer("ic") == "ic"
        # Segment match, not suffix: the LT-equivalent live-edge sampler
        # must score under LT weights, not IC.
        assert base_model_layer("lt-live-edge") == "lt"

    def test_selector_rejects_unsupported_model_with_list(self):
        with pytest.raises(ConfigurationError, match="only supports the ic/lt/wc"):
            build_selector(AlgorithmSpec(name="tim+"), model="oi-ic")

    def test_selector_injects_by_capability(self, nethept_compiled):
        selector = build_selector(
            AlgorithmSpec(name="greedy", options={"simulations": 10}),
            model="ic",
            objective="spread",
            penalty=2.0,
            seed=7,
        )
        assert selector.simulations == 10
        assert selector.penalty == 2.0
        # Explicit options always win over injected context.
        selector = build_selector(
            AlgorithmSpec(name="greedy", options={"simulations": 10, "penalty": 0.5}),
            model="ic",
            penalty=2.0,
        )
        assert selector.penalty == 0.5

    def test_estimator_negotiation_rejects_opinion_models(self, nethept_compiled):
        with pytest.raises(ConfigurationError, match="monte-carlo"):
            build_estimator("sketch", nethept_compiled, "oi-ic")
        with pytest.raises(ConfigurationError, match="objective 'opinion'"):
            build_estimator("index", nethept_compiled, "ic", objective="opinion")

    def test_estimator_requires_model_unless_artifact(self, nethept_compiled):
        with pytest.raises(ConfigurationError, match="requires a diffusion model"):
            build_estimator("sketch", nethept_compiled, None)

    def test_score_backend_refuses_non_default_penalty(self, nethept_compiled):
        with pytest.raises(ConfigurationError, match="cannot apply penalty"):
            build_estimator(
                "score", nethept_compiled, "oi-ic",
                objective="effective-opinion", penalty=0.5,
            )
        # penalty 1.0 (the identity) and non-penalised objectives still work.
        build_estimator("score", nethept_compiled, "ic", objective="spread",
                        penalty=0.5)

    def test_sketch_sweep_matches_per_prefix_estimates(self, nethept_compiled):
        estimator = SketchEstimator(nethept_compiled, "wc", theta=3000, seed=8)
        seeds = [0, 1, 2, 3, 4]
        sweep = estimator.sweep(seeds, [0, 2, 5])
        assert sweep[0] == 0.0
        assert sweep[2] == pytest.approx(estimator.estimate(seeds[:2]))
        assert sweep[5] == pytest.approx(estimator.estimate(seeds))

    def test_capability_table_shape(self):
        table = estimator_capabilities()
        assert set(table) == {"monte-carlo", "sketch", "index", "score"}
        assert table["score"]["sigma_comparable"] is False

    def test_maximizer_runs_ris_algorithms_on_base_models(self, nethept):
        # Regression: the capability path must hand TIM+/IMM the model *name*
        # (their constructors reject model instances) when the problem model
        # is already a supported base layer.
        problem = repro.IMProblem(nethept.copy(), budget=3, model="wc")
        result = repro.InfluenceMaximizer(
            problem, algorithm="tim+", simulations=50, seed=0,
            epsilon=0.4, max_rr_sets=2000,
        ).run()
        assert len(result.seeds) == 3

    def test_index_artifact_model_mismatch_is_refused(
        self, nethept_compiled, tmp_path
    ):
        index = InfluenceIndex.build(nethept_compiled, "ic", 500, engine_seed=0)
        artifact = index.save(tmp_path / "ic.npz")
        spec = EstimatorSpec(backend="index", artifact=str(artifact))
        with pytest.raises(ConfigurationError, match="sampled under model 'ic'"):
            build_estimator(spec, nethept_compiled, "wc")
        # Without a requested model the artifact's own model is authoritative.
        estimator = build_estimator(spec, nethept_compiled, None)
        assert estimator.model == "ic"

    def test_maximizer_still_coerces_ris_base_layer(self, nethept):
        # The facade keeps the documented base-layer fallback for RIS
        # algorithms (tests the capability flag, not a frozenset).
        repro.annotate_graph(nethept.copy(), opinion="uniform",
                             interaction="uniform", seed=0)
        info = algorithm_info("tim+")
        assert info.base_model_fallback and info.supported_models is not None


# ---------------------------------------------------------- backend equivalence


class TestBackendEquivalence:
    def test_mc_sketch_index_agree_within_3_sigma(self, nethept_compiled):
        seeds = repro.get_algorithm("high-degree").select(nethept_compiled, 5).seeds
        simulations, theta = 4000, 40_000
        n = nethept_compiled.number_of_nodes

        mc = MonteCarloEstimator(
            nethept_compiled, "wc", simulations=simulations, seed=3
        )
        sketch = SketchEstimator(nethept_compiled, "wc", theta=theta, seed=4)
        index = IndexEstimator(nethept_compiled, "wc", theta=theta, seed=5)

        estimate = mc.engine.estimate(seeds)
        se_mc = estimate.spread_std / math.sqrt(simulations)
        values = {
            "monte-carlo": mc.estimate(seeds),
            "sketch": sketch.estimate(seeds),
            "index": index.estimate(seeds),
        }
        for backend in ("sketch", "index"):
            p = (values[backend] + len(seeds)) / n
            se_ris = n * math.sqrt(max(p * (1 - p), 1e-12) / theta)
            tolerance = 3.0 * math.sqrt(se_mc**2 + se_ris**2)
            assert abs(values[backend] - values["monte-carlo"]) < tolerance, (
                backend, values, tolerance,
            )

    def test_sketch_and_index_identical_for_same_seed(self, nethept_compiled):
        seeds = [0, 1, 2]
        sketch = SketchEstimator(nethept_compiled, "wc", theta=5000, seed=9)
        index = IndexEstimator(nethept_compiled, "wc", theta=5000, seed=9)
        assert sketch.estimate(seeds) == pytest.approx(index.estimate(seeds))
        assert sketch.sweep(seeds, [0, 1, 3]) == pytest.approx(
            index.sweep(seeds, [0, 1, 3])
        )

    @pytest.mark.parametrize("backend", [SketchEstimator, IndexEstimator])
    def test_duplicate_seeds_count_once(self, backend):
        # Def. 3 excludes each distinct seed once: [a, a] is the seed set
        # {a}, not a set of two seeds whose spread is clamped to zero.
        graph = erdos_renyi_graph(60, 0.05, seed=2).compile()
        estimator = backend(graph, "ic", theta=3000, seed=1)
        a = graph.labels[int(np.argmax(np.diff(graph.out_indptr)))]
        assert estimator.estimate([a]) > 0.0
        assert estimator.estimate([a, a]) == estimator.estimate([a])
        assert estimator.details([a, a]) == estimator.details([a])
        assert estimator.sweep([a, a], [0, 1, 2]) == {
            0: 0.0, 1: estimator.estimate([a]), 2: estimator.estimate([a])
        }

    def test_same_spec_different_backends_one_protocol(self, nethept_compiled):
        # The acceptance check: one ExperimentSpec, executed against the
        # Monte-Carlo, sketch and index backends, returns consistent spreads
        # and identical seeds, all through the SpreadEstimator protocol.
        base = _small_spec(
            algorithm=AlgorithmSpec(name="tim+", options={"epsilon": 0.4,
                                                          "max_rr_sets": 20_000}),
            model=ModelSpec(name="wc"),
        ).to_dict()
        results = {}
        for backend, config in {
            "monte-carlo": {"backend": "mc", "simulations": 3000},
            "sketch": {"backend": "sketch", "theta": 30_000},
            "index": {"backend": "index", "theta": 30_000},
        }.items():
            spec = ExperimentSpec.from_dict(
                {**base, "evaluation": {"estimator": config}}
            )
            result = run_experiment(spec)
            assert isinstance(
                build_estimator(
                    EstimatorSpec(**config), nethept_compiled, "wc"
                ),
                SpreadEstimator,
            )
            assert result.backend == backend
            results[backend] = result
        seed_sets = {tuple(r.seeds) for r in results.values()}
        assert len(seed_sets) == 1, "same spec must select the same seeds"
        values = [r.value for r in results.values()]
        assert max(values) - min(values) < 0.2 * max(values) + 5.0

    def test_score_backend_is_flagged_heuristic(self, nethept_compiled):
        spec = ExperimentSpec.from_dict(
            {**_small_spec().to_dict(), "evaluation": {"estimator": "score"}}
        )
        result = run_experiment(spec)
        assert result.provenance["estimator"]["sigma_comparable"] is False
        assert result.spreads == {"score": pytest.approx(result.value)}


# ---------------------------------------------------------- regression vs old


class TestRegressionAgainstOldEntryPoints:
    def test_run_experiment_matches_direct_selector(self, nethept):
        spec = _small_spec()
        result = run_experiment(spec)
        selector = repro.get_algorithm(
            "easyim", max_path_length=3, model="wc", seed=0
        )
        assert result.seeds == selector.select(nethept.compile(), 5).seeds

    def test_mc_value_matches_engine(self, nethept_compiled):
        seeds = [0, 1, 2]
        spec = ExperimentSpec(
            graph=GraphSpec(dataset="nethept", scale=0.1, seed=1),
            model=ModelSpec(name="wc"),
            seeds=seeds,
            evaluation=EvalSpec(
                estimator=EstimatorSpec(
                    backend="monte-carlo", simulations=300, engine_seed=6
                )
            ),
        )
        result = run_experiment(spec)
        engine = MonteCarloEngine(nethept_compiled, "wc", simulations=300, seed=6)
        assert result.value == pytest.approx(engine.estimate(seeds).spread)

    def test_index_estimator_matches_influence_index(self, nethept_compiled):
        seeds = [0, 1, 2]
        index = InfluenceIndex.build(nethept_compiled, "wc", 5000, engine_seed=2)
        estimator = IndexEstimator(nethept_compiled, "wc", theta=5000, seed=2)
        raw = index.estimate_spread(seeds)
        assert estimator.estimate(seeds) == pytest.approx(max(raw - 3, 0.0))

    def test_run_experiment_matches_maximizer(self, nethept):
        graph = nethept.copy()
        problem = repro.IMProblem(graph, budget=4, model="wc")
        maximized = repro.InfluenceMaximizer(
            problem, algorithm="degree-discount", evaluate=False
        ).run()
        result = run_experiment(
            _small_spec(budget=4, algorithm=AlgorithmSpec(name="degree-discount")),
            graph=graph,
        )
        assert list(maximized.seeds) == result.seeds

    def test_score_estimator_telescopes_residual_scores(self, nethept_compiled):
        from repro.scoring import ScoreEngine

        seeds = [5, 9, 11]
        estimator = ScoreEstimator(nethept_compiled, "ic")
        engine = ScoreEngine(nethept_compiled, algorithm="easyim",
                             max_path_length=3, weighting="ic")
        expected = 0.0
        for node in nethept_compiled.indices_for(seeds):
            expected += engine.score_of(node)
            engine.mark_active([node])
        assert estimator.estimate(seeds) == pytest.approx(expected)
        sweep = estimator.sweep(seeds, [0, 1, 3])
        assert sweep[0] == 0.0 and sweep[3] == pytest.approx(expected)


# ------------------------------------------------------------------ RunResult


class TestRunResult:
    def test_payload_schema_and_round_trip(self):
        result = run_experiment(
            _small_spec(evaluation=EvalSpec(
                seed_counts=[0, 5],
                estimator=EstimatorSpec(backend="sketch", theta=2000),
            ))
        )
        payload = result.to_payload()
        assert payload["schema"] == RESULT_SCHEMA
        for key in ("query", "dataset", "algorithm", "model", "objective",
                    "backend", "budget", "seeds", "value", "curve",
                    "timings", "provenance"):
            assert key in payload, key
        assert payload["provenance"]["spec"] == result.spec.to_dict()
        rehydrated = RunResult.from_json(result.to_json())
        assert rehydrated.seeds == [str(s) for s in result.seeds]
        assert rehydrated.curve == {
            k: round(v, 3) for k, v in result.curve.items()
        }
        assert rehydrated.backend == result.backend

    def test_provenance_carries_fingerprint_and_seeds(self, nethept_compiled):
        from repro.graphs.fingerprint import graph_fingerprint

        result = run_experiment(_small_spec())
        assert result.provenance["graph_fingerprint"] == graph_fingerprint(
            nethept_compiled
        )
        assert result.provenance["selection_seed"] == 0
        assert result.provenance["estimator"]["engine_seed"] == 0
        assert result.provenance["library_version"] == repro.__version__

    def test_rejects_foreign_schema(self):
        with pytest.raises(ConfigurationError, match="schema"):
            RunResult.from_payload({"schema": "something-else"})

    def test_run_experiment_rejects_non_spec(self):
        with pytest.raises(ConfigurationError, match="must be an ExperimentSpec"):
            run_experiment({"graph": {"dataset": "nethept"}})


# ---------------------------------------------------------- deprecation shims


class TestDeprecationShims:
    def test_maximizer_frozensets_warn_and_match_registry(self):
        import repro.core.maximizer as maximizer

        with pytest.warns(DeprecationWarning, match="algorithm_info"):
            model_aware = maximizer._MODEL_AWARE_ALGORITHMS
        with pytest.warns(DeprecationWarning):
            objective_aware = maximizer._OBJECTIVE_AWARE_ALGORITHMS
        assert model_aware == frozenset(
            {"greedy", "celf", "celf++", "modified-greedy", "easyim", "osim",
             "path-union"}
        )
        assert objective_aware == frozenset({"greedy", "celf", "celf++"})

    def test_bench_experiment_spec_alias_warns(self):
        import repro.bench.experiments as bench_experiments

        with pytest.warns(DeprecationWarning, match="PaperExperiment"):
            alias = bench_experiments.ExperimentSpec
        assert alias is bench_experiments.PaperExperiment

    def test_all_exports_resolve(self):
        missing = [name for name in repro.__all__ if not hasattr(repro, name)]
        assert not missing
        for name in ("ExperimentSpec", "GraphSpec", "ModelSpec",
                     "AlgorithmSpec", "EstimatorSpec", "EvalSpec",
                     "run_experiment", "RunResult", "SpreadEstimator",
                     "build_estimator", "load_experiment_spec", "SpecError"):
            assert name in repro.__all__, name


# ------------------------------------------------------------------------- CLI


class TestUnifiedCLI:
    def test_run_command_executes_spec_file(self, tmp_path, capsys):
        path = _small_spec(
            evaluation=EvalSpec(
                seed_counts=[0, 5],
                estimator=EstimatorSpec(backend="sketch", theta=2000),
            )
        ).save(tmp_path / "spec.json")
        assert cli_main(["run", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == RESULT_SCHEMA
        assert len(payload["seeds"]) == 5
        assert set(payload["curve"]) == {"0", "5"}
        assert payload["provenance"]["spec"]["name"] == "test"

    def test_run_validate_only(self, tmp_path, capsys):
        path = _small_spec().save(tmp_path / "spec.json")
        assert cli_main(["run", str(path), "--validate-only"]) == 0
        assert "is valid" in capsys.readouterr().out

    def test_run_rejects_invalid_spec_with_path(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"graph": {"dataset": "nethept",
                                             "scale": -2},
                                   "algorithm": "easyim", "budget": 2}))
        with pytest.raises(SpecError, match=r"graph\.scale"):
            cli_main(["run", str(bad)])
        with pytest.raises(SpecError, match="does not exist"):
            cli_main(["run", str(tmp_path / "missing.json")])

    def test_select_and_evaluate_share_the_schema(self, capsys):
        assert cli_main([
            "select", "--dataset", "nethept", "--scale", "0.1", "--seed", "1",
            "--algorithm", "easyim", "--budget", "3", "--simulations", "50",
            "--json",
        ]) == 0
        select_payload = json.loads(capsys.readouterr().out)
        assert cli_main([
            "evaluate", "--dataset", "nethept", "--scale", "0.1", "--seed", "1",
            "--model", "ic", "--seeds", "0,1,2", "--simulations", "50", "--json",
        ]) == 0
        evaluate_payload = json.loads(capsys.readouterr().out)
        for payload in (select_payload, evaluate_payload):
            assert payload["schema"] == RESULT_SCHEMA
            assert payload["backend"] == "monte-carlo"
            assert "graph_fingerprint" in payload["provenance"]
            assert "spread" in payload
        assert select_payload["query"] == "select"
        assert evaluate_payload["query"] == "evaluate"
        # The spec that produced the run ships inside the payload, so any
        # emitted result is replayable with `repro-im run`.
        replay = ExperimentSpec.from_dict(select_payload["provenance"]["spec"])
        assert replay.algorithm.name == "easyim"

    def test_index_query_emits_the_schema(self, tmp_path, capsys):
        artifact = tmp_path / "idx.npz"
        assert cli_main([
            "index", "build", "--dataset", "nethept", "--scale", "0.1",
            "--seed", "1", "--model", "wc", "--theta", "1000",
            "--output", str(artifact), "--json",
        ]) == 0
        capsys.readouterr()
        assert cli_main([
            "index", "query", "--dataset", "nethept", "--scale", "0.1",
            "--seed", "1", "--artifact", str(artifact), "-k", "3", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == RESULT_SCHEMA
        assert payload["query"] == "select"
        assert payload["backend"] == "index"
        assert payload["theta"] == 1000
        assert payload["memory_mapped"] is True
        assert payload["estimated_spread"] > 0

    def test_select_table_output_still_works(self, capsys):
        assert cli_main([
            "select", "--dataset", "nethept", "--scale", "0.1", "--seed", "1",
            "--algorithm", "high-degree", "--budget", "2",
            "--simulations", "50",
        ]) == 0
        out = capsys.readouterr().out
        assert "Select result" in out and "high-degree" in out
