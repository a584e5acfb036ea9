"""Unit tests for the benchmark reporting helpers, the experiment registry and the CLI."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    EXPERIMENTS,
    format_series_table,
    format_table,
    get_experiment,
)
from repro.api import MonteCarloEstimator, build_selector
from repro.bench.experiments import experiment_index_rows
from repro.cli import build_parser, main
from repro.exceptions import ConfigurationError
from repro.specs import AlgorithmSpec
from repro.utils import MemoryTracker


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(
            [{"a": 1, "b": "long-value"}, {"a": 123456.789, "b": "x"}], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_format_series_table(self):
        series = {"alg1": {0: 0.0, 5: 2.0, 10: 4.0}, "alg2": {0: 0.0, 10: 3.0}}
        lines = format_series_table(series, value_label="spread").splitlines()
        assert lines[0] == "spread vs #seeds"
        assert lines[1].split("|")[1:] == [" alg1 ", " alg2"]
        rows = {line.split("|")[0].strip(): line.split("|") for line in lines[3:]}
        assert list(rows) == ["0", "5", "10"]
        assert rows["5"][1].strip() == "2.00"
        assert rows["5"][2].strip() == ""
        assert rows["10"][2].strip() == "3.00"
        assert "(no series)" in format_series_table({})

    def test_format_series_table_title_and_row_order(self):
        series = {"z-last": {10: 1234.5, 0: 0.0}, "a-first": {5: 0.5}}
        lines = format_series_table(series, value_label="spread", title="Fig. X").splitlines()
        assert lines[0] == "Fig. X"
        # Columns keep the mapping's order; rows run over sorted k.
        assert [cell.strip() for cell in lines[1].split("|")] == ["k", "z-last", "a-first"]
        rows = [[cell.strip() for cell in line.split("|")] for line in lines[3:]]
        assert rows == [["0", "0", ""], ["5", "", "0.5000"], ["10", "1,234.5", ""]]


class TestSelectionMeasurement:
    """How the paper benchmarks measure a selection: no harness in between."""

    def test_time_and_memory_around_select(self, small_ic_graph):
        selector = build_selector(
            AlgorithmSpec(name="easyim", options={"max_path_length": 1, "seed": 0})
        )
        with MemoryTracker() as tracker:
            result = selector.select(small_ic_graph, 2)
        assert result.algorithm == "easyim"
        assert len(result.seeds) == 2
        assert result.runtime_seconds > 0.0
        assert tracker.peak_mb >= 0.0

    def test_curve_from_selected_seeds(self, small_ic_graph):
        result = build_selector(AlgorithmSpec(name="high-degree")).select(small_ic_graph, 4)
        curve = MonteCarloEstimator(small_ic_graph, "ic", simulations=50).sweep(
            result.seeds, [0, 2, 4]
        )
        assert list(curve) == [0, 2, 4]
        assert curve[0] == 0.0
        assert all(value > 0.0 for k, value in curve.items() if k)
        assert "high-degree" in format_series_table({result.algorithm: curve})


class TestExperimentRegistry:
    def test_every_figure_and_table_present(self):
        identifiers = set(EXPERIMENTS)
        for expected in ("table2", "fig2", "fig5a", "fig5b", "fig5c", "fig5d", "fig5e",
                         "fig5f", "fig5g", "fig5h", "fig6a-c", "fig6d-e", "fig6f-h",
                         "fig6i-j", "table3", "table4", "fig7a-c", "fig7d-e", "fig7f-i",
                         "fig7j", "ablations"):
            assert expected in identifiers

    def test_every_experiment_names_a_bench_module(self, tmp_path):
        import pathlib

        repo_root = pathlib.Path(__file__).resolve().parents[1]
        for spec in EXPERIMENTS.values():
            assert (repo_root / spec.bench_module).exists(), spec.bench_module

    def test_get_experiment(self):
        spec = get_experiment("Fig5F")
        assert spec.paper_reference == "Figure 5(f)"
        with pytest.raises(ConfigurationError):
            get_experiment("fig99")

    def test_experiment_index_rows(self):
        rows = experiment_index_rows()
        assert len(rows) == len(EXPERIMENTS)
        assert all({"id", "paper", "description", "bench"} <= set(r) for r in rows)


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "nethept" in output
        assert "friendster" in output

    def test_experiments_command(self, capsys):
        assert main(["experiments"]) == 0
        assert "Figure 5(f)" in capsys.readouterr().out

    def test_select_command_json(self, capsys):
        code = main([
            "select", "--dataset", "nethept", "--scale", "0.1", "--seed", "1",
            "--algorithm", "easyim", "--budget", "3", "--simulations", "50", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "easyim"
        assert len(payload["seeds"]) == 3

    def test_select_command_opinion_aware(self, capsys):
        code = main([
            "select", "--dataset", "nethept", "--scale", "0.1", "--seed", "1",
            "--algorithm", "osim", "--model", "oi-ic", "--budget", "2",
            "--simulations", "50", "--annotate", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["seeds"]) == 2

    def test_evaluate_command(self, capsys):
        code = main([
            "evaluate", "--dataset", "nethept", "--scale", "0.1", "--seed", "1",
            "--model", "ic", "--seeds", "0,1,2", "--simulations", "50", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spread"] >= 0.0

    def test_evaluate_edge_list(self, tmp_path, capsys, figure1):
        from repro.graphs.io import write_edge_list

        path = tmp_path / "graph.txt"
        write_edge_list(figure1, path)
        code = main([
            "evaluate", "--edge-list", str(path), "--model", "oi-ic",
            "--seeds", "A", "--simulations", "200", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["opinion_spread"] == pytest.approx(0.136, abs=0.1)
