"""Figures 7(f)-(i) — appendix running-time comparisons.

* 7(f)-(g): OSIM runtime growth with l under the OC model (HepPh) and the OI
  model (DBLP, YouTube) — covered by the l-sweep rows below.
* 7(h): EaSyIM vs IRIE runtime under WC on the medium datasets.
* 7(i): EaSyIM vs SIMPATH runtime under LT on the medium datasets.
"""

from __future__ import annotations

import pytest

from repro.algorithms import EaSyIMSelector, IRIESelector, OSIMSelector, SimPathSelector
from repro.bench.reporting import format_table

from helpers import load_bench_graph, one_shot

BUDGET = 10
PATH_LENGTHS = (1, 3, 5)


def _run_osim_growth() -> list[dict]:
    rows: list[dict] = []
    for dataset, model in (("hepph", "oc"), ("dblp", "oi-ic"), ("youtube", "oi-ic")):
        graph = load_bench_graph(dataset, scale=0.3, annotated=True, opinion="uniform")
        if model == "oc":
            graph = graph.copy()
            graph.set_linear_threshold_weights()
        for length in PATH_LENGTHS:
            run = OSIMSelector(max_path_length=length, model=model, seed=0).select(graph, BUDGET)
            rows.append(
                {
                    "dataset": dataset,
                    "model": model,
                    "algorithm": f"OSIM l={length}",
                    "time (s)": round(run.runtime_seconds, 4),
                }
            )
    return rows


def _run_heuristic_comparison(model: str) -> list[dict]:
    rows: list[dict] = []
    for dataset in ("nethept", "hepph", "dblp", "youtube"):
        graph = load_bench_graph(dataset, scale=0.3)
        if model == "lt":
            graph = graph.copy()
            graph.set_linear_threshold_weights()
        easyim_run = EaSyIMSelector(max_path_length=3, model=model, seed=0).select(graph, BUDGET)
        if model == "wc":
            competitor_name = "IRIE"
            competitor = IRIESelector(weighting="wc", iterations=15)
        else:
            competitor_name = "SIMPATH"
            competitor = SimPathSelector(eta=1e-3, max_path_length=4)
        competitor_run = competitor.select(graph, BUDGET)
        rows.append(
            {
                "dataset": dataset,
                "EaSyIM time (s)": round(easyim_run.runtime_seconds, 4),
                f"{competitor_name} time (s)": round(competitor_run.runtime_seconds, 4),
            }
        )
    return rows


def test_fig7fg_osim_runtime_growth(benchmark, reporter):
    rows = one_shot(benchmark, _run_osim_growth)
    reporter("Figure 7(f)-(g) — OSIM running time growth with l", format_table(rows))
    # Runtime should not shrink as l grows on any dataset.
    by_dataset: dict[str, list[float]] = {}
    for row in rows:
        by_dataset.setdefault(row["dataset"], []).append(row["time (s)"])
    for times in by_dataset.values():
        assert times[-1] >= times[0] * 0.5


@pytest.mark.parametrize("model", ["wc", "lt"])
def test_fig7hi_easyim_vs_heuristics_time(benchmark, reporter, model):
    rows = one_shot(benchmark, _run_heuristic_comparison, model)
    competitor = "IRIE" if model == "wc" else "SIMPATH"
    reporter(
        f"Figure 7({'h' if model == 'wc' else 'i'}) — EaSyIM vs {competitor} time ({model.upper()})",
        format_table(rows),
    )
    assert len(rows) == 4
