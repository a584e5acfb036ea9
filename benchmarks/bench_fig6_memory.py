"""Figures 6(i)-(j) — memory footprint of EaSyIM vs CELF++, TIM+, IRIE, SIMPATH.

Measures the peak additional memory allocated by each algorithm during seed
selection ("ExecutionMemory" in the paper's stacked bars).  Expected shape:
EaSyIM has the smallest overhead (O(n) scores), TIM+ by far the largest (it
materialises every RR set), and the heuristics sit in between.
"""

from __future__ import annotations

from repro.algorithms import (
    CELFSelector,
    EaSyIMSelector,
    IRIESelector,
    SimPathSelector,
    TIMPlusSelector,
)
from repro.bench.reporting import format_table
from repro.utils.memory import MemoryTracker

from helpers import load_bench_graph, one_shot

DATASETS = ("nethept", "hepph", "dblp", "youtube")
BUDGET = 5


def _run() -> list[dict]:
    rows: list[dict] = []
    for dataset in DATASETS:
        graph = load_bench_graph(dataset, scale=0.3)
        lt_graph = graph.copy()
        lt_graph.set_linear_threshold_weights()
        compiled, lt_compiled = graph.compile(), lt_graph.compile()
        runs = {
            "EaSyIM": (EaSyIMSelector(max_path_length=3, seed=0), compiled),
            "IRIE": (IRIESelector(iterations=10), compiled),
            "CELF++": (CELFSelector(model="ic", simulations=8, seed=0), compiled),
            "SIMPATH": (SimPathSelector(eta=1e-2, max_path_length=3), lt_compiled),
            "TIM+": (TIMPlusSelector(epsilon=0.3, max_rr_sets=40_000, seed=0), compiled),
        }
        row = {"dataset": dataset}
        for label, (selector, selection_graph) in runs.items():
            with MemoryTracker() as tracker:
                selector.select(selection_graph, BUDGET)
            row[f"{label} (MB)"] = round(tracker.peak_mb, 3)
        rows.append(row)
    return rows


def test_fig6ij_memory_footprint(benchmark, reporter):
    rows = one_shot(benchmark, _run)
    reporter("Figure 6(i)-(j) — execution memory (MB) per algorithm and dataset",
             format_table(rows))
    for row in rows:
        # The paper's scalability claim: EaSyIM has the smallest footprint and
        # TIM+ the largest (it stores every RR set).
        assert row["EaSyIM (MB)"] <= row["TIM+ (MB)"] + 0.1
