"""Figure 5(g) / 7(f)-(g) — OSIM running time vs Modified-GREEDY.

Measures seed-selection wall-clock time for OSIM at several path lengths and
for the Modified-GREEDY baseline on the same graph.  The paper's claims:
OSIM's runtime grows linearly with ``l`` and ``k`` and is orders of magnitude
below the simulation-based greedy baseline.
"""

from __future__ import annotations

from repro.algorithms import ModifiedGreedySelector, OSIMSelector
from repro.bench.reporting import format_table

from helpers import load_bench_graph, one_shot

PATH_LENGTHS = (1, 2, 3, 5)
BUDGETS = (5, 10)


def _run() -> list[dict]:
    graph = load_bench_graph("nethept", scale=0.25, annotated=True, opinion="normal")
    rows: list[dict] = []
    for budget in BUDGETS:
        for length in PATH_LENGTHS:
            run = OSIMSelector(max_path_length=length, seed=0).select(graph, budget)
            rows.append(
                {
                    "algorithm": f"OSIM l={length}",
                    "k": budget,
                    "time (s)": round(run.runtime_seconds, 4),
                }
            )
        greedy_run = ModifiedGreedySelector(model="oi-ic", simulations=15, seed=0).select(
            graph, budget
        )
        rows.append(
            {
                "algorithm": "Modified-GREEDY",
                "k": budget,
                "time (s)": round(greedy_run.runtime_seconds, 4),
            }
        )
    return rows


def test_fig5g_osim_running_time(benchmark, reporter):
    rows = one_shot(benchmark, _run)
    reporter("Figure 5(g) — running time vs #seeds (OSIM l sweep vs Modified-GREEDY)",
             format_table(rows))
    osim_times = [r["time (s)"] for r in rows if r["algorithm"].startswith("OSIM")]
    greedy_times = [r["time (s)"] for r in rows if r["algorithm"] == "Modified-GREEDY"]
    # OSIM must be dramatically faster than the simulation-based baseline,
    # even with the baseline's simulation count scaled far below the paper's 10K.
    assert max(osim_times) < min(greedy_times)
