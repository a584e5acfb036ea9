"""Figure 5(h) — memory consumption of OSIM vs Modified-GREEDY (medium datasets).

Reports the peak additional memory allocated during seed selection (the
"ExecutionMemory" stack of the paper's bar chart) for OSIM and Modified-GREEDY
on the four medium datasets.  Both are expected to need only a small constant
overhead over the loaded graph; the point of the figure is that the
opinion-aware pipeline stays linear-space.
"""

from __future__ import annotations

from repro.algorithms import ModifiedGreedySelector, OSIMSelector
from repro.bench.reporting import format_table
from repro.utils.memory import MemoryTracker

from helpers import load_bench_graph, one_shot

DATASETS = ("nethept", "hepph", "dblp", "youtube")
BUDGET = 5


def _run() -> list[dict]:
    rows: list[dict] = []
    for dataset in DATASETS:
        graph = load_bench_graph(dataset, scale=0.3, annotated=True, opinion="uniform")
        compiled = graph.compile()
        with MemoryTracker() as osim:
            OSIMSelector(max_path_length=3, seed=0).select(compiled, BUDGET)
        with MemoryTracker() as greedy:
            ModifiedGreedySelector(model="oi-ic", simulations=10, seed=0).select(
                compiled, BUDGET
            )
        rows.append(
            {
                "dataset": dataset,
                "n": graph.number_of_nodes,
                "m": graph.number_of_edges,
                "OSIM memory (MB)": round(osim.peak_mb, 3),
                "Modified-GREEDY memory (MB)": round(greedy.peak_mb, 3),
            }
        )
    return rows


def test_fig5h_osim_memory(benchmark, reporter):
    rows = one_shot(benchmark, _run)
    reporter("Figure 5(h) — execution memory (MB) of OSIM vs Modified-GREEDY",
             format_table(rows))
    # OSIM's additional memory must stay small (a few MB at this scale) and
    # grow with the graph, not with the number of simulations.
    for row in rows:
        assert row["OSIM memory (MB)"] < 50.0
