"""Figure 7(j) — EaSyIM memory on the large datasets.

Runs EaSyIM (l=3) on the four "large" stand-ins (socLiveJournal, Orkut,
Twitter, Friendster) at a larger scale than the rest of the suite and reports
graph-loading memory vs execution memory — the stacked bars of the paper's
figure.  The claim being checked: the execution overhead stays a small
fraction of the graph itself (linear space), which is what lets EaSyIM handle
billion-edge graphs on commodity hardware in the paper.
"""

from __future__ import annotations

from repro.algorithms import EaSyIMSelector
from repro.bench.reporting import format_table
from repro.datasets import load_dataset
from repro.utils.memory import MemoryTracker

from helpers import one_shot

DATASETS = ("soclive", "orkut", "twitter", "friendster")
SCALE = 0.8
BUDGET = 10


def _run() -> list[dict]:
    rows: list[dict] = []
    for dataset in DATASETS:
        with MemoryTracker() as load_tracker:
            graph = load_dataset(dataset, scale=SCALE, seed=23)
            compiled = graph.compile()
        with MemoryTracker() as execution:
            run = EaSyIMSelector(max_path_length=3, seed=0).select(compiled, BUDGET)
        rows.append(
            {
                "dataset": dataset,
                "n": compiled.number_of_nodes,
                "m": compiled.number_of_edges,
                "graph loading (MB)": round(load_tracker.peak_mb, 2),
                "execution memory (MB)": round(execution.peak_mb, 2),
                "time (s)": round(run.runtime_seconds, 3),
            }
        )
    return rows


def test_fig7j_easyim_memory_on_large_datasets(benchmark, reporter):
    rows = one_shot(benchmark, _run)
    reporter("Figure 7(j) — EaSyIM memory on the large dataset stand-ins",
             format_table(rows))
    for row in rows:
        # Execution overhead must stay well below the memory of the graph itself.
        assert row["execution memory (MB)"] <= max(4.0, row["graph loading (MB)"])
