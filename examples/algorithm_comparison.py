#!/usr/bin/env python
"""Side-by-side comparison of every seed-selection algorithm in the library.

Runs the full algorithm roster on one synthetic dataset under the IC model
(opinion-oblivious algorithms) and the OI model (opinion-aware ones), and
prints quality / running-time / memory for each — a miniature version of the
paper's whole evaluation section, useful for sanity-checking the trade-offs:

* GREEDY/CELF/CELF++ — best quality, slowest;
* TIM+/IMM — near-greedy quality, fast, memory-hungry;
* EaSyIM/OSIM — near-greedy quality, fast, smallest memory footprint;
* IRIE/SIMPATH/degree/PageRank/random — cheaper heuristics.

Run with::

    python examples/algorithm_comparison.py
"""

from __future__ import annotations

import repro
from repro.bench.reporting import format_table
from repro.utils.memory import MemoryTracker

BUDGET = 10
SIMULATIONS = 300
SEED = 29


def run(compiled: repro.CompiledGraph, name: str, options: dict):
    """Select ``BUDGET`` seeds with one algorithm, tracking its extra memory."""
    with MemoryTracker() as tracker:
        selection = repro.get_algorithm(name, **options).select(compiled, BUDGET)
    return selection, tracker.peak_mb


def main() -> None:
    graph = repro.load_dataset("nethept", scale=0.5, seed=SEED)
    repro.annotate_graph(graph, opinion="uniform", interaction="uniform", seed=SEED)
    compiled = graph.compile()
    print(f"Dataset: {graph.number_of_nodes} nodes, {graph.number_of_edges} edges, "
          f"budget k={BUDGET}\n")

    # Both reference evaluators ride the estimator protocol of the unified
    # experiment API — the same backends `repro.run_experiment` negotiates.
    mc = repro.EstimatorSpec(backend="monte-carlo", simulations=SIMULATIONS,
                             engine_seed=1)
    ic_estimator = repro.build_estimator(mc, graph, "ic")
    oi_estimator = repro.build_estimator(mc, graph, "oi-ic",
                                         objective="effective-opinion")

    opinion_oblivious = {
        "greedy (CELF)": ("celf", {"model": "ic", "simulations": 50, "seed": 0}),
        "celf++": ("celf++", {"model": "ic", "simulations": 50, "seed": 0}),
        "tim+": ("tim+", {"epsilon": 0.2, "max_rr_sets": 50_000, "seed": 0}),
        "imm": ("imm", {"epsilon": 0.3, "max_rr_sets": 50_000, "seed": 0}),
        "easyim (l=3)": ("easyim", {"max_path_length": 3, "seed": 0}),
        "irie": ("irie", {}),
        "degree-discount": ("degree-discount", {}),
        "high-degree": ("high-degree", {}),
        "pagerank": ("pagerank", {}),
        "random": ("random", {"seed": 0}),
    }
    rows = []
    for label, (name, options) in opinion_oblivious.items():
        selection, memory_mb = run(compiled, name, options)
        rows.append(
            {
                "algorithm": label,
                "expected spread (IC)": round(ic_estimator.estimate(selection.seeds), 1),
                "time (s)": round(selection.runtime_seconds, 3),
                "memory (MB)": round(memory_mb, 2),
            }
        )
    rows.sort(key=lambda r: -r["expected spread (IC)"])
    print(format_table(rows, title="Opinion-oblivious IM (evaluated under IC)"))

    opinion_aware = {
        "osim (l=3)": ("osim", {"max_path_length": 3, "seed": 0}),
        "modified-greedy": ("modified-greedy", {"model": "oi-ic", "simulations": 15, "seed": 0}),
        "easyim (ignores opinions)": ("easyim", {"max_path_length": 3, "seed": 0}),
        "high-degree": ("high-degree", {}),
    }
    rows = []
    for label, (name, options) in opinion_aware.items():
        selection, memory_mb = run(compiled, name, options)
        rows.append(
            {
                "algorithm": label,
                "effective opinion spread (OI)": round(
                    oi_estimator.estimate(selection.seeds), 2
                ),
                "time (s)": round(selection.runtime_seconds, 3),
                "memory (MB)": round(memory_mb, 2),
            }
        )
    rows.sort(key=lambda r: -r["effective opinion spread (OI)"])
    print()
    print(format_table(rows, title="Opinion-aware MEO (evaluated under OI)"))


if __name__ == "__main__":
    main()
