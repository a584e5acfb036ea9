"""Figures 6(f)-(h) — running time of EaSyIM vs CELF++ and TIM+ (LT / IC / WC).

Measures seed-selection wall-clock time for EaSyIM (several l values), TIM+
and CELF++ on the paper's three panels.  Expected shape: EaSyIM grows roughly
linearly with ``l`` and ``k`` and beats the simulation-based CELF++ by orders
of magnitude, while TIM+ is fast but pays in memory (see the memory bench).
"""

from __future__ import annotations

import pytest

from repro.algorithms import CELFSelector, EaSyIMSelector, TIMPlusSelector
from repro.bench.reporting import format_table

from helpers import load_bench_graph, one_shot

PANELS = (
    ("nethept", "lt"),
    ("dblp", "ic"),
    ("youtube", "wc"),
)
PATH_LENGTHS = (1, 3, 5)
BUDGET = 10


def _run(dataset: str, model: str) -> list[dict]:
    graph = load_bench_graph(dataset, scale=0.3)
    if model == "lt":
        graph = graph.copy()
        graph.set_linear_threshold_weights()
    rows: list[dict] = []
    for length in PATH_LENGTHS:
        run = EaSyIMSelector(max_path_length=length, model=model, seed=0).select(graph, BUDGET)
        rows.append({"algorithm": f"EaSyIM l={length}", "time (s)": round(run.runtime_seconds, 4)})
    tim_model = model if model in ("ic", "wc", "lt") else "ic"
    tim_run = TIMPlusSelector(
        model=tim_model, epsilon=0.3, max_rr_sets=40_000, seed=0
    ).select(graph, BUDGET)
    rows.append({"algorithm": "TIM+", "time (s)": round(tim_run.runtime_seconds, 4)})
    celf_run = CELFSelector(model=model, simulations=10, seed=0).select(graph, BUDGET)
    rows.append({"algorithm": "CELF++ (CELF core)", "time (s)": round(celf_run.runtime_seconds, 4)})
    return rows


@pytest.mark.parametrize("dataset,model", PANELS, ids=[f"{d}-{m}" for d, m in PANELS])
def test_fig6fgh_running_time(benchmark, reporter, dataset, model):
    rows = one_shot(benchmark, _run, dataset, model)
    reporter(
        f"Figure 6(f)-(h) — seed-selection time, k={BUDGET} ({dataset}, {model.upper()})",
        format_table(rows),
    )
    times = {row["algorithm"]: row["time (s)"] for row in rows}
    easyim_times = [v for k, v in times.items() if k.startswith("EaSyIM")]
    # EaSyIM grows with l and stays far below the simulation-based greedy.
    assert max(easyim_times) <= times["CELF++ (CELF core)"]
