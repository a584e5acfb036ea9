#!/usr/bin/env python
"""Micro-benchmark: cold RIS selection vs warm influence-index serving.

Measures the serving layer's reason to exist.  **Cold** is what every CLI
call did before `repro.serving`: run the full TIM+/IMM pipeline — KPT/OPT
estimation, RR-set sampling, greedy cover — from scratch.  **Warm** opens a
prebuilt memory-mapped index artifact and answers the same ``select(k)``
with one greedy cover pass, no resampling.  Also measured: artifact build
and reopen times, and the sustained evaluate throughput of a thread pool
hammering one :class:`~repro.serving.service.InfluenceService` (each
evaluate is one inverted-index query).

The headline configuration mirrors the acceptance target of the serving PR:
IC on a 10k-node weighted-cascade BA graph, a prebuilt 50k-set artifact,
required warm-vs-cold speedup >= 20x; the grown-index == fresh-index
determinism invariant is asserted and recorded in the same JSON record.

Run with::

    PYTHONPATH=src python benchmarks/bench_serving.py
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.algorithms.imm import IMMSelector
from repro.algorithms.tim import TIMPlusSelector
from repro.graphs.generators import barabasi_albert_graph
from repro.serving import InfluenceIndex, InfluenceService

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_serving.json"

#: Required warm-vs-cold speedup of the headline configuration (the PR bar).
TARGET_SPEEDUP = 20.0

BUDGET = 10
ENGINE_SEED = 0
THREADS = 8
EVAL_REQUESTS = 400


def build_graph(nodes: int, seed: int = 1):
    graph = barabasi_albert_graph(nodes, 3, seed=seed)
    graph.set_weighted_cascade_probabilities()
    return graph


def time_cold_selection(compiled, model, theta, repeats=3):
    """Full from-scratch TIM+/IMM selection (the pre-serving CLI path)."""
    timings = {}
    for name, cls in (("tim+", TIMPlusSelector), ("imm", IMMSelector)):
        best = float("inf")
        seeds = None
        for _ in range(repeats):
            selector = cls(model=model, max_rr_sets=theta, seed=ENGINE_SEED)
            start = time.perf_counter()
            result = selector.select(compiled, BUDGET)
            best = min(best, time.perf_counter() - start)
            seeds = result.seeds
        timings[name] = (best, seeds)
    return timings


def time_warm_query(artifact_path, compiled, repeats=5):
    """Open the persisted artifact and serve select(k) — the warm path."""
    best_total = float("inf")
    best_open = float("inf")
    seeds = None
    for _ in range(repeats):
        start = time.perf_counter()
        index = InfluenceIndex.load(artifact_path, compiled)
        opened = time.perf_counter() - start
        selection = index.select(BUDGET)
        total = time.perf_counter() - start
        best_total = min(best_total, total)
        best_open = min(best_open, opened)
        seeds = selection.seeds
    return best_total, best_open, seeds


def time_throughput(compiled, artifact_path, requests, threads):
    """Sustained evaluate queries/sec against one InfluenceService."""
    service = InfluenceService(default_theta=1)
    index = service.load_artifact(artifact_path, compiled)
    n = compiled.number_of_nodes
    rng = np.random.default_rng(7)
    seed_sets = [rng.choice(n, size=BUDGET, replace=False).tolist()
                 for _ in range(requests)]
    # Warm the pool (thread spawn + first-touch page faults off the clock).
    service.evaluate(compiled, index.model, seed_sets[0])
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(
            pool.map(
                lambda seeds: service.evaluate(compiled, index.model, seeds),
                seed_sets,
            )
        )
    elapsed = time.perf_counter() - start
    stats = service.stats()
    assert len(results) == requests
    return requests / elapsed, stats


def run(smoke: bool, output: pathlib.Path) -> dict:
    scale = 10 if smoke else 1
    nodes = 10_000 // scale
    theta = 50_000 // scale
    graph = build_graph(nodes)
    compiled = graph.compile()
    model = "ic"

    cold = time_cold_selection(compiled, model, theta)

    with tempfile.TemporaryDirectory() as tmp:
        artifact_path = pathlib.Path(tmp) / "index.npz"
        start = time.perf_counter()
        index = InfluenceIndex.build(
            compiled, model, theta, engine_seed=ENGINE_SEED
        )
        build_seconds = time.perf_counter() - start
        index.save(artifact_path)
        artifact_bytes = artifact_path.stat().st_size

        warm_seconds, open_seconds, warm_seeds = time_warm_query(
            artifact_path, compiled
        )
        queries_per_second, service_stats = time_throughput(
            compiled, artifact_path, EVAL_REQUESTS // scale or 10, THREADS
        )

        # Determinism invariant: growing a half-size index matches the
        # fresh full-size build bit-for-bit (and therefore seed-for-seed).
        half = InfluenceIndex.build(
            compiled, model, theta // 2, engine_seed=ENGINE_SEED
        )
        half.grow(theta)
        grown_equals_fresh = (
            half.collection == index.collection
            and half.select(BUDGET).seeds == index.select(BUDGET).seeds
        )

    speedups = {
        name: seconds / warm_seconds for name, (seconds, _) in cold.items()
    }
    headline_speedup = min(speedups.values())
    report = {
        "benchmark": "bench_serving",
        "smoke": smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nodes": nodes,
        "edges": compiled.number_of_edges,
        "model": model,
        "theta": theta,
        "budget": BUDGET,
        "cold_timplus_seconds": round(cold["tim+"][0], 4),
        "cold_imm_seconds": round(cold["imm"][0], 4),
        "index_build_seconds": round(build_seconds, 4),
        "artifact_bytes": artifact_bytes,
        "warm_open_seconds": round(open_seconds, 6),
        "warm_query_seconds": round(warm_seconds, 6),
        "speedup_vs_timplus": round(speedups["tim+"], 2),
        "speedup_vs_imm": round(speedups["imm"], 2),
        "target_speedup": TARGET_SPEEDUP,
        "headline_speedup": round(headline_speedup, 2),
        "headline_meets_target": headline_speedup >= TARGET_SPEEDUP,
        "grown_equals_fresh": bool(grown_equals_fresh),
        "throughput_threads": THREADS,
        "evaluate_queries_per_second": round(queries_per_second, 1),
        "evaluate_requests": service_stats["evaluate_requests"],
        "evaluate_batches": service_stats["evaluate_batches"],
    }
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(
        f"cold tim+ {report['cold_timplus_seconds']:7.3f}s  "
        f"imm {report['cold_imm_seconds']:7.3f}s  "
        f"warm {report['warm_query_seconds']:.4f}s "
        f"(open {report['warm_open_seconds']:.4f}s)  "
        f"speedup {report['headline_speedup']:.1f}x  "
        f"serve {report['evaluate_queries_per_second']:.0f} q/s "
        f"({report['evaluate_requests']} reqs in "
        f"{report['evaluate_batches']} batches)  "
        f"grown==fresh {report['grown_equals_fresh']}"
    )
    print(f"wrote {output}")
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="scale everything down ~10x for a CI smoke run",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
        help=f"where to write the JSON perf record (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args()
    report = run(args.smoke, args.output)
    if not report["grown_equals_fresh"]:
        print("ERROR: grown index does not equal the fresh build")
        return 1
    if not args.smoke and not report["headline_meets_target"]:
        print(
            f"WARNING: headline speedup {report['headline_speedup']}x is below "
            f"the {TARGET_SPEEDUP}x target"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
