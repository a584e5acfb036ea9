"""Seeded workload inputs: SNAP-style edge lists, request schedules, specs.

Everything the program under test receives is made here from the
benchmark's ``--seed``.  Each workload draws from its own stream
(``SeedSequence([seed, salt])``), so two workloads run with one seed still
get independent graphs.  The program's own engine and selection seeds are
fixed constants in the specs and never derive from ``--seed``.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Per-workload stream salts; changing one changes that workload's inputs.
SALTS = {"ris-wc": 11, "osim-oi": 23, "serve-closed": 37, "cold-cli": 41}

#: Budgets a served ``select`` may ask for; only four, so later selects of
#: the same budget are answered from the index's per-budget cache.
SELECT_BUDGETS = (10, 25, 50, 100)


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), SALTS[workload]]))


def degree_sequence(weights: np.ndarray, total: int) -> np.ndarray:
    """Integer degrees proportional to ``weights`` summing to ``total``."""
    raw = weights / weights.sum() * total
    degrees = np.floor(raw).astype(np.int64)
    short = total - int(degrees.sum())
    degrees[np.argsort(degrees - raw, kind="stable")[:short]] += 1
    return degrees


def write_edge_list(
    path: pathlib.Path,
    rng: np.random.Generator,
    nodes: int,
    edges: int,
    alpha: float = 0.8,
) -> np.ndarray:
    """Write a directed two-column edge list with a heavy-tailed in-degree.

    A configuration model over fixed degree sequences: in-degrees follow a
    Zipf law (the r-th largest ~ r^-alpha), out-degrees exponential
    quantiles, both with mean ``edges / nodes``.  Only the assignment of
    degrees to nodes and the wiring come from ``rng``, so graphs drawn with
    different seeds differ in structure but not in their degree
    distributions, and their costs and objectives stay comparable.
    Self-loops and duplicate edges are dropped.  Returns the sorted ids of
    the nodes that occur in the file.
    """
    ranks = np.arange(nodes, dtype=np.float64)
    indegree = degree_sequence((ranks + 1.0) ** -alpha, edges)
    outdegree = degree_sequence(-np.log1p(-(ranks + 0.5) / nodes), edges)
    src = np.repeat(rng.permutation(nodes), outdegree)
    dst = np.repeat(rng.permutation(nodes), indegree)
    rng.shuffle(dst)
    keep = src != dst
    pairs = np.unique(np.stack([src[keep], dst[keep]], axis=1), axis=0)
    pairs = pairs[rng.permutation(len(pairs))]
    present = np.unique(pairs)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# Directed graph generated by perfbench\n")
        handle.write(f"# Nodes: {present.size} Edges: {len(pairs)}\n")
        handle.write("# FromNodeId\tToNodeId\n")
        handle.write(("%d\t%d\n" * len(pairs)) % tuple(pairs.ravel().tolist()))
    return present


def request_schedule(
    rng: np.random.Generator, nodes: np.ndarray, count: int
) -> List[Tuple[str, object]]:
    """A closed-loop client's requests: ~80% evaluate, 10% select, 10% sweep.

    ``evaluate`` carries a random seed set of 1-50 distinct nodes,
    ``select`` a budget from :data:`SELECT_BUDGETS` and ``sweep`` the
    prefix counts of one of those budgets.
    """
    requests: List[Tuple[str, object]] = []
    kinds = rng.random(count)
    for draw in kinds:
        if draw < 0.8:
            size = int(rng.integers(1, 51))
            seeds = rng.choice(nodes, size=min(size, nodes.size), replace=False)
            requests.append(("evaluate", [int(s) for s in seeds]))
        else:
            k = int(SELECT_BUDGETS[int(rng.integers(len(SELECT_BUDGETS)))])
            if draw < 0.9:
                requests.append(("select", k))
            else:
                requests.append(("sweep", sorted({1, k // 4, k // 2, k})))
    return requests


def cli_spec(template: pathlib.Path, target: pathlib.Path, rng: np.random.Generator) -> Dict:
    """Copy the CLI smoke spec with a graph seed drawn from ``rng``.

    Only the synthetic graph changes; the algorithm, budget, estimator and
    the engine and selection seeds stay as the template has them.
    """
    spec = json.loads(template.read_text(encoding="utf-8"))
    spec["graph"]["seed"] = int(rng.integers(1, 1_000_000))
    target.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
    return spec


def prefix_counts(budget: int) -> Sequence[int]:
    """The k-sweep points of a pipeline: 1, 5 and each fifth of the budget."""
    return sorted({1, min(5, budget)} | {budget * i // 5 for i in range(1, 6)})
