"""Seed-selector interface and result container.

Every algorithm exposes the same contract: construct with its configuration,
then call :meth:`SeedSelector.select` with a graph and a budget ``k``.  The
result records the seeds *in selection order*, which lets an estimator's
``sweep`` evaluate every prefix (the ``k``-sweeps in the paper's figures)
without re-running the algorithm per ``k``.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.exceptions import AlgorithmError, ConfigurationError
from repro.graphs.digraph import CompiledGraph, DiGraph, Node
from repro.utils.validation import check_budget


@dataclass
class SeedSelectionResult:
    """Outcome of a seed-selection run.

    Attributes
    ----------
    seeds:
        Selected seed node labels, in the order the algorithm picked them.
    algorithm:
        Identifier of the algorithm that produced the result.
    budget:
        The requested ``k``.
    runtime_seconds:
        Wall-clock time spent inside :meth:`SeedSelector.select`.
    scores:
        Optional per-node score map produced by score-assignment algorithms
        (EaSyIM, OSIM, PU, IRIE); useful for diagnostics and tests.
    metadata:
        Algorithm-specific extras (number of RR sets, simulations run, ...).
    """

    seeds: List[Node]
    algorithm: str
    budget: int
    runtime_seconds: float = 0.0
    scores: Optional[Dict[Node, float]] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    def prefix(self, k: int) -> List[Node]:
        """The first ``k`` selected seeds (for k-sweep evaluation)."""
        if k < 0 or k > len(self.seeds):
            raise ConfigurationError(f"k must be in 0..{len(self.seeds)}, got {k}")
        return self.seeds[:k]

    def __len__(self) -> int:
        return len(self.seeds)

    def __iter__(self):
        return iter(self.seeds)


class SeedSelector(abc.ABC):
    """Base class for all seed-selection algorithms."""

    #: Short identifier used by the algorithm registry and the CLI.
    name: str = "base"

    #: Whether the algorithm optimises an opinion-aware objective.
    opinion_aware: bool = False

    @abc.abstractmethod
    def _select(self, graph: CompiledGraph, budget: int) -> tuple[list[int], dict]:
        """Return ``(seed_indices, metadata)`` on the compiled graph."""

    def select(self, graph: Union[DiGraph, CompiledGraph], budget: int) -> SeedSelectionResult:
        """Select ``budget`` seeds on ``graph``.

        The graph may be a mutable :class:`DiGraph` (compiled internally) or a
        pre-compiled :class:`CompiledGraph` when the caller wants to amortise
        compilation across algorithms.
        """
        compiled = graph.compile() if isinstance(graph, DiGraph) else graph
        check_budget("budget", budget, compiled.number_of_nodes)
        started = time.perf_counter()
        indices, metadata = self._select(compiled, budget)
        elapsed = time.perf_counter() - started
        if len(indices) != budget:
            raise AlgorithmError(
                f"{self.name} returned {len(indices)} seeds for budget {budget}"
            )
        if len(set(indices)) != len(indices):
            raise AlgorithmError(f"{self.name} returned duplicate seeds")
        scores = metadata.pop("scores", None)
        if scores is not None:
            scores = {compiled.labels[i]: float(s) for i, s in scores.items()}
        return SeedSelectionResult(
            seeds=compiled.labels_for(indices),
            algorithm=self.name,
            budget=budget,
            runtime_seconds=elapsed,
            scores=scores,
            metadata=metadata,
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def top_k_by_score(scores: Sequence[float], k: int, excluded: set[int] = frozenset()) -> list[int]:
    """Indices of the ``k`` largest scores, ties broken by smaller index."""
    order = sorted(
        (i for i in range(len(scores)) if i not in excluded),
        key=lambda i: (-scores[i], i),
    )
    return order[:k]
