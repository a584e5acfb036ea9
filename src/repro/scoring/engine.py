"""The incremental residual scoring engine behind ScoreGREEDY selection.

The ScoreGREEDY driver (Algorithm 1) repeatedly re-assigns scores on the
residual graph and picks the best unactivated node.  Historically every
iteration re-ran the full score pass — ``O(l (m + n))`` work per seed even
though marking a handful of nodes active only perturbs scores inside the
l-hop *reverse* ball of those nodes: zeroing the edges that point at a newly
activated node changes hop-1 scores of its in-neighbours, hop-2 scores of
their in-neighbours, and so on.

:class:`ScoreEngine` exploits exactly that structure:

* **Graph-static arrays** (edge sources, resolved walk probabilities, OSIM's
  psi, the out<->in CSR position maps) are cached once per immutable
  :class:`~repro.graphs.digraph.CompiledGraph` and shared across engines.
* **Residual state** — the per-hop score arrays (EaSyIM's ``Delta_i``; OSIM's
  ``or_i``/``alpha_i``/``sc_i`` plus per-hop delta contributions) — persists
  across iterations.  :meth:`ScoreEngine.mark_active` grows the dirty region
  hop by hop via reverse BFS on the in-CSR and recomputes each hop *only*
  over its dirty nodes, with bit-for-bit identical results to a full pass
  (per-node sums accumulate the same edges in the same CSR order).
* **Fallback** — when the dirty region exceeds ``fallback_fraction`` of the
  total ``l * m`` edge work, the engine abandons the incremental update and
  runs one full pass instead, so adversarial cascades never cost more than
  the historical driver.
* **Lazy argmax repair** — only dirty nodes can change rank, so the running
  argmax lives in a lazily maintained *top pool*: every node whose score
  reached the pool threshold ``tau`` (the T-th largest score at the last
  pool rebuild).  EaSyIM's residual scores are monotonically non-increasing
  under activation, so nodes outside the pool can never climb past ``tau``
  and the argmax is repaired with one vectorized masked max over the pool;
  the pool is rebuilt from the full score array only when its own maximum
  decays below ``tau``.  OSIM's signed contributions can raise a score, so
  risen nodes are eagerly unioned into the pool.  Ties break towards the
  smallest node index, matching ``np.argmax``.

OSIM's three per-hop ``np.bincount`` scatters (``or``/``alpha``/``sc``) are
fused into a single stacked ``(3, m)``-weight scatter: the three weight
vectors are concatenated and binned into ``3 n`` slots in one pass, then
reshaped.  Each slot still accumulates its own edges in CSR order, so the
fusion is bit-for-bit identical to the three separate scatters.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.diffusion.batch import _expand_csr
from repro.exceptions import ConfigurationError
from repro.graphs.digraph import CompiledGraph
from repro.telemetry.registry import default_registry
from repro.telemetry.tracing import span

#: Incremental work budget as a fraction of the full-pass edge work ``l * m``;
#: beyond it a full rebuild is cheaper than chasing the dirty ball.
DEFAULT_FALLBACK_FRACTION = 0.25

#: After this many consecutive fallbacks the engine stops attempting
#: incremental updates (hub-dominated graphs blow the dirty ball every
#: round) and rebuilds directly ...
FALLBACK_PATIENCE = 2

#: ... retrying an incremental update this often, in case the growing
#: activated set has since shrunk the dirty region.
FALLBACK_RETRY_PERIOD = 8

#: Argmax pool size target: the pool holds at least this many of the
#: top-scoring inactive nodes (more when scores tie at the threshold).
POOL_TARGET = 1024

_ALGORITHMS = ("easyim", "osim")

_EMPTY = np.empty(0, dtype=np.int64)


def _degree_sum(indptr: np.ndarray, nodes: np.ndarray) -> int:
    """Total slice width of ``nodes`` in a CSR — cost estimate, no gather."""
    return int((indptr[nodes + 1] - indptr[nodes]).sum())


def _first_occurrences(keys: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Indices of the first occurrence of each distinct value in ``keys``.

    Sort-free (same reversed-scatter trick as the batch kernels): much
    cheaper than ``np.unique`` on the large candidate arrays produced by
    reverse expansion, and the engine does not need sorted dirty sets.
    """
    order = np.arange(keys.size, dtype=scratch.dtype)
    scratch[keys[::-1]] = order[::-1]
    return np.flatnonzero(scratch[keys] == order)


class _EaSyIMState:
    """Per-hop ``Delta_i`` arrays and recompute rules for Algorithm 4."""

    #: EaSyIM contributions are non-negative and activation only zeroes
    #: edges, so every node's residual score is non-increasing over the
    #: ScoreGREEDY run.  Stale argmax-heap entries are then always
    #: *optimistic* and lazy refresh-on-pop alone keeps the heap correct.
    monotone_decreasing = True

    def __init__(
        self, graph: CompiledGraph, probabilities: np.ndarray, hops: int
    ) -> None:
        self.graph = graph
        self.probabilities = probabilities
        self.hops = hops
        n = graph.number_of_nodes
        self.delta = [np.zeros(n, dtype=np.float64) for _ in range(hops)]

    @property
    def scores(self) -> np.ndarray:
        return self.delta[-1]

    def full_rebuild(self, active: np.ndarray) -> None:
        graph = self.graph
        n = graph.number_of_nodes
        sources = graph.edge_sources
        targets = graph.out_indices
        edge_mask = (~active[targets]).astype(np.float64)
        delta_prev = np.zeros(n, dtype=np.float64)
        for hop in range(self.hops):
            contributions = (
                self.probabilities * (1.0 + delta_prev[targets]) * edge_mask
            )
            delta_prev = np.bincount(sources, weights=contributions, minlength=n)
            self.delta[hop] = delta_prev

    def recompute_hop(
        self,
        hop: int,
        nodes: np.ndarray,
        positions: np.ndarray,
        owner: np.ndarray,
        active: np.ndarray,
    ) -> None:
        """Recompute ``Delta_hop`` over ``nodes`` (their out-edges given by
        ``positions``/``owner``) with the exact arithmetic of the full pass."""
        graph = self.graph
        targets = graph.out_indices[positions]
        edge_mask = (~active[targets]).astype(np.float64)
        if hop == 0:
            # (1.0 + 0.0) == 1.0 and p * 1.0 == p exactly, so dropping the
            # zero previous-hop gather is bit-for-bit safe.
            contributions = self.probabilities[positions] * edge_mask
        else:
            contributions = (
                self.probabilities[positions]
                * (1.0 + self.delta[hop - 1][targets])
                * edge_mask
            )
        self.delta[hop][nodes] = np.bincount(
            owner, weights=contributions, minlength=nodes.size
        )

    def refresh_scores(self, nodes: np.ndarray) -> None:
        """EaSyIM's score *is* the last hop array — nothing to aggregate."""


class _OSIMState:
    """Per-hop ``or``/``alpha``/``sc`` aggregates and the cumulative delta
    for Algorithm 5, with the three per-hop scatters fused into one."""

    #: OSIM walk contributions are signed (opinions and psi can be
    #: negative), so discounting an activated node can *raise* another
    #: node's score — those nodes need an eager heap re-push.
    monotone_decreasing = False

    def __init__(
        self, graph: CompiledGraph, probabilities: np.ndarray, hops: int
    ) -> None:
        self.graph = graph
        self.probabilities = probabilities
        self.hops = hops
        n = graph.number_of_nodes
        self.opinions = graph.opinions
        self.psi = graph.out_psi
        # Hop 0 boundary state (never dirty): or_0 = o_v, alpha_0 = 1, sc_0 = 0.
        self._or0 = graph.opinions.astype(np.float64).copy()
        self._alpha0 = np.ones(n, dtype=np.float64)
        self._sc0 = np.zeros(n, dtype=np.float64)
        self.or_ = [np.zeros(n, dtype=np.float64) for _ in range(hops)]
        self.alpha = [np.zeros(n, dtype=np.float64) for _ in range(hops)]
        self.sc = [np.zeros(n, dtype=np.float64) for _ in range(hops)]
        self.contrib = [np.zeros(n, dtype=np.float64) for _ in range(hops)]
        self.delta = np.zeros(n, dtype=np.float64)
        # Static keys of the fused (3, m) scatter: row r of the stacked
        # weights bins into slots [r*n, (r+1)*n).  The weight buffer is
        # written in place (np.multiply out=) so the fusion costs no copies.
        m = graph.number_of_edges
        sources = graph.edge_sources
        self._stacked_keys = np.concatenate((sources, sources + n, sources + 2 * n))
        self._stacked_weights = np.empty(3 * m, dtype=np.float64)
        self._gather = np.empty(m, dtype=np.float64)

    @property
    def scores(self) -> np.ndarray:
        return self.delta

    def _prev(self, hop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if hop == 0:
            return self._or0, self._alpha0, self._sc0
        return self.or_[hop - 1], self.alpha[hop - 1], self.sc[hop - 1]

    def full_rebuild(self, active: np.ndarray) -> None:
        graph = self.graph
        n = graph.number_of_nodes
        targets = graph.out_indices
        opinions = self.opinions
        edge_mask = (~active[targets]).astype(np.float64)
        m = graph.number_of_edges
        stacked = self._stacked_weights
        gather = self._gather
        delta = np.zeros(n, dtype=np.float64)
        for hop in range(self.hops):
            or_prev, alpha_prev, sc_prev = self._prev(hop)
            weighted = self.probabilities * edge_mask
            np.take(or_prev, targets, out=gather)
            np.multiply(weighted, gather, out=stacked[:m])
            np.take(alpha_prev, targets, out=gather)
            np.multiply(weighted, gather, out=stacked[m:2 * m])
            np.multiply(stacked[m:2 * m], self.psi, out=stacked[m:2 * m])
            np.take(sc_prev, targets, out=gather)
            np.multiply(weighted, gather, out=stacked[2 * m:])
            sums = np.bincount(
                self._stacked_keys, weights=stacked, minlength=3 * n
            ).reshape(3, n)
            or_cur, alpha_cur, sc_cur = sums[0], sums[1], sums[2]
            sc_cur = sc_cur + opinions * alpha_cur
            contrib = (or_cur + sc_cur + opinions * alpha_cur) / 2.0
            delta = delta + contrib
            self.or_[hop] = or_cur
            self.alpha[hop] = alpha_cur
            self.sc[hop] = sc_cur
            self.contrib[hop] = contrib
        self.delta = delta

    def recompute_hop(
        self,
        hop: int,
        nodes: np.ndarray,
        positions: np.ndarray,
        owner: np.ndarray,
        active: np.ndarray,
    ) -> None:
        graph = self.graph
        k = nodes.size
        targets = graph.out_indices[positions]
        opinions_sub = self.opinions[nodes]
        or_prev, alpha_prev, sc_prev = self._prev(hop)
        weighted = self.probabilities[positions] * (~active[targets]).astype(
            np.float64
        )
        stacked = np.concatenate((
            weighted * or_prev[targets],
            weighted * alpha_prev[targets] * self.psi[positions],
            weighted * sc_prev[targets],
        ))
        keys = np.concatenate((owner, owner + k, owner + 2 * k))
        sums = np.bincount(keys, weights=stacked, minlength=3 * k).reshape(3, k)
        or_cur, alpha_cur = sums[0], sums[1]
        sc_cur = sums[2] + opinions_sub * alpha_cur
        self.or_[hop][nodes] = or_cur
        self.alpha[hop][nodes] = alpha_cur
        self.sc[hop][nodes] = sc_cur
        self.contrib[hop][nodes] = (
            or_cur + sc_cur + opinions_sub * alpha_cur
        ) / 2.0

    def refresh_scores(self, nodes: np.ndarray) -> None:
        """Re-accumulate the cumulative delta of ``nodes`` hop by hop, in the
        same left-to-right order the full pass uses (bit-for-bit)."""
        acc = np.zeros(nodes.size, dtype=np.float64)
        for contrib in self.contrib:
            acc = acc + contrib[nodes]
        self.delta[nodes] = acc


class ScoreEngine:
    """Incremental EaSyIM/OSIM score maintenance across ScoreGREEDY rounds.

    Parameters
    ----------
    graph:
        Compiled graph to score.
    algorithm:
        ``"easyim"`` (Alg. 4) or ``"osim"`` (Alg. 5).
    max_path_length:
        The walk-length bound ``l``.
    weighting:
        Which edge probabilities drive the walk weights (``"ic"``, ``"wc"``
        or ``"lt"``).
    fallback_fraction:
        Incremental edge-work budget per update, as a fraction of the full
        pass ``l * m``; exceeding it triggers a full rebuild.  ``0`` forces
        every update to rebuild, ``1`` (or more) essentially never does.
    """

    def __init__(
        self,
        graph: CompiledGraph,
        algorithm: str = "easyim",
        max_path_length: int = 3,
        weighting: str = "ic",
        fallback_fraction: float = DEFAULT_FALLBACK_FRACTION,
    ) -> None:
        if algorithm not in _ALGORITHMS:
            raise ConfigurationError(
                f"algorithm must be one of {_ALGORITHMS}, got {algorithm!r}"
            )
        if max_path_length < 1:
            raise ConfigurationError(
                f"max_path_length must be >= 1, got {max_path_length}"
            )
        if fallback_fraction < 0.0:
            raise ConfigurationError(
                f"fallback_fraction must be >= 0, got {fallback_fraction}"
            )
        self.graph = graph
        self.algorithm = algorithm
        self.max_path_length = max_path_length
        self.weighting = weighting
        self.fallback_fraction = fallback_fraction

        probabilities = graph.resolved_edge_probabilities(weighting)
        state_cls = _EaSyIMState if algorithm == "easyim" else _OSIMState
        self._state = state_cls(graph, probabilities, max_path_length)

        n = graph.number_of_nodes
        self._active = np.zeros(n, dtype=bool)
        self._scratch = np.empty(n, dtype=np.int64)
        self._consecutive_fallbacks = 0
        self._rebuilds_until_retry = 0
        self.stats: Dict[str, int] = {
            "full_rebuilds": 0,
            "incremental_updates": 0,
            "fallback_rebuilds": 0,
            "direct_rebuilds": 0,
            "pool_rebuilds": 0,
            "dirty_nodes_total": 0,
            "edges_touched_incremental": 0,
        }
        self._state.full_rebuild(self._active)
        self._bump("full_rebuilds")
        self._pool = _EMPTY
        self._tau = -np.inf
        self._rebuild_pool()

    # ------------------------------------------------------------- queries

    @property
    def scores(self) -> np.ndarray:
        """Current residual scores (do not mutate)."""
        return self._state.scores

    @property
    def active(self) -> np.ndarray:
        """Current activated mask (do not mutate)."""
        return self._active

    def score_of(self, node: int) -> float:
        return float(self._state.scores[node])

    def best_inactive(self) -> Optional[int]:
        """Highest-scoring unactivated node, or ``None`` when all are active.

        Repairs the running argmax instead of recomputing it over all ``n``
        nodes: a masked max over the top pool answers the query as long as
        the pool's best still clears the pool threshold ``tau``, because
        every node outside the pool scored strictly below ``tau`` when the
        pool was built and cannot have risen past it since (EaSyIM scores
        only decrease; OSIM risers are unioned in eagerly).  Only when the
        pool decays — its members activated or discounted below ``tau`` —
        is it rebuilt from the full score array.  The pool is kept sorted
        by node index, so ties break towards the smallest node index,
        exactly like ``np.argmax`` in the full-recompute driver.
        """
        for _ in range(2):
            pool = self._pool
            if pool.size:
                values = np.where(
                    self._active[pool], -np.inf, self._state.scores[pool]
                )
                position = int(np.argmax(values))
                best = values[position]
                if best >= self._tau and np.isfinite(best):
                    return int(pool[position])
            if not self._rebuild_pool():
                return None
        return None  # pragma: no cover - the post-rebuild max clears tau

    def _rebuild_pool(self) -> bool:
        """Refill the pool with the current top-scoring inactive nodes.

        Returns ``False`` when no inactive node remains.  ``tau`` becomes
        the ``POOL_TARGET``-th largest inactive score; every inactive node
        scoring >= ``tau`` joins the pool (all of them on ties), so nodes
        left outside are *strictly* below ``tau`` and argmax ties inside
        the pool are decided exactly as the full driver would.
        """
        inactive = np.flatnonzero(~self._active)
        if inactive.size == 0:
            self._pool = _EMPTY
            self._tau = -np.inf
            return False
        scores = self._state.scores[inactive]
        if inactive.size <= POOL_TARGET:
            self._tau = float(scores.min())
            self._pool = inactive
        else:
            self._tau = float(
                np.partition(scores, inactive.size - POOL_TARGET)[
                    inactive.size - POOL_TARGET
                ]
            )
            self._pool = inactive[scores >= self._tau]
        self._bump("pool_rebuilds")
        return True

    # ------------------------------------------------------------- updates

    def mark_active(self, nodes: Union[np.ndarray, Sequence[int]]) -> np.ndarray:
        """Mark ``nodes`` activated and repair the affected scores.

        Returns the dirty node set whose scores were repaired in place by an
        incremental update.  When the update instead fell back to a full
        rebuild, the return value is the changed-node set only where it is
        needed anyway (OSIM, whose risers must be re-pooled) and an empty
        array for EaSyIM — after any call, :attr:`scores` is the
        authoritative state, not the returned set.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size == 0:
            return _EMPTY
        fresh = np.unique(nodes[~self._active[nodes]])
        if fresh.size == 0:
            return _EMPTY
        with span("score_rescore", fresh=int(fresh.size)):
            return self._mark_active_fresh(fresh)

    def _mark_active_fresh(self, fresh: np.ndarray) -> np.ndarray:
        self._active[fresh] = True
        graph = self.graph
        # The residual-graph mask is derived from the active array on the
        # fly (edges into active nodes contribute nothing), so activation
        # itself is just the flag flip above.
        if _degree_sum(graph.in_indptr, fresh) == 0:
            # No edges point at the activated nodes, so the residual graph —
            # and therefore every score — is unchanged.
            return _EMPTY

        # On hub-dominated graphs the l-hop reverse ball blows the budget on
        # every single update; after FALLBACK_PATIENCE consecutive fallbacks
        # stop paying for doomed expansions and rebuild directly, probing an
        # incremental update again every FALLBACK_RETRY_PERIOD rebuilds.
        if (
            self._consecutive_fallbacks >= FALLBACK_PATIENCE
            and self._rebuilds_until_retry > 0
        ):
            self._rebuilds_until_retry -= 1
            self._bump("direct_rebuilds")
            return self._rebuild_and_diff()

        hops = self.max_path_length
        edge_budget = int(self.fallback_fraction * hops * graph.number_of_edges)
        dirty_mask = np.zeros(graph.number_of_nodes, dtype=bool)
        dirty_nodes = _EMPTY
        frontier = fresh
        edges_touched = 0
        for hop in range(hops):
            if frontier.size:
                # Degree-sum prechecks abort *before* materialising an
                # explosive expansion, so a fallback never costs much more
                # than the budget itself.
                edges_touched += _degree_sum(graph.in_indptr, frontier)
                if edges_touched > edge_budget:
                    return self._fallback_rebuild()
                positions, _ = _expand_csr(graph.in_indptr, frontier)
                candidates = graph.in_indices[positions]
                thinned = candidates[~dirty_mask[candidates]]
                new = thinned[_first_occurrences(thinned, self._scratch)]
                dirty_mask[new] = True
            else:
                new = _EMPTY
            if new.size:
                dirty_nodes = np.concatenate((dirty_nodes, new))
            if dirty_nodes.size == 0:
                # No in-neighbours anywhere near the activated set: the dirty
                # region is empty at every later hop too (it only grows by
                # reverse expansion), so no score can have changed.
                return _EMPTY
            edges_touched += _degree_sum(graph.out_indptr, dirty_nodes)
            if edges_touched > edge_budget:
                return self._fallback_rebuild()
            out_positions, owner = _expand_csr(graph.out_indptr, dirty_nodes)
            self._state.recompute_hop(
                hop, dirty_nodes, out_positions, owner, self._active
            )
            # Changes propagate through a dirty node only while it is
            # inactive — edges into active nodes are masked regardless.
            frontier = new[~self._active[new]]

        if self._state.monotone_decreasing:
            self._state.refresh_scores(dirty_nodes)
        else:
            previous = self._state.scores[dirty_nodes].copy()
            self._state.refresh_scores(dirty_nodes)
            self._push_increased(dirty_nodes, previous)
        self._consecutive_fallbacks = 0
        self._bump("incremental_updates")
        self._bump("dirty_nodes_total", int(dirty_nodes.size))
        self._bump("edges_touched_incremental", edges_touched)
        return dirty_nodes

    # ------------------------------------------------------------ internals

    def _bump(self, key: str, amount: int = 1) -> None:
        """Update :attr:`stats` and mirror the increment to global metrics.

        ``stats`` stays the authoritative per-engine record; the registry
        series are the process-wide view of the same increments.
        """
        self.stats[key] += amount
        registry = default_registry()
        if key.endswith("_rebuilds"):
            registry.counter(
                "repro_score_rebuilds_total",
                "ScoreEngine rebuilds by kind.",
                labelnames=("kind",),
            ).labels(kind=key[: -len("_rebuilds")]).inc(amount)
        else:
            name, help_text = {
                "incremental_updates": (
                    "repro_score_incremental_updates_total",
                    "ScoreEngine incremental score repairs.",
                ),
                "dirty_nodes_total": (
                    "repro_score_dirty_nodes_total",
                    "Nodes repaired by incremental updates.",
                ),
                "edges_touched_incremental": (
                    "repro_score_edges_touched_total",
                    "Edges traversed by incremental updates.",
                ),
            }[key]
            registry.counter(name, help_text).inc(amount)

    def _fallback_rebuild(self) -> np.ndarray:
        self._consecutive_fallbacks += 1
        self._rebuilds_until_retry = FALLBACK_RETRY_PERIOD
        self._bump("fallback_rebuilds")
        return self._rebuild_and_diff()

    def _rebuild_and_diff(self) -> np.ndarray:
        if self._state.monotone_decreasing:
            # Scores can only have decreased — the pool repairs itself — so
            # the old/new diff would be pure overhead.
            self._state.full_rebuild(self._active)
            self._bump("full_rebuilds")
            return _EMPTY
        previous = self._state.scores.copy()
        self._state.full_rebuild(self._active)
        self._bump("full_rebuilds")
        changed = np.flatnonzero(self._state.scores != previous)
        self._push_increased(changed, previous[changed])
        return changed

    def _push_increased(
        self, nodes: np.ndarray, previous_scores: np.ndarray
    ) -> None:
        """Union nodes whose score *rose* past ``tau`` into the argmax pool.

        Decreases repair themselves (the pool rebuilds when its max decays),
        but a riser outside the pool would be invisible to the masked max,
        so the argmax could silently skip it.  Risers still below ``tau``
        cannot outrank a valid pool answer and are picked up by the next
        pool rebuild instead.
        """
        scores = self._state.scores
        risen = nodes[
            (scores[nodes] > previous_scores)
            & (scores[nodes] >= self._tau)
            & ~self._active[nodes]
        ]
        if risen.size:
            self._pool = np.union1d(self._pool, risen)
