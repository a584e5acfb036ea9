"""Compact CSR-backed storage for reverse-reachable set collections.

A collection holds ``num_sets`` RR sets over ``n`` nodes as two flat int64
arrays — ``members`` (all set members back to back) and ``indptr`` (set
boundaries) — instead of ``list[list[int]]``.  That keeps the per-set
overhead at zero Python objects, makes the coverage and spread queries pure
numpy reductions, and lets IMM grow ``theta`` block-wise while reusing every
previously drawn set: blocks are appended in O(1) and consolidated lazily on
first read.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SketchError, SketchIndexError
from repro.sketches.sampler import expand_csr_positions

_EMPTY = np.empty(0, dtype=np.int64)

class RRSetCollection:
    """A growable collection of RR sets in CSR layout.

    Parameters
    ----------
    n:
        Number of nodes in the underlying graph (bounds the member values).
    """

    def __init__(self, n: int) -> None:
        if n < 0:
            raise SketchError(f"n must be non-negative, got {n}")
        self.n = int(n)
        self._member_blocks: List[np.ndarray] = []
        self._size_blocks: List[np.ndarray] = []
        self._num_sets = 0
        self._members = _EMPTY
        self._indptr = np.zeros(1, dtype=np.int64)
        self._set_ids: Optional[np.ndarray] = _EMPTY
        self._node_indptr: Optional[np.ndarray] = None
        self._node_sets: Optional[np.ndarray] = None
        self._dirty = False

    # ------------------------------------------------------------- building

    @classmethod
    def from_lists(cls, n: int, rr_sets: Sequence[Iterable[int]]) -> "RRSetCollection":
        """Build a collection from a ``list[list[int]]`` of RR sets."""
        collection = cls(n)
        if not rr_sets:
            return collection
        arrays = [np.asarray(list(s), dtype=np.int64) for s in rr_sets]
        sizes = np.array([a.size for a in arrays], dtype=np.int64)
        indptr = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        members = np.concatenate(arrays) if arrays else _EMPTY
        collection.append(members, indptr)
        return collection

    @classmethod
    def from_csr(
        cls,
        n: int,
        members: np.ndarray,
        indptr: np.ndarray,
        validate: bool = True,
        node_indptr: Optional[np.ndarray] = None,
        node_sets: Optional[np.ndarray] = None,
    ) -> "RRSetCollection":
        """Wrap existing CSR arrays without copying.

        The arrays are adopted as-is — in particular they may be read-only
        ``np.memmap`` views of a persisted index artifact, which is what
        lets a 50k-set index open in milliseconds: nothing is touched until
        the first query.  With ``validate`` (cheap: reads only the ``indptr``
        boundary entries) malformed boundaries raise ``ValueError``.

        ``node_indptr``/``node_sets`` optionally seed the inverted index
        (see :meth:`inverted_index`) with a precomputed copy, e.g. the one
        persisted in an artifact; both must be supplied together.
        """
        collection = cls(n)
        if not isinstance(members, np.ndarray):
            members = np.asarray(members, dtype=np.int64)
        if not isinstance(indptr, np.ndarray):
            indptr = np.asarray(indptr, dtype=np.int64)
        if validate:
            if indptr.ndim != 1 or indptr.size == 0:
                raise SketchError("indptr must be a non-empty 1-d array")
            if int(indptr[0]) != 0 or int(indptr[-1]) != members.size:
                raise SketchError("indptr must start at 0 and end at members.size")
            if np.any(np.diff(indptr) < 0):
                raise SketchError("indptr must be non-decreasing")
        collection._members = members
        collection._indptr = indptr
        collection._num_sets = indptr.size - 1
        collection._set_ids = None  # computed lazily on first coverage query
        collection._dirty = False
        if node_indptr is not None and node_sets is not None:
            if node_indptr.size != n + 1 or node_sets.size != members.size or (
                members.size and int(node_indptr[-1]) != members.size
            ):
                raise SketchError(
                    "inverted index shape disagrees with the CSR arrays"
                )
            collection._node_indptr = node_indptr
            collection._node_sets = node_sets
        return collection

    def append(self, members: np.ndarray, indptr: np.ndarray) -> None:
        """Append a CSR block of RR sets (as produced by the batch sampler)."""
        members = np.asarray(members, dtype=np.int64)
        indptr = np.asarray(indptr, dtype=np.int64)
        if indptr.size == 0 or indptr[0] != 0 or indptr[-1] != members.size:
            raise SketchError("indptr must start at 0 and end at members.size")
        sizes = np.diff(indptr)
        if sizes.size == 0:
            return
        self._member_blocks.append(members)
        self._size_blocks.append(sizes)
        self._num_sets += sizes.size
        self._dirty = True

    # -------------------------------------------------------------- queries

    @property
    def num_sets(self) -> int:
        return self._num_sets

    def __len__(self) -> int:
        return self._num_sets

    @property
    def members(self) -> np.ndarray:
        """Flat member array (concatenation of every set's members)."""
        self._consolidate()
        return self._members

    @property
    def indptr(self) -> np.ndarray:
        """Set boundaries: set ``j`` is ``members[indptr[j]:indptr[j+1]]``."""
        self._consolidate()
        return self._indptr

    @property
    def set_ids(self) -> np.ndarray:
        """Set index of every entry of :attr:`members` (computed lazily)."""
        self._consolidate()
        if self._set_ids is None:
            sizes = np.diff(self._indptr)
            self._set_ids = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
        return self._set_ids

    def _consolidate(self) -> None:
        if not self._dirty:
            return
        members = [self._members] + self._member_blocks if self._members.size else (
            self._member_blocks
        )
        sizes_old = np.diff(self._indptr)
        sizes = np.concatenate([sizes_old] + self._size_blocks)
        self._members = np.concatenate(members) if members else _EMPTY
        self._indptr = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=self._indptr[1:])
        self._set_ids = None
        self._node_indptr = None
        self._node_sets = None
        self._member_blocks = []
        self._size_blocks = []
        self._dirty = False

    def inverted_index(self) -> Tuple[np.ndarray, np.ndarray]:
        """The sets containing each node, as a CSR keyed by node.

        Returns ``(node_indptr, node_sets)``: node ``v`` appears in sets
        ``node_sets[node_indptr[v]:node_indptr[v + 1]]``.  This is the
        access structure greedy max coverage walks and, once resident, the
        route :meth:`estimated_spread` takes; building it costs one
        stable argsort of ``members``, so it is cached here and persisted
        inside index artifacts (where a warm ``select(k)`` would otherwise
        pay the argsort on every reopen).  Deterministic given the CSR:
        within a node, set ids appear in ascending order.
        """
        self._consolidate()
        if self._node_indptr is None or self._node_sets is None:
            counts = np.bincount(self._members, minlength=self.n)
            node_indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(counts, out=node_indptr[1:])
            order = np.argsort(self._members, kind="stable")
            self._node_sets = self.set_ids[order]
            self._node_indptr = node_indptr
        return self._node_indptr, self._node_sets

    def set_members(self, index: int) -> np.ndarray:
        """Members of set ``index`` in discovery order."""
        members, indptr = self.members, self.indptr
        if not 0 <= index < self.num_sets:
            raise SketchIndexError(f"set index {index} out of range 0..{self.num_sets - 1}")
        return members[indptr[index]:indptr[index + 1]]

    def as_lists(self) -> List[List[int]]:
        """The collection as ``list[list[int]]`` (tests and debugging)."""
        return [self.set_members(i).tolist() for i in range(self.num_sets)]

    def coverage_counts(self) -> np.ndarray:
        """Number of sets each node appears in (the initial greedy gains)."""
        return np.bincount(self.members, minlength=self.n)

    def covered_mask(self, seeds: Sequence[int]) -> np.ndarray:
        """Boolean mask over sets: which sets contain at least one seed."""
        mask = np.zeros(self.num_sets, dtype=bool)
        seeds = np.asarray(list(seeds), dtype=np.int64)
        if seeds.size == 0 or self.num_sets == 0:
            return mask
        seed_mask = np.zeros(self.n, dtype=bool)
        seed_mask[seeds] = True
        hits = seed_mask[self.members]
        mask[self.set_ids[hits]] = True
        return mask

    def covered_fraction(self, seeds: Sequence[int]) -> float:
        """Fraction of sets containing at least one seed."""
        if self.num_sets == 0:
            return 0.0
        return float(self.covered_mask(seeds).sum()) / self.num_sets

    def estimated_spread(self, seeds: Sequence[int]) -> float:
        """Sketch estimate of the expected spread of ``seeds``.

        The standard RIS estimator: ``n`` times the fraction of RR sets the
        seed set covers.  Accuracy grows with the number of sets (theta).
        Note this counts the seeds themselves (a root drawn at a seed is
        always covered); the paper's Def. 3 objective excludes seeds, so
        subtract the number of distinct seeds when comparing against
        :class:`~repro.diffusion.simulation.MonteCarloEngine` estimates.

        With the inverted index resident (built by :meth:`inverted_index`
        or adopted from an artifact) the covered sets are counted from the
        seeds' ``node_sets`` ranges, O(sets containing a seed); otherwise
        one walk over ``members``, O(|members|), which spares a one-shot
        caller the argsort that building the index costs.  Both routes
        compute ``covered / num_sets * n``, so their answers are identical.
        """
        self._consolidate()
        if self._node_indptr is None or self._node_sets is None:
            return self.covered_fraction(seeds) * self.n
        if self.num_sets == 0:
            return 0.0
        nodes = np.asarray(list(seeds), dtype=np.int64)
        positions, _ = expand_csr_positions(self._node_indptr, nodes)
        covered = np.zeros(self.num_sets, dtype=bool)
        covered[self._node_sets[positions]] = True
        return int(np.count_nonzero(covered)) / self.num_sets * self.n

    @property
    def memory_bytes(self) -> int:
        """Bytes held by the CSR arrays (pending blocks included)."""
        total = self._members.nbytes + self._indptr.nbytes
        if self._set_ids is not None:
            total += self._set_ids.nbytes
        if self._node_indptr is not None:
            total += self._node_indptr.nbytes
        if self._node_sets is not None:
            total += self._node_sets.nbytes
        total += sum(block.nbytes for block in self._member_blocks)
        total += sum(block.nbytes for block in self._size_blocks)
        return int(total)

    def __eq__(self, other: object) -> bool:
        """Content equality: same ``n`` and bit-identical CSR arrays.

        Used by the persistence tests to assert that a saved-and-reloaded
        (or incrementally grown) index equals a freshly built one.
        """
        if not isinstance(other, RRSetCollection):
            return NotImplemented
        return (
            self.n == other.n
            and self.num_sets == other.num_sets
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.members, other.members)
        )

    def __repr__(self) -> str:
        return (
            f"<RRSetCollection with {self.num_sets} sets over {self.n} nodes, "
            f"{self.members.size} members>"
        )
