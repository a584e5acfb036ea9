"""Runtime lock-order checker for the five-lock serving layer.

The static rule (``REP007``) can only see ``with`` statements nested in
one function; real inversions hide across call chains ("service method
takes the index lock, index method calls back into a breaker") and only
show up under concurrency.  This module wraps the serving layer's lock
primitives so a chaos-suite run records the *acquisition DAG* — a
directed edge ``A -> B`` whenever a thread acquires ``B`` while holding
``A`` — and fails if the recorded edges contradict the declared
hierarchy or form a cycle.

The declared hierarchy (outermost first) is the single source of truth
for both checkers:

======================  =======================================================
Level                   Lock
======================  =======================================================
``service``             ``InfluenceService._lock``
``index``               ``InfluenceIndex._lock``
``breaker``             ``CircuitBreaker._lock``
``fault-plan``          ``FaultPlan._lock``
``fault-install``       ``repro.serving.faults._install_lock``
======================  =======================================================

Usage (this is what the ``REPRO_LOCKCHECK=1`` conftest fixture does)::

    monitor = LockOrderMonitor()
    with instrument_serving(monitor):
        ...  # run the chaos suite
    monitor.check()   # raises LockOrderError on inversion or cycle
"""

from __future__ import annotations

import contextlib
import threading
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.exceptions import LockOrderError

__all__ = [
    "LOCK_HIERARCHY",
    "STATIC_LOCK_MAP",
    "InstrumentedLock",
    "LockOrderMonitor",
    "instrument_serving",
]

#: Declared acquisition order, outermost lock first.  A thread holding a
#: lock may only acquire locks *later* in this tuple.
LOCK_HIERARCHY: Tuple[str, ...] = (
    "service",
    "index",
    "breaker",
    "fault-plan",
    "fault-install",
)

_RANK: Dict[str, int] = {name: rank for rank, name in enumerate(LOCK_HIERARCHY)}

#: Static-analysis view of the same hierarchy: (owning class or None for
#: module-level, attribute name) -> (rank, level name).  Used by REP007.
STATIC_LOCK_MAP: Dict[Tuple[Optional[str], str], Tuple[int, str]] = {
    ("InfluenceService", "_lock"): (_RANK["service"], "service"),
    ("InfluenceIndex", "_lock"): (_RANK["index"], "index"),
    ("CircuitBreaker", "_lock"): (_RANK["breaker"], "breaker"),
    ("FaultPlan", "_lock"): (_RANK["fault-plan"], "fault-plan"),
    (None, "_install_lock"): (_RANK["fault-install"], "fault-install"),
}


class LockOrderMonitor:
    """Records the acquisition DAG and validates it against the hierarchy.

    Thread-safe; one monitor instance observes every instrumented lock in
    a run.  Edges are aggregated by *level name*, not lock instance, so a
    service with many breakers still yields a five-node graph.
    """

    def __init__(self) -> None:
        # The monitor's own lock is a raw threading.Lock on purpose: it
        # must never itself be instrumented or appear in the DAG.
        self._guard = threading.Lock()
        self._local = threading.local()
        self._edges: Dict[Tuple[str, str], int] = {}
        self._acquisitions: Dict[str, int] = {}

    # ------------------------------------------------------------ recording

    def _stack(self) -> List["InstrumentedLock"]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, lock: "InstrumentedLock") -> None:
        stack = self._stack()
        if stack:
            top = stack[-1]
            # Re-entering the same lock object is not an ordering edge.
            if top is not lock:
                with self._guard:
                    key = (top.level, lock.level)
                    self._edges[key] = self._edges.get(key, 0) + 1
        with self._guard:
            self._acquisitions[lock.level] = (
                self._acquisitions.get(lock.level, 0) + 1
            )
        stack.append(lock)

    def _pop(self, lock: "InstrumentedLock") -> None:
        stack = self._stack()
        # Locks are almost always released LIFO, but threading does not
        # require it; remove the most recent occurrence.
        for position in range(len(stack) - 1, -1, -1):
            if stack[position] is lock:
                del stack[position]
                return

    def _pop_all(self, lock: "InstrumentedLock") -> int:
        """Remove every stack entry for ``lock`` (Condition.wait support)."""
        stack = self._stack()
        count = len([entry for entry in stack if entry is lock])
        if count:
            self._local.stack = [entry for entry in stack if entry is not lock]
        return count

    # ------------------------------------------------------------ reporting

    def edges(self) -> Dict[Tuple[str, str], int]:
        with self._guard:
            return dict(self._edges)

    def acquisitions(self) -> Dict[str, int]:
        with self._guard:
            return dict(self._acquisitions)

    def violations(self) -> List[str]:
        """Edges that contradict the declared hierarchy, human-readable."""
        problems: List[str] = []
        for (held, acquired), count in sorted(self.edges().items()):
            held_rank = _RANK.get(held)
            acquired_rank = _RANK.get(acquired)
            if held_rank is None or acquired_rank is None:
                continue  # unknown levels are judged by the cycle check only
            if held_rank >= acquired_rank:
                problems.append(
                    f"acquired {acquired!r} while holding {held!r} "
                    f"({count}x) — declared order is "
                    + " -> ".join(LOCK_HIERARCHY)
                )
        cycle = self._find_cycle()
        if cycle is not None:
            problems.append(
                "acquisition graph contains a cycle: " + " -> ".join(cycle)
            )
        return problems

    def _find_cycle(self) -> Optional[List[str]]:
        graph: Dict[str, Set[str]] = {}
        for held, acquired in self.edges():
            graph.setdefault(held, set()).add(acquired)
        visiting: Set[str] = set()
        done: Set[str] = set()
        path: List[str] = []

        def visit(node: str) -> Optional[List[str]]:
            if node in done:
                return None
            if node in visiting:
                return path[path.index(node):] + [node]
            visiting.add(node)
            path.append(node)
            for neighbour in sorted(graph.get(node, ())):
                found = visit(neighbour)
                if found is not None:
                    return found
            path.pop()
            visiting.discard(node)
            done.add(node)
            return None

        for node in sorted(graph):
            found = visit(node)
            if found is not None:
                return found
        return None

    def check(self) -> None:
        """Raise :class:`LockOrderError` if any inversion was recorded."""
        problems = self.violations()
        if problems:
            raise LockOrderError(
                "lock-order violation(s) recorded:\n  " + "\n  ".join(problems)
            )


class InstrumentedLock:
    """A lock/RLock wrapper that reports acquisitions to a monitor.

    Implements the full lock protocol *and* the private Condition
    interface (``_release_save``/``_acquire_restore``/``_is_owned``) so a
    ``threading.Condition`` built on a wrapped RLock keeps the monitor's
    per-thread stack truthful across ``wait()`` (which releases the lock
    while sleeping and re-acquires before returning).
    """

    def __init__(self, inner: object, level: str, monitor: LockOrderMonitor) -> None:
        self._inner = inner
        self.level = level
        self._monitor = monitor

    def acquire(self, blocking: bool = True, timeout: float = -1):  # noqa: ANN201
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._monitor._push(self)
        return acquired

    def release(self) -> None:
        self._monitor._pop(self)
        self._inner.release()

    def __enter__(self) -> "InstrumentedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    # -- Condition interop (threading.Condition probes these by hasattr) --

    def _release_save(self):  # noqa: ANN202
        count = self._monitor._pop_all(self)
        if hasattr(self._inner, "_release_save"):
            return self._inner._release_save(), count
        self._inner.release()
        return None, count

    def _acquire_restore(self, state) -> None:  # noqa: ANN001
        saved, count = state
        if hasattr(self._inner, "_acquire_restore"):
            self._inner._acquire_restore(saved)
        else:
            self._inner.acquire()
        for _ in range(max(count, 1)):
            self._monitor._push(self)
        # _push appended `count` entries but the underlying lock is held
        # once per original recursion level; the stack mirrors that.

    def _is_owned(self) -> bool:
        if hasattr(self._inner, "_is_owned"):
            return self._inner._is_owned()
        # Plain Lock: mimic threading.Condition's fallback probe.
        if self._inner.acquire(False):
            self._inner.release()
            return False
        return True

    def locked(self) -> bool:
        return self._inner.locked()

    def __repr__(self) -> str:
        return f"<InstrumentedLock level={self.level} inner={self._inner!r}>"


class _ThreadingProxy:
    """Stand-in for the ``threading`` module inside one serving module.

    ``Lock``/``RLock`` mint instrumented wrappers tagged with the
    module's hierarchy level; ``Condition`` keeps working on wrapped
    locks; everything else passes through to the real module.
    """

    def __init__(self, level: str, monitor: LockOrderMonitor) -> None:
        self._level = level
        self._monitor = monitor

    def Lock(self) -> InstrumentedLock:
        return InstrumentedLock(threading.Lock(), self._level, self._monitor)

    def RLock(self) -> InstrumentedLock:
        return InstrumentedLock(threading.RLock(), self._level, self._monitor)

    def Condition(self, lock: Optional[object] = None) -> threading.Condition:
        if lock is None:
            lock = self.RLock()
        return threading.Condition(lock)

    def __getattr__(self, name: str) -> object:
        return getattr(threading, name)


#: Which serving module's locks sit at which hierarchy level.  Instance
#: locks are created in ``__init__`` via the module-global ``threading``
#: name, which is what gets proxied.
_MODULE_LEVELS = {
    "repro.serving.service": "service",
    "repro.serving.index": "index",
    "repro.serving.resilience": "breaker",
    "repro.serving.faults": "fault-plan",
}


@contextlib.contextmanager
def instrument_serving(monitor: LockOrderMonitor) -> Iterator[LockOrderMonitor]:
    """Patch the serving layer so new locks report to ``monitor``.

    Objects constructed *inside* the context get instrumented locks;
    pre-existing objects are untouched.  The module-level
    ``faults._install_lock`` (created at import time) is swapped for a
    wrapped lock directly and restored on exit.
    """
    import importlib

    modules = {
        name: importlib.import_module(name) for name in _MODULE_LEVELS
    }
    saved_threading = {
        name: module.threading for name, module in modules.items()
    }
    faults = modules["repro.serving.faults"]
    saved_install_lock = faults._install_lock
    try:
        for name, module in modules.items():
            module.threading = _ThreadingProxy(_MODULE_LEVELS[name], monitor)
        faults._install_lock = InstrumentedLock(
            threading.Lock(), "fault-install", monitor
        )
        yield monitor
    finally:
        for name, module in modules.items():
            module.threading = saved_threading[name]
        faults._install_lock = saved_install_lock
