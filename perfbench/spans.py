"""Benchmark-side tracing: spans around the calls into each program layer.

The program is not modified.  A :class:`Tracer` replaces chosen public
functions and methods with wrappers that record a span (name, start, end,
parent) and, where asked, the change of the process-global telemetry
registry's counters across the call.  Spans stay in memory and are written
out once, when the workload ends.  A layer's self time is its spans'
duration minus the part covered by their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import pathlib
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple


def counter_totals() -> Dict[str, float]:
    """Every counter family of the default registry, summed over labels."""
    from repro.telemetry import default_registry

    registry = default_registry()
    if registry is None:
        return {}
    totals: Dict[str, float] = {}
    for family in registry.collect():
        if family.kind == "counter":
            totals[family.name] = sum(child.value for _, child in family.children())
    return totals


def counter_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {name: value - before.get(name, 0.0) for name, value in after.items()}


class Tracer:
    """In-memory span recorder with patch-based instrumentation."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, Optional[int], str, float, float]] = []
        self.counts: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        self._archive: List[Tuple[int, Optional[int], str, float, float]] = []

    @contextlib.contextmanager
    def span(self, name: str, counted: bool = False) -> Iterator[None]:
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else None
        before = counter_totals() if counted else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, parent, name, start, end))
                if before is not None:
                    for key, value in counter_delta(before, counter_totals()).items():
                        self.counts[name][key] += value

    def wrap(self, fn: Callable, name: str, counted: bool = False) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, counted):
                return fn(*args, **kwargs)

        return traced

    def patch(self, owner: object, attr: str, name: str, counted: bool = False) -> None:
        """Replace ``owner.attr`` (a module or class attribute) until :meth:`restore`.

        A classmethod is replaced by a plain function wrapping the bound
        method, which behaves the same when called through the class.
        """
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, counted))

    def patch_result(
        self, owner: object, attr: str, name: str, on_result: Callable[[object], None]
    ) -> None:
        """Like :meth:`patch`, then hand each returned object to ``on_result``."""
        traced = self.wrap(getattr(owner, attr), name)

        def wrapper(*args, **kwargs):
            result = traced(*args, **kwargs)
            on_result(result)
            return result

        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def checkpoint(self) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
        """Self times and counter deltas since the last checkpoint.

        The spans move to the archive that :meth:`dump` writes out.
        """
        times = self.self_times()
        counts = {name: dict(deltas) for name, deltas in self.counts.items()}
        self._archive.extend(self.spans)
        self.spans.clear()
        self.counts.clear()
        return times, counts

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name, in seconds."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals: Dict[str, float] = defaultdict(float)
        for span_id, _, name, start, end in self.spans:
            totals[name] += (end - start) - covered(start, end, children.get(span_id, []))
        return dict(totals)

    def dump(self, path: pathlib.Path) -> None:
        rows = [
            {"id": i, "parent": p, "name": n, "start": s, "end": e}
            for i, p, n, s, e in self._archive + self.spans
        ]
        path.write_text(json.dumps({"spans": rows}) + "\n", encoding="utf-8")


def covered(start: float, end: float, intervals: List[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def span_coverage(spans: List[Dict[str, object]], stage: str) -> Optional[float]:
    """Share of a ``run_experiment`` stage span covered by its child spans.

    ``spans`` is ``RunResult.provenance["telemetry"]["spans"]``, the
    program's own span tree; ``None`` when the stage did not run.
    """
    for parent in spans:
        if parent["name"] != stage:
            continue
        start = float(parent["start"])
        duration = float(parent["duration"])
        if duration <= 0:
            return None
        intervals = [
            (float(child["start"]), float(child["start"]) + float(child["duration"]))
            for child in spans
            if child["parent_id"] == parent["span_id"]
        ]
        return covered(start, start + duration, intervals) / duration
    return None
