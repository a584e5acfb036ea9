"""Memory measurement helpers.

The paper's scalability story (Figs. 5h, 6i, 6j, 7j and Tables 3-4) is about
the *additional* memory an algorithm allocates over and above the graph it
operates on.  :class:`MemoryTracker` measures exactly that with
:mod:`tracemalloc`, which tracks Python-level allocations and is therefore
portable across platforms (unlike RSS-based measurements).
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass
from typing import List

from repro.exceptions import LifecycleError

_BYTES_PER_MB = 1024.0 * 1024.0


@dataclass
class MemorySnapshot:
    """Peak and current traced allocation sizes, in megabytes."""

    current_mb: float
    peak_mb: float


#: Trackers whose block is open, outermost first.
_open_trackers: List["MemoryTracker"] = []


class MemoryTracker:
    """Context manager measuring peak Python allocations inside its block.

    Nested usage is supported: the tracker records the delta between the peak
    during the block and the traced size when the block started, which is the
    quantity reported as "ExecutionMemory" in the paper's stacked bar charts.
    An inner tracker resets tracemalloc's peak, so it first folds the peak so
    far into every tracker still open.
    """

    def __init__(self) -> None:
        self.snapshot: MemorySnapshot | None = None
        self._was_tracing = False
        self._baseline = 0
        self._peak = 0

    def __enter__(self) -> "MemoryTracker":
        self._was_tracing = tracemalloc.is_tracing()
        if not self._was_tracing:
            tracemalloc.start()
        _, peak = tracemalloc.get_traced_memory()
        for tracker in _open_trackers:
            tracker._peak = max(tracker._peak, peak)
        tracemalloc.reset_peak()
        self._baseline, self._peak = tracemalloc.get_traced_memory()
        _open_trackers.append(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        current, peak = tracemalloc.get_traced_memory()
        peak = max(peak, self._peak)
        _open_trackers.remove(self)
        self.snapshot = MemorySnapshot(
            current_mb=max(0.0, (current - self._baseline) / _BYTES_PER_MB),
            peak_mb=max(0.0, (peak - self._baseline) / _BYTES_PER_MB),
        )
        if not self._was_tracing:
            tracemalloc.stop()

    @property
    def peak_mb(self) -> float:
        """Peak additional memory allocated inside the block, in MB."""
        if self.snapshot is None:
            raise LifecycleError("MemoryTracker has not finished measuring yet")
        return self.snapshot.peak_mb


def peak_rss_mb() -> float | None:
    """Process-lifetime peak resident set size in MB, or ``None``.

    Read from ``getrusage`` so it costs nothing per sample — unlike
    :class:`MemoryTracker` it sees native (numpy) allocations, which is
    what a telemetry snapshot should report.  ``None`` on platforms
    without :mod:`resource`; the unit of ``ru_maxrss`` is KB on Linux
    and bytes on macOS.
    """
    try:
        import resource
        import sys
    except ImportError:  # pragma: no cover — non-POSIX platform
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    divisor = _BYTES_PER_MB if sys.platform == "darwin" else 1024.0
    return float(peak) / divisor
