"""Shared utilities: RNG management, memory tracking and validation."""

from repro.utils.rng import RandomState, ensure_rng, spawn_rng
from repro.utils.memory import MemoryTracker, peak_rss_mb
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
    check_type,
)

__all__ = [
    "RandomState",
    "ensure_rng",
    "spawn_rng",
    "MemoryTracker",
    "peak_rss_mb",
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "check_type",
]
