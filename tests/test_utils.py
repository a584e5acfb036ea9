"""Unit tests for the utils package (rng, memory, validation)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.exceptions import BudgetError, ConfigurationError
from repro.utils import (
    MemoryTracker,
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
    check_type,
    ensure_rng,
    spawn_rng,
)
from repro.utils.validation import check_budget


class TestRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_reproducible(self):
        a = ensure_rng(42).random(5)
        b = ensure_rng(42).random(5)
        assert np.allclose(a, b)

    def test_generator_passthrough(self):
        rng = np.random.default_rng(1)
        assert ensure_rng(rng) is rng

    def test_invalid_seed_type(self):
        with pytest.raises(TypeError):
            ensure_rng("not-a-seed")

    def test_spawn_rng_independent_and_reproducible(self):
        children_a = spawn_rng(ensure_rng(7), 3)
        children_b = spawn_rng(ensure_rng(7), 3)
        for a, b in zip(children_a, children_b):
            assert np.allclose(a.random(4), b.random(4))
        draws = [c.random() for c in spawn_rng(ensure_rng(7), 3)]
        assert len(set(draws)) == 3

    def test_spawn_rng_negative_count(self):
        with pytest.raises(ValueError):
            spawn_rng(ensure_rng(0), -1)


class TestMemory:
    def test_tracker_measures_allocation(self):
        with MemoryTracker() as tracker:
            data = np.zeros(2_000_000, dtype=np.float64)  # ~16 MB
            data[0] = 1.0
        assert tracker.peak_mb > 10.0

    def test_peak_before_exit_raises(self):
        tracker = MemoryTracker()
        with pytest.raises(RuntimeError):
            _ = tracker.peak_mb

    def test_nested_trackers(self):
        # The inner tracker resets tracemalloc's peak; the outer must still
        # report the 32 MB it allocated and freed before the inner opened.
        with MemoryTracker() as outer:
            data = np.ones(4_000_000, dtype=np.float64)
            del data
            with MemoryTracker() as inner:
                _ = list(range(10000))
        assert inner.peak_mb < 30.0
        assert outer.peak_mb >= 30.0

    def test_inner_allocation_counts_toward_outer(self):
        with MemoryTracker() as outer:
            with MemoryTracker() as inner:
                data = np.ones(2_000_000, dtype=np.float64)  # ~16 MB
                del data
        assert inner.peak_mb >= 15.0
        assert outer.peak_mb >= inner.peak_mb

    def test_three_levels_keep_every_peak(self):
        with MemoryTracker() as outer:
            data = np.ones(4_000_000, dtype=np.float64)  # ~32 MB
            del data
            with MemoryTracker() as middle:
                data = np.ones(2_000_000, dtype=np.float64)  # ~16 MB
                del data
                with MemoryTracker() as inner:
                    _ = list(range(10000))
        assert inner.peak_mb < 10.0
        assert 15.0 <= middle.peak_mb < 30.0
        assert outer.peak_mb >= 30.0

    def test_sequential_trackers_are_independent(self):
        with MemoryTracker() as first:
            data = np.ones(2_000_000, dtype=np.float64)
            del data
        with MemoryTracker() as second:
            _ = list(range(10000))
        assert first.peak_mb >= 15.0
        assert second.peak_mb < 10.0

    def test_freed_memory_leaves_current_near_zero(self):
        with MemoryTracker() as tracker:
            data = np.ones(2_000_000, dtype=np.float64)
            del data
        assert tracker.snapshot is not None
        assert tracker.snapshot.current_mb < 1.0
        assert tracker.peak_mb >= 15.0

    def test_tracker_stops_only_the_tracing_it_started(self):
        assert not tracemalloc.is_tracing()
        with MemoryTracker():
            assert tracemalloc.is_tracing()
        assert not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            with MemoryTracker():
                pass
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()

    def test_exception_in_block_still_records_and_stops(self):
        tracker = MemoryTracker()
        with pytest.raises(ValueError, match="boom"):
            with tracker:
                data = np.ones(2_000_000, dtype=np.float64)
                del data
                raise ValueError("boom")
        assert tracker.peak_mb >= 15.0
        assert not tracemalloc.is_tracing()
        # The failed block is no longer open: a later tracker nests nowhere.
        with MemoryTracker() as later:
            _ = list(range(10000))
        assert later.peak_mb < 10.0


class TestValidation:
    def test_check_type(self):
        assert check_type("x", 3, int) == 3
        with pytest.raises(ConfigurationError):
            check_type("x", 3, str)

    def test_check_positive(self):
        assert check_positive("x", 2.5) == 2.5
        with pytest.raises(ConfigurationError):
            check_positive("x", 0)
        with pytest.raises(ConfigurationError):
            check_positive("x", True)

    def test_check_non_negative(self):
        assert check_non_negative("x", 0) == 0
        with pytest.raises(ConfigurationError):
            check_non_negative("x", -1)

    def test_check_probability(self):
        assert check_probability("p", 0.5) == 0.5
        with pytest.raises(ConfigurationError):
            check_probability("p", 1.5)

    def test_check_in_range(self):
        assert check_in_range("x", 1, -1, 2) == 1.0
        with pytest.raises(ConfigurationError):
            check_in_range("x", 5, -1, 2)

    def test_check_budget(self):
        assert check_budget("k", 3, 10) == 3
        with pytest.raises(ConfigurationError):
            check_budget("k", 0, 10)
        with pytest.raises(BudgetError):
            check_budget("k", 11, 10)
        with pytest.raises(ConfigurationError):
            check_budget("k", 2.5, 10)
