"""Thread-safe metrics primitives: counters, gauges and histograms.

A :class:`MetricsRegistry` owns a flat namespace of metric *families*.  A
family is a named :class:`Counter`, :class:`Gauge` or :class:`Histogram`;
with ``labelnames`` it fans out into labeled children
(``requests.labels(op="evaluate", outcome="degraded").inc()``), without
them the family itself carries the single sample.  Registration is
get-or-create and idempotent, so instrumentation sites can fetch handles
lazily without coordinating; re-registering a name with a different type
or label set raises :class:`~repro.exceptions.ConfigurationError`.

**Naming.**  Metric names are ``snake_case`` with a mandatory ``repro_``
prefix (enforced here at runtime and by lint rule REP009 statically), so
every series this package emits is recognisable in a shared Prometheus.

**The process-global default registry.**  Engine-level instrumentation
(samplers, Monte Carlo blocks, score rescoring) records to the registry
returned by :func:`default_registry`.  Metrics are always on: the
default is always a :class:`MetricsRegistry`, so an instrumentation site
is one unconditional ``default_registry().counter(...).inc()``.  Tests
isolate their counters with :func:`use_registry`.

Histograms keep fixed log-spaced latency buckets *plus* an exact running
``count``/``sum``, so p50/p95/p99 are derivable (to bucket resolution)
from any snapshot without storing individual observations.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.exceptions import ConfigurationError

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "METRIC_NAME_PATTERN",
    "MetricsRegistry",
    "default_registry",
    "reset_default_registry",
    "set_default_registry",
    "use_registry",
]

#: Runtime twin of lint rule REP009: snake_case with the project prefix.
METRIC_NAME_PATTERN = re.compile(r"^repro_[a-z][a-z0-9_]*$")
_LABEL_NAME_PATTERN = re.compile(r"^[a-z][a-z0-9_]*$")

#: Log-spaced 1-2.5-5 decades from 0.1 ms to 50 s: wide enough for a block
#: build, fine enough that a p99 derived from the buckets lands within one
#: bucket of the exact value for serving-shaped latency distributions.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    round(base * 10.0**exponent, 10)
    for exponent in range(-4, 2)
    for base in (1.0, 2.5, 5.0)
)


def _validate_name(name: str) -> str:
    if not isinstance(name, str) or not METRIC_NAME_PATTERN.match(name):
        raise ConfigurationError(
            f"metric name {name!r} must be snake_case with a 'repro_' "
            f"prefix (pattern {METRIC_NAME_PATTERN.pattern})"
        )
    return name


def _validate_labelnames(labelnames: Sequence[str]) -> Tuple[str, ...]:
    names = tuple(labelnames)
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate label names in {names!r}")
    for label in names:
        if not isinstance(label, str) or not _LABEL_NAME_PATTERN.match(label):
            raise ConfigurationError(
                f"label name {label!r} must match "
                f"{_LABEL_NAME_PATTERN.pattern}"
            )
        if label == "le":
            raise ConfigurationError(
                "label name 'le' is reserved for histogram buckets"
            )
    return names


class _Child:
    """Base class for one labeled sample; shares its family's lock."""

    __slots__ = ("_lock",)

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock


class CounterChild(_Child):
    """A monotonically increasing sample."""

    __slots__ = ("_value",)

    def __init__(self, lock: threading.Lock) -> None:
        super().__init__(lock)
        self._value = 0.0

    def inc(self, amount: Union[int, float] = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counters only go up; cannot inc() by {amount!r}"
            )
        with self._lock:
            self._value += float(amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class GaugeChild(_Child):
    """A sample that can go up and down (queue depth, breaker state)."""

    __slots__ = ("_value",)

    def __init__(self, lock: threading.Lock) -> None:
        super().__init__(lock)
        self._value = 0.0

    def set(self, value: Union[int, float]) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: Union[int, float] = 1.0) -> None:
        with self._lock:
            self._value += float(amount)

    def dec(self, amount: Union[int, float] = 1.0) -> None:
        with self._lock:
            self._value -= float(amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class HistogramChild(_Child):
    """Bucketed observations plus exact running count and sum."""

    __slots__ = ("_bounds", "_counts", "_sum", "_count")

    def __init__(self, lock: threading.Lock, bounds: Tuple[float, ...]) -> None:
        super().__init__(lock)
        self._bounds = bounds
        # One slot per finite bound plus the implicit +Inf bucket.
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: Union[int, float]) -> None:
        value = float(value)
        with self._lock:
            self._counts[bisect_left(self._bounds, value)] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, ending at ``+Inf``."""
        with self._lock:
            counts = list(self._counts)
        cumulative = 0
        pairs: List[Tuple[float, int]] = []
        for bound, count in zip(self._bounds + (math.inf,), counts):
            cumulative += count
            pairs.append((bound, cumulative))
        return pairs

    def quantile(self, q: float) -> float:
        """Derive the q-quantile from the buckets (bucket resolution).

        Linear interpolation inside the containing bucket; observations in
        the ``+Inf`` bucket report the largest finite bound, the best
        statement the fixed buckets can make.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            counts = list(self._counts)
            total = self._count
        if total == 0:
            return 0.0
        rank = q * total
        cumulative = 0
        for position, count in enumerate(counts):
            if cumulative + count >= rank and count > 0:
                lower = self._bounds[position - 1] if position > 0 else 0.0
                if position >= len(self._bounds):
                    return self._bounds[-1]
                upper = self._bounds[position]
                fraction = (rank - cumulative) / count
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
            cumulative += count
        return self._bounds[-1]


class MetricFamily:
    """A named metric with optional label dimensions."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        documentation: str = "",
        labelnames: Sequence[str] = (),
    ) -> None:
        self.name = _validate_name(name)
        self.documentation = documentation
        self.labelnames = _validate_labelnames(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], _Child] = {}
        if not self.labelnames:
            self._children[()] = self._new_child()

    def _new_child(self) -> _Child:
        raise NotImplementedError

    def labels(self, **labelvalues: Union[str, int, float]) -> _Child:
        if set(labelvalues) != set(self.labelnames):
            raise ConfigurationError(
                f"metric {self.name!r} takes labels {list(self.labelnames)}, "
                f"got {sorted(labelvalues)}"
            )
        key = tuple(str(labelvalues[label]) for label in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._new_child()
        return child

    def _unlabeled(self) -> _Child:
        if self.labelnames:
            raise ConfigurationError(
                f"metric {self.name!r} is labeled by "
                f"{list(self.labelnames)}; use .labels(...)"
            )
        return self._children[()]

    def children(self) -> List[Tuple[Tuple[str, ...], _Child]]:
        """``(labelvalues, child)`` pairs in sorted label order."""
        with self._lock:
            return sorted(self._children.items())


class Counter(MetricFamily):
    """A monotonically increasing metric family."""

    kind = "counter"

    def _new_child(self) -> CounterChild:
        return CounterChild(self._lock)

    def inc(self, amount: Union[int, float] = 1.0) -> None:
        child = self._unlabeled()
        assert isinstance(child, CounterChild)
        child.inc(amount)

    @property
    def value(self) -> float:
        child = self._unlabeled()
        assert isinstance(child, CounterChild)
        return child.value


class Gauge(MetricFamily):
    """A metric family that can go up and down."""

    kind = "gauge"

    def _new_child(self) -> GaugeChild:
        return GaugeChild(self._lock)

    def set(self, value: Union[int, float]) -> None:
        child = self._unlabeled()
        assert isinstance(child, GaugeChild)
        child.set(value)

    def inc(self, amount: Union[int, float] = 1.0) -> None:
        child = self._unlabeled()
        assert isinstance(child, GaugeChild)
        child.inc(amount)

    def dec(self, amount: Union[int, float] = 1.0) -> None:
        child = self._unlabeled()
        assert isinstance(child, GaugeChild)
        child.dec(amount)

    @property
    def value(self) -> float:
        child = self._unlabeled()
        assert isinstance(child, GaugeChild)
        return child.value


class Histogram(MetricFamily):
    """A bucketed metric family with exact count/sum per child."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        documentation: str = "",
        labelnames: Sequence[str] = (),
        *,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        bounds = tuple(
            float(bound)
            for bound in (buckets if buckets is not None else DEFAULT_LATENCY_BUCKETS)
        )
        if not bounds:
            raise ConfigurationError("a histogram needs at least one bucket")
        if any(not math.isfinite(bound) for bound in bounds):
            raise ConfigurationError(
                "histogram buckets must be finite (+Inf is implicit)"
            )
        if any(upper <= lower for lower, upper in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                f"histogram buckets must be strictly increasing, got {bounds}"
            )
        self.buckets = bounds
        super().__init__(name, documentation, labelnames)

    def _new_child(self) -> HistogramChild:
        return HistogramChild(self._lock, self.buckets)

    def observe(self, value: Union[int, float]) -> None:
        child = self._unlabeled()
        assert isinstance(child, HistogramChild)
        child.observe(value)

    def quantile(self, q: float) -> float:
        child = self._unlabeled()
        assert isinstance(child, HistogramChild)
        return child.quantile(q)

    @property
    def count(self) -> int:
        child = self._unlabeled()
        assert isinstance(child, HistogramChild)
        return child.count

    @property
    def sum(self) -> float:
        child = self._unlabeled()
        assert isinstance(child, HistogramChild)
        return child.sum


class MetricsRegistry:
    """A thread-safe, get-or-create namespace of metric families."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, MetricFamily] = {}

    # ------------------------------------------------------------ creation

    def counter(
        self, name: str, documentation: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        metric = self._get_or_create(Counter, name, documentation, labelnames)
        assert isinstance(metric, Counter)
        return metric

    def gauge(
        self, name: str, documentation: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        metric = self._get_or_create(Gauge, name, documentation, labelnames)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        documentation: str = "",
        labelnames: Sequence[str] = (),
        *,
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        metric = self._get_or_create(
            Histogram, name, documentation, labelnames, buckets=buckets
        )
        assert isinstance(metric, Histogram)
        return metric

    def _get_or_create(
        self,
        cls: Type[MetricFamily],
        name: str,
        documentation: str,
        labelnames: Sequence[str],
        **kwargs: object,
    ) -> MetricFamily:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ConfigurationError(
                        f"metric {name!r} is already registered as a "
                        f"{existing.kind}, not a {cls.kind}"
                    )
                if existing.labelnames != tuple(labelnames):
                    raise ConfigurationError(
                        f"metric {name!r} is already registered with labels "
                        f"{list(existing.labelnames)}, not {list(labelnames)}"
                    )
                return existing
            metric = cls(name, documentation, labelnames, **kwargs)  # type: ignore[arg-type]
            self._metrics[name] = metric
            return metric

    # ----------------------------------------------------------- inspection

    def get(self, name: str) -> Optional[MetricFamily]:
        with self._lock:
            return self._metrics.get(name)

    def collect(self) -> List[MetricFamily]:
        """All families, sorted by name (stable export order)."""
        with self._lock:
            return sorted(self._metrics.values(), key=lambda m: m.name)

    def snapshot(self) -> Dict[str, object]:
        """A JSON-able snapshot of every family and sample.

        Histogram samples carry cumulative ``buckets`` (with an explicit
        ``"+Inf"``), exact ``count``/``sum`` and derived p50/p95/p99.
        """
        metrics: Dict[str, object] = {}
        for family in self.collect():
            samples: List[Dict[str, object]] = []
            for labelvalues, child in family.children():
                labels = dict(zip(family.labelnames, labelvalues))
                if isinstance(child, HistogramChild):
                    buckets = [
                        ["+Inf" if math.isinf(bound) else repr(bound), count]
                        for bound, count in child.bucket_counts()
                    ]
                    samples.append(
                        {
                            "labels": labels,
                            "count": child.count,
                            "sum": child.sum,
                            "buckets": buckets,
                            "p50": child.quantile(0.50),
                            "p95": child.quantile(0.95),
                            "p99": child.quantile(0.99),
                        }
                    )
                else:
                    assert isinstance(child, (CounterChild, GaugeChild))
                    samples.append({"labels": labels, "value": child.value})
            metrics[family.name] = {
                "type": family.kind,
                "help": family.documentation,
                "labelnames": list(family.labelnames),
                "samples": samples,
            }
        return {"schema": "repro/metrics@1", "metrics": metrics}

    def reset(self) -> None:
        """Drop every registered family (test isolation)."""
        with self._lock:
            self._metrics.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __repr__(self) -> str:
        return f"<MetricsRegistry {len(self)} families>"


# ------------------------------------------------------- process-global hook
#
# Always a registry: instrumented code calls
# ``default_registry().counter(...).inc()`` at the event without a guard.
# Swapping (``use_registry``) only changes *where* samples land.

_default: MetricsRegistry = MetricsRegistry()
_swap_lock = threading.Lock()


def default_registry() -> MetricsRegistry:
    """The process-global registry the engines record into."""
    return _default


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry; returns the previous one.

    Metrics cannot be turned off: anything but a
    :class:`MetricsRegistry` raises
    :class:`~repro.exceptions.ConfigurationError`.
    """
    global _default
    if not isinstance(registry, MetricsRegistry):
        raise ConfigurationError(
            f"the default registry must be a MetricsRegistry, got "
            f"{registry!r}; metrics are always on"
        )
    with _swap_lock:
        previous = _default
        _default = registry
    return previous


def reset_default_registry() -> MetricsRegistry:
    """Install and return a fresh process-global registry."""
    registry = MetricsRegistry()
    set_default_registry(registry)
    return registry


class use_registry:
    """Context manager scoping the process-global registry (tests).

    ::

        with use_registry(MetricsRegistry()) as registry:
            run_instrumented_code()
            assert registry.get("repro_sketch_rr_sets_total") is not None
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._previous: Optional[MetricsRegistry] = None

    def __enter__(self) -> MetricsRegistry:
        self._previous = set_default_registry(self.registry)
        return self.registry

    def __exit__(self, *exc_info: object) -> None:
        assert self._previous is not None
        set_default_registry(self._previous)
