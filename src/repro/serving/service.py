"""Concurrent, fault-tolerant query service over influence indexes.

:class:`InfluenceService` is the process-level front-end the CLI's ``serve``
command (and any embedding application) talks to.  It manages a bounded pool
of loaded :class:`~repro.serving.index.InfluenceIndex` objects keyed by
``(graph content fingerprint, model)`` and answers three request kinds:
``select`` (warm greedy seed selection), ``evaluate`` (RIS spread estimate
of a given seed set) and ``sweep`` (k-sweep spread curve).

Serving mechanisms:

* **LRU eviction** — at most ``capacity`` indexes stay resident; touching an
  index moves it to the back of the queue and inserting beyond capacity
  drops the front (its artifact, if persisted, can simply be reopened
  later, which the memory-mapped loader makes cheap).  Eviction is safe
  under in-flight requests: they hold a reference to the index object, which
  stays fully functional after leaving the pool.
* **Direct evaluation** — each ``evaluate`` is answered on the calling
  thread from the index's inverted index
  (:meth:`~repro.serving.index.InfluenceIndex.estimate_spread`), at a cost
  proportional to the RR sets containing its seeds; concurrent evaluates
  serialise only on the index lock that growth also takes.

Fault-tolerance mechanisms (see also :mod:`repro.serving.resilience`):

* **Deadlines** — requests may carry a ``deadline_ms`` budget (or inherit
  ``default_deadline_ms``).  The same absolute deadline propagates through
  admission → build → sample → select/evaluate and raises
  :class:`~repro.exceptions.DeadlineExceeded` at the next checkpoint once
  expired, so no request outlives its budget silently.
* **Backpressure** — with ``max_queue`` set, admission control sheds
  requests beyond the in-flight limit with
  :class:`~repro.exceptions.ServiceOverloadedError` instead of queueing
  unboundedly (shed requests are never given degraded answers: overload
  must make the service cheaper, not busier).
* **Circuit breakers** — repeated build/load failures for a key trip a
  per-index :class:`~repro.serving.resilience.CircuitBreaker`; while open,
  requests fail fast with :class:`~repro.exceptions.CircuitOpenError`
  (or degrade), and the breaker half-opens on a timer to probe recovery.
* **Degraded answers** — requests that opt in (``degraded_ok=True``) get a
  cheap always-resident fallback when their index is unavailable (breaker
  open, deadline too tight, artifact corrupt): ``select`` answers with the
  top-out-degree heuristic, ``evaluate`` with the last cached spread for
  the exact seed set (or a degree-sum upper bound).  Every degraded answer
  is marked ``degraded`` with a reason — the service never returns a
  silently-wrong non-degraded answer.
* **Quarantine & rebuild** — an artifact whose payload fails its sha256
  check is renamed ``*.corrupt`` and transparently rebuilt from its own
  provenance (model, theta, engine seed), then re-persisted.
* **Hot swap** — :meth:`hot_swap` atomically replaces the resident index
  for a fingerprint with a freshly re-persisted artifact; in-flight
  requests finish on the old index object, new requests see the new one.
"""

from __future__ import annotations

import pathlib
import threading
import time
import warnings
from collections import OrderedDict
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import (
    ArtifactCorruptError,
    BudgetError,
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceeded,
    IndexArtifactError,
    ServiceOverloadedError,
)
from repro.graphs.digraph import CompiledGraph, DiGraph, Node
from repro.graphs.fingerprint import graph_fingerprint
from repro.serving import faults
from repro.serving.artifact import quarantine_artifact
from repro.serving.index import DEFAULT_BLOCK_SIZE, IndexSelection, InfluenceIndex
from repro.serving.resilience import CircuitBreaker, Deadline, RetryPolicy
from repro.telemetry.registry import MetricsRegistry

DEFAULT_THETA = 20_000

ServiceKey = Tuple[str, str]

#: Lifecycle events that are not requests: labeled children of
#: ``repro_serving_events_total``, reported by ``stats()`` under the same
#: names.
_EVENT_KEYS = (
    "index_builds",
    "index_hits",
    "index_evictions",
    "deadline_misses",
    "io_retries",
    "artifacts_quarantined",
    "artifacts_rebuilt",
    "hot_swaps",
)

#: The full (op, outcome) space for ``repro_serving_requests_total``.  Both
#: axes are closed sets, which lets the service resolve every labeled child
#: once at construction instead of paying a ``labels()`` lookup per request.
_REQUEST_OPS = ("evaluate", "select", "sweep", "request")
_REQUEST_OUTCOMES = ("ok", "degraded", "error", "shed")

#: Failures for which a degraded answer may substitute when the caller opts
#: in: the index is unavailable (breaker open, deadline expired, artifact
#: broken) but the request itself is well-formed.  Overload is deliberately
#: absent — shed requests are shed.
DEGRADABLE_ERRORS = (CircuitOpenError, DeadlineExceeded, IndexArtifactError, OSError)


class MutableGraphWarning(RuntimeWarning):
    """A mutable ``DiGraph`` was passed to a service hot path.

    The service keys requests by the graph's content fingerprint, cached on
    the immutable ``CompiledGraph``; a ``DiGraph`` is recompiled and
    re-fingerprinted on *every* call, which on a 10k-node graph costs more
    than the warm query itself.  Compile once and pass the snapshot.
    """


class EvaluateOutcome(float):
    """An ``evaluate`` result: a float, plus the degraded-answer contract.

    Subclasses ``float`` so every existing caller (arithmetic, ``round``,
    JSON encoding) keeps working; ``degraded`` / ``reason`` carry the
    fault-tolerance metadata for callers that opted into degradation.
    """

    __slots__ = ("degraded", "reason")

    def __new__(
        cls, value: float, *, degraded: bool = False, reason: Optional[str] = None
    ) -> "EvaluateOutcome":
        self = super().__new__(cls, value)
        self.degraded = degraded
        self.reason = reason
        return self


class SweepOutcome(dict):
    """A ``sweep`` result: the ``{k: spread}`` dict plus degradation flags."""

    def __init__(
        self,
        curve: Dict[int, float],
        *,
        degraded: bool = False,
        reason: Optional[str] = None,
    ) -> None:
        super().__init__(curve)
        self.degraded = degraded
        self.reason = reason


def _degrade_reason(error: BaseException) -> str:
    """A short, stable reason string for the degraded-answer contract."""
    if isinstance(error, CircuitOpenError):
        return "breaker-open"
    if isinstance(error, DeadlineExceeded):
        return f"deadline:{error.stage}"
    if isinstance(error, ArtifactCorruptError):
        return "artifact-corrupt"
    if isinstance(error, IndexArtifactError):
        return "artifact-error"
    return f"io-error:{type(error).__name__}"


class InfluenceService:
    """Thread-safe influence-query service with LRU index management.

    **Pass a ``CompiledGraph`` on hot paths.**  Requests are keyed by the
    graph's content fingerprint, which is cached on the immutable compiled
    snapshot.  A mutable :class:`DiGraph` is accepted for convenience but is
    recompiled and re-fingerprinted on *every* call (a
    :class:`MutableGraphWarning` is emitted once per service).

    Parameters
    ----------
    capacity:
        Maximum number of resident indexes; least-recently-used eviction
        beyond that.
    default_theta:
        RR sets sampled when a request needs an index that was never built
        or attached.
    engine_seed / block_size:
        Build parameters for on-demand indexes.
    max_queue:
        Admission limit: with more than this many requests in flight, new
        requests are shed with :class:`ServiceOverloadedError`.  ``None``
        (the default) disables shedding.
    default_deadline_ms:
        Budget applied to requests that do not carry their own
        ``deadline_ms``.  ``None`` disables default deadlines.
    retry_policy:
        Retry schedule for transient artifact-IO failures (``None``
        disables retries).  The default retries ``OSError`` three times
        with deterministic-jitter backoff.
    breaker_threshold / breaker_reset_seconds:
        Per-index circuit-breaker tuning: consecutive failures to trip, and
        the open-state cooldown before a half-open probe.
    eval_cache_size:
        Per-index LRU capacity of the cached-spread store that backs
        degraded ``evaluate`` answers.
    clock:
        Injectable monotonic clock used by deadlines, breakers and the
        request-latency histograms (tests drive it with virtual time).
    registry:
        The :class:`~repro.telemetry.registry.MetricsRegistry` this
        service records every serving series into; ``None`` (the default)
        creates a private one, so two services never share counters.
        The counters in ``stats()`` are views over this registry's
        ``repro_serving_requests_total`` and
        ``repro_serving_events_total`` series.
    """

    def __init__(
        self,
        capacity: int = 8,
        *,
        default_theta: int = DEFAULT_THETA,
        engine_seed: int = 0,
        block_size: int = DEFAULT_BLOCK_SIZE,
        max_queue: Optional[int] = None,
        default_deadline_ms: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = RetryPolicy(),
        breaker_threshold: int = 3,
        breaker_reset_seconds: float = 30.0,
        eval_cache_size: int = 4096,
        clock: Callable[[], float] = time.monotonic,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        if default_theta < 1:
            raise ConfigurationError(
                f"default_theta must be >= 1, got {default_theta}"
            )
        if max_queue is not None and max_queue < 1:
            raise ConfigurationError(
                f"max_queue must be >= 1 (or None to disable), got {max_queue}"
            )
        if default_deadline_ms is not None and default_deadline_ms <= 0:
            raise ConfigurationError(
                f"default_deadline_ms must be positive, got {default_deadline_ms}"
            )
        if eval_cache_size < 1:
            raise ConfigurationError(
                f"eval_cache_size must be >= 1, got {eval_cache_size}"
            )
        self.capacity = capacity
        self.default_theta = default_theta
        self.engine_seed = engine_seed
        self.block_size = block_size
        self.max_queue = max_queue
        self.default_deadline_ms = default_deadline_ms
        self.retry_policy = retry_policy
        self.breaker_threshold = breaker_threshold
        self.breaker_reset_seconds = breaker_reset_seconds
        self.eval_cache_size = eval_cache_size
        self._clock = clock
        self._lock = threading.RLock()
        self._indexes: "OrderedDict[ServiceKey, InfluenceIndex]" = OrderedDict()
        self._builds: Dict[ServiceKey, threading.Event] = {}
        self._breakers: Dict[object, CircuitBreaker] = {}
        self._inflight = 0
        self._warned_mutable = False
        # Degraded-answer state, always resident and cheap: per-fingerprint
        # degree orderings, per-key cached spreads from healthy answers.
        self._fallback_orders: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._eval_cache: Dict[ServiceKey, "OrderedDict[frozenset, float]"] = {}
        self._select_spreads: "OrderedDict[Tuple[ServiceKey, int], float]" = (
            OrderedDict()
        )
        # Metrics live on the registry; handles are resolved once here so
        # hot paths do no label lookups.  stats() reads them back.
        self.telemetry = registry if registry is not None else MetricsRegistry()
        events = self.telemetry.counter(
            "repro_serving_events_total",
            "Service lifecycle events, keyed like their stats() entries.",
            ("event",),
        )
        self._events = {key: events.labels(event=key) for key in _EVENT_KEYS}
        self._requests_total = self.telemetry.counter(
            "repro_serving_requests_total",
            "Query requests by operation and outcome.",
            ("op", "outcome"),
        )
        self._request_seconds = self.telemetry.histogram(
            "repro_serving_request_seconds",
            "End-to-end service call latency by operation.",
            ("op",),
        )
        # ``labels()`` takes the family lock per call; the (op, outcome)
        # space is tiny and fixed, so resolve every child once here and the
        # per-request path is two dict hits plus atomic increments.
        self._request_children = {
            (op, outcome): self._requests_total.labels(op=op, outcome=outcome)
            for op in _REQUEST_OPS
            for outcome in _REQUEST_OUTCOMES
        }
        self._latency_children = {
            op: self._request_seconds.labels(op=op) for op in _REQUEST_OPS
        }
        self._deadline_slack = self.telemetry.histogram(
            "repro_serving_deadline_slack_seconds",
            "Deadline budget still unspent when a deadlined request finished.",
        ).labels()
        self._inflight_gauge = self.telemetry.gauge(
            "repro_serving_inflight", "Requests currently admitted."
        ).labels()
        self._breaker_gauge = self.telemetry.gauge(
            "repro_serving_breakers", "Circuit breakers by state.", ("state",)
        )
        self._breaker_trips_gauge = self.telemetry.gauge(
            "repro_serving_breaker_trips", "Cumulative circuit-breaker trips."
        )

    # --------------------------------------------------------------- metrics

    def _bump(self, event: str) -> None:
        """Increment one lifecycle event counter."""
        self._events[event].inc()

    def _observe_request(
        self,
        op: str,
        outcome: str,
        started: float,
        deadline: Optional[Deadline],
    ) -> None:
        """Record one finished request's outcome, latency and slack."""
        self._request_children[op, outcome].inc()
        self._latency_children[op].observe(max(self._clock() - started, 0.0))
        if deadline is not None and outcome != "error":
            self._deadline_slack.observe(max(deadline.remaining(), 0.0))

    # ------------------------------------------------------------- index pool

    def _key(
        self, graph: Union[DiGraph, CompiledGraph], model: str
    ) -> Tuple[ServiceKey, CompiledGraph]:
        if isinstance(graph, DiGraph):
            if not self._warned_mutable:
                self._warned_mutable = True
                warnings.warn(
                    "a mutable DiGraph was passed to an InfluenceService hot "
                    "path; it is recompiled and re-fingerprinted on every "
                    "call — compile once (graph.compile()) and pass the "
                    "snapshot instead",
                    MutableGraphWarning,
                    stacklevel=3,
                )
            compiled = graph.compile()
        else:
            compiled = graph
        return (graph_fingerprint(compiled), model), compiled

    def _touch(self, key: ServiceKey) -> Optional[InfluenceIndex]:
        index = self._indexes.get(key)
        if index is not None:
            self._indexes.move_to_end(key)
        return index

    def _insert(self, key: ServiceKey, index: InfluenceIndex) -> None:
        self._indexes[key] = index
        self._indexes.move_to_end(key)
        while len(self._indexes) > self.capacity:
            self._indexes.popitem(last=False)
            self._bump("index_evictions")

    def attach(self, index: InfluenceIndex) -> ServiceKey:
        """Register an existing index (e.g. loaded from an artifact)."""
        key = (index.fingerprint, index.model)
        with self._lock:
            self._insert(key, index)
        return key

    # -------------------------------------------------------------- resilience

    def _breaker(self, subject: object) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(subject)
            if breaker is None:
                breaker = CircuitBreaker(
                    self.breaker_threshold,
                    self.breaker_reset_seconds,
                    clock=self._clock,
                )
                self._breakers[subject] = breaker
            return breaker

    def _deadline(self, deadline_ms: Optional[float]) -> Optional[Deadline]:
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        if deadline_ms is None:
            return None
        return Deadline.after_ms(deadline_ms, clock=self._clock)

    def _admit(self, op: str = "request") -> None:
        """Admission control: count the request in or shed it."""
        with self._lock:
            if self.max_queue is not None and self._inflight >= self.max_queue:
                self._request_children[op, "shed"].inc()
                raise ServiceOverloadedError(self._inflight, self.max_queue)
            self._inflight += 1
            inflight = self._inflight
        self._inflight_gauge.set(inflight)

    def _release(self) -> None:
        with self._lock:
            self._inflight -= 1
            inflight = self._inflight
        self._inflight_gauge.set(inflight)

    def _retry_io(self, fn, deadline: Optional[Deadline]):
        """Run an artifact-IO callable under the service's retry policy."""
        if self.retry_policy is None:
            return fn()

        def on_retry(attempt: int, error: BaseException) -> None:
            self._bump("io_retries")

        return self.retry_policy.call(fn, deadline=deadline, on_retry=on_retry)

    def _note_failure(
        self, error: BaseException, degraded_ok: bool
    ) -> Optional[str]:
        """Account a degradable failure; return the reason iff degrading."""
        if isinstance(error, DeadlineExceeded):
            self._bump("deadline_misses")
        if not degraded_ok:
            return None
        return _degrade_reason(error)

    # ---------------------------------------------------------- artifact paths

    def load_artifact(
        self,
        path: Union[str, pathlib.Path],
        graph: Union[DiGraph, CompiledGraph],
        *,
        mmap: bool = True,
        rebuild_corrupt: bool = True,
        deadline_ms: Optional[float] = None,
    ) -> InfluenceIndex:
        """Open a persisted artifact against ``graph`` and attach it.

        Transient ``OSError`` reads are retried under the service's
        :class:`RetryPolicy`; a payload-checksum failure quarantines the
        file (``*.corrupt``) and — unless ``rebuild_corrupt`` is disabled —
        rebuilds the index from the artifact's own provenance and
        re-persists it at the original path.  Repeated failures trip the
        per-path circuit breaker.
        """
        path = pathlib.Path(path)
        deadline = self._deadline(deadline_ms)
        breaker = self._breaker(("artifact", str(path)))
        breaker.guard(f"artifact {path}")
        try:
            try:
                index = self._retry_io(
                    lambda: InfluenceIndex.load(path, graph, mmap=mmap),
                    deadline,
                )
            except ArtifactCorruptError as error:
                if not rebuild_corrupt:
                    raise
                index = self._quarantine_and_rebuild(
                    path, graph, error, deadline=deadline
                )
        except BaseException as error:
            if not isinstance(error, DeadlineExceeded):
                breaker.record_failure()
            raise
        breaker.record_success()
        self.attach(index)
        return index

    def _quarantine_and_rebuild(
        self,
        path: pathlib.Path,
        graph: Union[DiGraph, CompiledGraph],
        error: ArtifactCorruptError,
        *,
        deadline: Optional[Deadline],
    ) -> InfluenceIndex:
        """Move a corrupt artifact aside and rebuild it from its provenance."""
        quarantined = quarantine_artifact(path)
        self._bump("artifacts_quarantined")
        metadata = error.metadata if isinstance(error.metadata, dict) else {}
        model = metadata.get("model")
        if not isinstance(model, str):
            raise IndexArtifactError(
                f"artifact {path} is corrupt and its provenance is unreadable "
                f"(quarantined at {quarantined}); rebuild it manually with "
                f"`repro index build`"
            )
        compiled = graph.compile() if isinstance(graph, DiGraph) else graph
        index = InfluenceIndex.build(
            compiled,
            model,
            int(metadata.get("theta", self.default_theta)),
            engine_seed=int(metadata.get("engine_seed", self.engine_seed)),
            block_size=int(metadata.get("block_size", self.block_size)),
            deadline=deadline,
        )
        index.save(path)
        self._bump("artifacts_rebuilt")
        return index

    def hot_swap(
        self,
        path: Union[str, pathlib.Path],
        graph: Union[DiGraph, CompiledGraph],
        *,
        mmap: bool = True,
    ) -> InfluenceIndex:
        """Pick up a re-persisted artifact without dropping in-flight work.

        Loads the artifact at ``path`` and atomically replaces the resident
        index for its ``(fingerprint, model)`` key.  Requests already
        holding the old index object finish on it unharmed (a replaced
        artifact's old inode stays valid while mapped); requests arriving
        after the swap are served by the new index.
        """
        index = self._retry_io(
            lambda: InfluenceIndex.load(path, graph, mmap=mmap), None
        )
        with self._lock:
            self._insert((index.fingerprint, index.model), index)
            self._bump("hot_swaps")
        return index

    # ----------------------------------------------------------- index access

    def get_index(
        self,
        graph: Union[DiGraph, CompiledGraph],
        model: str,
        *,
        theta: Optional[int] = None,
        deadline_ms: Optional[float] = None,
    ) -> InfluenceIndex:
        """Return the resident index for ``(graph, model)``, building if needed.

        Concurrent first requests for the same key build once: the first
        caller becomes the builder, later callers park on an event and pick
        up the finished index.  A ``theta`` larger than the resident index
        grows it in place.  Build failures feed the key's circuit breaker;
        while it is open this raises :class:`CircuitOpenError` immediately.
        """
        key, compiled = self._key(graph, model)
        return self._get_index(
            key, compiled, model, theta=theta, deadline=self._deadline(deadline_ms)
        )

    def _get_index(
        self,
        key: ServiceKey,
        compiled: CompiledGraph,
        model: str,
        *,
        theta: Optional[int],
        deadline: Optional[Deadline],
    ) -> InfluenceIndex:
        breaker = self._breaker(key)
        while True:
            with self._lock:
                index = self._touch(key)
                if index is not None:
                    self._bump("index_hits")
                    break
                build = self._builds.get(key)
                if build is None:
                    # Fail fast before committing to a build the breaker
                    # knows keeps failing; resident indexes stay servable.
                    breaker.guard(f"index {key[0][:12]}…/{model}")
                    if deadline is not None:
                        deadline.check("build")
                    self._builds[key] = threading.Event()
                    break
            if deadline is not None:
                if not build.wait(timeout=max(deadline.remaining(), 0.0)):
                    deadline.check("build-wait")
            else:
                build.wait()
        if index is None:
            try:
                index = InfluenceIndex.build(
                    compiled,
                    model,
                    theta if theta is not None else self.default_theta,
                    engine_seed=self.engine_seed,
                    block_size=self.block_size,
                    deadline=deadline,
                )
                breaker.record_success()
                with self._lock:
                    self._insert(key, index)
                    self._bump("index_builds")
            except BaseException as error:
                # A tight deadline says nothing about the index's health;
                # real build failures count toward the breaker.
                if not isinstance(error, DeadlineExceeded):
                    breaker.record_failure()
                raise
            finally:
                with self._lock:
                    event = self._builds.pop(key, None)
                if event is not None:
                    event.set()
        if theta is not None and theta > index.theta:
            index.grow(theta, deadline=deadline)
        return index

    # ------------------------------------------------------- degraded answers

    def _fallback_order(self, compiled: CompiledGraph, fingerprint: str) -> np.ndarray:
        """The always-resident degree-heuristic seed ordering for a graph."""
        with self._lock:
            order = self._fallback_orders.get(fingerprint)
            if order is None:
                degrees = np.diff(compiled.out_indptr)
                order = np.argsort(-degrees, kind="stable")
                self._fallback_orders[fingerprint] = order
                while len(self._fallback_orders) > max(4 * self.capacity, 32):
                    self._fallback_orders.popitem(last=False)
            else:
                self._fallback_orders.move_to_end(fingerprint)
            return order

    def _remember_spread(
        self, key: ServiceKey, indices: Tuple[int, ...], value: float
    ) -> None:
        with self._lock:
            cache = self._eval_cache.setdefault(key, OrderedDict())
            cache[frozenset(indices)] = value
            cache.move_to_end(frozenset(indices))
            while len(cache) > self.eval_cache_size:
                cache.popitem(last=False)

    def _remember_selection(self, key: ServiceKey, selection: IndexSelection) -> None:
        with self._lock:
            self._select_spreads[(key, selection.budget)] = (
                selection.estimated_spread
            )
            self._select_spreads.move_to_end((key, selection.budget))
            while len(self._select_spreads) > self.eval_cache_size:
                self._select_spreads.popitem(last=False)

    def _degraded_selection(
        self, compiled: CompiledGraph, key: ServiceKey, budget: int, reason: str
    ) -> IndexSelection:
        if budget < 0:
            raise ConfigurationError(f"budget must be non-negative, got {budget}")
        n = compiled.number_of_nodes
        if budget > n:
            raise BudgetError(budget, n)
        order = self._fallback_order(compiled, key[0])
        indices = order[:budget]
        with self._lock:
            cached = self._select_spreads.get((key, budget))
        if cached is not None:
            estimated, source = float(cached), "cached-select"
        else:
            # Crude union bound: each seed reaches at most itself plus its
            # out-neighbours.  Clearly labelled so nobody mistakes it for
            # an RIS estimate.
            degrees = np.diff(compiled.out_indptr)
            estimated = float(min(n, budget + int(degrees[indices].sum())))
            source = "degree-bound"
        return IndexSelection(
            seeds=compiled.labels_for(indices.tolist()),
            budget=budget,
            covered_fraction=estimated / n if n else 0.0,
            estimated_spread=estimated,
            theta=0,
            extras={
                "degraded": True,
                "degraded_reason": reason,
                "fallback": "degree-heuristic",
                "estimate_source": source,
            },
        )

    def _degraded_evaluate(
        self,
        compiled: CompiledGraph,
        key: ServiceKey,
        indices: Tuple[int, ...],
        reason: str,
    ) -> EvaluateOutcome:
        frozen = frozenset(indices)
        with self._lock:
            cache = self._eval_cache.get(key)
            cached = cache.get(frozen) if cache else None
        if cached is not None:
            return EvaluateOutcome(
                cached, degraded=True, reason=f"{reason}; cached-spread"
            )
        n = compiled.number_of_nodes
        degrees = np.diff(compiled.out_indptr)
        estimate = float(
            min(n, len(frozen) + int(degrees[list(frozen)].sum()))
        )
        return EvaluateOutcome(
            estimate, degraded=True, reason=f"{reason}; degree-bound"
        )

    # ---------------------------------------------------------------- queries

    def select(
        self,
        graph: Union[DiGraph, CompiledGraph],
        model: str,
        budget: int,
        *,
        theta: Optional[int] = None,
        deadline_ms: Optional[float] = None,
        degraded_ok: bool = False,
    ) -> IndexSelection:
        """Warm seed selection through the resident index.

        With ``degraded_ok``, an unavailable index degrades to the
        top-out-degree heuristic (marked in ``extras``) instead of raising.
        """
        deadline = self._deadline(deadline_ms)
        key, compiled = self._key(graph, model)
        self._admit("select")
        started = self._clock()
        outcome = "error"
        try:
            try:
                index = self._get_index(
                    key, compiled, model, theta=theta, deadline=deadline
                )
                selection = index.select(budget, deadline=deadline)
            except DEGRADABLE_ERRORS as error:
                reason = self._note_failure(error, degraded_ok)
                if reason is None:
                    raise
                degraded = self._degraded_selection(compiled, key, budget, reason)
                outcome = "degraded"
                return degraded
            self._remember_selection(key, selection)
            outcome = "ok"
            return selection
        finally:
            self._release()
            self._observe_request("select", outcome, started, deadline)

    def sweep(
        self,
        graph: Union[DiGraph, CompiledGraph],
        model: str,
        seed_counts: Sequence[int],
        *,
        theta: Optional[int] = None,
        deadline_ms: Optional[float] = None,
        degraded_ok: bool = False,
    ) -> SweepOutcome:
        """Warm k-sweep spread curve through the resident index."""
        deadline = self._deadline(deadline_ms)
        key, compiled = self._key(graph, model)
        self._admit("sweep")
        started = self._clock()
        outcome = "error"
        try:
            try:
                index = self._get_index(
                    key, compiled, model, theta=theta, deadline=deadline
                )
                if deadline is not None:
                    deadline.check("sweep")
                curve = SweepOutcome(index.spread_curve(seed_counts))
                outcome = "ok"
                return curve
            except DEGRADABLE_ERRORS as error:
                reason = self._note_failure(error, degraded_ok)
                if reason is None:
                    raise
                counts = [int(k) for k in seed_counts]
                if any(k < 0 for k in counts):
                    raise ConfigurationError("seed counts must be non-negative")
                degraded_curve = {}
                for k in counts:
                    selection = self._degraded_selection(compiled, key, k, reason)
                    degraded_curve[k] = selection.estimated_spread
                outcome = "degraded"
                return SweepOutcome(degraded_curve, degraded=True, reason=reason)
        finally:
            self._release()
            self._observe_request("sweep", outcome, started, deadline)

    def evaluate(
        self,
        graph: Union[DiGraph, CompiledGraph],
        model: str,
        seeds: Sequence[Node],
        *,
        theta: Optional[int] = None,
        deadline_ms: Optional[float] = None,
        degraded_ok: bool = False,
    ) -> EvaluateOutcome:
        """RIS spread estimate of ``seeds`` from the resident index.

        The deadline is checked once before the index query, which runs on
        the calling thread and costs O(RR sets containing a seed).

        Returns an :class:`EvaluateOutcome` (a ``float`` subclass).  With
        ``degraded_ok``, an unavailable index degrades to the cached spread
        for this exact seed set (or a degree bound), marked in the outcome.
        """
        deadline = self._deadline(deadline_ms)
        key, compiled = self._key(graph, model)
        self._admit("evaluate")
        started = self._clock()
        outcome = "error"
        try:
            try:
                index = self._get_index(
                    key, compiled, model, theta=theta, deadline=deadline
                )
                indices = tuple(index._indices_for(seeds))
                if deadline is not None:
                    deadline.check("evaluate")
                faults.trigger(faults.SITE_EVALUATE, context=f"seeds={len(indices)}")
                result = index._estimate_indices(indices)
            except DEGRADABLE_ERRORS as error:
                reason = self._note_failure(error, degraded_ok)
                if reason is None:
                    raise
                try:
                    indices = tuple(compiled.indices_for(seeds))
                except KeyError as bad_seed:
                    raise ConfigurationError(
                        f"seed {bad_seed.args[0]!r} is not a node of the "
                        f"indexed graph"
                    )
                degraded = self._degraded_evaluate(compiled, key, indices, reason)
                outcome = "degraded"
                return degraded
            self._remember_spread(key, indices, result)
            outcome = "ok"
            return EvaluateOutcome(result)
        finally:
            self._release()
            self._observe_request("evaluate", outcome, started, deadline)

    # -------------------------------------------------------------- telemetry

    def stats(self) -> Dict[str, object]:
        """A consistent snapshot of service counters and resident indexes.

        The whole snapshot — counters, resident-index rows, breaker
        states and trips, in-flight depth — is taken inside one critical
        section, so the numbers are mutually consistent even under
        concurrent traffic; every nested structure is freshly built, so
        callers can mutate the result without touching live service
        state.  Breaker and queue-depth gauges are re-sampled here, which
        is why metrics exporters call ``stats()`` before each scrape.

        The counters are views over the service's
        :class:`~repro.telemetry.registry.MetricsRegistry`.  The lifecycle
        keys read ``repro_serving_events_total``; the request keys are sums
        of ``repro_serving_requests_total{op,outcome}`` children:

        * ``select_requests`` / ``evaluate_requests`` — admitted requests
          of that op (outcomes ``ok`` + ``degraded`` + ``error``);
        * ``evaluate_batches`` — evaluates answered from an index (``ok``);
        * ``requests_shed`` / ``degraded_answers`` — ``shed`` /
          ``degraded`` outcomes summed over every op.
        """
        with self._lock:
            resident = [
                {
                    "model": index.model,
                    "theta": index.theta,
                    "nodes": index.graph.number_of_nodes,
                    "memory_mapped": index.memory_mapped,
                    "fingerprint": key[0][:12],
                }
                for key, index in self._indexes.items()
            ]
            snapshot: Dict[str, object] = {
                key: int(self._events[key].value) for key in _EVENT_KEYS
            }
            requests = {
                pair: int(child.value)
                for pair, child in self._request_children.items()
            }
            # Breaker state/trips are read while the service lock pins the
            # breaker set (service -> breaker follows the lock hierarchy);
            # previously they were read after release, so a concurrently
            # trip-and-reset could produce impossible combinations.
            states = [breaker.state for breaker in self._breakers.values()]
            trips = sum(breaker.trips for breaker in self._breakers.values())
            inflight = self._inflight
        admitted = ("ok", "degraded", "error")
        for op in ("select", "evaluate"):
            snapshot[f"{op}_requests"] = sum(requests[op, o] for o in admitted)
        snapshot["evaluate_batches"] = requests["evaluate", "ok"]
        snapshot["requests_shed"] = sum(requests[op, "shed"] for op in _REQUEST_OPS)
        snapshot["degraded_answers"] = sum(
            requests[op, "degraded"] for op in _REQUEST_OPS
        )
        snapshot["resident_indexes"] = resident
        snapshot["capacity"] = self.capacity
        snapshot["inflight"] = inflight
        snapshot["max_queue"] = self.max_queue
        counts = {
            "total": len(states),
            "open": states.count(CircuitBreaker.OPEN),
            "half_open": states.count(CircuitBreaker.HALF_OPEN),
            "trips": trips,
        }
        snapshot["breakers"] = counts
        closed = counts["total"] - counts["open"] - counts["half_open"]
        self._breaker_gauge.labels(state="closed").set(closed)
        self._breaker_gauge.labels(state="open").set(counts["open"])
        self._breaker_gauge.labels(state="half_open").set(counts["half_open"])
        self._breaker_trips_gauge.set(trips)
        self._inflight_gauge.set(inflight)
        return snapshot

    def __len__(self) -> int:
        with self._lock:
            return len(self._indexes)

    def __repr__(self) -> str:
        return (
            f"<InfluenceService {len(self)}/{self.capacity} indexes resident>"
        )
