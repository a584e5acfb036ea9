"""Persistent influence index + concurrent, fault-tolerant serving layer.

Every CLI call used to re-sample RR sketches or re-run Monte-Carlo blocks
from scratch.  This package persists the expensive part — the RR-sketch
collection — and serves many queries over the materialized artifact:

* :mod:`repro.serving.artifact` — single-file ``.npz`` artifact store with
  provenance metadata (model, engine seed, theta, graph content
  fingerprint, library version, payload sha256) and memory-mapped reload;
  corrupt payloads are detected on load and quarantined as ``*.corrupt``.
* :class:`~repro.serving.index.InfluenceIndex` — warm ``select(k)``,
  k-sweep spread curves and seed-set spread estimates over a stored
  collection, plus bit-for-bit deterministic incremental theta growth.
* :class:`~repro.serving.service.InfluenceService` — a thread-safe
  front-end keyed by ``(graph fingerprint, model)`` with LRU eviction,
  deadlines, admission control with load shedding,
  per-index circuit breakers, degraded answers and artifact hot swap.
* :mod:`repro.serving.resilience` — the deadline / retry / breaker
  primitives, and :mod:`repro.serving.faults` — the deterministic
  fault-injection harness used by the chaos tests and benchmark.
"""

from repro.serving.artifact import (
    ARTIFACT_FORMAT,
    ARTIFACT_VERSION,
    IndexArtifact,
    build_metadata,
    load_index_artifact,
    payload_checksum,
    quarantine_artifact,
    save_index_artifact,
)
from repro.serving.faults import FaultPlan, FaultRule, fault_injection
from repro.serving.index import IndexSelection, InfluenceIndex
from repro.serving.resilience import CircuitBreaker, Deadline, RetryPolicy
from repro.serving.service import (
    EvaluateOutcome,
    InfluenceService,
    MutableGraphWarning,
    SweepOutcome,
)

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "CircuitBreaker",
    "Deadline",
    "EvaluateOutcome",
    "FaultPlan",
    "FaultRule",
    "IndexArtifact",
    "IndexSelection",
    "InfluenceIndex",
    "InfluenceService",
    "MutableGraphWarning",
    "RetryPolicy",
    "SweepOutcome",
    "build_metadata",
    "fault_injection",
    "load_index_artifact",
    "payload_checksum",
    "quarantine_artifact",
    "save_index_artifact",
]
