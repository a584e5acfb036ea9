"""Deterministic fault injection for the serving layer.

A :class:`FaultPlan` is a replayable chaos schedule: a list of
:class:`FaultRule` objects, each bound to a named injection *site* inside
the serving stack.  The instrumented code calls :func:`trigger` at those
sites; when no plan is installed the call is a single attribute read, so
production paths pay nothing.

**Determinism.**  Every site keeps an invocation counter inside the plan.
A rule's decision to fire is a pure function of ``(plan seed, site,
counter)`` — the probability coin comes from
:func:`repro.serving.resilience.deterministic_jitter`, the same SplitMix64
counter scheme the RR sampler uses — so a chaos run replays bit-for-bit
given the same per-site invocation order, regardless of wall clock.  The
plan records every fired fault in :attr:`FaultPlan.fired` so tests can
assert the schedule itself.

Injection sites (constants below):

========================  =====================================================
``artifact.read``         opening/parsing an artifact file (``raise`` a
                          transient ``OSError``, or ``sleep`` for a slow disk)
``artifact.payload``      payload checksum verification (``corrupt`` makes the
                          loader treat the bytes as corrupt — exercising
                          quarantine + rebuild without destroying the file)
``index.build``           each sampler block of a build/grow (``sleep`` for a
                          build stall, ``raise`` for a build failure)
``service.evaluate``      each service ``evaluate``, just before its index
                          query (``raise`` fails that one request)
``runtime.worker``        a supervised worker, before executing each block
                          (``kill`` hard-exits the process, simulating an
                          OOM-kill or segfault; ``raise`` crashes it with a
                          traceback; ``sleep`` models a straggler)
``runtime.heartbeat``     the worker liveness path (``hang`` silently wedges
                          the worker — heartbeats stop and the block never
                          finishes — exercising timeout + SIGKILL + replay)
``runtime.checkpoint``    each checkpoint manifest write (``corrupt`` makes
                          the writer persist garbage so resume must detect
                          and discard it; ``raise`` fails the write)
========================  =====================================================

Install a plan process-wide with :func:`install` / :func:`uninstall`, or
scoped with the :func:`fault_injection` context manager::

    plan = FaultPlan([
        FaultRule(SITE_ARTIFACT_READ, "raise", times=2),
        FaultRule(SITE_EVALUATE, "raise", after=10, times=1),
    ], seed=42)
    with fault_injection(plan):
        run_chaos_workload()
    assert plan.fired  # the replayable record of what actually fired
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.exceptions import ConfigurationError
from repro.serving.resilience import deterministic_jitter

__all__ = [
    "SITE_ARTIFACT_PAYLOAD",
    "SITE_ARTIFACT_READ",
    "SITE_BUILD",
    "SITE_EVALUATE",
    "SITE_RUNTIME_CHECKPOINT",
    "SITE_RUNTIME_HEARTBEAT",
    "SITE_RUNTIME_WORKER",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "fault_injection",
    "install",
    "trigger",
    "uninstall",
]

SITE_ARTIFACT_READ = "artifact.read"
SITE_ARTIFACT_PAYLOAD = "artifact.payload"
SITE_BUILD = "index.build"
SITE_EVALUATE = "service.evaluate"
SITE_RUNTIME_WORKER = "runtime.worker"
SITE_RUNTIME_HEARTBEAT = "runtime.heartbeat"
SITE_RUNTIME_CHECKPOINT = "runtime.checkpoint"

KNOWN_SITES = frozenset(
    (
        SITE_ARTIFACT_READ,
        SITE_ARTIFACT_PAYLOAD,
        SITE_BUILD,
        SITE_EVALUATE,
        SITE_RUNTIME_WORKER,
        SITE_RUNTIME_HEARTBEAT,
        SITE_RUNTIME_CHECKPOINT,
    )
)

#: Actions a rule may take when it fires.  ``raise``/``sleep``/``corrupt``
#: are interpreted by :meth:`FaultPlan.trigger` itself; ``kill`` and
#: ``hang`` are *returned as markers* (like :data:`CORRUPT`) because only
#: the supervised-worker call sites may act on them — hard-exiting or
#: wedging an arbitrary process that merely installed a plan would be a
#: chaos tool destroying its own harness.
ACTIONS = frozenset(("raise", "sleep", "corrupt", "kill", "hang"))

#: Marker returned by :func:`trigger` when a ``corrupt`` rule fired — the
#: call site (checksum verification) interprets it as "the bytes are bad".
CORRUPT = "corrupt"

#: Marker returned when a ``kill`` rule fired — a supervised worker
#: interprets it by hard-exiting (``os._exit``), simulating an OOM-kill.
KILL = "kill"

#: Marker returned when a ``hang`` rule fired — a supervised worker
#: interprets it by silently wedging (heartbeats stop, the block never
#: completes) until the supervisor's liveness timeout SIGKILLs it.
HANG = "hang"


class InjectedFault(OSError):
    """Default exception raised by a ``raise`` rule.

    An ``OSError`` subclass so the serving layer's transient-IO retry path
    treats injected read failures exactly like real ones.
    """


@dataclass
class FaultRule:
    """One injectable failure: *where*, *what*, and *when*.

    ``after`` skips the first ``after`` invocations of the site; ``times``
    caps how often the rule fires (``None`` = forever); ``probability``
    draws a deterministic coin keyed by the plan seed and the site counter.
    """

    site: str
    action: str
    times: Optional[int] = None
    after: int = 0
    probability: float = 1.0
    delay: float = 0.05
    error: Type[BaseException] = InjectedFault
    message: Optional[str] = None

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ConfigurationError(
                f"fault action must be one of {sorted(ACTIONS)}, "
                f"got {self.action!r}"
            )
        if self.site not in KNOWN_SITES:
            raise ConfigurationError(
                f"unknown fault site {self.site!r}; known sites: "
                f"{sorted(KNOWN_SITES)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.times is not None and self.times < 1:
            raise ConfigurationError(f"times must be >= 1, got {self.times}")
        if self.after < 0:
            raise ConfigurationError(f"after must be >= 0, got {self.after}")
        if self.delay < 0:
            raise ConfigurationError(f"delay must be >= 0, got {self.delay}")


class FaultPlan:
    """A replayable chaos schedule over the serving layer's injection sites.

    Thread-safe: the per-site counters and the ``fired`` log are updated
    under a lock, so concurrent requests observe a single global invocation
    order per site (which *is* the replay key).
    """

    def __init__(
        self,
        rules: Sequence[FaultRule],
        *,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.rules = list(rules)
        self.seed = int(seed)
        self._sleep = sleep
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._rule_fires: Dict[int, int] = {}
        #: Every fault that fired: ``(site, invocation, action)`` tuples, in
        #: firing order — the assertable record of a chaos run.
        self.fired: List[Tuple[str, int, str]] = []

    def describe(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "rules": [
                {
                    "site": rule.site,
                    "action": rule.action,
                    "times": rule.times,
                    "after": rule.after,
                    "probability": rule.probability,
                }
                for rule in self.rules
            ],
            "fired": list(self.fired),
        }

    def _decide(self, site: str) -> Optional[FaultRule]:
        """Pick the rule (if any) firing at this invocation of ``site``."""
        with self._lock:
            invocation = self._counters.get(site, 0)
            self._counters[site] = invocation + 1
            for position, rule in enumerate(self.rules):
                if rule.site != site or invocation < rule.after:
                    continue
                if (
                    rule.times is not None
                    and self._rule_fires.get(position, 0) >= rule.times
                ):
                    continue
                if rule.probability < 1.0:
                    # hash() is randomised per process for str; key the coin
                    # by a stable site digest so replay crosses processes.
                    site_key = sum(site.encode("utf-8"))
                    coin = deterministic_jitter(
                        self.seed ^ (site_key << 8), invocation
                    )
                    if coin >= rule.probability:
                        continue
                self._rule_fires[position] = self._rule_fires.get(position, 0) + 1
                self.fired.append((site, invocation, rule.action))
                return rule
            return None

    def trigger(self, site: str, *, context: Optional[str] = None) -> Optional[str]:
        """Fire whatever rule is due at ``site``; see module docstring.

        Returns :data:`CORRUPT` when a ``corrupt`` rule fired (the caller
        acts on it) and likewise :data:`KILL`/:data:`HANG` for the
        worker-interpreted actions, ``None`` otherwise; ``raise`` rules
        raise, ``sleep`` rules block for ``rule.delay`` seconds then
        return ``None``.
        """
        rule = self._decide(site)
        if rule is None:
            return None
        if rule.action == "sleep":
            self._sleep(rule.delay)
            return None
        if rule.action in (CORRUPT, KILL, HANG):
            return rule.action
        message = rule.message or (
            f"injected fault at {site}"
            + (f" ({context})" if context else "")
        )
        raise rule.error(message)

    def __repr__(self) -> str:
        return (
            f"<FaultPlan seed={self.seed} rules={len(self.rules)} "
            f"fired={len(self.fired)}>"
        )


# ------------------------------------------------------------- global hook

_active_plan: Optional[FaultPlan] = None
_install_lock = threading.Lock()


def install(plan: FaultPlan) -> None:
    """Install ``plan`` process-wide (replacing any previous plan)."""
    global _active_plan
    with _install_lock:
        _active_plan = plan


def uninstall() -> None:
    """Remove the active plan; sites become no-ops again."""
    global _active_plan
    with _install_lock:
        _active_plan = None


def active_plan() -> Optional[FaultPlan]:
    return _active_plan


class fault_injection:
    """Context manager scoping a plan: ``with fault_injection(plan): ...``."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan

    def __enter__(self) -> FaultPlan:
        install(self.plan)
        return self.plan

    def __exit__(self, *exc_info: object) -> None:
        uninstall()


def trigger(site: str, *, context: Optional[str] = None) -> Optional[str]:
    """The hook instrumented code calls: no-op unless a plan is installed."""
    plan = _active_plan
    if plan is None:
        return None
    return plan.trigger(site, context=context)
