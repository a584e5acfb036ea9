"""Supervised process-pool executor with deterministic block replay.

:class:`SupervisedPool` fans independent task blocks out to worker
processes and *supervises* them: per-worker heartbeats, liveness timeouts,
crash detection, bounded respawns and an in-process fallback when the
respawn budget is gone.  It exists because the compute layer's parallelism
contract is stronger than what a bare ``multiprocessing.Pool`` offers —
a worker OOM-kill must cost one replayed block, never a hung or silently
truncated build.

**Supervision model.**  The parent assigns exactly one block to one worker
at a time over a per-worker pipe; results, errors and heartbeats return on
the same pipe.  All bookkeeping (assignment table, completed set, respawn
budget) is parent-side, so the failure modes are all observable:

* *crash* — the worker process dies (pipe EOF / ``is_alive()`` false);
  its assigned block is re-queued and a replacement is spawned while the
  respawn budget lasts.
* *wedge* — the process is alive but nothing (heartbeat or result) has
  arrived within the liveness timeout; the worker is SIGKILLed and handled
  as a crash.
* *task failure* — the task raised a real exception; it is reported, not
  retried: the replay invariant below means a retry would fail the same
  way, so the pool raises :class:`~repro.exceptions.TaskFailedError`.

**Replay invariant.**  A task's payload must fully determine its result —
the RR sampler's counter-based SplitMix64 token blocks and the Monte-Carlo
engine's pre-drawn ``(seed, count)`` block plans both satisfy it — so a
block re-executed by another worker, a respawn, or the in-process fallback
is bit-for-bit identical to its first execution, and results are handed
back in block order regardless of scheduling.

Fault injection (:mod:`repro.serving.faults`) is wired into the worker
loop: ``runtime.worker`` fires before each block (``kill`` hard-exits the
process) and ``runtime.heartbeat`` can ``hang`` the worker silently.
Initial workers inherit the runtime rules of the plan installed in the
parent; respawned replacements run clean — a real segfault does not
deterministically recur, and a respawn loop must terminate.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import multiprocessing.process
import os
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import (
    ConfigurationError,
    ExecutionInterrupted,
    TaskFailedError,
    WorkerCrashError,
)
from repro.serving import faults
from repro.serving.resilience import Deadline
from repro.telemetry.registry import default_registry

__all__ = [
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_HEARTBEAT_TIMEOUT",
    "DEFAULT_MAX_RESPAWNS",
    "PoolStats",
    "SupervisedPool",
]

#: Seconds between worker heartbeats while a block is executing.
DEFAULT_HEARTBEAT_INTERVAL = 0.25

#: Seconds of silence (no heartbeat, no result) after which an assigned
#: worker is declared wedged and SIGKILLed.  Deliberately much larger than
#: one block's work; tests shrink it to exercise the wedge path quickly.
DEFAULT_HEARTBEAT_TIMEOUT = 10.0

#: Total worker deaths a pool absorbs before escalating.
DEFAULT_MAX_RESPAWNS = 3

#: Exit code a ``kill`` fault uses — mirrors a SIGKILL/OOM termination.
_KILL_EXIT_CODE = 137

#: How long the parent blocks in ``connection.wait`` per supervision tick.
_POLL_SECONDS = 0.05


def _worker_main(
    conn: multiprocessing.connection.Connection,
    slot: int,
    task_fn: Callable[[Any], Any],
    init_fn: Optional[Callable[..., None]],
    init_args: tuple,
    heartbeat_interval: float,
    fault_rules: Sequence[faults.FaultRule],
    fault_seed: int,
) -> None:
    """Worker process body: init once, then serve blocks until shutdown.

    Runs module-level so spawn-start platforms can import it.  The fault
    plan is rebuilt per worker (plans hold locks and are not picklable);
    seeding it with ``fault_seed + slot`` keeps per-worker probability
    coins independent while staying replayable.
    """
    if fault_rules:
        faults.install(faults.FaultPlan(list(fault_rules), seed=fault_seed + slot))
    else:
        # A fork-started worker inherits the parent's installed plan; the
        # parent's non-runtime sites must not fire again in workers.
        faults.uninstall()
    if init_fn is not None:
        init_fn(*init_args)
    send_lock = threading.Lock()
    stop_beats = threading.Event()

    def _beat() -> None:
        while not stop_beats.wait(heartbeat_interval):
            with send_lock:
                try:
                    conn.send(("hb", None, None))
                except (OSError, ValueError):
                    return

    beats = threading.Thread(target=_beat, name=f"hb-{slot}", daemon=True)
    beats.start()
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return
            if message is None:
                return
            task_id, payload = message
            action = faults.trigger(
                faults.SITE_RUNTIME_WORKER, context=f"slot {slot} task {task_id}"
            )
            if action == faults.KILL:
                os._exit(_KILL_EXIT_CODE)
            action = faults.trigger(
                faults.SITE_RUNTIME_HEARTBEAT, context=f"slot {slot} task {task_id}"
            )
            if action == faults.HANG:
                # Silent wedge: stop heartbeats AND the serving loop, without
                # exiting — exactly the failure the liveness timeout exists
                # for.  The supervisor SIGKILLs us.
                stop_beats.set()
                while True:
                    time.sleep(3600.0)
            try:
                result = task_fn(payload)
            except BaseException as error:  # repro: noqa[REP004] — the
                # exception *is* re-raised, in the parent: it crosses the
                # pipe as an ("err", ...) message and surfaces there as
                # TaskFailedError, keeping this worker alive for other
                # blocks.
                with send_lock:
                    conn.send(("err", task_id, f"{type(error).__name__}: {error}"))
                continue
            with send_lock:
                conn.send(("ok", task_id, result))
    finally:
        stop_beats.set()


class _WorkerHandle:
    """Parent-side view of one worker: process, pipe, assignment, liveness."""

    __slots__ = ("process", "conn", "slot", "assigned", "last_seen")

    def __init__(
        self,
        process: multiprocessing.process.BaseProcess,
        conn: multiprocessing.connection.Connection,
        slot: int,
        now: float,
    ) -> None:
        self.process = process
        self.conn = conn
        self.slot = slot
        self.assigned: Optional[int] = None
        self.last_seen = now


class PoolStats:
    """Supervision counters accumulated over a pool's lifetime."""

    __slots__ = (
        "blocks_completed",
        "blocks_replayed",
        "crashes",
        "respawns",
        "fallback_blocks",
    )

    def __init__(self) -> None:
        self.blocks_completed = 0
        self.blocks_replayed = 0
        self.crashes = 0
        self.respawns = 0
        self.fallback_blocks = 0

    def to_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class SupervisedPool:
    """A crash-tolerant process pool over deterministic task blocks.

    Parameters
    ----------
    task_fn:
        Module-level callable executed per payload (must be picklable on
        spawn platforms).  Its result must be a pure function of the
        payload — the replay invariant.
    workers:
        Number of worker processes.
    init_fn / init_args:
        Optional once-per-worker initializer (ships the big read-only
        state — a compiled graph or an mmap-backed
        :class:`~repro.runtime.sharedgraph.SharedGraph` handle — once
        instead of per task).  The in-process fallback calls it in the
        parent before running blocks inline.
    heartbeat_interval / heartbeat_timeout / max_respawns:
        Supervision knobs; ``None`` picks the module defaults at call time
        (tests shrink the defaults via monkeypatching).
    fallback:
        When ``True`` (default), exhausting the respawn budget degrades to
        in-process execution; when ``False`` it raises
        :class:`~repro.exceptions.WorkerCrashError`.

    The pool keeps its workers alive across :meth:`run` calls (the greedy
    Monte-Carlo hot path estimates thousands of times against one pool);
    call :meth:`close` (or use it as a context manager) to tear down.
    """

    def __init__(
        self,
        task_fn: Callable[[Any], Any],
        *,
        workers: int,
        init_fn: Optional[Callable[..., None]] = None,
        init_args: tuple = (),
        heartbeat_interval: Optional[float] = None,
        heartbeat_timeout: Optional[float] = None,
        max_respawns: Optional[int] = None,
        fallback: bool = True,
        name: str = "pool",
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.task_fn = task_fn
        self.workers = int(workers)
        self.init_fn = init_fn
        self.init_args = init_args
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.max_respawns = max_respawns
        self.fallback = fallback
        self.name = name
        self.stats = PoolStats()
        start_methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in start_methods else "spawn"
        )
        self._handles: List[_WorkerHandle] = []
        self._respawns_used = 0
        self._fallback_active = False
        self._fallback_initialised = False
        self._closed = False

    # ------------------------------------------------------------ lifecycle

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut every worker down (graceful first, SIGKILL after a grace)."""
        self._closed = True
        self._shutdown_workers()

    def _shutdown_workers(self) -> None:
        for handle in self._handles:
            try:
                handle.conn.send(None)
            except (OSError, ValueError):
                pass
        for handle in self._handles:
            handle.process.join(timeout=1.0)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=1.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        self._handles = []
        self._set_workers_alive(0)

    # ------------------------------------------------------------ telemetry

    def _set_workers_alive(self, value: int) -> None:
        default_registry().gauge(
            "repro_runtime_workers_alive", "Live supervised workers."
        ).set(value)

    def _count(self, name: str, help_text: str, amount: int = 1) -> None:
        default_registry().counter(name, help_text).inc(amount)

    # ------------------------------------------------------------- spawning

    def _runtime_fault_rules(self) -> List[faults.FaultRule]:
        plan = faults.active_plan()
        if plan is None:
            return []
        return [r for r in plan.rules if r.site.startswith("runtime.")]

    def _fault_seed(self) -> int:
        plan = faults.active_plan()
        return plan.seed if plan is not None else 0

    def _spawn(self, slot: int, *, initial: bool) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        interval = (
            self.heartbeat_interval
            if self.heartbeat_interval is not None
            else DEFAULT_HEARTBEAT_INTERVAL
        )
        # Only first-generation workers get the chaos rules: a respawned
        # replacement running the same kill schedule would die forever.
        rules = self._runtime_fault_rules() if initial else []
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                slot,
                self.task_fn,
                self.init_fn,
                self.init_args,
                interval,
                rules,
                self._fault_seed(),
            ),
            name=f"repro-{self.name}-{slot}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(process, parent_conn, slot, time.monotonic())

    def _ensure_workers(self) -> None:
        if self._handles or self._fallback_active:
            return
        self._handles = [
            self._spawn(slot, initial=True) for slot in range(self.workers)
        ]
        self._set_workers_alive(len(self._handles))

    # ------------------------------------------------------------- fallback

    def _run_fallback_block(self, payload: Any) -> Any:
        if not self._fallback_initialised:
            if self.init_fn is not None:
                self.init_fn(*self.init_args)
            self._fallback_initialised = True
        self.stats.fallback_blocks += 1
        self._count(
            "repro_runtime_fallback_blocks_total",
            "Blocks executed in-process after the respawn budget ran out.",
        )
        return self.task_fn(payload)

    # ------------------------------------------------------------------ run

    def run(
        self,
        payloads: Sequence[Any],
        *,
        deadline: Optional[Deadline] = None,
        deadline_stage: str = "runtime",
        stop: Optional[Callable[[], bool]] = None,
        on_result: Optional[Callable[[int, Any], None]] = None,
    ) -> Optional[List[Any]]:
        """Execute every payload; results come back in payload order.

        With ``on_result`` the pool streams instead of collecting: the
        callback receives ``(index, result)`` strictly in index order —
        completions arriving out of order are buffered — so a caller can
        append blocks to a collection (and checkpoint a prefix) exactly as
        a serial loop would, and ``run`` returns ``None``.  ``deadline``
        is checked every supervision tick; ``stop`` (a zero-arg callable)
        requests a cooperative halt that raises
        :class:`~repro.exceptions.ExecutionInterrupted`.
        """
        payloads = list(payloads)
        total = len(payloads)
        results: Optional[List[Any]] = None if on_result is not None else [None] * total
        if total == 0:
            return results
        timeout = (
            self.heartbeat_timeout
            if self.heartbeat_timeout is not None
            else DEFAULT_HEARTBEAT_TIMEOUT
        )
        budget = (
            self.max_respawns
            if self.max_respawns is not None
            else DEFAULT_MAX_RESPAWNS
        )
        pending: deque = deque(range(total))
        completed = [False] * total
        done = 0
        buffered: Dict[int, Any] = {}
        emit_cursor = 0

        def record(index: int, value: Any) -> None:
            nonlocal done, emit_cursor
            if completed[index]:
                # A replayed block can race its first execution's late
                # result; replays are bit-identical, so drop duplicates.
                return
            completed[index] = True
            done += 1
            self.stats.blocks_completed += 1
            if results is not None:
                results[index] = value
            else:
                buffered[index] = value
                while emit_cursor in buffered:
                    on_result(emit_cursor, buffered.pop(emit_cursor))
                    emit_cursor += 1

        def requeue(index: Optional[int]) -> None:
            if index is not None and not completed[index]:
                pending.appendleft(index)
                self.stats.blocks_replayed += 1
                self._count(
                    "repro_runtime_blocks_replayed_total",
                    "Blocks re-executed after a worker crash or wedge.",
                )

        def bury(handle: _WorkerHandle, *, wedged: bool) -> None:
            """Handle one dead/wedged worker: requeue, respawn or escalate."""
            self.stats.crashes += 1
            self._count(
                "repro_runtime_worker_crashes_total",
                "Supervised worker deaths (crashes and liveness kills).",
            )
            if wedged and handle.process.is_alive():
                handle.process.kill()
            handle.process.join(timeout=1.0)
            try:
                handle.conn.close()
            except OSError:
                pass
            self._handles.remove(handle)
            requeue(handle.assigned)
            if self._respawns_used < budget:
                self._respawns_used += 1
                self.stats.respawns += 1
                self._count(
                    "repro_runtime_respawns_total",
                    "Replacement workers spawned after a death.",
                )
                self._handles.append(self._spawn(handle.slot, initial=False))
            elif not self._handles:
                if not self.fallback:
                    raise WorkerCrashError(self.name, self.stats.crashes, budget)
                self._fallback_active = True
            self._set_workers_alive(len(self._handles))

        if self._closed:
            raise ConfigurationError(
                f"supervised pool {self.name!r} is closed; create a new pool"
            )
        self._ensure_workers()
        try:
            while done < total:
                if stop is not None and stop():
                    raise ExecutionInterrupted(deadline_stage, done)
                if deadline is not None:
                    deadline.check(deadline_stage)
                if self._fallback_active:
                    while pending:
                        index = pending.popleft()
                        if not completed[index]:
                            record(index, self._run_fallback_block(payloads[index]))
                    continue
                for handle in self._handles:
                    if handle.assigned is None and pending:
                        index = pending.popleft()
                        if completed[index]:
                            continue
                        handle.conn.send((index, payloads[index]))
                        handle.assigned = index
                        handle.last_seen = time.monotonic()
                ready = multiprocessing.connection.wait(
                    [handle.conn for handle in self._handles],
                    timeout=_POLL_SECONDS,
                )
                by_conn = {handle.conn: handle for handle in self._handles}
                dead: List[Tuple[_WorkerHandle, bool]] = []
                for conn in ready:
                    handle = by_conn.get(conn)
                    if handle is None:
                        continue
                    try:
                        kind, task_id, value = handle.conn.recv()
                    except (EOFError, OSError):
                        dead.append((handle, False))
                        continue
                    handle.last_seen = time.monotonic()
                    if kind == "hb":
                        continue
                    if kind == "err":
                        raise TaskFailedError(
                            f"{self.name}[{task_id}]", str(value)
                        )
                    record(task_id, value)
                    if handle.assigned == task_id:
                        handle.assigned = None
                now = time.monotonic()
                for handle in self._handles:
                    if any(handle is buried for buried, _ in dead):
                        continue
                    if not handle.process.is_alive():
                        dead.append((handle, False))
                    elif (
                        handle.assigned is not None
                        and now - handle.last_seen > timeout
                    ):
                        dead.append((handle, True))
                for handle, wedged in dead:
                    if handle in self._handles:
                        bury(handle, wedged=wedged)
            self._count(
                "repro_runtime_blocks_total",
                "Blocks completed by supervised pools.",
                total,
            )
            return results
        except BaseException:
            # Any abnormal exit (deadline, interrupt, task failure) must
            # not leave workers running a stale generation of tasks.  The
            # pool itself stays usable: the next run() spawns fresh workers.
            self._shutdown_workers()
            raise
