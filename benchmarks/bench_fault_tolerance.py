#!/usr/bin/env python
"""Micro-benchmark: serving quality of service under injected faults.

Drives one :class:`~repro.serving.service.InfluenceService` at bounded
concurrency (admission queue + load shedding) through three phases and
records a JSON quality-of-service report:

* **baseline** — a mixed evaluate/select workload with no faults: sustained
  queries/sec and p50/p99 latency.
* **faulted** — the same workload under a scripted, seeded
  :class:`~repro.serving.faults.FaultPlan` (failed evaluate queries plus
  slow artifact reads).  Requests opt into degraded answers; the report
  records throughput, tail latency, the shed rate and the degraded rate.
  The invariant asserted here is the degraded-answer contract: every
  request either completes, is shed with ``ServiceOverloadedError``, or
  returns an answer marked ``degraded`` — nothing hangs, nothing lies.
* **recovery** — build failures trip the per-index circuit breaker, and the
  benchmark measures wall-clock time from the first failure until the
  service answers healthily again (breaker cooldown + probe + rebuild).

The fault schedule is counter-based and seeded (``REPRO_FAULT_SEED``), so a
CI run replays the same chaos bit-for-bit.

Run with::

    PYTHONPATH=src python benchmarks/bench_fault_tolerance.py
    PYTHONPATH=src python benchmarks/bench_fault_tolerance.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.exceptions import ServiceOverloadedError
from repro.graphs.generators import barabasi_albert_graph
from repro.serving import (
    FaultPlan,
    FaultRule,
    InfluenceIndex,
    InfluenceService,
    RetryPolicy,
    fault_injection,
)
from repro.serving import faults

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_fault_tolerance.json"

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))
ENGINE_SEED = 0
MODEL = "ic"
BUDGET = 8
THREADS = 16
MAX_QUEUE = 12
DEADLINE_MS = 2_000.0
BREAKER_RESET_SECONDS = 0.2


def percentile(samples, q):
    return float(np.percentile(np.asarray(samples), q)) if samples else 0.0


def drive_workload(service, compiled, seed_sets, *, degraded_ok, artifact):
    """Fire the workload at bounded concurrency; account every outcome."""
    latencies = []
    outcomes = {"ok": 0, "degraded": 0, "shed": 0, "failed": 0}
    shed_retries = [0]
    lock = threading.Lock()

    def one(seeds):
        # Closed-loop client: a shed request backs off and retries, as the
        # ServiceOverloadedError message instructs.  A request is counted
        # as shed only when it exhausts its retry budget.
        start = time.perf_counter()
        for _ in range(50):
            try:
                if seeds == "swap":
                    # Periodic ops action: hot-swap the artifact under
                    # load — these reads hit the slow-disk fault rule.
                    service.hot_swap(artifact, compiled)
                    degraded = False
                elif len(seeds) == 1:
                    # A sprinkling of selects keeps the selection cache
                    # warm and exercises the select path too.
                    result = service.select(
                        compiled, MODEL, BUDGET,
                        deadline_ms=DEADLINE_MS, degraded_ok=degraded_ok,
                    )
                    degraded = bool(result.extras.get("degraded"))
                else:
                    outcome = service.evaluate(
                        compiled, MODEL, seeds,
                        deadline_ms=DEADLINE_MS, degraded_ok=degraded_ok,
                    )
                    degraded = bool(getattr(outcome, "degraded", False))
            except ServiceOverloadedError:
                with lock:
                    shed_retries[0] += 1
                time.sleep(0.002)
                continue
            except Exception:  # noqa: BLE001 — counted, the report shows it
                outcomes["failed"] += 1
                return
            latencies.append(time.perf_counter() - start)
            outcomes["degraded" if degraded else "ok"] += 1
            return
        outcomes["shed"] += 1

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        list(pool.map(one, seed_sets))
    elapsed = time.perf_counter() - start
    answered = outcomes["ok"] + outcomes["degraded"]
    return {
        "requests": len(seed_sets),
        "answered": answered,
        "shed": outcomes["shed"],
        "shed_retries": shed_retries[0],
        "failed": outcomes["failed"],
        "degraded": outcomes["degraded"],
        # Fraction of admission attempts the service pushed back on.
        "shed_rate": round(
            shed_retries[0] / (len(seed_sets) + shed_retries[0]), 4
        ),
        "degraded_rate": round(
            outcomes["degraded"] / answered if answered else 0.0, 4
        ),
        "queries_per_second": round(answered / elapsed, 1),
        "p50_latency_ms": round(percentile(latencies, 50) * 1000.0, 3),
        "p99_latency_ms": round(percentile(latencies, 99) * 1000.0, 3),
    }


def make_seed_sets(compiled, requests):
    rng = np.random.default_rng(7)
    n = compiled.number_of_nodes
    sets = []
    for i in range(requests):
        if i % 50 == 25:
            sets.append("swap")  # becomes a hot_swap ops action
        elif i % 10 == 0:
            sets.append([int(rng.integers(n))])  # becomes a select request
        else:
            sets.append(rng.choice(n, size=BUDGET, replace=False).tolist())
    return sets


def measure_recovery(compiled, theta):
    """Trip the breaker with injected build failures; time the comeback."""
    service = InfluenceService(
        default_theta=theta,
        engine_seed=ENGINE_SEED,
        breaker_threshold=2,
        breaker_reset_seconds=BREAKER_RESET_SECONDS,
        retry_policy=RetryPolicy(base_delay=0.001),
    )
    plan = FaultPlan(
        [FaultRule(faults.SITE_BUILD, "raise", times=2)], seed=FAULT_SEED
    )
    first_fault = None
    healthy_at = None
    with fault_injection(plan):
        start = time.perf_counter()
        while time.perf_counter() - start < 30.0:
            selection = service.select(
                compiled, MODEL, BUDGET, degraded_ok=True
            )
            now = time.perf_counter()
            if selection.extras.get("degraded"):
                if first_fault is None:
                    first_fault = now
                time.sleep(0.01)
                continue
            healthy_at = now
            break
    assert first_fault is not None and healthy_at is not None, (
        "recovery scenario never exercised the breaker"
    )
    return {
        "breaker_trips": service.stats()["breakers"]["trips"],
        "breaker_reset_seconds": BREAKER_RESET_SECONDS,
        "recovery_seconds": round(healthy_at - first_fault, 4),
        "fault_schedule": plan.describe()["rules"],
    }


def run(smoke: bool, output: pathlib.Path) -> dict:
    scale = 10 if smoke else 1
    nodes = 5_000 // scale
    theta = 20_000 // scale
    requests = 600 // scale
    graph = barabasi_albert_graph(nodes, 3, seed=1)
    graph.set_weighted_cascade_probabilities()
    compiled = graph.compile()
    seed_sets = make_seed_sets(compiled, requests)

    with tempfile.TemporaryDirectory() as tmp:
        artifact = pathlib.Path(tmp) / "index.npz"
        InfluenceIndex.build(
            compiled, MODEL, theta, engine_seed=ENGINE_SEED
        ).save(artifact)

        def fresh_service():
            service = InfluenceService(
                default_theta=theta,
                engine_seed=ENGINE_SEED,
                max_queue=MAX_QUEUE,
                retry_policy=RetryPolicy(base_delay=0.001, seed=FAULT_SEED),
            )
            service.load_artifact(artifact, compiled)
            # Warm the pool: thread spawn and first-touch page faults stay
            # off the measured clock in both phases alike.
            service.evaluate(compiled, MODEL, seed_sets[1])
            return service

        baseline = drive_workload(
            fresh_service(), compiled, seed_sets,
            degraded_ok=False, artifact=artifact,
        )

        plan = FaultPlan(
            [
                # ~15% of evaluate queries fail just before the index
                # lookup and degrade to cached spreads.
                FaultRule(faults.SITE_EVALUATE, "raise", probability=0.15),
                # Hot-swap artifact reads stall like a cold NFS page-in.
                FaultRule(
                    faults.SITE_ARTIFACT_READ, "sleep", delay=0.02,
                    probability=0.5,
                ),
            ],
            seed=FAULT_SEED,
        )
        faulted_service = fresh_service()
        with fault_injection(plan):
            faulted = drive_workload(
                faulted_service, compiled, seed_sets,
                degraded_ok=True, artifact=artifact,
            )
        faulted["faults_fired"] = len(plan.fired)
        stats = faulted_service.stats()
        faulted["service_degraded_answers"] = stats["degraded_answers"]
        faulted["service_requests_shed"] = stats["requests_shed"]

    recovery = measure_recovery(compiled, theta // 4)

    report = {
        "benchmark": "bench_fault_tolerance",
        "smoke": smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fault_seed": FAULT_SEED,
        "nodes": nodes,
        "edges": compiled.number_of_edges,
        "model": MODEL,
        "theta": theta,
        "threads": THREADS,
        "max_queue": MAX_QUEUE,
        "deadline_ms": DEADLINE_MS,
        "baseline": baseline,
        "faulted": faulted,
        "recovery": recovery,
        # The contract the chaos suite enforces, restated as data: every
        # request was answered, shed or failed loudly — none hung.
        "all_requests_accounted": bool(
            baseline["answered"] + baseline["shed"] + baseline["failed"]
            == requests
            and faulted["answered"] + faulted["shed"] + faulted["failed"]
            == requests
        ),
    }
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(
        f"baseline {baseline['queries_per_second']:7.1f} q/s  "
        f"p99 {baseline['p99_latency_ms']:7.2f}ms  "
        f"shed {baseline['shed_rate']:.1%}\n"
        f"faulted  {faulted['queries_per_second']:7.1f} q/s  "
        f"p99 {faulted['p99_latency_ms']:7.2f}ms  "
        f"shed {faulted['shed_rate']:.1%}  "
        f"degraded {faulted['degraded_rate']:.1%}  "
        f"({faulted['faults_fired']} faults fired)\n"
        f"recovery {recovery['recovery_seconds']:.3f}s after "
        f"{recovery['breaker_trips']} breaker trip(s)"
    )
    print(f"wrote {output}")
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="scale everything down ~10x for a CI smoke run",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
        help=f"where to write the JSON QoS record (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args()
    report = run(args.smoke, args.output)
    if not report["all_requests_accounted"]:
        print("ERROR: some requests neither answered, shed nor failed")
        return 1
    if report["faulted"]["failed"]:
        print(
            f"ERROR: {report['faulted']['failed']} requests failed outright "
            f"under faults despite degraded_ok"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
