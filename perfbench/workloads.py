"""The four benchmark workloads.

Each workload function takes a :class:`Context` and returns a
:class:`Outcome`: end-to-end metrics from untraced work, per-layer metrics
from traced work (``--trace 1`` only), and the count of operations
attempted and failed, where an operation fails when it raises or when one
of its output checks does not hold.

* ``ris-wc``     — edge list -> WC -> IMM -> RR-sketch k-sweep (Def. 3).
* ``osim-oi``    — annotated edge list -> OI-IC -> OSIM -> Monte-Carlo
  k-sweep of the effective opinion spread (Def. 7).
* ``serve-closed`` — index build (2 workers), save, mmap reload, then two
  closed-loop clients against one :class:`InfluenceService`.
* ``cold-cli``   — fresh-interpreter launches of ``repro.cli run``.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import pathlib
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import inputs
from spans import Tracer, counter_delta, counter_totals, span_coverage

#: Sizes per workload.  ``full`` is what the benchmark measures; ``tiny``
#: exists for the self-test and runs every code path in seconds.
SIZES = {
    "full": {
        "nodes": 10_000,
        "edges": 80_000,
        "budget": 50,
        "imm_epsilon": 0.3,
        "sketch_theta": 40_000,
        "mc_simulations": 1000,
        "serve_theta": 100_000,
        "inputs": 6,
        "setup_reps": 3,
        "min_evaluates": 200,
    },
    "tiny": {
        "nodes": 600,
        "edges": 3_000,
        "budget": 10,
        "imm_epsilon": 0.5,
        "sketch_theta": 2_000,
        "mc_simulations": 1000,
        "serve_theta": 2_000,
        "inputs": 2,
        "setup_reps": 2,
        "min_evaluates": 20,
    },
}

#: First-level modules of the package whose import time ``cold-cli`` reports.
IMPORT_MODULES = (
    "algorithms", "analysis", "api", "bench", "core", "datasets", "devtools",
    "diffusion", "graphs", "opinion", "runtime", "scoring", "serving",
    "sketches", "specs", "telemetry", "utils",
)

SERVE_MODEL = "wc"
SERVE_CLIENTS = 2
SERVE_WORKERS = 2
#: ``select_s`` on ``serve-closed``: cold ``select(COLD_BUDGET)`` answers
#: timed on freshly reloaded indexes, ``COLD_SELECTS`` per setup.
COLD_BUDGET = 50
COLD_SELECTS = 4
#: Every tenth ``evaluate`` answer is recomputed through
#: ``InfluenceIndex.estimate_spread`` and must match exactly.
EXACT_CHECK_EVERY = 10


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    size: Dict[str, float]
    root: pathlib.Path
    work: pathlib.Path
    traces: pathlib.Path


@dataclass
class Outcome:
    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return ok


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def nondecreasing(curve: Dict[int, float]) -> bool:
    values = [curve[k] for k in sorted(curve)]
    return all(b >= a for a, b in zip(values, values[1:]))


# --------------------------------------------------------------- pipelines


def _pipeline_spec(ctx: Context, graph_path: pathlib.Path, annotation_seed: int):
    from repro.specs import (
        AlgorithmSpec, EstimatorSpec, EvalSpec, ExperimentSpec, GraphSpec, ModelSpec,
    )

    size = ctx.size
    budget = int(size["budget"])
    counts = list(inputs.prefix_counts(budget))
    if ctx.workload == "ris-wc":
        return ExperimentSpec(
            name="perfbench-ris-wc",
            graph=GraphSpec(edge_list=str(graph_path)),
            model=ModelSpec(name="wc"),
            algorithm=AlgorithmSpec(name="imm", options={"epsilon": size["imm_epsilon"]}),
            budget=budget,
            seed=0,
            evaluation=EvalSpec(
                objective="spread",
                seed_counts=counts,
                estimator=EstimatorSpec(
                    backend="sketch", theta=int(size["sketch_theta"]), engine_seed=0
                ),
            ),
        )
    return ExperimentSpec(
        name="perfbench-osim-oi",
        graph=GraphSpec(
            edge_list=str(graph_path),
            annotate=True,
            opinion="normal",
            interaction="uniform",
            annotation_seed=annotation_seed,
        ),
        model=ModelSpec(name="oi-ic"),
        algorithm=AlgorithmSpec(name="osim", options={"max_path_length": 3}),
        budget=budget,
        seed=0,
        evaluation=EvalSpec(
            objective="effective-opinion",
            seed_counts=counts,
            estimator=EstimatorSpec(
                backend="monte-carlo",
                simulations=int(size["mc_simulations"]),
                engine_seed=0,
            ),
        ),
    )


def _instrument_pipeline(tracer: Tracer, backend: str) -> None:
    """Patch the layer entry points ``run_experiment`` calls into."""
    import repro.api
    import repro.graphs.digraph
    import repro.graphs.io
    import repro.opinion.annotate

    tracer.patch(repro.graphs.io, "read_edge_list", "graphs.read")
    tracer.patch(repro.opinion.annotate, "annotate_graph", "opinion.annotate")
    tracer.patch(repro.graphs.digraph.DiGraph, "compile", "graphs.compile")
    tracer.patch(repro.api, "graph_fingerprint", "graphs.fingerprint")

    def select_traced(selector) -> None:
        selector.select = tracer.wrap(selector.select, "algorithms.select", counted=True)

    def estimator_traced(estimator) -> None:
        name = "diffusion.mc_estimate" if estimator.backend == "monte-carlo" else "sketches.sweep"
        estimator.details = tracer.wrap(estimator.details, name, counted=True)
        estimator.sweep = tracer.wrap(estimator.sweep, name, counted=True)
        collection = getattr(estimator, "collection", None)
        if collection is not None:
            tracer.counts["sketches"]["members"] += float(collection.members.size)

    tracer.patch_result(repro.api, "build_selector", "api.build_selector", select_traced)
    build = "diffusion.mc_build" if backend == "monte-carlo" else "sketches.estimator_build"
    tracer.patch_result(repro.api, "build_estimator", build, estimator_traced)


def run_pipeline_once(spec, tracer: Optional[Tracer]):
    """One ``run_experiment`` call; returns ``(result, wall seconds)``."""
    from repro import run_experiment

    if tracer is None:
        started = time.perf_counter()
        result = run_experiment(spec)
        return result, time.perf_counter() - started
    _instrument_pipeline(tracer, spec.evaluation.estimator.backend)
    try:
        started = time.perf_counter()
        with tracer.span("api.run_experiment"):
            result = run_experiment(spec)
        return result, time.perf_counter() - started
    finally:
        tracer.restore()


def _check_run(out: Outcome, result, spec, nodes, first) -> bool:
    seeds = list(result.seeds)
    ok = out.check(len(seeds) == spec.budget, f"{len(seeds)} seeds for budget {spec.budget}")
    ok &= out.check(len(set(seeds)) == len(seeds), "duplicate seeds")
    ok &= out.check(set(seeds) <= nodes, "a seed is not a graph node")
    ok &= out.check(result.curve is not None and nondecreasing(result.curve),
                    f"curve decreases in k: {result.curve}")
    ok &= out.check(result.value is not None and math.isfinite(result.value),
                    f"objective {result.value!r}")
    if first is not None:
        ok &= out.check(seeds == list(first.seeds), "seed list differs between repeats")
        ok &= out.check(result.value == first.value, "objective differs between repeats")
    return ok


def pipeline(ctx: Context) -> Outcome:
    """Run ``run_experiment`` over several seeded inputs for ``--seconds``.

    Every input runs once, the first runs again so its outputs are checked
    for determinism, and then the inputs repeat round-robin until the time
    is up.  Timings are per-input medians averaged over the inputs, and the
    objective is the mean over inputs: with one graph per run, the
    structure and opinions of that graph would move the numbers more than
    the program does.  Under ``--trace 1`` each input runs untraced, then
    traced, so both sides see the same inputs.
    """
    out = Outcome()
    rng = inputs.rng_for(ctx.workload, ctx.seed)
    count = int(ctx.size["inputs"])
    specs, node_sets = [], []
    for i in range(count):
        path = ctx.work / f"graph-{i}.txt"
        nodes = inputs.write_edge_list(path, rng, int(ctx.size["nodes"]), int(ctx.size["edges"]))
        node_sets.append(set(int(v) for v in nodes))
        specs.append(_pipeline_spec(ctx, path, int(rng.integers(1 << 30))))

    untraced: Dict[int, list] = defaultdict(list)
    traced, layer_reps = [], []
    tracer = Tracer() if ctx.trace else None
    first: Dict[int, object] = {}
    deadline = time.perf_counter() + ctx.seconds
    min_reps = 2 * count if ctx.trace else count + 1
    rep = 0
    while rep < min_reps or time.perf_counter() < deadline:
        i = (rep // 2 if ctx.trace else rep) % count
        use_tracer = tracer if ctx.trace and rep % 2 == 1 else None
        rep += 1
        out.attempted += 1
        gc.collect()
        try:
            result, wall = run_pipeline_once(specs[i], use_tracer)
        except Exception as error:  # a failed run is counted, never dropped
            out.failed += 1
            out.failures.append(f"run_experiment raised {error!r}")
            continue
        if not _check_run(out, result, specs[i], node_sets[i], first.get(i)):
            out.failed += 1
        first.setdefault(i, result)
        if use_tracer is None:
            untraced[i].append((result, wall))
        else:
            traced.append((result, wall))
            layer_reps.append((i,) + tracer.checkpoint())
        stages = " ".join(f"{k}={v:.3f}" for k, v in result.timings.items())
        print(f"perfbench: {ctx.workload} input {i} wall={wall:.3f} {stages}", file=sys.stderr)

    def per_input(value: Callable[[object, float], float]) -> float:
        return statistics.fmean(
            median([value(r, w) for r, w in runs]) for runs in untraced.values()
        )

    if len(untraced) == count:
        walls = [w for runs in untraced.values() for _, w in runs]
        out.metrics.update(
            setup_s=per_input(lambda r, w: r.timings["load_seconds"]),
            select_s=per_input(lambda r, w: r.timings["selection_seconds"]),
            estimate_s=per_input(
                lambda r, w: r.timings["estimator_build_seconds"] + r.timings["estimate_seconds"]
            ),
            objective=statistics.fmean(float(r.value) for r in first.values()),
            request_p50_ms=1000.0 * per_input(lambda r, w: w),
            throughput=len(walls) / sum(walls),
            peak_rss_mb=peak_rss_mb(),
        )
    if tracer is not None and traced and untraced:
        runs = [run for runs in untraced.values() for run in runs]
        out.metrics.update(pipeline_layers(layer_reps, traced, runs, list(first.values())))
        tracer.dump(ctx.traces / f"{ctx.workload}-{ctx.seed}.json")
    return out


#: Per-layer self-time metrics and the span each is read from.
SPAN_LAYERS = {
    "graphs.read_s": "graphs.read",
    "graphs.compile_s": "graphs.compile",
    "graphs.fingerprint_s": "graphs.fingerprint",
    "opinion.annotate_s": "opinion.annotate",
    "algorithms.select_s": "algorithms.select",
    "sketches.estimator_build_s": "sketches.estimator_build",
    "sketches.sweep_s": "sketches.sweep",
    "diffusion.mc_estimate_s": "diffusion.mc_estimate",
    "serving.index_build_s": "serving.index_build",
    "serving.artifact_save_s": "serving.artifact_save",
    "serving.artifact_load_s": "serving.artifact_load",
}

#: Per-layer counts: metric -> (span whose counter deltas hold it, counter).
COUNT_LAYERS = {
    "sketches.rr_sets": ("algorithms.select", "repro_sketch_rr_sets_total"),
    "sketches.rr_blocks": ("algorithms.select", "repro_sketch_rr_blocks_total"),
    "sketches.members": ("sketches", "members"),
    "scoring.edges_touched": ("algorithms.select", "repro_score_edges_touched_total"),
    "scoring.rebuilds": ("algorithms.select", "repro_score_rebuilds_total"),
    "scoring.incremental_updates": ("algorithms.select", "repro_score_incremental_updates_total"),
    "scoring.dirty_nodes": ("algorithms.select", "repro_score_dirty_nodes_total"),
    "diffusion.cascades": ("diffusion.mc_estimate", "repro_mc_simulations_total"),
    "diffusion.mc_cache_hits": ("diffusion.mc_estimate", "repro_mc_cache_hits_total"),
    "runtime.blocks": ("serving.index_build", "repro_runtime_blocks_total"),
    "runtime.blocks_replayed": ("serving.index_build", "repro_runtime_blocks_replayed_total"),
    "runtime.fallback_blocks": ("serving.index_build", "repro_runtime_fallback_blocks_total"),
}


def layer_medians(layer_reps) -> Dict[str, float]:
    """Per-layer self times and counts over traced repeats.

    ``layer_reps`` holds ``(input, self_times, counts)`` per traced repeat.
    Times are medians over all repeats; counts are medians over each
    input's first traced repeat, so they do not depend on how many
    repeats fitted into the run.
    """
    layers = {}
    for metric, name in SPAN_LAYERS.items():
        layers[metric] = median([times.get(name, 0.0) for _, times, _ in layer_reps])
    first_counts = {}
    for i, _, counts in layer_reps:
        first_counts.setdefault(i, counts)
    for metric, (name, counter) in COUNT_LAYERS.items():
        layers[metric] = median(
            [counts.get(name, {}).get(counter, 0.0) for counts in first_counts.values()]
        )
    return layers


STAGES = ("load_seconds", "selection_seconds", "estimator_build_seconds", "estimate_seconds")


def pipeline_layers(layer_reps, traced, untraced, per_input) -> Dict[str, float]:
    spans = [r.provenance["telemetry"]["spans"] for r, _ in traced + untraced]
    layers = layer_medians(layer_reps)
    layers.update({
        "graphs.nodes": median([float(r.provenance["n"]) for r in per_input]),
        "graphs.edges": median([float(r.provenance["m"]) for r in per_input]),
        "api.glue_s": median(
            [wall - sum(r.timings[s] for s in STAGES) for r, wall in untraced]
        ),
        "api.span_coverage.stage_select": _coverage(spans, "stage_select"),
        "api.span_coverage.stage_estimate": _coverage(spans, "stage_estimate"),
        "bench.trace_overhead_s": median([w for _, w in traced]) - median([w for _, w in untraced]),
    })
    return layers


def _coverage(span_lists, stage: str) -> float:
    shares = [span_coverage(spans, stage) for spans in span_lists]
    return median([s for s in shares if s is not None])
# ------------------------------------------------------------ serve-closed


def _serve_setup(ctx: Context, graph_path: pathlib.Path, artifact: pathlib.Path, tracer):
    """Everything before the first request: load, build, save, mmap reload."""
    from repro.graphs.io import read_edge_list
    from repro.serving import InfluenceIndex, InfluenceService

    span = tracer.span if tracer is not None else (lambda name, counted=False: contextlib.nullcontext())
    if tracer is not None:
        import repro.serving.index

        tracer.patch(repro.serving.index, "graph_fingerprint", "graphs.fingerprint")
    started = time.perf_counter()
    with span("graphs.read"):
        graph = read_edge_list(graph_path)
    with span("graphs.compile"):
        compiled = graph.compile()
    del graph
    with span("serving.index_build", counted=True):
        index = InfluenceIndex.build(
            compiled, SERVE_MODEL, int(ctx.size["serve_theta"]),
            engine_seed=0, workers=SERVE_WORKERS,
        )
    with span("serving.artifact_save"):
        index.save(artifact)
    del index
    service = InfluenceService()
    with span("serving.artifact_load"):
        served = service.load_artifact(artifact, compiled, mmap=True)
    elapsed = time.perf_counter() - started
    if tracer is not None:
        tracer.restore()
    return elapsed, compiled, service, served


class _Client(threading.Thread):
    """One closed-loop client: sends its next request after each reply."""

    def __init__(self, service, compiled, schedule, stop_at, hard_stop, min_evaluates):
        super().__init__(daemon=True)
        self.service, self.compiled, self.schedule = service, compiled, schedule
        self.stop_at, self.hard_stop, self.min_evaluates = stop_at, hard_stop, min_evaluates
        self.latency: Dict[str, List[float]] = {"evaluate": [], "select": [], "sweep": []}
        self.samples: List[tuple] = []
        self.failures: List[str] = []
        self.attempted = 0

    def run(self) -> None:
        for op, arg in self.schedule:
            now = time.perf_counter()
            if now >= self.hard_stop or (
                now >= self.stop_at and len(self.latency["evaluate"]) >= self.min_evaluates
            ):
                return
            self.attempted += 1
            started = time.perf_counter()
            try:
                answer = self._send(op, arg)
            except Exception as error:  # counted as a failed request
                self.failures.append(f"{op} raised {error!r}")
                continue
            self.latency[op].append(time.perf_counter() - started)
            problem = self._check(op, arg, answer)
            if problem:
                self.failures.append(problem)
            elif op == "evaluate" and len(self.latency["evaluate"]) % EXACT_CHECK_EVERY == 0:
                self.samples.append((arg, float(answer)))

    def _send(self, op, arg):
        if op == "evaluate":
            return self.service.evaluate(self.compiled, SERVE_MODEL, arg)
        if op == "select":
            return self.service.select(self.compiled, SERVE_MODEL, arg)
        return self.service.sweep(self.compiled, SERVE_MODEL, arg)

    @staticmethod
    def _check(op, arg, answer) -> Optional[str]:
        if op == "evaluate":
            if getattr(answer, "degraded", False):
                return "degraded evaluate answer"
            return None if math.isfinite(answer) else f"evaluate returned {answer!r}"
        if op == "select":
            if answer.extras.get("degraded"):
                return "degraded select answer"
            seeds = list(answer.seeds)
            if len(seeds) != arg or len(set(seeds)) != arg:
                return f"select({arg}) returned {len(set(seeds))} distinct seeds"
            return None
        if answer.degraded:
            return "degraded sweep answer"
        return None if nondecreasing(answer) else f"sweep decreases in k: {dict(answer)}"


def serve_closed(ctx: Context) -> Outcome:
    from repro.serving import InfluenceService
    from repro.telemetry import TraceRecorder, recording

    out = Outcome()
    rng = inputs.rng_for(ctx.workload, ctx.seed)
    graph_path = ctx.work / "graph.txt"
    nodes = inputs.write_edge_list(graph_path, rng, int(ctx.size["nodes"]), int(ctx.size["edges"]))
    min_evaluates = int(ctx.size["min_evaluates"])
    schedules = [inputs.request_schedule(rng, nodes, 20 * min_evaluates + 2000) for _ in range(SERVE_CLIENTS)]

    tracer = Tracer() if ctx.trace else None
    setups, traced_setups, layer_reps, cold_select, objectives = [], [], [], [], []
    reps = int(ctx.size["setup_reps"]) * (2 if ctx.trace else 1)
    for rep in range(reps):
        use_tracer = tracer if rep % 2 == 1 else None
        gc.collect()
        out.attempted += 1
        artifact = ctx.work / f"index-{rep}.npz"
        try:
            seconds, compiled, service, served = _serve_setup(ctx, graph_path, artifact, use_tracer)
        except Exception as error:
            out.failed += 1
            out.failures.append(f"setup raised {error!r}")
            continue
        if use_tracer is None:
            setups.append(seconds)
        else:
            traced_setups.append(seconds)
            layer_reps.append((0,) + tracer.checkpoint())
        # Cold selects go to throwaway services over the same artifact, so
        # the service under load still meets its own first selects cold.
        for _ in range(COLD_SELECTS):
            fresh = InfluenceService()
            fresh.load_artifact(artifact, compiled, mmap=True)
            started = time.perf_counter()
            selection = fresh.select(compiled, SERVE_MODEL, COLD_BUDGET)
            cold_select.append(time.perf_counter() - started)
            objectives.append(selection.estimated_spread - COLD_BUDGET)
        if rep < reps - 1:
            del compiled, service, served

    if not out.check(out.failed == 0, "no service to query"):
        return out
    before = counter_totals()
    recorder = TraceRecorder(seed=0)
    loop = recording(recorder) if ctx.trace else contextlib.nullcontext()
    started = time.perf_counter()
    stop_at = started + ctx.seconds
    clients = [
        _Client(service, compiled, schedule, stop_at, started + 3 * ctx.seconds + 30, min_evaluates // SERVE_CLIENTS)
        for schedule in schedules
    ]
    with loop:
        for client in clients:
            client.start()
        for client in clients:
            client.join(timeout=ctx.seconds * 3 + 60)
    elapsed = time.perf_counter() - started
    deltas = counter_delta(before, counter_totals())
    stats = service.stats()

    latency = {op: [v for c in clients for v in c.latency[op]] for op in ("evaluate", "select", "sweep")}
    completed = sum(len(v) for v in latency.values())
    for client in clients:
        out.attempted += client.attempted
        out.failed += len(client.failures)
        out.failures.extend(client.failures)
        if out.check(not client.is_alive(), "client did not finish"):
            continue
        out.failed += 1
    for seeds, answer in (s for c in clients for s in c.samples):
        if not out.check(served.estimate_spread(seeds) == answer, "evaluate differs from estimate_spread"):
            out.failed += 1
    lost = stats["requests_shed"] + stats["degraded_answers"]
    if not out.check(lost == 0, f"{lost} shed or degraded answers"):
        out.failed += int(lost)
    if not out.check(len(set(objectives)) == 1, f"select(50) differs between builds: {objectives}"):
        out.failed += 1

    evaluate_ms = sorted(1000.0 * v for v in latency["evaluate"])
    out.metrics.update(
        setup_s=median(setups),
        select_s=median(cold_select),
        estimate_s=median(latency["evaluate"] + latency["sweep"]),
        objective=objectives[0],
        request_p50_ms=median(evaluate_ms),
        throughput=completed / elapsed,
        peak_rss_mb=peak_rss_mb(),
    )
    if tracer is not None:
        layers = layer_medians(layer_reps)
        busy = sum(s.duration for s in recorder.finished() if s.name == "index_evaluate")
        if recorder.dropped:
            print(f"perfbench: {recorder.dropped} spans dropped; evaluate busy time is low",
                  file=sys.stderr)
        requests = float(stats["evaluate_requests"])
        batches = float(stats["evaluate_batches"])
        layers.update({
            "graphs.nodes": float(compiled.number_of_nodes),
            "graphs.edges": float(compiled.number_of_edges),
            "serving.evaluate_busy_s": busy,
            "serving.evaluate_requests": requests,
            "serving.evaluate_batches": batches,
            "serving.coalesce_ratio": requests / batches if batches else 0.0,
            "serving.evaluate_p95_ms": statistics.quantiles(evaluate_ms, n=20)[-1] if len(evaluate_ms) >= 20 else 0.0,
            "serving.select_cold_ms": 1000.0 * median(cold_select),
            "serving.select_cache_hits": deltas.get("repro_index_selection_cache_hits_total", 0.0),
            "serving.shed": float(stats["requests_shed"]),
            "serving.degraded": float(stats["degraded_answers"]),
            "bench.trace_overhead_s": median(traced_setups) - median(setups),
        })
        out.metrics.update(layers)
        tracer.dump(ctx.traces / f"{ctx.workload}-{ctx.seed}.json")
    return out


# ---------------------------------------------------------------- cold-cli

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def _cumulative_imports(stderr: str) -> Dict[str, float]:
    """Cumulative import seconds per module from ``-X importtime`` output.

    The key ``""`` holds the whole launch's import time: the sum over the
    top-level imports (one space of indentation), interpreter start-up
    included.
    """
    times: Dict[str, float] = {"": 0.0}
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            seconds = int(match.group(2)) / 1e6
            times.setdefault(match.group(4), seconds)
            if len(match.group(3)) == 1:
                times[""] += seconds
    return times


def _launch(ctx: Context, args: Sequence[str], env: Dict[str, str]):
    """Run a fresh interpreter; ``(None, wall)`` if it had to be killed."""
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *args], cwd=ctx.root, env=env,
            capture_output=True, text=True, timeout=120,
        )
    except subprocess.TimeoutExpired:
        proc = None
    return proc, time.perf_counter() - started


def _cli_problem(proc, budget: int, reference: Optional[dict]):
    """``(payload, problem)`` for one CLI launch; ``problem`` is None if it passed."""
    if proc is None:
        return None, "launch timed out"
    if proc.returncode != 0:
        return None, f"exit status {proc.returncode}: {proc.stderr[-300:]}"
    try:
        payload = json.loads(proc.stdout)
    except json.JSONDecodeError as error:
        return None, f"result is not JSON: {error}"
    if len(payload.get("seeds", [])) != budget:
        return None, f"result has {len(payload.get('seeds', []))} seeds, not {budget}"
    if reference is not None and (
        payload["seeds"] != reference["seeds"] or payload["value"] != reference["value"]
    ):
        return None, "CLI result differs between launches"
    return payload, None


def cold_cli(ctx: Context) -> Outcome:
    """Launch ``repro.cli run`` in fresh interpreters for ``--seconds``.

    The specs are copies of the CI smoke spec that differ only in their
    graph seed, launched round-robin like the pipelines' inputs: the
    smoke graph has 60 nodes, so a single one would make the objective
    hang on its draw.
    """
    out = Outcome()
    rng = inputs.rng_for(ctx.workload, ctx.seed)
    template = ctx.root / "examples" / "specs" / "ci_smoke.json"
    count = int(ctx.size["inputs"])
    paths = [ctx.work / f"cli_spec-{i}.json" for i in range(count)]
    budgets = [inputs.cli_spec(template, path, rng)["budget"] for path in paths]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ctx.root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )

    plain: Dict[int, list] = defaultdict(list)
    first: Dict[int, dict] = {}
    traced, imports = [], []
    deadline = time.perf_counter() + ctx.seconds
    min_launches = 2 * count if ctx.trace else count + 1
    launch = 0
    while launch < min_launches or time.perf_counter() < deadline:
        # Under --trace 1 each spec is launched plainly, then with -X importtime.
        i = (launch // 2 if ctx.trace else launch) % count
        importtime = ctx.trace and launch % 2 == 1
        launch += 1
        out.attempted += 1
        args = ["-m", "repro.cli", "run", str(paths[i]), "--json"]
        proc, wall = _launch(ctx, (["-X", "importtime"] if importtime else []) + args, env)
        payload, problem = _cli_problem(proc, budgets[i], first.get(i))
        if problem is not None:
            out.failed += 1
            out.failures.append(problem)
            continue
        first.setdefault(i, payload)
        if importtime:
            traced.append(wall)
            imports.append(_cumulative_imports(proc.stderr))
        else:
            plain[i].append((payload, wall))

    def per_input(value: Callable[[dict, float], float]) -> float:
        return statistics.fmean(
            median([value(p, w) for p, w in runs]) for runs in plain.values()
        )

    def stage(name: str) -> Callable[[dict, float], float]:
        # The telemetry section keeps stage times to the microsecond; the
        # payload's top-level "timings" are rounded to 0.1 ms.
        return lambda p, w: p["provenance"]["telemetry"]["stages"][name]

    if len(plain) == count:
        walls = [w for runs in plain.values() for _, w in runs]
        out.metrics.update(
            setup_s=per_input(stage("load_seconds")),
            select_s=per_input(stage("selection_seconds")),
            estimate_s=per_input(
                lambda p, w: stage("estimator_build_seconds")(p, w) + stage("estimate_seconds")(p, w)
            ),
            objective=statistics.fmean(float(p["value"]) for p in first.values()),
            request_p50_ms=1000.0 * per_input(lambda p, w: w),
            throughput=len(walls) / sum(walls),
            peak_rss_mb=peak_rss_mb(resource.RUSAGE_CHILDREN),
        )
    if ctx.trace and imports and plain:
        walls = [w for runs in plain.values() for _, w in runs]
        out.metrics.update(_cli_layers(ctx, env, paths[0], imports, walls, traced))
    return out


def _cli_layers(ctx, env, spec_path, imports, plain, traced) -> Dict[str, float]:
    numpy_floor = []
    for _ in range(len(imports)):
        proc, _ = _launch(ctx, ["-X", "importtime", "-c", "import numpy"], env)
        if proc is not None:
            numpy_floor.append(_cumulative_imports(proc.stderr)[""])
    layers = {
        "cli.import_s": median([t[""] for t in imports]),
        "cli.import_numpy_s": median(numpy_floor),
        "bench.trace_overhead_s": median(traced) - median(plain),
    }
    for module in IMPORT_MODULES:
        layers[f"cli.import.{module}_s"] = median([t.get(f"repro.{module}", 0.0) for t in imports])

    # The same spec in this process, where the package is already imported:
    # the run itself without interpreter start-up, traced per layer.
    from repro.specs import load_experiment_spec

    spec = load_experiment_spec(str(spec_path))
    tracer = Tracer()
    untraced, traced_runs, layer_reps = [], [], []
    for rep in range(6):
        use_tracer = tracer if rep % 2 == 1 else None
        result, wall = run_pipeline_once(spec, use_tracer)
        if use_tracer is None:
            untraced.append((result, wall))
        else:
            traced_runs.append((result, wall))
            layer_reps.append((0,) + tracer.checkpoint())
    inproc = pipeline_layers(layer_reps, traced_runs, untraced, [result])
    inproc.pop("bench.trace_overhead_s")
    layers.update(inproc)
    layers["cli.run_inproc_s"] = median([w for _, w in untraced])
    tracer.dump(ctx.traces / f"{ctx.workload}-{ctx.seed}.json")
    return layers


WORKLOADS: Dict[str, Callable[[Context], Outcome]] = {
    "ris-wc": pipeline,
    "osim-oi": pipeline,
    "serve-closed": serve_closed,
    "cold-cli": cold_cli,
}
