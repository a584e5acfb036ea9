"""Command-line interface: thin shims over the declarative experiment API.

Installed as ``repro-im`` (see ``pyproject.toml``) and also runnable as
``python -m repro.cli``.  Sub-commands:

* ``datasets``   — list the synthetic dataset registry with Table 2 stats.
* ``select``     — run a seed-selection algorithm on a dataset or edge list.
* ``evaluate``   — evaluate a given seed set under a diffusion model.
* ``run``        — execute a declarative ``ExperimentSpec`` JSON file.
* ``experiments``— list the per-figure/table experiment index.
* ``index build``— sample RR sketches once and persist an influence index.
* ``index query``— answer select/evaluate/sweep queries from a persisted
  index, warm (no resampling).
* ``serve``      — run an :class:`~repro.serving.service.InfluenceService`
  over a JSON-lines stdin/stdout protocol.

``select``, ``evaluate``, ``index query`` and ``run`` are *shims*: each
constructs an :class:`~repro.specs.ExperimentSpec` (or an estimator spec)
from its flags and delegates to :func:`repro.api.run_experiment` /
:func:`repro.api.build_estimator`.  Under ``--json`` they all emit the one
``repro/run-result@1`` payload (see DESIGN.md, "Experiment API"), so
service clients parse a single schema regardless of which backend answered.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from repro.algorithms.registry import available_algorithms
from repro.api import (
    RunResult,
    build_estimator,
    def3_spread,
    jsonable as _jsonable,
    run_experiment,
)
from repro.bench.experiments import experiment_index_rows
from repro.bench.reporting import format_table
from repro.datasets.registry import available_datasets, dataset_spec, load_dataset
from repro.diffusion.registry import available_models
from repro.exceptions import ConfigurationError, ExecutionInterrupted
from repro.runtime import BuildCheckpoint, InterruptGuard
from repro.runtime.interrupt import raise_on_sigterm
from repro.sketches.sampler import SUPPORTED_MODELS as RIS_MODELS
from repro.graphs.stats import compute_stats
from repro.serving import InfluenceIndex, InfluenceService
from repro.specs import (
    AlgorithmSpec,
    EstimatorSpec,
    EvalSpec,
    ExperimentSpec,
    GraphSpec,
    ModelSpec,
    load_experiment_spec,
)

#: Exit code for a build/run stopped cooperatively by SIGINT/SIGTERM after
#: flushing its checkpoint — distinct from success (0) and ReproError (2)
#: so schedulers and the chaos harness can tell "resumable interrupt" apart
#: from "failed".  130 matches the shell convention for SIGINT termination.
EXIT_INTERRUPTED = 130


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-im",
        description="Opinion-aware influence maximization (EaSyIM / OSIM reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    datasets_parser = subparsers.add_parser(
        "datasets", help="list the synthetic dataset registry"
    )
    datasets_parser.add_argument(
        "--stats", action="store_true", help="also compute stats of the generated graphs"
    )
    datasets_parser.add_argument("--scale", type=float, default=1.0)
    datasets_parser.add_argument("--seed", type=int, default=0)

    select_parser = subparsers.add_parser("select", help="run seed selection")
    _add_graph_arguments(select_parser)
    select_parser.add_argument(
        "--algorithm", default="easyim", choices=available_algorithms()
    )
    select_parser.add_argument("--model", default="ic", choices=available_models())
    select_parser.add_argument("--budget", "-k", type=int, default=10)
    select_parser.add_argument("--max-path-length", "-l", type=int, default=3)
    select_parser.add_argument("--simulations", type=int, default=300)
    select_parser.add_argument(
        "--max-rr-sets", type=int, default=2_000_000,
        help="RR-set cap for the RIS algorithms (tim+/imm)",
    )
    select_parser.add_argument("--penalty", type=float, default=1.0)
    select_parser.add_argument(
        "--full-recompute", action="store_true",
        help="disable the incremental score engine for easyim/osim and "
        "re-run the full score pass every iteration (identical seed sets)",
    )
    select_parser.add_argument(
        "--fallback-fraction", type=float, default=None,
        help="incremental edge-work budget per update as a fraction of the "
        "full l*m score pass before the engine falls back to a rebuild",
    )
    select_parser.add_argument(
        "--selection-seed", type=int, default=None,
        help="seed the selector's own RNG (cascade re-estimation draws) so "
        "repeated runs pick identical seed sets; distinct from the "
        "graph-generation --seed",
    )
    select_parser.add_argument(
        "--annotate", action="store_true",
        help="annotate opinions (uniform) and interactions (uniform) before selection",
    )
    select_parser.add_argument("--json", action="store_true", help="emit JSON output")

    evaluate_parser = subparsers.add_parser("evaluate", help="evaluate a seed set")
    _add_graph_arguments(evaluate_parser)
    evaluate_parser.add_argument("--model", default="ic", choices=available_models())
    evaluate_parser.add_argument("--seeds", required=True,
                                 help="comma-separated seed node identifiers")
    evaluate_parser.add_argument("--simulations", type=int, default=1000)
    evaluate_parser.add_argument("--penalty", type=float, default=1.0)
    evaluate_parser.add_argument(
        "--annotate", action="store_true",
        help="annotate opinions/interactions before evaluation",
    )
    evaluate_parser.add_argument("--json", action="store_true")

    run_parser = subparsers.add_parser(
        "run", help="execute a declarative ExperimentSpec JSON file"
    )
    run_parser.add_argument("spec", help="path to an ExperimentSpec JSON document")
    run_parser.add_argument(
        "--validate-only", action="store_true",
        help="validate the spec and exit without running it",
    )
    run_parser.add_argument(
        "--checkpoint", nargs="?", const="", default=None, metavar="PATH",
        help="persist the completed selection stage so an interrupted run "
        "can resume; PATH defaults to <spec>.ckpt.json",
    )
    run_parser.add_argument(
        "--resume", action="store_true",
        help="resume from the run checkpoint (implies --checkpoint); the "
        "checkpoint must have been written by the exact same spec",
    )
    run_parser.add_argument("--json", action="store_true", help="emit JSON output")

    subparsers.add_parser("experiments", help="list the paper experiment index")

    index_parser = subparsers.add_parser(
        "index", help="build or query a persistent influence index"
    )
    index_subparsers = index_parser.add_subparsers(
        dest="index_command", required=True
    )

    build_parser_ = index_subparsers.add_parser(
        "build", help="sample RR sketches and persist an index artifact"
    )
    _add_graph_arguments(build_parser_)
    build_parser_.add_argument(
        "--model", default="ic", choices=sorted(RIS_MODELS),
        help="RIS diffusion model the sketches are sampled under",
    )
    build_parser_.add_argument(
        "--theta", type=int, default=20_000,
        help="number of RR sets to sample into the index",
    )
    build_parser_.add_argument(
        "--engine-seed", type=int, default=0,
        help="sampling seed persisted with the artifact (growth replays it)",
    )
    build_parser_.add_argument("--block-size", type=int, default=2048)
    build_parser_.add_argument(
        "--output", "-o", required=True, help="artifact path (.npz)"
    )
    build_parser_.add_argument(
        "--workers", type=int, default=1,
        help="supervised worker processes sampling blocks in parallel; the "
        "built index is bit-identical for any worker count",
    )
    build_parser_.add_argument(
        "--checkpoint", action="store_true",
        help="periodically persist progress next to --output "
        "(<output>.ckpt.npz/.json) so a killed build can --resume",
    )
    build_parser_.add_argument(
        "--checkpoint-every", type=int, default=8, metavar="BLOCKS",
        help="checkpoint cadence in completed sampler blocks",
    )
    build_parser_.add_argument(
        "--resume", action="store_true",
        help="resume from the checkpoint next to --output if one exists "
        "(implies --checkpoint); the resumed artifact is bit-identical to "
        "an uninterrupted build",
    )
    build_parser_.add_argument("--json", action="store_true")

    query_parser = index_subparsers.add_parser(
        "query", help="answer queries from a persisted index (no resampling)"
    )
    _add_graph_arguments(query_parser)
    query_parser.add_argument(
        "--artifact", required=True, help="index artifact built by `index build`"
    )
    what = query_parser.add_mutually_exclusive_group(required=True)
    what.add_argument(
        "--budget", "-k", type=int, help="warm seed selection for budget k"
    )
    what.add_argument(
        "--seeds", help="comma-separated seeds to estimate the spread of"
    )
    what.add_argument(
        "--sweep", help="comma-separated seed counts for a spread curve"
    )
    query_parser.add_argument(
        "--grow-theta", type=int, default=None,
        help="grow the index to this many RR sets (and re-persist) first",
    )
    query_parser.add_argument(
        "--no-mmap", action="store_true",
        help="load the artifact eagerly instead of memory-mapping it",
    )
    query_parser.add_argument("--json", action="store_true")

    serve_parser = subparsers.add_parser(
        "serve", help="serve influence queries over JSON lines on stdin/stdout"
    )
    _add_graph_arguments(serve_parser)
    serve_parser.add_argument(
        "--model", default="ic", choices=sorted(RIS_MODELS),
        help="model used when a request does not name one (the last "
        "preloaded --artifact's model takes precedence over this default)",
    )
    serve_parser.add_argument(
        "--artifact", action="append", default=[],
        help="preload an index artifact (repeatable)",
    )
    serve_parser.add_argument(
        "--theta", type=int, default=20_000,
        help="RR sets sampled when an index must be built on demand",
    )
    serve_parser.add_argument(
        "--engine-seed", type=int, default=0,
        help="sampling seed for on-demand indexes (same default as "
        "`index build`, distinct from the graph-generation --seed)",
    )
    serve_parser.add_argument(
        "--capacity", type=int, default=8,
        help="maximum resident indexes before LRU eviction",
    )
    serve_parser.add_argument(
        "--deadline-ms", type=float, default=None,
        help="default per-request deadline in milliseconds; a request that "
        "cannot finish in budget fails fast with DeadlineExceeded (or "
        "degrades, see --degraded-ok) instead of hanging",
    )
    serve_parser.add_argument(
        "--max-queue", type=int, default=None,
        help="admission limit: with more than this many requests in flight, "
        "new requests are shed with ServiceOverloadedError",
    )
    serve_parser.add_argument(
        "--degraded-ok", action="store_true",
        help="answer from the cheap degree-heuristic / cached-spread "
        "fallback (marked degraded:true with a reason) when an index is "
        "unavailable, instead of erroring",
    )
    serve_parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve Prometheus text on http://127.0.0.1:PORT/metrics (and "
        "JSON on /metrics.json) from a background thread; 0 picks a free "
        "port (announced on stderr)",
    )

    telemetry_parser = subparsers.add_parser(
        "telemetry",
        help="pretty-print the telemetry section of a run-result JSON file",
    )
    telemetry_parser.add_argument(
        "result", help="path to a repro/run-result@1 JSON file (repro run "
        "--json output)",
    )
    telemetry_parser.add_argument("--json", action="store_true")

    lint_parser = subparsers.add_parser(
        "lint",
        help="run the project invariant linter (repro.devtools) over source "
        "trees",
    )
    lint_parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint_parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="baseline JSON of known violations; only *new* findings fail "
        "(and stale entries are reported so paid-down debt gets removed)",
    )
    lint_parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite --baseline FILE from this run's findings and exit 0 "
        "(justifications of surviving entries are preserved)",
    )
    lint_parser.add_argument(
        "--diff-baseline", action="store_true",
        help="compare this run against --baseline FILE: print added findings "
        "and stale (paid-down) entries; exit nonzero on either, so the "
        "baseline can only shrink",
    )
    lint_parser.add_argument(
        "--rules", default=None, metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    lint_parser.add_argument(
        "--scope", choices=("file", "project", "all"), default="all",
        help="run only the per-file rules, only the whole-program rules "
        "(REP011+), or both (default)",
    )
    lint_parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit",
    )
    lint_parser.add_argument(
        "--explain", default=None, metavar="CODE",
        help="print the full explanation for one rule (e.g. REP011) and exit",
    )
    lint_parser.add_argument(
        "--callgraph", action="store_true",
        help="dump the resolved whole-program call graph as JSON and exit",
    )
    lint_parser.add_argument("--json", action="store_true")
    return parser


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--dataset", choices=available_datasets(),
                       help="named synthetic dataset")
    group.add_argument("--edge-list", help="path to an edge-list file")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)


def _graph_spec_from_args(args: argparse.Namespace) -> GraphSpec:
    """The declarative description of the graph the CLI flags name."""
    return GraphSpec(
        dataset=getattr(args, "dataset", None),
        edge_list=getattr(args, "edge_list", None),
        scale=args.scale,
        seed=args.seed,
        annotate=bool(getattr(args, "annotate", False)),
    )


def _load_graph(args: argparse.Namespace):
    return _graph_spec_from_args(args).build()


def _print_result(result: RunResult, as_json: bool) -> None:
    """Emit a RunResult: the unified JSON payload, or a flat table row."""
    payload = result.to_payload()
    if as_json:
        print(json.dumps(payload, indent=2))
        return
    flat = {
        key: value
        for key, value in payload.items()
        if key not in ("schema", "timings", "provenance", "selection_metadata")
    }
    if "seeds" in flat:
        flat["seeds"] = ",".join(flat["seeds"])
    if "curve" in flat:
        flat["curve"] = ", ".join(f"k={k}: {v}" for k, v in flat["curve"].items())
    print(format_table([flat], title=f"{result.query.capitalize()} result"))


def _command_datasets(args: argparse.Namespace) -> int:
    rows = []
    for name in available_datasets():
        spec = dataset_spec(name)
        row = {
            "dataset": name,
            "paper n": spec.paper_nodes,
            "paper m": spec.paper_edges,
            "paper avg deg": spec.paper_avg_degree,
            "synthetic n": spec.nodes_at_scale(args.scale),
            "family": spec.family,
        }
        if args.stats:
            graph = load_dataset(name, scale=args.scale, seed=args.seed)
            stats = compute_stats(graph, seed=args.seed)
            row["synthetic m"] = stats.edges
            row["synthetic avg deg"] = round(stats.average_degree, 2)
            row["synthetic 90% diam"] = round(stats.effective_diameter, 1)
        rows.append(row)
    print(format_table(rows, title="Synthetic dataset registry (Table 2 stand-ins)"))
    return 0


def _select_spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    """Map ``select`` flags onto a declarative spec (behaviour-preserving)."""
    options: dict = {}
    if args.algorithm in ("easyim", "osim", "path-union"):
        options["max_path_length"] = args.max_path_length
        if args.algorithm in ("easyim", "osim"):
            options["incremental"] = not args.full_recompute
            if args.fallback_fraction is not None:
                options["fallback_fraction"] = args.fallback_fraction
    elif args.algorithm in ("greedy", "celf", "celf++", "modified-greedy"):
        options["simulations"] = max(50, args.simulations // 5)
    elif args.algorithm in ("tim+", "imm"):
        options["max_rr_sets"] = args.max_rr_sets
    return ExperimentSpec(
        name=f"cli-select-{args.algorithm}",
        graph=_graph_spec_from_args(args),
        model=ModelSpec(name=args.model),
        algorithm=AlgorithmSpec(name=args.algorithm, options=options),
        budget=args.budget,
        seed=args.selection_seed,
        evaluation=EvalSpec(
            objective="spread",
            penalty=args.penalty,
            estimator=EstimatorSpec(
                backend="monte-carlo",
                simulations=args.simulations,
                engine_seed=args.seed,
            ),
        ),
    )


def _command_select(args: argparse.Namespace) -> int:
    result = run_experiment(_select_spec_from_args(args))
    result.query = "select"
    _print_result(result, args.json)
    return 0


def _coerce_seed(token):
    """Convert a seed token to an int label where possible, else keep it."""
    if isinstance(token, str):
        try:
            return int(token)
        except ValueError:
            return token
    return token


def _parse_seeds(text: str) -> list:
    """Parse a comma-separated seed list (ints where possible, else labels)."""
    return [
        _coerce_seed(token)
        for token in (t.strip() for t in text.split(","))
        if token
    ]


def _parse_counts(text: str) -> list:
    """Parse a comma-separated list of seed counts for a k-sweep."""
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ConfigurationError(
            f"sweep counts must be comma-separated integers, got {text!r}"
        )


def _command_evaluate(args: argparse.Namespace) -> int:
    spec = ExperimentSpec(
        name="cli-evaluate",
        graph=_graph_spec_from_args(args),
        model=ModelSpec(name=args.model),
        seeds=_parse_seeds(args.seeds),
        evaluation=EvalSpec(
            objective="spread",
            penalty=args.penalty,
            estimator=EstimatorSpec(
                backend="monte-carlo",
                simulations=args.simulations,
                engine_seed=args.seed,
            ),
        ),
    )
    result = run_experiment(spec)
    _print_result(result, args.json)
    return 0


def _command_run(args: argparse.Namespace) -> int:
    spec = load_experiment_spec(args.spec)
    if args.validate_only:
        print(json.dumps({"ok": True, "spec": spec.to_dict()}, indent=2)
              if args.json else f"spec {args.spec!r} is valid ({spec.name})")
        return 0
    checkpoint = args.checkpoint
    if checkpoint is None and args.resume:
        checkpoint = ""
    if checkpoint == "":
        checkpoint = f"{args.spec}.ckpt.json"
    # Selection is one monolithic selector call with no block boundaries to
    # stop at, so `run` cannot defer signals the way `index build` does;
    # instead SIGTERM is mapped onto the KeyboardInterrupt path Ctrl-C
    # already takes.  The selection checkpoint is written the moment the
    # stage completes, so whatever finished before the signal is kept.
    try:
        with raise_on_sigterm():
            result = run_experiment(
                spec, checkpoint=checkpoint, resume=args.resume
            )
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        if checkpoint is not None:
            print(
                "selection progress (if the stage completed) is checkpointed"
                f" at {checkpoint}; resume with: repro-im run {args.spec}"
                f" --checkpoint {checkpoint} --resume",
                file=sys.stderr,
            )
        else:
            print(
                "no checkpoint was enabled; rerun with --checkpoint to make "
                "runs resumable",
                file=sys.stderr,
            )
        return EXIT_INTERRUPTED
    _print_result(result, args.json)
    return 0


def _command_experiments(_: argparse.Namespace) -> int:
    print(format_table(experiment_index_rows(), title="Paper experiment index"))
    return 0


def _command_index(args: argparse.Namespace) -> int:
    if args.index_command == "build":
        return _command_index_build(args)
    return _command_index_query(args)


def _command_index_build(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    compiled = graph.compile()
    checkpoint = None
    if args.checkpoint or args.resume:
        checkpoint = BuildCheckpoint(args.output, every=args.checkpoint_every)
    started = time.perf_counter()
    index = None
    resumed_from = None
    if args.resume and checkpoint is not None:
        index = checkpoint.resume(
            compiled,
            model=args.model,
            engine_seed=args.engine_seed,
            block_size=args.block_size,
        )
        if index is not None:
            resumed_from = index.theta
    guard = InterruptGuard()
    try:
        with guard:
            if index is None:
                index = InfluenceIndex.build(
                    compiled,
                    args.model,
                    args.theta,
                    engine_seed=args.engine_seed,
                    block_size=args.block_size,
                    workers=args.workers,
                    checkpoint=checkpoint,
                    stop=guard.stop_requested,
                )
            else:
                index.grow(
                    args.theta,
                    workers=args.workers,
                    checkpoint=checkpoint,
                    stop=guard.stop_requested,
                )
    except ExecutionInterrupted as error:
        # grow() flushed a final checkpoint (when one was enabled) before
        # raising, so the completed prefix survives the signal.
        signal_name = guard.signal_name or "signal"
        print(f"interrupted by {signal_name}: {error}", file=sys.stderr)
        if checkpoint is not None:
            print(
                f"checkpoint saved at {checkpoint.manifest_path}; resume "
                f"with: repro-im index build ... --output {args.output} "
                "--resume",
                file=sys.stderr,
            )
        else:
            print(
                "no checkpoint was enabled; rerun with --checkpoint to make "
                "builds resumable",
                file=sys.stderr,
            )
        return EXIT_INTERRUPTED
    build_seconds = time.perf_counter() - started
    path = index.save(args.output)
    if checkpoint is not None:
        # The final artifact supersedes the partial; keep the directory
        # clean so a later --resume of a *different* build cannot trip over
        # a stale manifest.
        checkpoint.clear()
    payload = {
        "artifact": str(path),
        "dataset": graph.name,
        "model": args.model,
        "theta": index.theta,
        "nodes": index.graph.number_of_nodes,
        "edges": index.graph.number_of_edges,
        "fingerprint": index.fingerprint[:16],
        "artifact_bytes": path.stat().st_size,
        "build_seconds": round(build_seconds, 4),
        "workers": args.workers,
    }
    if resumed_from is not None:
        payload["resumed_from_theta"] = resumed_from
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(format_table([payload], title="Influence index built"))
    return 0


def _command_index_query(args: argparse.Namespace) -> int:
    graph_spec = _graph_spec_from_args(args)
    graph = graph_spec.build().compile()
    estimator_spec = EstimatorSpec(
        backend="index", artifact=args.artifact, mmap=not args.no_mmap
    )
    started = time.perf_counter()
    estimator = build_estimator(estimator_spec, graph, None)
    load_seconds = time.perf_counter() - started
    index = estimator.index
    if args.grow_theta is not None and args.grow_theta > index.theta:
        index.grow(args.grow_theta)
        index.save(args.artifact)

    timings = {"load_seconds": load_seconds}
    started = time.perf_counter()
    extras = {
        "artifact": str(args.artifact),
        "theta": index.theta,
        "memory_mapped": index.memory_mapped,
    }
    if args.budget is not None:
        selection = index.select(args.budget)
        result = RunResult(
            query="select",
            seeds=list(selection.seeds),
            model=index.model,
            objective="spread",
            backend="index",
            budget=args.budget,
            spreads={"estimated_spread": selection.estimated_spread},
            extras={**extras, "covered_fraction": round(selection.covered_fraction, 6)},
        )
    elif args.seeds is not None:
        seeds = _parse_seeds(args.seeds)
        result = RunResult(
            query="evaluate",
            seeds=seeds,
            model=index.model,
            objective="spread",
            backend="index",
            spreads=estimator.details(seeds),
            extras=extras,
        )
    else:
        counts = _parse_counts(args.sweep)
        raw_curve = index.spread_curve(counts)
        # Def.-3 spread (activated nodes excluding seeds), matching what the
        # estimator backends report for the same schema field; the raw
        # seed-inclusive values stay available as estimated_curve.
        result = RunResult(
            query="sweep",
            seeds=[],
            model=index.model,
            objective="spread",
            backend="index",
            curve={k: def3_spread(v, k) for k, v in raw_curve.items()},
            extras={
                **extras,
                "estimated_curve": {
                    str(k): round(float(v), 3) for k, v in raw_curve.items()
                },
            },
        )
    timings["query_seconds"] = time.perf_counter() - started
    result.dataset = graph_spec.dataset
    result.timings = timings
    result.provenance = {
        "graph_fingerprint": index.fingerprint,
        "n": index.graph.number_of_nodes,
        "m": index.graph.number_of_edges,
        "estimator": estimator.describe(),
        "numpy_version": index.numpy_version,
    }
    payload = result.to_payload()
    # Back-compat keys the pre-spec CLI emitted at top level.
    payload.setdefault("load_seconds", round(load_seconds, 6))
    payload.setdefault("query_seconds", round(timings["query_seconds"], 6))
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        _print_result(result, as_json=False)
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    """JSON-lines serving loop: one request object in, one response out.

    Requests: ``{"op": "select", "k": 10}``, ``{"op": "evaluate",
    "seeds": [..]}``, ``{"op": "sweep", "counts": [..]}``, ``{"op":
    "reload", "artifact": "path"}`` (hot-swap a re-persisted artifact),
    ``{"op": "stats"}``, ``{"op": "ping"}`` and ``{"op": "shutdown"}``.
    Any request may carry ``"model"`` to override the CLI default, and
    ``"deadline_ms"`` / ``"degraded_ok"`` to override the serve-level
    fault-tolerance flags.  Responses carry ``"ok"`` plus either the
    result fields or an ``"error"`` message, so a client never has to
    parse log text; degraded answers additionally carry ``"degraded":
    true`` and a ``"degraded_reason"``.

    The wire protocol is intentionally smaller than the ``repro/run-result@1``
    payload: each request is one warm index query, so responses carry only
    the per-request numbers.
    """
    from repro.telemetry.export import MetricsServer, snapshot as _metrics_snapshot
    from repro.telemetry.registry import default_registry

    # Compile once: the service keys every request by the graph's content
    # fingerprint, which is cached on the immutable CompiledGraph — passing
    # the mutable DiGraph would recompile and re-hash per request, costing
    # more than the warm query itself.
    graph = _load_graph(args).compile()
    service = InfluenceService(
        capacity=args.capacity,
        default_theta=args.theta,
        engine_seed=args.engine_seed,
        max_queue=args.max_queue,
        default_deadline_ms=args.deadline_ms,
    )
    default_model = args.model
    for artifact in args.artifact:
        loaded = service.load_artifact(artifact, graph)
        # A request that names no model should hit the artifact the operator
        # preloaded, not silently trigger an on-demand build under the CLI's
        # --model default for a different model.
        default_model = loaded.model
    metrics_server = None
    if args.metrics_port is not None:
        # collect=service.stats refreshes the breaker/inflight gauges under
        # the service lock right before each scrape renders them.
        metrics_server = MetricsServer(
            [service.telemetry, default_registry()],
            port=args.metrics_port,
            collect=service.stats,
        )
        metrics_server.start()
        print(
            f"metrics: http://127.0.0.1:{metrics_server.port}/metrics",
            file=sys.stderr,
            flush=True,
        )
    try:
        _serve_loop(args, graph, service, default_model, _metrics_snapshot)
    finally:
        if metrics_server is not None:
            metrics_server.close()
    return 0


def _serve_loop(
    args: argparse.Namespace,
    graph,
    service: InfluenceService,
    default_model: str,
    _metrics_snapshot,
) -> None:
    """Body of ``repro serve``: read requests until EOF or shutdown."""
    from repro.exceptions import ReproError
    from repro.telemetry.registry import default_registry

    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ConfigurationError("request must be a JSON object")
            op = request.get("op")
            model = request.get("model", default_model)
            deadline_ms = request.get("deadline_ms")
            if deadline_ms is not None:
                deadline_ms = float(deadline_ms)
            degraded_ok = bool(request.get("degraded_ok", args.degraded_ok))
            if op == "ping":
                response = {"ok": True, "op": "ping"}
            elif op == "stats":
                response = {
                    "ok": True,
                    "op": "stats",
                    **_jsonable(service.stats()),
                    "telemetry": _metrics_snapshot(
                        service.telemetry, default_registry()
                    ),
                }
            elif op == "select":
                selection = service.select(
                    graph,
                    model,
                    int(request["k"]),
                    deadline_ms=deadline_ms,
                    degraded_ok=degraded_ok,
                )
                response = {
                    "ok": True,
                    "op": "select",
                    "seeds": [str(s) for s in selection.seeds],
                    "estimated_spread": round(selection.estimated_spread, 3),
                    "theta": selection.theta,
                    "degraded": bool(selection.extras.get("degraded", False)),
                }
                if response["degraded"]:
                    response["degraded_reason"] = selection.extras.get(
                        "degraded_reason"
                    )
            elif op == "evaluate":
                seeds = request["seeds"]
                if isinstance(seeds, str):
                    seeds = _parse_seeds(seeds)
                else:
                    # Our own select responses carry seeds as JSON strings;
                    # coerce element-wise so they round-trip into evaluate.
                    seeds = [_coerce_seed(s) for s in seeds]
                spread = service.evaluate(
                    graph,
                    model,
                    seeds,
                    deadline_ms=deadline_ms,
                    degraded_ok=degraded_ok,
                )
                response = {
                    "ok": True,
                    "op": "evaluate",
                    "estimated_spread": round(spread, 3),
                    "degraded": bool(getattr(spread, "degraded", False)),
                }
                if response["degraded"]:
                    response["degraded_reason"] = spread.reason
            elif op == "sweep":
                curve = service.sweep(
                    graph,
                    model,
                    [int(k) for k in request["counts"]],
                    deadline_ms=deadline_ms,
                    degraded_ok=degraded_ok,
                )
                response = {
                    "ok": True,
                    "op": "sweep",
                    "curve": {str(k): round(v, 3) for k, v in curve.items()},
                    "degraded": bool(getattr(curve, "degraded", False)),
                }
                if response["degraded"]:
                    response["degraded_reason"] = curve.reason
            elif op == "reload":
                swapped = service.hot_swap(str(request["artifact"]), graph)
                default_model = swapped.model
                response = {
                    "ok": True,
                    "op": "reload",
                    "model": swapped.model,
                    "theta": swapped.theta,
                    "fingerprint": swapped.fingerprint[:12],
                }
            elif op == "shutdown":
                print(json.dumps({"ok": True, "op": "shutdown"}), flush=True)
                break
            else:
                raise ConfigurationError(f"unknown op {op!r}")
        except (ReproError, KeyError, TypeError, ValueError, OverflowError, OSError) as error:
            # A malformed request must never kill the loop — e.g. a JSON
            # 1e400 becomes float('inf') and int() then raises OverflowError,
            # and a reload of a directory raises IsADirectoryError.
            response = {"ok": False, "error": str(error) or repr(error)}
        print(json.dumps(response), flush=True)


def _command_telemetry(args: argparse.Namespace) -> int:
    """Pretty-print the ``provenance.telemetry`` section of a run result."""
    with open(args.result, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    provenance = payload.get("provenance", {})
    telemetry = provenance.get("telemetry") if isinstance(provenance, dict) else None
    if not telemetry:
        print(f"{args.result}: no telemetry section (run predates telemetry?)")
        return 1
    if args.json:
        print(json.dumps(telemetry, indent=2))
        return 0
    stages = telemetry.get("stages", {})
    total = float(stages.get("total_seconds", 0.0)) or None
    print(f"telemetry for {payload.get('query', '?')} "
          f"({payload.get('dataset', '?')}, {payload.get('backend', '?')})")
    print("\nstages:")
    for name, seconds in sorted(stages.items(), key=lambda item: -item[1]):
        share = f"  {100.0 * seconds / total:5.1f}%" if total else ""
        print(f"  {name:28s} {seconds * 1000.0:10.2f} ms{share}")
    rss = telemetry.get("peak_rss_mb")
    if rss is not None:
        print(f"\npeak RSS: {rss:.1f} MB")
    spans = telemetry.get("spans", [])
    if spans:
        dropped = telemetry.get("dropped_spans", 0)
        suffix = f" ({dropped} dropped)" if dropped else ""
        print(f"\nspans ({len(spans)} recorded{suffix}):")
        children: dict = {}
        roots = []
        for span_dict in spans:
            parent = span_dict.get("parent_id")
            if parent is None:
                roots.append(span_dict)
            else:
                children.setdefault(parent, []).append(span_dict)

        def _print_tree(node: dict, depth: int) -> None:
            duration = float(node.get("duration", 0.0)) * 1000.0
            attrs = node.get("attributes") or {}
            rendered = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            rendered = f"  [{rendered}]" if rendered else ""
            print(f"  {'  ' * depth}{node['name']:<{28 - 2 * depth}s} "
                  f"{duration:10.2f} ms{rendered}")
            for child in children.get(node.get("span_id"), []):
                _print_tree(child, depth + 1)

        for root in roots:
            _print_tree(root, 0)
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    # Imported lazily: the devtools framework is stdlib-only, but keeping it
    # out of module scope means `repro select` never pays for it at all.
    import pathlib

    from repro import devtools

    if args.list_rules:
        rules = devtools.all_rules()
        if args.json:
            print(json.dumps([
                {"code": rule.code, "name": rule.name, "summary": rule.summary}
                for rule in rules
            ], indent=2))
        else:
            for rule in rules:
                print(f"{rule.code}  {rule.name:22s} {rule.summary}")
        return 0

    if args.explain:
        rule = devtools.get_rule(args.explain.strip())
        doc = (type(rule).__doc__ or "").strip()
        if args.json:
            print(json.dumps({
                "code": rule.code, "name": rule.name,
                "summary": rule.summary, "explanation": doc,
            }, indent=2))
        else:
            print(f"{rule.code}  {rule.name}\n{rule.summary}\n")
            if doc:
                print(doc)
        return 0

    rules = None
    if args.rules:
        rules = [
            devtools.get_rule(code.strip())
            for code in args.rules.split(",")
            if code.strip()
        ]
    if args.scope != "all":
        candidates = rules if rules is not None else devtools.all_rules()
        keep_project = args.scope == "project"
        rules = [
            rule for rule in candidates
            if isinstance(rule, devtools.ProjectRule) == keep_project
        ]
    paths = [pathlib.Path(path) for path in args.paths]
    root = pathlib.Path.cwd()

    if args.callgraph:
        from repro.devtools.callgraph import parse_cached
        from repro.devtools.framework import ProjectContext, iter_source_files

        entries = []
        for path in iter_source_files(paths):
            try:
                relpath = str(path.resolve().relative_to(root.resolve()))
            except ValueError:
                relpath = str(path)
            entries.append(
                (path, relpath.replace("\\", "/"), parse_cached(path))
            )
        context = ProjectContext.build(entries)
        print(json.dumps(context.graph.to_dict(), indent=2))
        return 0

    if args.update_baseline:
        if not args.baseline:
            raise ConfigurationError("--update-baseline requires --baseline FILE")
        baseline_path = pathlib.Path(args.baseline)
        previous_justifications = {}
        if baseline_path.exists():
            previous_justifications = devtools.Baseline.load(
                baseline_path
            ).justifications
        report = devtools.run_lint(paths, root=root, rules=rules)
        devtools.Baseline.from_findings(
            report.findings, previous_justifications
        ).save(baseline_path)
        print(
            f"baseline {args.baseline} updated: "
            f"{len(report.findings)} finding(s) recorded"
        )
        return 0

    if args.diff_baseline:
        if not args.baseline:
            raise ConfigurationError("--diff-baseline requires --baseline FILE")
        baseline = devtools.Baseline.load(pathlib.Path(args.baseline))
        report = devtools.run_lint(paths, root=root, rules=rules, baseline=baseline)
        if args.json:
            print(json.dumps({
                "added": [finding.to_dict() for finding in report.findings],
                "stale": list(report.stale_baseline),
                "ok": report.ok,
            }, indent=2))
        else:
            for finding in report.findings:
                print(
                    f"+ {finding.path}:{finding.line} {finding.rule} "
                    f"{finding.message}"
                )
            for key in report.stale_baseline:
                print(f"- stale (violation fixed — remove the entry): {key}")
            if report.ok:
                print("baseline is exact: no new findings, no stale entries")
        return 0 if report.ok else 1

    baseline = (
        devtools.Baseline.load(pathlib.Path(args.baseline))
        if args.baseline
        else None
    )
    report = devtools.run_lint(paths, root=root, rules=rules, baseline=baseline)
    print(devtools.render_json(report) if args.json else devtools.render_text(report))
    return 0 if report.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "datasets": _command_datasets,
        "select": _command_select,
        "evaluate": _command_evaluate,
        "run": _command_run,
        "experiments": _command_experiments,
        "index": _command_index,
        "serve": _command_serve,
        "telemetry": _command_telemetry,
        "lint": _command_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    from repro.exceptions import ReproError as _ReproError

    try:
        sys.exit(main())
    except _ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        sys.exit(2)
