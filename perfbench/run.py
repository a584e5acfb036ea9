#!/usr/bin/env python3
"""End-to-end benchmark of the influence-maximization library.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ris-wc --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

``--workload all`` runs every workload, each in a fresh process.  Inputs
(edge lists, request schedules, the CLI spec) are generated from
``--seed``.  With ``--trace 0`` the result carries the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` the per-layer metrics, measured
by benchmark-side spans around the calls into each layer.  The last line
of standard output is one JSON object::

    {"correct": true, "attempted": 4, "failed": 0,
     "metrics": {"setup_s": {"value": 1.62, "unit": "s"}, ...}}

Per-layer metrics of layers a workload bypasses are reported as 0.
See ``perfbench/README.md`` for the workloads and which end-to-end metric
each layer metric is expected to move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("ris-wc", "osim-oi", "serve-closed", "cold-cli")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input sizes; 'tiny' is for the benchmark's self-test",
    )
    return parser.parse_args(argv)


def declared_metrics():
    """Name -> unit of the end-to-end and of the per-layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [{m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")]


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            cwd=ROOT, timeout=900,
        )
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not (
        ROOT / "examples" / "specs" / "ci_smoke.json"
    ).is_file():
        print(f"perfbench: {ROOT} is not a checkout of the repository "
              "(src/repro or examples/specs is missing)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    end_to_end, per_layer = declared_metrics()
    scratch = ROOT / ".perfbench"
    work = scratch / f"work-{args.workload}-{args.seed}"
    traces = scratch / "traces"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    traces.mkdir(parents=True, exist_ok=True)
    # Temporary files of the program (and of the CLI children) stay in the
    # checkout, and are removed with the work directory.
    os.environ["TMPDIR"] = tempfile.tempdir = str(work / "tmp")
    ctx = workloads.Context(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), size=workloads.SIZES[args.size],
        root=ROOT, work=work, traces=traces,
    )
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    unknown = sorted(set(outcome.metrics) - set(end_to_end) - set(per_layer))
    if unknown:
        raise SystemExit(f"perfbench: undeclared metrics {unknown}")
    for failure in outcome.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    metrics = {}
    for name, unit in (per_layer if args.trace else end_to_end).items():
        # Per-layer metrics of a layer the workload bypasses read 0; an
        # end-to-end metric is always measured and never 0.
        value = outcome.metrics.get(name, 0.0 if args.trace else None)
        if value is None or not math.isfinite(value) or (not args.trace and value <= 0):
            print(f"perfbench: metric {name} was not measured ({value})", file=sys.stderr)
            return 1
        metrics[name] = {"value": value, "unit": unit}
    for name, entry in metrics.items():
        print(f"{args.workload:>13} {name:<36} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps({
        "correct": outcome.failed == 0 and not outcome.failures,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
