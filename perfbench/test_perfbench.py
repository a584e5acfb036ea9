"""Self-test of the benchmark at tiny input sizes.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
It checks that every declared metric is emitted, finite and carries the
declared unit, that the output checks pass, that registry-derived counts
repeat exactly across two runs at one seed, and that the benchmark refuses
to run outside a checkout.
"""

from __future__ import annotations

import json
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

from workloads import COUNT_LAYERS

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Counts that depend only on the inputs, never on timing.
DETERMINISTIC_COUNTS = sorted(COUNT_LAYERS) + ["graphs.nodes", "graphs.edges"]

#: A layer each workload must exercise, so its per-layer numbers are not all 0.
EXERCISED = {
    "ris-wc": ("sketches.rr_sets", "sketches.members", "graphs.read_s"),
    "osim-oi": ("scoring.rebuilds", "diffusion.cascades", "opinion.annotate_s"),
    "serve-closed": ("runtime.blocks", "serving.evaluate_requests", "serving.artifact_load_s"),
    "cold-cli": ("cli.import_s", "cli.import_numpy_s", "cli.run_inproc_s"),
}


def run(workload: str, trace: int, seed: int = 3, cwd: pathlib.Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def assert_declared(result: dict, declared: list) -> None:
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert math.isfinite(entry["value"]), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = result_of(run(workload, trace=0))
    assert_declared(result, SPEC["end_to_end"])
    for name, entry in result["metrics"].items():
        assert entry["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_counts_repeat(workload):
    first = result_of(run(workload, trace=1))
    second = result_of(run(workload, trace=1))
    assert_declared(first, SPEC["per_layer"])
    for name in EXERCISED[workload]:
        assert first["metrics"][name]["value"] > 0, name
    for name in DETERMINISTIC_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run("ris-wc", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
