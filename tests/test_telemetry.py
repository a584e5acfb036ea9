"""Tests for repro.telemetry: registry, tracing, exporters, instrumentation.

The exporter goldens pin the Prometheus text exposition format exactly
(label escaping, ``+Inf`` terminal bucket, ``_sum``/``_count``
consistency); the concurrency test hammers one registry from many threads
and asserts the final snapshot is exact, which is the thread-safety
contract the serving instrumentation relies on.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import subprocess
import sys
import threading
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro.exceptions import ConfigurationError, LifecycleError
from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    MetricsServer,
    NULL_SPAN,
    TraceRecorder,
    chrome_trace,
    current_recorder,
    default_registry,
    recording,
    render_json,
    render_prometheus,
    reset_default_registry,
    set_default_registry,
    snapshot,
    span,
    use_registry,
)


# ------------------------------------------------------------------ registry


class TestRegistry:
    def test_counter_accumulates_and_snapshots(self):
        reg = MetricsRegistry()
        counter = reg.counter("repro_test_events_total", "Events.")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        sample = reg.snapshot()["metrics"]["repro_test_events_total"]
        assert sample["type"] == "counter"
        assert sample["samples"] == [{"labels": {}, "value": 3.5}]

    def test_counter_rejects_negative_increments(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError, match="only go up"):
            reg.counter("repro_test_total").inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("repro_test_inflight")
        gauge.set(5)
        gauge.dec(2)
        gauge.inc()
        assert gauge.value == 4.0

    def test_histogram_buckets_sum_count_quantiles(self):
        reg = MetricsRegistry()
        histogram = reg.histogram(
            "repro_test_seconds", "Latency.", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.05, 0.5, 2.0):
            histogram.observe(value)
        child = histogram._unlabeled()
        assert child.count == 4
        assert child.sum == pytest.approx(2.6)
        assert child.bucket_counts() == [
            (0.1, 2), (1.0, 3), (10.0, 4), (math.inf, 4),
        ]
        # The median falls in the first bucket; interpolation stays inside it.
        assert 0.0 < child.quantile(0.5) <= 0.1
        assert 1.0 < child.quantile(0.99) <= 10.0

    def test_default_latency_buckets_are_strictly_increasing(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)
        assert len(set(DEFAULT_LATENCY_BUCKETS)) == len(DEFAULT_LATENCY_BUCKETS)
        assert DEFAULT_LATENCY_BUCKETS[0] <= 0.001  # sub-millisecond resolution
        assert DEFAULT_LATENCY_BUCKETS[-1] >= 10.0  # covers slow builds

    def test_labeled_children_are_distinct_and_cached(self):
        reg = MetricsRegistry()
        family = reg.counter(
            "repro_test_requests_total", "Requests.", labelnames=("op", "outcome")
        )
        family.labels(op="evaluate", outcome="ok").inc()
        family.labels(op="evaluate", outcome="ok").inc()
        family.labels(op="select", outcome="degraded").inc()
        assert family.labels(op="evaluate", outcome="ok").value == 2.0
        assert family.labels(op="select", outcome="degraded").value == 1.0
        assert len(family.children()) == 2

    def test_get_or_create_returns_same_family(self):
        reg = MetricsRegistry()
        assert reg.counter("repro_test_total") is reg.counter("repro_test_total")

    def test_type_mismatch_is_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_test_total")
        with pytest.raises(ConfigurationError, match="already registered"):
            reg.gauge("repro_test_total")

    def test_labelnames_mismatch_is_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_test_total", labelnames=("op",))
        with pytest.raises(ConfigurationError, match="labels"):
            reg.counter("repro_test_total", labelnames=("kind",))

    @pytest.mark.parametrize(
        "name", ["events_total", "repro_BadCase", "repro-dash", "repro__", ""]
    )
    def test_unconventional_names_are_rejected(self, name):
        with pytest.raises(ConfigurationError, match="metric name"):
            MetricsRegistry().counter(name)

    def test_reset_clears_families(self):
        reg = MetricsRegistry()
        reg.counter("repro_test_total").inc()
        reg.reset()
        assert reg.collect() == []


class TestGlobalRegistry:
    def test_enabled_by_default(self):
        assert default_registry() is not None

    def test_set_default_registry_swaps_and_returns_previous(self):
        swapped = MetricsRegistry()
        previous = set_default_registry(swapped)
        try:
            assert default_registry() is swapped
        finally:
            assert set_default_registry(previous) is swapped
        assert default_registry() is previous

    def test_metrics_cannot_be_turned_off(self):
        before = default_registry()
        with pytest.raises(ConfigurationError, match="always on"):
            set_default_registry(None)
        assert default_registry() is before

    def test_use_registry_scopes_and_restores(self):
        before = default_registry()
        scoped = MetricsRegistry()
        with use_registry(scoped):
            assert default_registry() is scoped
        assert default_registry() is before

    def test_reset_default_registry_installs_a_fresh_one(self):
        before = default_registry()
        fresh = reset_default_registry()
        try:
            assert default_registry() is fresh
            assert fresh.collect() == []
        finally:
            set_default_registry(before)


# ------------------------------------------------------------------- tracing


class TestTracing:
    def test_span_ids_are_deterministic_per_seed(self):
        def run(seed):
            recorder = TraceRecorder(seed=seed)
            with recording(recorder):
                with span("outer"):
                    with span("inner"):
                        pass
            return [(s.name, s.span_id, s.parent_id) for s in recorder.finished()]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_parent_links_follow_nesting(self):
        recorder = TraceRecorder(seed=0)
        with recording(recorder):
            with span("outer") as outer:
                with span("inner") as inner:
                    pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_attributes_and_annotate_round_trip(self):
        recorder = TraceRecorder(seed=0)
        with recording(recorder):
            with span("work", theta=20_000) as s:
                s.annotate(blocks=3)
        payload = recorder.finished()[0].to_dict()
        assert payload["attributes"] == {"theta": 20_000, "blocks": 3}
        assert payload["duration"] >= 0.0

    def test_ring_buffer_drops_oldest_and_counts(self):
        recorder = TraceRecorder(seed=0, capacity=2)
        with recording(recorder):
            for index in range(5):
                with span(f"s{index}"):
                    pass
        assert [s.name for s in recorder.finished()] == ["s3", "s4"]
        assert recorder.dropped == 3

    def test_span_without_recorder_is_the_shared_null_span(self):
        assert current_recorder() is None
        s = span("anything", key="value")
        assert s is NULL_SPAN
        with s:
            pass  # no-op, reusable

    def test_injectable_clock_gives_deterministic_timings(self):
        ticks = iter(range(100))
        recorder = TraceRecorder(seed=0, clock=lambda: float(next(ticks)))
        with recording(recorder):
            with span("step"):
                pass
        (finished,) = recorder.finished()
        assert finished.start == 0.0
        assert finished.duration == 1.0

    def test_span_cannot_be_reentered(self):
        recorder = TraceRecorder(seed=0)
        with recording(recorder):
            with span("once") as s:
                pass
        with pytest.raises(LifecycleError):
            s.__enter__()


# ----------------------------------------------------------------- exporters


def _demo_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    events = reg.counter(
        "repro_demo_events_total", "Demo events.", labelnames=("kind",)
    )
    events.labels(kind='with "quotes" and \\ and\nnewline').inc(3)
    events.labels(kind="plain").inc()
    reg.gauge("repro_demo_inflight", "In flight.").set(2)
    seconds = reg.histogram("repro_demo_seconds", "Latency.", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 5.0):
        seconds.observe(value)
    return reg


GOLDEN_PROMETHEUS = """\
# HELP repro_demo_events_total Demo events.
# TYPE repro_demo_events_total counter
repro_demo_events_total{kind="plain"} 1
repro_demo_events_total{kind="with \\"quotes\\" and \\\\ and\\nnewline"} 3
# HELP repro_demo_inflight In flight.
# TYPE repro_demo_inflight gauge
repro_demo_inflight 2
# HELP repro_demo_seconds Latency.
# TYPE repro_demo_seconds histogram
repro_demo_seconds_bucket{le="0.1"} 1
repro_demo_seconds_bucket{le="1"} 2
repro_demo_seconds_bucket{le="+Inf"} 3
repro_demo_seconds_sum 5.55
repro_demo_seconds_count 3
"""


class TestExporters:
    def test_prometheus_text_matches_golden(self):
        assert render_prometheus(_demo_registry()) == GOLDEN_PROMETHEUS

    def test_histogram_sum_count_consistency(self):
        text = render_prometheus(_demo_registry())
        lines = text.splitlines()
        inf_bucket = next(l for l in lines if 'le="+Inf"' in l)
        count = next(l for l in lines if l.startswith("repro_demo_seconds_count"))
        assert inf_bucket.split()[-1] == count.split()[-1]

    def test_merge_first_registry_wins(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("repro_merge_total").inc(1)
        second.counter("repro_merge_total").inc(99)
        second.counter("repro_merge_other_total").inc(7)
        merged = snapshot(first, second)
        metrics = merged["metrics"]
        assert metrics["repro_merge_total"]["samples"][0]["value"] == 1.0
        assert metrics["repro_merge_other_total"]["samples"][0]["value"] == 7.0

    def test_render_json_round_trips(self):
        reg = _demo_registry()
        parsed = json.loads(render_json(reg))
        assert parsed == snapshot(reg)
        assert parsed["schema"] == "repro/metrics@1"
        histogram = parsed["metrics"]["repro_demo_seconds"]["samples"][0]
        assert histogram["count"] == 3
        assert histogram["buckets"][-1][0] == "+Inf"

    def test_snapshot_is_exact_under_concurrent_writers(self):
        reg = MetricsRegistry()
        counter = reg.counter("repro_stress_total", labelnames=("worker",))
        histogram = reg.histogram("repro_stress_seconds")
        increments, workers = 500, 8

        def hammer(worker):
            child = counter.labels(worker=str(worker))
            for index in range(increments):
                child.inc()
                histogram.observe(index / increments)
                if index % 100 == 0:
                    json.dumps(reg.snapshot())  # snapshots interleave safely

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(hammer, range(workers)))

        final = reg.snapshot()["metrics"]
        per_worker = final["repro_stress_total"]["samples"]
        assert [s["value"] for s in per_worker] == [float(increments)] * workers
        stress = final["repro_stress_seconds"]["samples"][0]
        assert stress["count"] == increments * workers

    def test_chrome_trace_structure(self):
        recorder = TraceRecorder(seed=1)
        with recording(recorder):
            with span("outer", theta=10):
                with span("inner"):
                    pass
        trace = chrome_trace(recorder)
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert [e["name"] for e in events] == ["inner", "outer"]
        assert all(e["ph"] == "X" for e in events)
        inner, outer = events
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]
        json.dumps(trace)  # must be serialisable as-is

    def test_metrics_server_serves_text_and_json(self):
        reg = _demo_registry()
        collected = []
        with MetricsServer([reg], collect=lambda: collected.append(1)) as server:
            base = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(f"{base}/metrics") as response:
                text = response.read().decode("utf-8")
                content_type = response.headers["Content-Type"]
            with urllib.request.urlopen(f"{base}/metrics.json") as response:
                parsed = json.loads(response.read().decode("utf-8"))
        assert text == GOLDEN_PROMETHEUS
        assert "version=0.0.4" in content_type
        assert parsed == snapshot(reg)
        assert collected  # the pre-scrape hook ran

    def test_import_repro_does_not_load_http_server(self):
        # MetricsServer imports http.server on construction, keeping it off
        # the cold-start path of every CLI launch.
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        code = 'import sys, repro; print("http.server" in sys.modules)'
        env = dict(os.environ, PYTHONPATH=str(src))
        output = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        ).stdout
        assert output.strip() == "False"


# ----------------------------------------------------- instrumented serving


@pytest.fixture
def small_graph():
    from repro.graphs import barabasi_albert_graph

    return barabasi_albert_graph(60, 2, seed=3, probability=0.1).compile()


class TestInstrumentedService:
    def test_legacy_stats_and_rich_series_agree(self, small_graph):
        service = repro.InfluenceService(default_theta=500)
        registry = MetricsRegistry()
        recorder = TraceRecorder(seed=0)
        with use_registry(registry), recording(recorder):
            service.evaluate(small_graph, "ic", [0, 1])
            service.select(small_graph, "ic", 3)

        stats = service.stats()
        assert stats["evaluate_requests"] == 1
        assert stats["select_requests"] == 1
        assert stats["index_builds"] == 1

        # The same traffic is visible as labeled series on the service
        # registry, and engine counters/spans landed in the scoped globals.
        requests = service.telemetry.counter(
            "repro_serving_requests_total",
            labelnames=("op", "outcome"),
        )
        assert requests.labels(op="evaluate", outcome="ok").value == 1.0
        assert requests.labels(op="select", outcome="ok").value == 1.0
        assert registry.counter("repro_index_rr_sets_total").value >= 500
        names = {finished.name for finished in recorder.finished()}
        assert {"index_grow", "index_select", "index_evaluate"} <= names

    def test_stats_snapshot_is_deep_copied(self, small_graph):
        service = repro.InfluenceService(default_theta=500)
        service.evaluate(small_graph, "ic", [0])
        stats = service.stats()
        stats["breakers"]["tampered"] = {"state": "open"}
        assert "tampered" not in service.stats()["breakers"]

    def test_prometheus_endpoint_sees_service_traffic(self, small_graph):
        service = repro.InfluenceService(default_theta=500)
        service.evaluate(small_graph, "ic", [0, 1])
        text = render_prometheus(service.telemetry)
        assert 'repro_serving_requests_total{op="evaluate",outcome="ok"} 1' in text


# ------------------------------------------------------------ run_experiment


class TestRunExperimentTelemetry:
    def test_telemetry_section_round_trips(self):
        spec = repro.ExperimentSpec(
            graph=repro.GraphSpec(dataset="nethept", scale=0.05, seed=1),
            model=repro.ModelSpec(name="ic"),
            algorithm=repro.AlgorithmSpec(name="high-degree"),
            budget=5,
            seed=3,
            evaluation=repro.EvalSpec(
                estimator=repro.EstimatorSpec(backend="mc", simulations=20)
            ),
        )
        result = repro.run_experiment(spec)
        telemetry = result.telemetry
        assert set(telemetry["stages"]) >= {
            "load_seconds", "selection_seconds",
            "estimator_build_seconds", "estimate_seconds", "total_seconds",
        }
        stage_names = [s["name"] for s in telemetry["spans"]]
        assert "stage_load" in stage_names
        assert "stage_estimate" in stage_names
        assert telemetry["dropped_spans"] == 0

        round_tripped = repro.RunResult.from_dict(result.to_dict())
        assert round_tripped.telemetry["spans"] == telemetry["spans"]
        assert round_tripped.telemetry["stages"] == telemetry["stages"]

    def test_span_ids_reproducible_across_runs(self):
        spec = repro.ExperimentSpec(
            graph=repro.GraphSpec(dataset="nethept", scale=0.05, seed=1),
            model=repro.ModelSpec(name="ic"),
            seeds=[0, 1],
            seed=11,
            evaluation=repro.EvalSpec(
                estimator=repro.EstimatorSpec(backend="mc", simulations=20)
            ),
        )
        first = repro.run_experiment(spec).telemetry["spans"]
        second = repro.run_experiment(spec).telemetry["spans"]
        assert [s["span_id"] for s in first] == [s["span_id"] for s in second]


# ------------------------------------------------------------ engine mirrors


class TestEngineInstrumentation:
    def test_monte_carlo_counters_and_cache_hits(self):
        graph = repro.figure1_example_graph()
        registry = MetricsRegistry()
        with use_registry(registry):
            engine = repro.MonteCarloEngine(graph, "ic", simulations=10, seed=0)
            engine.estimate(["A"])
            engine.estimate(["A"])  # cache hit
        assert registry.counter("repro_mc_simulations_total").value == 10.0
        assert registry.counter("repro_mc_cache_hits_total").value == 1.0

    def test_score_engine_mirrors_stats(self):
        from repro.graphs.generators import path_graph
        from repro.scoring import ScoreEngine

        compiled = path_graph(30, probability=0.2).compile()
        registry = MetricsRegistry()
        with use_registry(registry):
            engine = ScoreEngine(compiled, algorithm="easyim", max_path_length=2)
            engine.mark_active([5])
        mirrored = registry.counter(
            "repro_score_rebuilds_total", labelnames=("kind",)
        )
        total_mirrored = sum(child.value for _, child in mirrored.children())
        by_kind = sum(
            engine.stats[key]
            for key in ("full_rebuilds", "fallback_rebuilds",
                        "direct_rebuilds", "pool_rebuilds")
        )
        assert total_mirrored == by_kind > 0
