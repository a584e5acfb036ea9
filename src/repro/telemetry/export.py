"""Exporters: Prometheus text format v0.0.4, JSON snapshots, Chrome traces.

Three consumers are served from the same :class:`MetricsRegistry`
primitives:

* :func:`render_prometheus` — the text exposition format v0.0.4, with
  ``# HELP``/``# TYPE`` headers, escaped label values, cumulative
  histogram ``_bucket`` series ending at ``le="+Inf"`` and exact
  ``_sum``/``_count`` series;
* :func:`snapshot` / :func:`render_json` — a merged JSON snapshot
  (``repro/metrics@1``) that round-trips through ``json`` untouched;
* :func:`chrome_trace` — finished spans from a
  :class:`~repro.telemetry.tracing.TraceRecorder` as Chrome
  ``trace_event`` JSON (load it at ``chrome://tracing`` or in Perfetto
  for a flame-style view).

:class:`MetricsServer` serves ``GET /metrics`` (text format) and
``GET /metrics.json`` from a daemon thread — the backing for the CLI's
``repro serve --metrics-port``.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ConfigurationError
from repro.telemetry.registry import (
    CounterChild,
    GaugeChild,
    HistogramChild,
    MetricFamily,
    MetricsRegistry,
)
from repro.telemetry.tracing import Span, TraceRecorder

__all__ = [
    "MetricsServer",
    "chrome_trace",
    "render_json",
    "render_prometheus",
    "snapshot",
]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _format_value(value: float) -> str:
    """Prometheus sample-value formatting: integers bare, floats via repr."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 2**53:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _label_string(pairs: Sequence[Tuple[str, str]]) -> str:
    if not pairs:
        return ""
    rendered = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in pairs
    )
    return "{" + rendered + "}"


def _render_family(family: MetricFamily, lines: List[str]) -> None:
    if family.documentation:
        lines.append(f"# HELP {family.name} {_escape_help(family.documentation)}")
    lines.append(f"# TYPE {family.name} {family.kind}")
    for labelvalues, child in family.children():
        pairs = list(zip(family.labelnames, labelvalues))
        if isinstance(child, HistogramChild):
            for bound, cumulative in child.bucket_counts():
                bucket_pairs = pairs + [("le", _format_value(bound))]
                lines.append(
                    f"{family.name}_bucket{_label_string(bucket_pairs)} "
                    f"{cumulative}"
                )
            lines.append(
                f"{family.name}_sum{_label_string(pairs)} "
                f"{_format_value(child.sum)}"
            )
            lines.append(f"{family.name}_count{_label_string(pairs)} {child.count}")
        else:
            assert isinstance(child, (CounterChild, GaugeChild))
            lines.append(
                f"{family.name}{_label_string(pairs)} "
                f"{_format_value(child.value)}"
            )


def render_prometheus(*registries: MetricsRegistry) -> str:
    """The registries' families in text exposition format v0.0.4.

    Multiple registries are merged by name; the first registry holding a
    name wins (families are never combined, so keep namespaces disjoint —
    the ``repro_<layer>_`` convention does), e.g.
    ``render_prometheus(service.telemetry, default_registry())``.
    """
    seen: Dict[str, MetricFamily] = {}
    for registry in registries:
        for family in registry.collect():
            seen.setdefault(family.name, family)
    lines: List[str] = []
    for name in sorted(seen):
        _render_family(seen[name], lines)
    return "\n".join(lines) + ("\n" if lines else "")


def snapshot(*registries: MetricsRegistry) -> Dict[str, object]:
    """A merged JSON-able snapshot of the given registries.

    Same merge rule as :func:`render_prometheus`: first registry holding
    a metric name wins.
    """
    metrics: Dict[str, object] = {}
    for registry in registries:
        part = registry.snapshot()["metrics"]
        assert isinstance(part, dict)
        for name, family in part.items():
            metrics.setdefault(name, family)
    return {
        "schema": "repro/metrics@1",
        "metrics": {name: metrics[name] for name in sorted(metrics)},
    }


def render_json(
    *registries: MetricsRegistry, indent: Optional[int] = 2
) -> str:
    """:func:`snapshot` serialized with :mod:`json`."""
    return json.dumps(snapshot(*registries), indent=indent, sort_keys=False)


def chrome_trace(
    spans: Union[TraceRecorder, Iterable[Span]],
) -> Dict[str, object]:
    """Finished spans as Chrome ``trace_event`` JSON (complete events).

    Accepts a recorder (its ring buffer is read) or any iterable of
    :class:`Span`.  Timestamps are the recorder's monotonic clock in
    microseconds — relative, which is all the trace viewer needs.
    """
    if isinstance(spans, TraceRecorder):
        spans = spans.finished()
    events: List[Dict[str, object]] = []
    for span in spans:
        events.append(
            {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": round(span.start * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": 0,
                "tid": span.thread,
                "args": {
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    **span.attributes,
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


class MetricsServer:
    """A daemon-thread HTTP endpoint exposing ``/metrics``.

    Parameters
    ----------
    registries:
        Registries to merge at scrape time (first holding a name wins).
    host / port:
        Bind address; ``port=0`` picks an ephemeral port, readable from
        :attr:`port` after construction.
    collect:
        Optional callback invoked before each scrape — the serving layer
        passes ``service.stats`` so sampled gauges (breaker states, queue
        depth) are fresh at scrape time.
    """

    def __init__(
        self,
        registries: Sequence[MetricsRegistry],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        collect: Optional[Callable[[], object]] = None,
    ) -> None:
        # Deferred: http.server costs ~30 ms of `import repro` for a class
        # only a metrics endpoint needs.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        if port < 0 or port > 65535:
            raise ConfigurationError(f"port must be in [0, 65535], got {port}")
        self._registries = tuple(registries)
        self._collect = collect
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 — http.server API
                if self.path.split("?")[0] == "/metrics":
                    body = server.scrape().encode("utf-8")
                    content_type = PROMETHEUS_CONTENT_TYPE
                elif self.path.split("?")[0] == "/metrics.json":
                    body = server.scrape_json().encode("utf-8")
                    content_type = "application/json; charset=utf-8"
                else:
                    self.send_error(404, "only /metrics and /metrics.json exist")
                    return
                self.send_response(200)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format: str, *args: object) -> None:
                """Silence per-request logging; scrapes are high-frequency."""

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self.host = self._httpd.server_address[0]
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-metrics-{self.port}",
            daemon=True,
        )

    def scrape(self) -> str:
        if self._collect is not None:
            self._collect()
        return render_prometheus(*self._registries)

    def scrape_json(self) -> str:
        if self._collect is not None:
            self._collect()
        return render_json(*self._registries)

    def start(self) -> "MetricsServer":
        self._thread.start()
        return self

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread.is_alive():
            self._thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<MetricsServer http://{self.host}:{self.port}/metrics>"
