"""Telemetry: metrics registry, spans, callbacks, exporters.

One import surface for the observability stack::

    from repro.telemetry import (
        MetricsRegistry, telemetry_session, span,
        TrainerCallback, ProgressLogger, JSONLEmitter,
        to_prometheus, metrics_markdown,
    )

See ``docs/OBSERVABILITY.md`` for the metric catalog and the hook
protocol.
"""

from repro.telemetry.callbacks import (
    BestPhiCheckpointer,
    CallbackList,
    JSONLEmitter,
    ProgressLogger,
    TrainerCallback,
    read_jsonl,
)
from repro.telemetry.context import (
    TelemetrySession,
    active_registry,
    active_session,
    emit_counter,
    emit_gauge,
    emit_gauge_max,
    emit_observe,
    telemetry_session,
)
from repro.telemetry.exporters import (
    event_to_json,
    jsonable,
    metrics_markdown,
    parse_prometheus_text,
    to_prometheus,
)
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Sample,
)
from repro.telemetry.spans import SPAN_KIND, Span, span
from repro.telemetry.tracing import (
    TRACE_SCHEMA,
    TraceCollector,
    TraceSpan,
    format_serve_trace,
    read_spans_jsonl,
    spans_chrome_json,
    summarize_traces,
    write_spans_jsonl,
)

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Sample",
    "TelemetrySession",
    "telemetry_session",
    "active_session",
    "active_registry",
    "emit_counter",
    "emit_gauge",
    "emit_gauge_max",
    "emit_observe",
    "Span",
    "span",
    "SPAN_KIND",
    "TRACE_SCHEMA",
    "TraceSpan",
    "TraceCollector",
    "write_spans_jsonl",
    "read_spans_jsonl",
    "spans_chrome_json",
    "summarize_traces",
    "format_serve_trace",
    "TrainerCallback",
    "CallbackList",
    "ProgressLogger",
    "JSONLEmitter",
    "BestPhiCheckpointer",
    "read_jsonl",
    "to_prometheus",
    "parse_prometheus_text",
    "event_to_json",
    "jsonable",
    "metrics_markdown",
]
