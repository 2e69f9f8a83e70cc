"""Observability: metrics registry, structured logging, trace ids.

The rest of the codebase talks to this package through a small surface:

* ``get_metrics()`` — the process-wide :class:`MetricsRegistry`;
  instruments are created idempotently at the call site, so any module
  can do ``get_metrics().counter("repro_x_total").inc()`` without
  registration ceremony.  ``REPRO_METRICS=off`` turns every mutator
  into a no-op.
* ``get_logger()`` / ``log_event()`` / ``configure_logging()`` —
  structured (optionally JSON) logging with the ambient trace id
  stamped on every record.
* ``new_trace_id()`` / ``bind_trace_id()`` / ``current_trace_id()`` —
  the id that follows a job from CLI/HTTP submission through broker
  tickets to worker execution.
"""

from repro.obs.context import (
    bind_trace_id,
    current_trace_id,
    ensure_trace_id,
    new_trace_id,
    valid_trace_id,
)
from repro.obs.logs import (
    ENV_LOG,
    ENV_LOG_JSON,
    JsonFormatter,
    TextFormatter,
    configure_logging,
    get_logger,
    log_event,
    parse_log_level,
)
from repro.obs.metrics import (
    ENV_METRICS,
    SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    set_metrics,
)
from repro.obs.spans import (
    ENV_TRACE_SAMPLE,
    NOOP_SPAN,
    SpanRecorder,
    SpanStore,
    bind_span_context,
    build_tree,
    critical_path,
    current_span,
    drain_spans,
    get_tracer,
    make_span,
    new_span_id,
    render_critical_path,
    render_waterfall,
    set_tracer,
    span,
    to_chrome_trace,
)

__all__ = [
    "ENV_LOG",
    "ENV_LOG_JSON",
    "ENV_METRICS",
    "ENV_TRACE_SAMPLE",
    "NOOP_SPAN",
    "SECONDS_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonFormatter",
    "MetricsRegistry",
    "SpanRecorder",
    "SpanStore",
    "TextFormatter",
    "bind_span_context",
    "bind_trace_id",
    "build_tree",
    "configure_logging",
    "critical_path",
    "current_span",
    "current_trace_id",
    "drain_spans",
    "ensure_trace_id",
    "get_logger",
    "get_metrics",
    "get_tracer",
    "log_event",
    "make_span",
    "new_span_id",
    "new_trace_id",
    "parse_log_level",
    "render_critical_path",
    "render_waterfall",
    "set_metrics",
    "set_tracer",
    "span",
    "to_chrome_trace",
    "valid_trace_id",
]
