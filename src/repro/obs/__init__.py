"""``repro.obs`` — observability for the featurize → model → estimate
pipeline and the serving stack above it.

Six pieces (see ``docs/observability.md``):

* :mod:`repro.obs.trace` — nested span tracing with monotonic-clock
  timing, a context-manager and decorator API, a near-zero-cost no-op
  path while disabled (the default), and cross-process **trace
  context**: deterministic trace ids minted per request, carried in the
  ``X-Repro-Trace`` header, stamped onto every span opened in context.
* :mod:`repro.obs.metrics_runtime` — the one metrics registry:
  counters, gauges, SLO burn-rate trackers and histograms over fixed
  log-spaced buckets (so summaries are deterministic byte-for-byte),
  each histogram optionally labeled (per model/table/QFT/cache series)
  and windowed on a logical tick (sliding p50/p95/p99).
* :mod:`repro.obs.window` — what a window means, and
  :class:`WindowedHistogram`, a windowed histogram built standalone.
* :mod:`repro.obs.events` — one wide event per served request with
  deterministic head sampling, always-keep-on-error, and a bounded
  worst-q-error exemplar reservoir that retains the offending SQL.
* :mod:`repro.obs.prometheus` — one renderer from registry snapshots
  to the text exposition standard scrapers read (a server's own page,
  the fleet router's page over every worker), plus the strict format
  validator.
* :mod:`repro.obs.export` — JSONL span logs, Chrome trace-event output
  (including multi-process stitching with flow arrows), and the
  per-stage summary behind ``repro obs report``.

This package sits at the very bottom of the layering: it imports
nothing from the rest of ``repro``, so every layer (featurize, models,
estimators, experiments, lint, serve) may instrument itself freely.
"""

from repro.obs.events import (
    EventLog,
    ExemplarReservoir,
    get_event_log,
    set_event_log,
)
from repro.obs.metrics_runtime import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SloTracker,
    get_registry,
    set_registry,
)
from repro.obs.trace import (
    TRACE_HEADER,
    Span,
    Tracer,
    current_trace_id,
    disable,
    enable,
    enabled,
    ensure_tracing,
    format_trace_header,
    get_tracer,
    mint_trace_id,
    parse_trace_header,
    reset_trace_ids,
    set_tracer,
    span,
    trace,
    use_trace_context,
    use_tracer,
)
from repro.obs.window import WindowedHistogram

__all__ = [
    # tracing
    "Span", "Tracer", "get_tracer", "set_tracer", "use_tracer",
    "ensure_tracing", "span", "trace", "enabled", "enable", "disable",
    # trace context
    "TRACE_HEADER", "mint_trace_id", "current_trace_id",
    "use_trace_context", "format_trace_header", "parse_trace_header",
    "reset_trace_ids",
    # metrics
    "Counter", "Gauge", "Histogram", "SloTracker", "MetricsRegistry",
    "get_registry", "set_registry", "WindowedHistogram",
    # request events
    "EventLog", "ExemplarReservoir", "get_event_log", "set_event_log",
    # maintenance
    "reset",
]


def reset() -> None:
    """Clear spans, metrics (windows and ticks included), events, and the
    trace-id counter (test/benchmark hygiene — and how two runs start
    byte-identical)."""
    get_tracer().reset()
    get_registry().reset()
    get_event_log().reset()
    reset_trace_ids()
