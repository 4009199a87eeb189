"""Engine-wide observability: metrics registry, tracing, slow-query log.

Three cooperating pieces:

* :mod:`~repro.observability.metrics` — a process-wide
  :class:`MetricsRegistry` (counters / gauges / fixed-bucket
  histograms) updated at the engine's instrumentation seams and
  rendered as Prometheus text or a JSON snapshot;
* :mod:`~repro.observability.tracer` — a per-query :class:`QueryTracer`
  hanging :class:`OperatorSpan` objects off the ambient statement
  context (:mod:`repro.ambient`, next to the query budget's token),
  powering ``EXPLAIN ANALYZE``;
* :mod:`~repro.observability.slowlog` — a per-database
  :class:`SlowQueryLog` with a configurable latency threshold and
  per-session attribution (the ambient session label);
* :mod:`~repro.observability.tracing` — cluster-wide distributed
  tracing: a W3C-traceparent-style :class:`TraceContext` stamped on
  every client frame and shipped with every replicated record, plus a
  bounded :class:`SpanCollector` served by the ``TRACES`` wire message
  and the ``/traces`` HTTP route;
* :mod:`~repro.observability.events` — a bounded structured
  :class:`EventJournal` of control-plane transitions (elections, epoch
  bumps, health changes, quarantine, breaker flips, checkpoints);
* :mod:`~repro.observability.http` — the per-node stdlib HTTP endpoint
  serving ``/metrics``, ``/health``, ``/events`` and ``/traces`` so a
  node can be scraped without a database connection.

See ``docs/observability.md`` for the full tour.
"""

from .events import Event, EventJournal, emit, get_journal
from .metrics import (
    DEFAULT_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    metrics_enabled,
    recording_registry,
    set_enabled,
)
from .http import ObservabilityHttpServer
from .slowlog import SlowQueryEntry, SlowQueryLog
from .tracer import OperatorSpan, QueryTracer
from .tracing import (
    Span,
    SpanCollector,
    TraceContext,
    get_collector,
    record_span,
    recording_collector,
    set_tracing_enabled,
    tracing_enabled,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS_MS",
    "get_registry",
    "recording_registry",
    "set_enabled",
    "metrics_enabled",
    "QueryTracer",
    "OperatorSpan",
    "SlowQueryLog",
    "SlowQueryEntry",
    "TraceContext",
    "Span",
    "SpanCollector",
    "get_collector",
    "recording_collector",
    "record_span",
    "set_tracing_enabled",
    "tracing_enabled",
    "Event",
    "EventJournal",
    "emit",
    "get_journal",
    "ObservabilityHttpServer",
]
