"""Cluster-wide distributed tracing: one trace per statement lifecycle.

Where :mod:`~repro.observability.tracer` meters a single statement's
operator tree *inside* one process (EXPLAIN ANALYZE), this module
follows a statement *across* processes: client → server session →
single-writer queue → execution → command-log fsync → replication ship
→ replica apply. The design is a deliberately small subset of W3C Trace
Context:

* :class:`TraceContext` — an immutable ``(trace_id, span_id, parent_id,
  sampled)`` tuple serialized to/from the ``traceparent`` header format
  (``00-<32 hex>-<16 hex>-<01|00>``). The client opens one trace per
  statement (or joins the ambient one, on a router's backend hop) and
  stamps its span's context on every ``QUERY``/``PREPARE``/``EXECUTE``
  frame; because the stamp happens *before* the retry loop, a write
  bounced off a deposed primary with ``NOT_PRIMARY`` retries under the
  **same** trace_id and the trace shows both nodes.
* :class:`span` — a span *is* the context it opens: entering one mints
  a child of the ambient context (:mod:`repro.ambient`) and makes it
  ambient for the block, so nesting needs no plumbed-through argument;
  :func:`record_span` records a leaf under whatever is ambient (the
  command log's fsync, the queue wait, replication).
* :class:`SpanCollector` — a bounded, lock-safe ring of finished
  :class:`Span` objects with head-based sampling and JSON export,
  served by the ``TRACES`` wire message and the per-node HTTP
  endpoint's ``/traces``.

The hot-path contract matches the metrics registry: with tracing
disabled (``REPRO_TRACING=0`` or :func:`set_tracing_enabled(False)`),
:func:`recording_collector` returns ``None`` and every seam skips with
a single ``is None`` check — no context minted, no frame stamped, no
span allocated. ``benchmarks/check_observability_overhead.py`` pins the
enabled-vs-disabled server-path overhead below 10%.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from ..ambient import _LOCAL, current_trace, remove

#: ``traceparent`` version prefix we emit (and the only one we parse).
_WIRE_VERSION = "00"

class _IdSource(threading.local):
    """Per-thread PRNG for span/trace ids.

    Ids are correlation handles, not secrets: a urandom-*seeded* PRNG
    per thread (no lock, no per-id syscall) keeps minting an id to a
    fraction of a microsecond on the per-statement hot path.
    """

    def __init__(self):
        self.rng = random.Random(
            int.from_bytes(os.urandom(8), "big")
            ^ threading.get_ident()
        )


_IDS = _IdSource()


def new_trace_id() -> str:
    """A 128-bit random trace id (32 lowercase hex chars)."""
    return "%032x" % _IDS.rng.getrandbits(128)


def new_span_id() -> str:
    """A 64-bit random span id (16 lowercase hex chars)."""
    return "%016x" % _IDS.rng.getrandbits(64)


class TraceContext:
    """The propagated identity of one trace position (immutable).

    ``span_id`` names the span that owns this context; children record
    it as their ``parent_id``. ``sampled`` is decided once, at the root
    (by the client's collector), and rides along so downstream nodes
    skip span recording for unsampled traces without re-rolling.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "sampled")

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str] = None,
        sampled: bool = True,
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.sampled = sampled

    @classmethod
    def new(cls, sampled: bool = True) -> "TraceContext":
        """Mint a root context (no parent)."""
        return cls(new_trace_id(), new_span_id(), None, sampled)

    def child(self) -> "TraceContext":
        """A child context: same trace, fresh span, parent = this span
        (what :class:`span` opens)."""
        return TraceContext(
            self.trace_id, new_span_id(), self.span_id, self.sampled
        )

    # ------------------------------------------------------------------
    # wire format (traceparent-style)
    # ------------------------------------------------------------------

    def to_wire(self) -> str:
        flags = "01" if self.sampled else "00"
        return f"{_WIRE_VERSION}-{self.trace_id}-{self.span_id}-{flags}"

    @classmethod
    def from_wire(cls, text: Any) -> Optional["TraceContext"]:
        """Parse a stamped frame value; ``None`` on anything malformed.

        Tolerant by design: an unparseable stamp degrades to an
        untraced statement, never an error back to the client.
        """
        if not isinstance(text, str):
            return None
        parts = text.split("-")
        if len(parts) != 4 or parts[0] != _WIRE_VERSION:
            return None
        trace_id, span_id, flags = parts[1], parts[2], parts[3]
        if len(trace_id) != 32 or len(span_id) != 16:
            return None
        try:
            int(trace_id, 16)
            int(span_id, 16)
        except ValueError:
            return None
        return cls(trace_id, span_id, None, flags == "01")

    def __repr__(self) -> str:
        return (
            f"TraceContext({self.trace_id[:8]}.., span={self.span_id}, "
            f"parent={self.parent_id}, sampled={self.sampled})"
        )


class Span:
    """One finished, named stage of a trace (JSON-exportable)."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "node",
        "started_at",
        "duration_ms",
        "attrs",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        node: str = "",
        started_at: float = 0.0,
        duration_ms: float = 0.0,
        attrs: Optional[Dict[str, Any]] = None,
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        #: Which node recorded this span ("" for plain client/server).
        self.node = node
        #: Wall-clock start (``time.time()``), for cross-node ordering.
        self.started_at = started_at
        self.duration_ms = duration_ms
        self.attrs = attrs or {}

    def as_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "node": self.node,
            "started_at": self.started_at,
            "duration_ms": round(self.duration_ms, 3),
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name}, node={self.node!r}, "
            f"{self.duration_ms:.2f} ms, trace={self.trace_id[:8]}..)"
        )


class SpanCollector:
    """A bounded ring of finished spans with head-based sampling.

    Recording appends under one lock (the ring is shared by session
    threads, the writer thread and replication pumps); the ring evicts
    oldest-first so a long-lived node never grows without bound.
    ``sample()`` is rolled once per root trace by the client — every
    downstream span inherits the decision through the context's
    ``sampled`` flag.
    """

    def __init__(self, capacity: int = 4096, sample_rate: float = 1.0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        self.sample_rate = sample_rate
        self._spans: Deque[Span] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._random = random.Random()
        self.recorded = 0
        self.dropped_unsampled = 0

    def sample(self) -> bool:
        """Roll the head-based sampling decision for a new root trace."""
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            self.dropped_unsampled += 1
            return False
        if self._random.random() < self.sample_rate:
            return True
        self.dropped_unsampled += 1
        return False

    def record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)
            self.recorded += 1

    def spans(
        self, trace_id: Optional[str] = None, limit: Optional[int] = None
    ) -> List[Span]:
        with self._lock:
            out = list(self._spans)
        if trace_id:
            out = [s for s in out if s.trace_id == trace_id]
        if limit is not None and limit >= 0:
            out = out[-limit:]
        return out

    def export(
        self, trace_id: Optional[str] = None, limit: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """JSON-ready span dicts (oldest first)."""
        return [s.as_dict() for s in self.spans(trace_id, limit)]

    def export_json(self, trace_id: Optional[str] = None) -> str:
        return json.dumps(self.export(trace_id), indent=2, sort_keys=True)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


# ---------------------------------------------------------------------------
# recording: a span is the context it opens
# ---------------------------------------------------------------------------


def record_span(name: str, duration_ms: float, **attrs: Any) -> Optional[Span]:
    """Record one finished leaf span under the ambient trace context.

    Deep seams (queue wait, fsync, replication ship and apply) record
    this way: a fresh span_id, parented to the span whose context is
    ambient, attributed to this thread's node label. ``None`` attrs are
    dropped. Returns the recorded span, or ``None`` when tracing is off,
    no context is ambient, or the trace is unsampled.
    """
    if not _ENABLED:
        return None
    context = current_trace()
    if context is None or not context.sampled:
        return None
    if attrs:
        attrs = {k: v for k, v in attrs.items() if v is not None}
    span = Span(
        context.trace_id,
        new_span_id(),
        context.span_id,
        name,
        _LOCAL.node,
        time.time() - duration_ms / 1000.0,
        duration_ms,
        attrs,
    )
    _COLLECTOR.record(span)
    return span


class span:
    """Time a block into one recorded span — and make it the trace
    context of the block.

    ``__enter__`` mints a child of the ambient sampled context and makes
    it ambient, so every span and leaf recorded inside parents to this
    one, and a client call made inside stamps it on the wire. With
    tracing off, or no sampled context ambient, the block runs with
    nothing minted or recorded: a span never starts a trace — only
    :meth:`root` does, which the client calls. ``context`` is the minted
    context (``None`` when nothing is recorded); an exception escaping
    the block is recorded as the ``error`` attr.
    """

    __slots__ = ("name", "attrs", "context", "_parent", "_started", "_wall")

    def __init__(self, name: str, **attrs: Any):
        self.name = name
        self.attrs = attrs
        self.context: Optional[TraceContext] = None
        self._parent: Optional[TraceContext] = None

    @classmethod
    def root(cls, name: str, sampled: bool, **attrs: Any) -> "span":
        """The first span of a new trace: its context has no parent, and
        ``sampled`` is the trace's one sampling decision, which every
        downstream span inherits."""
        opened = cls(name, **attrs)
        opened._parent = TraceContext(new_trace_id(), None, None, sampled)
        return opened

    def __enter__(self) -> "span":
        if _ENABLED:
            parent = self._parent
            if parent is None:
                traces = _LOCAL.traces
                parent = traces[-1] if traces else None
            if parent is not None and parent.sampled:
                context = parent.child()
                _LOCAL.traces.append(context)
                self.context = context
                self._wall = time.time()
                self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        context = self.context
        if context is None:
            return False
        traces = _LOCAL.traces
        if traces and traces[-1] is context:
            traces.pop()
        else:
            remove(traces, context)
        # inlined record_span (no kwargs repacking): this runs once per
        # statement on the client and session threads
        elapsed_ms = (time.perf_counter() - self._started) * 1000.0
        attrs = self.attrs
        if exc_type is not None:
            attrs.setdefault("error", exc_type.__name__)
        if attrs:
            attrs = {k: v for k, v in attrs.items() if v is not None}
        _COLLECTOR.record(
            Span(
                context.trace_id,
                context.span_id,
                context.parent_id,
                self.name,
                _LOCAL.node,
                self._wall,
                elapsed_ms,
                attrs,
            )
        )
        return False


# ---------------------------------------------------------------------------
# the process-wide default collector
# ---------------------------------------------------------------------------

_COLLECTOR = SpanCollector()

_ENABLED = os.environ.get("REPRO_TRACING", "1").strip().lower() not in (
    "0",
    "off",
    "false",
    "no",
)


def get_collector() -> SpanCollector:
    """The process-wide collector (always available, even when disabled)."""
    return _COLLECTOR


def recording_collector() -> Optional[SpanCollector]:
    """The default collector, or ``None`` when tracing is disabled."""
    return _COLLECTOR if _ENABLED else None


def set_tracing_enabled(enabled: bool) -> None:
    """Toggle span recording at runtime (used by the overhead benchmark)."""
    global _ENABLED
    _ENABLED = bool(enabled)


def tracing_enabled() -> bool:
    return _ENABLED
