"""Process-wide metrics: counters, gauges and fixed-bucket histograms.

The registry is the always-on half of the observability layer (the
per-query half is :mod:`repro.observability.tracer`). It is deliberately
minimal, but it **is** thread-safe: the network server executes
read-only statements concurrently on session threads, so every update
(a read-modify-write on a counter, gauge or histogram bucket) holds the
metric's lock — without it, two sessions incrementing the same counter
lose increments. Updates only happen at the engine's instrumentation
seams (statement boundaries, command-log fsyncs, snapshot I/O,
replication shipping, server session lifecycle), so one uncontended
lock per event is noise next to the statement it measures. Per-row
costs stay out of this module by design; row-level accounting lives in
the tracer, which is off unless a query runs under ``EXPLAIN ANALYZE``.

Two read-side views are provided:

* :meth:`MetricsRegistry.render_prometheus` — the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` / sample lines), which the
  shell's ``\\metrics`` meta-command prints;
* :meth:`MetricsRegistry.snapshot` — a JSON-serializable dict for
  programmatic consumers (benchmark artifacts, tests).

``REPRO_METRICS=0`` (or ``off`` / ``false``) disables recording
globally: :func:`recording_registry` then returns ``None`` and every
instrumentation seam skips its updates with a single ``is None`` check.
"""

from __future__ import annotations

import os
import re
import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram bucket upper bounds, in milliseconds — tuned for
#: statement latencies (sub-millisecond point lookups up to multi-second
#: path enumerations).
DEFAULT_BUCKETS_MS: Tuple[float, ...] = (
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
    5000.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_value(value: float) -> str:
    """Render ints without a trailing ``.0`` (Prometheus-friendly)."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class Counter:
    """A monotonically increasing count (e.g. statements executed).

    ``inc`` is a locked read-modify-write: concurrent sessions
    incrementing the same counter must never lose an update.
    """

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value: float = 0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self.value += amount


class Gauge:
    """A value that can go up and down (e.g. replication lag)."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value: float = 0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self.value -= amount


class Histogram:
    """Fixed-bucket histogram (cumulative buckets, Prometheus-style).

    ``bounds`` are the inclusive upper bounds of the finite buckets; an
    implicit ``+Inf`` bucket catches everything else. ``observe`` holds
    the histogram's lock for two attribute updates plus one linear
    bucket probe — bucket counts are stored non-cumulatively and only
    accumulated at render time, keeping the write path cheap while
    concurrent observers never lose a bucket increment.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "sum", "_lock")

    def __init__(self, bounds: Iterable[float] = DEFAULT_BUCKETS_MS) -> None:
        self.bounds: Tuple[float, ...] = tuple(sorted(float(b) for b in bounds))
        if not self.bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum: float = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.sum += value
            for index, bound in enumerate(self.bounds):
                if value <= bound:
                    self.bucket_counts[index] += 1
                    return
            self.bucket_counts[-1] += 1

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ``+Inf`` last.

        Taken under the lock so a render that races an ``observe`` sees
        a consistent (count, buckets) pair.
        """
        with self._lock:
            counts = list(self.bucket_counts)
            total = self.count
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, bucket in zip(self.bounds, counts):
            running += bucket
            out.append((bound, running))
        out.append((float("inf"), total))
        return out


class _Family:
    """One metric name: kind, help text and per-label-set children."""

    __slots__ = ("name", "kind", "help", "children")

    def __init__(self, name: str, kind: str, help_text: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.children: Dict[LabelKey, Any] = {}


class MetricsRegistry:
    """A namespace of named metrics with optional labels.

    Handles are created on first use and cached by ``(name, labels)``::

        registry.counter("repro_statements_total", kind="Select").inc()
        registry.gauge("repro_replication_lag", replica="r1").set(3)
        registry.histogram("repro_statement_duration_ms").observe(1.8)

    Re-registering a name with a different metric kind is an error —
    that is always an instrumentation bug, not a runtime condition.

    The first acquisition of a handle and the read-side views hold the
    registry lock; a repeat acquisition is one unlocked dict lookup, and
    updates through a handle take only that metric's own lock, so hot
    seams never contend here.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        #: ``(name, kind, *label items)`` -> ``(child, family)`` for
        #: calls already checked once; read without the lock.
        self._handles: Dict[tuple, Tuple[Any, _Family]] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # handle acquisition
    # ------------------------------------------------------------------

    def _family(self, name: str, kind: str, help_text: str) -> _Family:
        family = self._families.get(name)
        if family is None:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid metric name: {name!r}")
            family = _Family(name, kind, help_text)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as a "
                f"{family.kind}, not a {kind}"
            )
        if help_text and not family.help:
            family.help = help_text
        return family

    def _child(
        self, name: str, kind: str, help_text: str, labels: Dict[str, str], make
    ):
        # a repeat call is one unlocked lookup; the first call (and any
        # call with an unhashable label value) takes the checked path
        handle = (name, kind, *labels.items())
        try:
            hit = self._handles.get(handle)
        except TypeError:
            hit = handle = None
        if hit is not None:
            child, family = hit
            if help_text and not family.help:
                family.help = help_text
            return child
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name: {label!r}")
        with self._lock:
            family = self._family(name, kind, help_text)
            key = _label_key(labels)
            child = family.children.get(key)
            if child is None:
                child = make()
                family.children[key] = child
            if handle is not None:
                self._handles[handle] = (child, family)
            return child

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        return self._child(name, "counter", help, labels, Counter)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        return self._child(name, "gauge", help, labels, Gauge)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS_MS,
        **labels: Any,
    ) -> Histogram:
        return self._child(
            name, "histogram", help, labels, lambda: Histogram(buckets)
        )

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------

    def value(self, name: str, **labels: Any) -> Optional[float]:
        """The current value of a counter/gauge (None if never touched)."""
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return None
            child = family.children.get(_label_key(labels))
        if child is None or isinstance(child, Histogram):
            return None
        return child.value

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-serializable dump of every metric in the registry."""
        out: Dict[str, Any] = {}
        with self._lock:
            families = dict(self._families)
        for name in sorted(families):
            family = families[name]
            samples = []
            children = dict(family.children)
            for key in sorted(children):
                child = children[key]
                labels = dict(key)
                if isinstance(child, Histogram):
                    samples.append(
                        {
                            "labels": labels,
                            "count": child.count,
                            "sum": child.sum,
                            "buckets": [
                                {
                                    "le": ("+Inf" if b == float("inf") else b),
                                    "count": c,
                                }
                                for b, c in child.cumulative_buckets()
                            ],
                        }
                    )
                else:
                    samples.append({"labels": labels, "value": child.value})
            out[name] = {
                "kind": family.kind,
                "help": family.help,
                "samples": samples,
            }
        return out

    def render_prometheus(self, filter: Optional[str] = None) -> str:
        """The Prometheus text exposition format.

        ``filter`` keeps only families whose name contains the given
        substring (the shell's ``\\metrics FILTER`` argument).
        """
        lines: List[str] = []
        with self._lock:
            families = dict(self._families)
        for name in sorted(families):
            if filter and filter not in name:
                continue
            family = families[name]
            children = dict(family.children)
            if not children:
                continue
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key in sorted(children):
                child = children[key]
                if isinstance(child, Histogram):
                    for bound, count in child.cumulative_buckets():
                        le = "+Inf" if bound == float("inf") else _format_value(bound)
                        label_text = _render_labels(key + (("le", le),))
                        lines.append(f"{name}_bucket{label_text} {count}")
                    label_text = _render_labels(key)
                    lines.append(
                        f"{name}_sum{label_text} {_format_value(child.sum)}"
                    )
                    lines.append(f"{name}_count{label_text} {child.count}")
                else:
                    lines.append(
                        f"{name}{_render_labels(key)} "
                        f"{_format_value(child.value)}"
                    )
        return "\n".join(lines)

    def reset(self) -> None:
        """Drop every metric (test isolation)."""
        with self._lock:
            self._families.clear()
            self._handles.clear()


def _render_labels(key: Iterable[Tuple[str, str]]) -> str:
    pairs = list(key)
    if not pairs:
        return ""
    inner = ",".join(f'{label}="{value}"' for label, value in pairs)
    return "{" + inner + "}"


# ---------------------------------------------------------------------------
# the process-wide default registry
# ---------------------------------------------------------------------------

_REGISTRY = MetricsRegistry()

_ENABLED = os.environ.get("REPRO_METRICS", "1").strip().lower() not in (
    "0",
    "off",
    "false",
    "no",
)


def get_registry() -> MetricsRegistry:
    """The process-wide registry (always available, even when disabled)."""
    return _REGISTRY


def recording_registry() -> Optional[MetricsRegistry]:
    """The default registry, or ``None`` when recording is disabled.

    Instrumentation seams call this once per event and skip their
    updates on ``None`` — the entire disabled cost is that one check.
    """
    return _REGISTRY if _ENABLED else None


def set_enabled(enabled: bool) -> None:
    """Toggle recording at runtime (used by the overhead benchmark)."""
    global _ENABLED
    _ENABLED = bool(enabled)


def metrics_enabled() -> bool:
    return _ENABLED
