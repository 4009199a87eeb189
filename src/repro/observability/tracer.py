"""Per-query operator tracing: the measured half of EXPLAIN ANALYZE.

A :class:`QueryTracer` hangs :class:`OperatorSpan` objects off the
ambient statement context (:mod:`repro.ambient`), next to the resource
governor's :class:`~repro.budget.CancellationToken`: installed with
``ambient.activate(tracer=...)``, looked up with
``ambient.current_tracer()`` at iteration start. The context is
per-thread so concurrent server sessions tracing their own statements
never interleave spans.

The hot-path contract mirrors the budget plumbing: with no tracer
active, :meth:`~repro.executor.operators.Operator.__iter__` performs a
single ``current_tracer() is None`` check and returns the operator's raw
row generator — no wrapper object, no span, no per-row cost. With a
tracer active, every operator's row stream is wrapped by
:meth:`QueryTracer.wrap`, which records ``next()`` calls, rows produced,
restarts (``loops`` — e.g. the inner side of a nested-loop join) and
inclusive elapsed time per operator. Traversal scans additionally report
their :class:`~repro.graph.traversal.TraversalStats` (frontier peak,
vertices/edges visited, paths emitted) through
:meth:`QueryTracer.record_traversal`, and a budget abort records its
cause through :meth:`QueryTracer.record_abort`.

Spans are keyed by operator identity. A PathScan folds its traversal
counters into its own span — one traversal per outer row for the
correlated ``PathScanProbe`` of Figure 6, aggregated with ``scans=N``.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterator, List, Optional


class OperatorSpan:
    """Actual execution statistics for one plan node."""

    __slots__ = (
        "label",
        "rows_out",
        "next_calls",
        "loops",
        "elapsed_s",
        "traversal",
    )

    def __init__(self, label: str):
        self.label = label
        self.rows_out = 0
        self.next_calls = 0
        self.loops = 0
        self.elapsed_s = 0.0
        #: Aggregated traversal counters (``None`` for relational nodes):
        #: ``{"mode", "paths", "edges", "vertices", "peak_frontier"}``.
        self.traversal: Optional[Dict[str, Any]] = None

    def elapsed_ms(self) -> float:
        return self.elapsed_s * 1000.0

    def actuals(self) -> str:
        """The ``(actual ...)`` annotation EXPLAIN ANALYZE appends."""
        parts = [
            f"rows={self.rows_out}",
            f"nexts={self.next_calls}",
            f"loops={self.loops}",
            f"time={self.elapsed_ms():.2f} ms",
        ]
        return "(actual " + " ".join(parts) + ")"

    def traversal_summary(self) -> Optional[str]:
        if self.traversal is None:
            return None
        t = self.traversal
        parts = [
            f"mode={t['mode']}",
            f"paths={t['paths']}",
            f"vertices={t['vertices']}",
            f"edges={t['edges']}",
            f"peak_frontier={t['peak_frontier']}",
        ]
        if t.get("scans", 1) != 1:
            parts.append(f"scans={t['scans']}")
        return "[traversal " + " ".join(parts) + "]"

    def __repr__(self) -> str:
        return f"OperatorSpan({self.label!r}, {self.actuals()})"


class QueryTracer:
    """Collects spans for one traced statement execution."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        #: Span per traced object, keyed by identity (operators hash by
        #: identity, and holding the key keeps it alive for rendering).
        self._spans: Dict[Any, OperatorSpan] = {}
        self.abort_cause: Optional[str] = None

    # ------------------------------------------------------------------

    def span_for(self, key: Any, label: str) -> OperatorSpan:
        span = self._spans.get(key)
        if span is None:
            span = OperatorSpan(label)
            self._spans[key] = span
        return span

    def get(self, key: Any) -> Optional[OperatorSpan]:
        return self._spans.get(key)

    @property
    def spans(self) -> List[OperatorSpan]:
        return list(self._spans.values())

    # ------------------------------------------------------------------

    def wrap(self, operator: Any, rows: Iterator[Any]) -> Iterator[Any]:
        """Meter one iteration of ``operator``'s row stream.

        Elapsed time is inclusive (it contains time spent pulling from
        children), matching the usual EXPLAIN ANALYZE convention.
        """
        span = self.span_for(operator, operator.describe())
        span.loops += 1
        clock = self._clock
        iterator = iter(rows)
        while True:
            started = clock()
            try:
                row = next(iterator)
            except StopIteration:
                span.elapsed_s += clock() - started
                span.next_calls += 1
                return
            span.elapsed_s += clock() - started
            span.next_calls += 1
            span.rows_out += 1
            yield row

    def record_traversal(self, operator: Any, mode: str, stats: Any) -> None:
        """Fold one :class:`TraversalStats` into ``operator``'s span.

        Called once per traversal run — a correlated probe contributes
        one call per outer row, aggregated under its operator's span.
        """
        span = self.span_for(operator, operator.describe())
        aggregate = span.traversal
        if aggregate is None:
            aggregate = {
                "mode": mode,
                "paths": 0,
                "vertices": 0,
                "edges": 0,
                "peak_frontier": 0,
                "scans": 0,
            }
            span.traversal = aggregate
        aggregate["scans"] += 1
        aggregate["paths"] += stats.paths_emitted
        aggregate["vertices"] += stats.vertices_visited
        aggregate["edges"] += stats.edges_examined
        if stats.peak_frontier > aggregate["peak_frontier"]:
            aggregate["peak_frontier"] = stats.peak_frontier

    def record_abort(self, cause: str) -> None:
        """Note why the traced statement was cut short (budget/cancel)."""
        self.abort_cause = cause

    # ------------------------------------------------------------------

    def annotate(self, root: Any, indent: int = 0) -> str:
        """Render an operator tree with per-node actual statistics.

        Mirrors :meth:`Operator.explain`, appending each node's span (or
        ``(never executed)`` for nodes the execution never reached) and,
        for a path scan, its ``[traversal ...]`` summary.
        """
        pad = "  " * indent
        span = self.get(root)
        line = f"{pad}{root.describe()} "
        line += span.actuals() if span is not None else "(never executed)"
        summary = span.traversal_summary() if span is not None else None
        if summary is not None:
            line += f" {summary}"
        lines = [line]
        for child in root.children():
            lines.append(self.annotate(child, indent + 1))
        return "\n".join(lines)
