"""Graph operators for the query execution pipeline (Section 5.1).

``VertexScanOp`` / ``EdgeScanOp`` iterate a graph view's elements and
the lookup operators find one by identifier. ``PathScanOp`` runs a
traversal; given a relational ``outer`` child that feeds it start (and
optionally end) vertexes it is the correlated plan shape of Figure 6 in
the paper, and EXPLAIN names it ``PathScanProbe``.

All of them emit combined rows with a Vertex / Edge / Path object in the
operator's slot, so relational operators up the pipeline consume graph
results through the same tuple interface (Section 5.2).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional, Sequence

from ..ambient import current_token, current_tracer
from ..executor.operators import Operator, Row
from ..expr.compile import CompiledExpression
from .graph_view import GraphView
from .traversal import (
    TraversalSpec,
    TraversalStats,
    bfs_paths,
    dfs_paths,
    shortest_paths,
)


class VertexScanOp(Operator):
    """Scan the vertexes of a graph view (MemGraph access, Figure 5)."""

    def __init__(self, view: GraphView, slot: int, width: int):
        self.view = view
        self.slot = slot
        self.width = width

    def _rows(self) -> Iterator[Row]:
        slot, width = self.slot, self.width
        token = current_token()
        for vertex in self.view.iter_vertices():
            if token is not None:
                token.tick()
            row: Row = [None] * width
            row[slot] = vertex
            yield row

    def describe(self) -> str:
        return f"VertexScan({self.view.name})"


class VertexLookupOp(Operator):
    """O(1) vertex access by identifier through the topology hash map.

    This is the paper's Section-3.2 guarantee made visible in plans:
    ``VS.Id = <expr>`` never scans. ``key`` is a zero-argument callable,
    evaluated per iteration so that a rebound ``?`` is seen.
    """

    def __init__(
        self, view: GraphView, key: Callable[[], Any], slot: int, width: int
    ):
        self.view = view
        self.key = key
        self.slot = slot
        self.width = width

    def _rows(self) -> Iterator[Row]:
        vertex = self.view.find_vertex(self.key())
        if vertex is not None:
            row: Row = [None] * self.width
            row[self.slot] = vertex
            yield row

    def describe(self) -> str:
        return f"VertexLookup({self.view.name})"


class EdgeLookupOp(Operator):
    """O(1) edge access by identifier through the topology hash map."""

    def __init__(
        self, view: GraphView, key: Callable[[], Any], slot: int, width: int
    ):
        self.view = view
        self.key = key
        self.slot = slot
        self.width = width

    def _rows(self) -> Iterator[Row]:
        edge = self.view.topology.edges.get(self.key())
        if edge is not None:
            row: Row = [None] * self.width
            row[self.slot] = edge
            yield row

    def describe(self) -> str:
        return f"EdgeLookup({self.view.name})"


class EdgeScanOp(Operator):
    """Scan the edges of a graph view."""

    def __init__(self, view: GraphView, slot: int, width: int):
        self.view = view
        self.slot = slot
        self.width = width

    def _rows(self) -> Iterator[Row]:
        slot, width = self.slot, self.width
        token = current_token()
        for edge in self.view.iter_edges():
            if token is not None:
                token.tick()
            row: Row = [None] * width
            row[slot] = edge
            yield row

    def describe(self) -> str:
        return f"EdgeScan({self.view.name})"


class PathScanOp(Operator):
    """PathScan (Section 5.1.2): a lazy traversal, one combined row per path.

    ``start`` and ``target`` are the compiled start / end vertex id
    bindings; either may be absent (every vertex starts, the end is
    free). Without an ``outer`` they are evaluated against one empty row
    per iteration, so a literal and a rebound ``?`` take the same code.
    With an ``outer`` — a relational plan whose rows bind them, the
    Figure-6 shape — one traversal runs per outer row and each path is
    merged into that row. A NULL start or end matches no vertex (SQL
    comparison with NULL), so that traversal yields nothing.

    ``build_spec(target)`` builds a fresh :class:`TraversalSpec` per
    traversal so that mutable per-run state never leaks between runs.
    With a tracer active each traversal's counters fold into this
    operator's span — also when the consumer stops early (LIMIT) or a
    budget aborts the scan.
    """

    def __init__(
        self,
        view: GraphView,
        slot: int,
        width: int,
        mode: str,
        build_spec: Callable[[Any], TraversalSpec],
        start: Optional[CompiledExpression] = None,
        target: Optional[CompiledExpression] = None,
        weight_of: Optional[Callable] = None,
        max_paths_per_vertex: int = 1,
        outer: Optional[Operator] = None,
    ):
        self.view = view
        self.slot = slot
        self.width = width
        self.mode = mode
        self.build_spec = build_spec
        self.start = start
        self.target = target
        self.weight_of = weight_of
        self.max_paths_per_vertex = max_paths_per_vertex
        self.outer = outer

    def _rows(self) -> Iterator[Row]:
        if self.outer is None:
            return self._scan([None] * self.width)
        return (row for base in self.outer for row in self._scan(base))

    def _scan(self, base: Row) -> Iterator[Row]:
        start_ids = None
        if self.start is not None:
            start_id = self.start.fn(base)
            if start_id is None:
                return
            start_ids = (start_id,)
        target = None
        if self.target is not None:
            target = self.target.fn(base)
            if target is None:
                return
        spec = self.build_spec(target)
        tracer = current_tracer()
        stats = TraversalStats() if tracer is not None else None
        if self.mode == "SP":
            paths = shortest_paths(
                self.view, start_ids, spec, self.weight_of,
                self.max_paths_per_vertex, stats,
            )
        else:
            scan = dfs_paths if self.mode == "DFS" else bfs_paths
            paths = scan(self.view, start_ids, spec, stats)
        slot = self.slot
        try:
            for path in paths:
                row = list(base)
                row[slot] = path
                yield row
        finally:
            if tracer is not None:
                paths.close()  # a scan folds its last counters in when closed
                tracer.record_traversal(self, self.mode, stats)

    def describe(self) -> str:
        kind = "PathScan" if self.outer is None else "PathScanProbe"
        return f"{kind}({self.view.name}, {self.mode})"

    def children(self) -> Sequence[Operator]:
        return () if self.outer is None else (self.outer,)
