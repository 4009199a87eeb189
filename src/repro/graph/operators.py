"""Graph operators for the query execution pipeline (Section 5.1).

``VertexScanOp`` / ``EdgeScanOp`` iterate a graph view's elements;
``PathScanSourceOp`` runs a traversal from statically-known start
vertexes; ``make_path_probe_factory`` builds the correlated form where a
relational outer feeds start (and optionally target) vertexes into the
traversal — the plan shape of Figure 6 in the paper.

All of them emit combined rows with a Vertex / Edge / Path object in the
operator's slot, so relational operators up the pipeline consume graph
results through the same tuple interface (Section 5.2).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence

from ..ambient import current_token, current_tracer
from ..errors import PlanningError
from ..executor.operators import Operator, Row
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
    ``VS.Id = <expr>`` never scans. ``key`` is a constant or a
    zero-argument callable (deferred for prepared statements).
    """

    def __init__(self, view: GraphView, key: Any, slot: int, width: int):
        self.view = view
        self.key = key
        self.slot = slot
        self.width = width

    def _rows(self) -> Iterator[Row]:
        key = self.key() if callable(self.key) else self.key
        vertex = self.view.find_vertex(key)
        if vertex is not None:
            row: Row = [None] * self.width
            row[self.slot] = vertex
            yield row

    def describe(self) -> str:
        return f"VertexLookup({self.view.name})"


class EdgeLookupOp(Operator):
    """O(1) edge access by identifier through the topology hash map."""

    def __init__(self, view: GraphView, key: Any, slot: int, width: int):
        self.view = view
        self.key = key
        self.slot = slot
        self.width = width

    def _rows(self) -> Iterator[Row]:
        key = self.key() if callable(self.key) else self.key
        edge = self.view.topology.edges.get(key)
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


def _path_rows(
    view: GraphView,
    slot: int,
    width: int,
    mode: str,
    start_ids: Optional[Iterable[Any]],
    spec: TraversalSpec,
    weight_of: Optional[Callable],
    max_paths_per_vertex: int,
    span_key: Any,
    label: str,
) -> Iterator[Row]:
    """Run the physical scan the optimizer selected, one combined row per
    path. With a tracer active the scan's counters fold into
    ``span_key``'s span — also when the consumer stops early (LIMIT) or a
    budget aborts the scan."""
    tracer = current_tracer()
    stats = TraversalStats() if tracer is not None else None
    if mode == "SP":
        if weight_of is None:
            raise PlanningError("SPScan requires a weight attribute")
        paths = shortest_paths(
            view, start_ids, spec, weight_of, max_paths_per_vertex, stats
        )
    elif mode in ("DFS", "BFS"):
        scan = dfs_paths if mode == "DFS" else bfs_paths
        paths = scan(view, start_ids, spec, stats)
    else:
        raise PlanningError(f"unknown traversal mode: {mode}")
    try:
        for path in paths:
            row: Row = [None] * width
            row[slot] = path
            yield row
    finally:
        if tracer is not None:
            paths.close()  # a scan folds its last counters in when closed
            tracer.record_traversal(span_key, label, mode, stats)


class PathScanSourceOp(Operator):
    """Uncorrelated PathScan: start vertexes are constants (or all).

    ``spec_factory`` builds a fresh :class:`TraversalSpec` per iteration
    so that mutable per-run state never leaks between executions.
    """

    def __init__(
        self,
        view: GraphView,
        slot: int,
        width: int,
        mode: str,
        spec_factory: Callable[[], TraversalSpec],
        start_ids: Optional[Sequence[Any]] = None,
        weight_of: Optional[Callable] = None,
        max_paths_per_vertex: int = 1,
    ):
        self.view = view
        self.slot = slot
        self.width = width
        self.mode = mode
        self.spec_factory = spec_factory
        self.start_ids = start_ids
        self.weight_of = weight_of
        self.max_paths_per_vertex = max_paths_per_vertex

    def _rows(self) -> Iterator[Row]:
        return _path_rows(
            self.view,
            self.slot,
            self.width,
            self.mode,
            self.start_ids,
            self.spec_factory(),
            self.weight_of,
            self.max_paths_per_vertex,
            self,
            self.describe(),
        )

    def describe(self) -> str:
        return f"PathScan({self.view.name}, {self.mode})"


def make_path_probe_factory(
    view: GraphView,
    slot: int,
    width: int,
    mode: str,
    spec_factory: Callable[[Row], TraversalSpec],
    start_ids_of: Callable[[Row], Optional[List[Any]]],
    weight_of: Optional[Callable] = None,
    max_paths_per_vertex: int = 1,
) -> Callable[[Row], Iterator[Row]]:
    """Correlated PathScan for :class:`~repro.executor.joins.ProbeJoinOp`.

    Per outer row, ``start_ids_of`` evaluates the bound start-vertex
    expression(s) and ``spec_factory`` may bind a target vertex — the
    optimizer wires these from join predicates like
    ``PS.StartVertex.Id = U.uId`` (Listing 2). One traversal runs per
    outer row; the tracer aggregates their counters under this factory,
    and the annotator folds them into the enclosing ProbeJoin plan node.
    """

    probe_label = f"PathScanProbe({view.name}, {mode})"

    def factory(outer_row: Row) -> Iterator[Row]:
        start_ids = start_ids_of(outer_row)
        if start_ids is not None and any(s is None for s in start_ids):
            return iter(())
        return _path_rows(
            view,
            slot,
            width,
            mode,
            start_ids,
            spec_factory(outer_row),
            weight_of,
            max_paths_per_vertex,
            factory,
            probe_label,
        )

    return factory
