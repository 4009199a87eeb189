"""Physical path-scan algorithms: DFScan, BFScan, SPScan (Sections 5–6).

All scans are *lazy* generators following the iterator model, so parent
operators (e.g. ``LIMIT 1`` reachability queries, Listing 3) pull exactly
as many paths as they need. Paths are always **simple** — a vertex
appears at most once per path, except that a cycle may close back onto
its start vertex.

Filter pushdown (Section 6.2) happens through a :class:`TraversalSpec`,
and every scan honours all of it: positional edge/vertex predicates,
inferred length bounds (Section 6.1) and monotone aggregate bounds prune
*during* the walk, and each candidate leaves a scan only through the one
emit gate, :meth:`TraversalSpec.admit`, so rejected paths never leave
the scan.

Four loops, one per exploration discipline:

* **DFScan enumeration** (:func:`dfs_paths`) and **BFScan enumeration**
  (:func:`bfs_paths`): every simple path satisfying the spec, as pattern
  queries such as triangle counting need;
* **visited-once** (``unique_vertices=True``, either entry point): each
  vertex is expanded at most once for the whole traversal, breadth-first,
  producing the hop-minimal path per reached vertex — the discipline
  reachability queries need, linear in the graph size;
* **SPScan** (:func:`shortest_paths`): paths in non-decreasing weight.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..budget import current_token
from ..errors import ExecutionError
from .graph_view import GraphView
from .path import Path
from .topology import Edge, Vertex


class PositionalFilter:
    """A predicate on the edge/vertex at positions ``[start..end]``.

    ``end is None`` encodes the paper's ``*`` (open-ended range); a
    single-index predicate ``[i]`` is the range ``[i..i]``.
    """

    __slots__ = ("start", "end", "predicate")

    def __init__(
        self,
        start: int,
        end: Optional[int],
        predicate: Callable[[Any], bool],
    ):
        self.start = start
        self.end = end
        self.predicate = predicate

    def applies_at(self, position: int) -> bool:
        if position < self.start:
            return False
        return self.end is None or position <= self.end

    def must_be_covered(self) -> int:
        """Minimum number of elements the path needs for this filter to
        have been fully evaluated (drives length inference)."""
        return self.start + 1 if self.end is None else self.end + 1


class SumBound:
    """A prunable aggregate constraint such as ``SUM(PS.Edges.Cost) < 10``.

    Pruning mid-traversal is only sound while every observed increment is
    non-negative (the running sum is then monotone); the final check at
    yield time is always exact.
    """

    __slots__ = ("attribute_of", "op", "bound")

    def __init__(
        self,
        attribute_of: Callable[[Edge], Any],
        op: str,
        bound: float,
    ):
        if op not in ("<", "<=", ">", ">=", "=", "<>"):
            raise ExecutionError(f"unsupported aggregate bound op: {op}")
        self.attribute_of = attribute_of
        self.op = op
        self.bound = bound

    def increment(self, edge: Edge) -> float:
        """The edge's contribution to the sum (``NULL`` adds nothing)."""
        value = self.attribute_of(edge)
        return 0.0 if value is None else float(value)

    def violated_finally(self, total: float) -> bool:
        op, bound = self.op, self.bound
        if op == "<":
            return not total < bound
        if op == "<=":
            return not total <= bound
        if op == ">":
            return not total > bound
        if op == ">=":
            return not total >= bound
        if op == "=":
            return total != bound
        return total == bound  # op == '<>'

    def prunable_now(self, running: float, all_non_negative: bool) -> bool:
        """True when no extension of the path can ever satisfy the bound."""
        if not all_non_negative:
            return False
        if self.op == "<":
            return running >= self.bound
        if self.op == "<=":
            return running > self.bound
        return False


class TraversalSpec:
    """Everything the optimizer pushed into the path scan."""

    def __init__(
        self,
        min_length: int = 1,
        max_length: Optional[int] = None,
        edge_filters: Optional[List[PositionalFilter]] = None,
        vertex_filters: Optional[List[PositionalFilter]] = None,
        sum_bounds: Optional[List[SumBound]] = None,
        path_predicate: Optional[Callable[[Path], bool]] = None,
        target_vertex_id: Any = None,
        unique_vertices: bool = False,
        target_is_start: bool = False,
    ):
        self.min_length = max(min_length, 1)
        self.max_length = max_length
        self.edge_filters = edge_filters or []
        self.vertex_filters = vertex_filters or []
        self.sum_bounds = sum_bounds or []
        self.path_predicate = path_predicate
        self.target_vertex_id = target_vertex_id
        self.unique_vertices = unique_vertices
        # Cycle queries (``PS.StartVertexId = PS.EndVertexId``): only
        # paths closing onto their own start vertex are produced. The
        # scans check this *before* materializing a Path (Section 6.2's
        # early pruning applied to the pattern workload).
        self.target_is_start = target_is_start

    # -------------------------- checks --------------------------------

    def edge_allowed(self, position: int, edge: Edge) -> bool:
        for filt in self.edge_filters:
            if filt.applies_at(position) and not filt.predicate(edge):
                return False
        return True

    def vertex_allowed(self, position: int, vertex: Vertex) -> bool:
        for filt in self.vertex_filters:
            if filt.applies_at(position) and not filt.predicate(vertex):
                return False
        return True

    def length_could_grow_to(self, current_length: int) -> bool:
        return self.max_length is None or current_length < self.max_length

    def admit(
        self,
        path: Path,
        sums: Optional[Tuple[float, ...]],
        stats: "TraversalStats",
        token: Any,
    ) -> bool:
        """The one emit gate: a path leaves a scan only when admitted here.

        Checks every element of the spec exactly (the loops only prune
        with it), then counts the path. ``sums`` are the running
        ``sum_bounds`` totals, or ``None`` for a scan that does not carry
        them (visited-once keeps parent pointers only).
        """
        if path.length < self.min_length:
            return False
        if self.max_length is not None and path.length > self.max_length:
            return False
        # Positional filters with ranges the path never reached: the
        # paper treats e.g. Edges[5..*] as requiring length >= 6, which
        # length inference encodes in min_length; nothing more to check.
        if self.target_vertex_id is not None:
            if path.end_vertex_id != self.target_vertex_id:
                return False
        if self.target_is_start and path.end_vertex_id != path.start_vertex_id:
            return False
        if self.sum_bounds:
            if sums is None:
                sums = tuple(
                    sum(bound.increment(edge) for edge in path.edges)
                    for bound in self.sum_bounds
                )
            for bound, total in zip(self.sum_bounds, sums):
                if bound.violated_finally(total):
                    return False
        if self.path_predicate is not None and not self.path_predicate(path):
            return False
        stats.paths_emitted += 1
        if token is not None:
            token.tick_path()
        return True


class TraversalStats:
    """Counters collected by a scan (memory ablation + EXPLAIN ANALYZE)."""

    __slots__ = (
        "paths_emitted",
        "vertices_visited",
        "edges_examined",
        "peak_frontier",
    )

    def __init__(self):
        self.paths_emitted = 0
        self.vertices_visited = 0
        self.edges_examined = 0
        self.peak_frontier = 0

    def note_frontier(self, size: int) -> None:
        if size > self.peak_frontier:
            self.peak_frontier = size

    def __repr__(self) -> str:
        return (
            f"TraversalStats(paths={self.paths_emitted}, "
            f"vertices={self.vertices_visited}, "
            f"edges={self.edges_examined}, peak={self.peak_frontier})"
        )


def _start_vertices(
    view: GraphView, start_ids: Optional[Iterable[Any]]
) -> Iterator[Vertex]:
    """Resolve requested start identifiers (or all vertices, Section 5.1.2)."""
    if start_ids is None:
        yield from view.iter_vertices()
        return
    for vertex_id in start_ids:
        vertex = view.find_vertex(vertex_id)
        if vertex is not None:
            yield vertex


def _extend_sums(
    sum_bounds: List[SumBound],
    sums: Tuple[float, ...],
    edge: Edge,
    non_negative: bool,
) -> Tuple[Optional[Tuple[float, ...]], bool]:
    """Running ``sum_bounds`` totals after ``edge``, and whether every
    increment so far was non-negative; the totals are ``None`` when a
    monotone bound proves that no extension can qualify."""
    new_sums = list(sums)
    prune = False
    for i, bound in enumerate(sum_bounds):
        increment = bound.increment(edge)
        if increment < 0:
            non_negative = False
        new_sums[i] += increment
        if bound.prunable_now(new_sums[i], non_negative):
            prune = True
    return (None if prune else tuple(new_sums)), non_negative


def dfs_paths(
    view: GraphView,
    start_ids: Optional[Iterable[Any]],
    spec: TraversalSpec,
    stats: Optional[TraversalStats] = None,
) -> Iterator[Path]:
    """Depth-first path scan (DFScan). Stack holds one edge iterator per
    level, so memory is O(F * L) as analysed in Section 6.3."""
    return _scan(_dfs, view, start_ids, spec, stats)


def bfs_paths(
    view: GraphView,
    start_ids: Optional[Iterable[Any]],
    spec: TraversalSpec,
    stats: Optional[TraversalStats] = None,
) -> Iterator[Path]:
    """Breadth-first path scan (BFScan). The queue can hold O(F^L)
    partial paths (Section 6.3), which the memory ablation measures via
    ``stats``."""
    return _scan(_bfs, view, start_ids, spec, stats)


def _scan(enumerate_paths, view, start_ids, spec, stats) -> Iterator[Path]:
    """The one point where ``unique_vertices`` selects the visited-once
    discipline, whichever enumeration the caller named."""
    if stats is None:
        stats = TraversalStats()
    if spec.unique_vertices:
        return _visited_once(view, start_ids, spec, stats)
    return enumerate_paths(view, start_ids, spec, stats)


# ---------------------------------------------------------------------------
# DFScan
# ---------------------------------------------------------------------------


def _dfs(
    view: GraphView,
    start_ids: Optional[Iterable[Any]],
    spec: TraversalSpec,
    stats: TraversalStats,
) -> Iterator[Path]:
    # One flat iterator-stack loop with the per-edge work inlined: this is
    # the hottest loop in the engine (triangles, 2-hop neighbourhoods), and
    # moving the per-edge step into a helper shared with the other scans
    # cost +22 % on the graph_query triangle query.
    topology = view.topology
    vertices_map = topology.vertices
    edges_map = topology.edges
    directed = view.directed
    check_edges = bool(spec.edge_filters)
    check_vertices = bool(spec.vertex_filters)
    sum_bounds = spec.sum_bounds
    n_bounds = len(sum_bounds)
    min_length = spec.min_length
    max_length = spec.max_length
    target_is_start = spec.target_is_start
    static_target = spec.target_vertex_id
    # dispatch shortcut: a single position-independent edge filter is by
    # far the most common pushed shape (selectivity / label predicates)
    single_edge_predicate = None
    if check_edges and len(spec.edge_filters) == 1:
        only_filter = spec.edge_filters[0]
        if only_filter.start == 0 and only_filter.end is None:
            single_edge_predicate = only_filter.predicate
            check_edges = False
    examined = 0
    visited = 0
    peak = 0
    # resource governor: budgets abort runaway enumerations (a cyclic
    # graph with no length bound has a combinatorial path space)
    token = current_token()
    try:
        for start in _start_vertices(view, start_ids):
            visited += 1
            if token is not None:
                token.tick_vertex()
            if check_vertices and not spec.vertex_allowed(0, start):
                continue
            start_id = start.id
            target = start_id if target_is_start else static_target
            path_vertices: List[Vertex] = [start]
            path_edges: List[Edge] = []
            on_path: Set[Any] = {start_id}
            sums_stack: List[Tuple[float, ...]] = [(0.0,) * n_bounds]
            non_negative = True
            iterators: List[Iterator[Any]] = [iter(start.out_edges)]
            depth = 0  # == len(path_edges)
            while iterators:
                if len(iterators) > peak:
                    peak = len(iterators)
                edge_id = next(iterators[-1], None)
                if edge_id is None:
                    iterators.pop()
                    if path_edges:
                        path_edges.pop()
                        removed = path_vertices.pop()
                        on_path.discard(removed.id)
                        sums_stack.pop()
                        depth -= 1
                    continue
                edge = edges_map[edge_id]
                examined += 1
                if token is not None:
                    token.tick_edge()
                if single_edge_predicate is not None:
                    if not single_edge_predicate(edge):
                        continue
                elif check_edges and not spec.edge_allowed(depth, edge):
                    continue
                current_id = path_vertices[-1].id
                if directed:
                    next_id = edge.to_id
                else:
                    next_id = (
                        edge.to_id
                        if edge.from_id == current_id
                        else edge.from_id
                    )
                # Paths are simple, except that an edge may close a cycle
                # back to the start vertex — needed by sub-graph pattern
                # queries such as triangle counting (Listing 4).
                if next_id in on_path:
                    closes_cycle = (
                        next_id == start_id
                        and depth >= 1
                        and all(e.id != edge_id for e in path_edges)
                    )
                    if not closes_cycle:
                        continue  # keep paths simple
                else:
                    closes_cycle = False
                next_vertex = vertices_map.get(next_id)
                if next_vertex is None:
                    continue
                if check_vertices and not spec.vertex_allowed(
                    depth + 1, next_vertex
                ):
                    continue
                if n_bounds:
                    new_sums, non_negative = _extend_sums(
                        sum_bounds, sums_stack[-1], edge, non_negative
                    )
                    if new_sums is None:
                        continue
                else:
                    new_sums = ()
                if closes_cycle:
                    # emit the cycle (if it qualifies) but never extend it
                    if depth + 1 >= min_length and (
                        target is None or next_id == target
                    ):
                        candidate = Path(
                            path_vertices + [next_vertex], path_edges + [edge]
                        )
                        if spec.admit(candidate, new_sums, stats, token):
                            yield candidate
                    continue
                path_edges.append(edge)
                path_vertices.append(next_vertex)
                on_path.add(next_id)
                sums_stack.append(new_sums)
                depth += 1
                visited += 1
                if token is not None:
                    token.tick_vertex()
                if depth >= min_length and (
                    target is None or next_id == target
                ):
                    candidate = Path(path_vertices, path_edges)
                    if spec.admit(candidate, new_sums, stats, token):
                        yield candidate
                if max_length is None or depth < max_length:
                    iterators.append(iter(next_vertex.out_edges))
                else:
                    path_edges.pop()
                    path_vertices.pop()
                    on_path.discard(next_id)
                    sums_stack.pop()
                    depth -= 1
    finally:
        stats.edges_examined += examined
        stats.vertices_visited += visited
        stats.note_frontier(peak)


# ---------------------------------------------------------------------------
# BFScan
# ---------------------------------------------------------------------------


def _bfs(
    view: GraphView,
    start_ids: Optional[Iterable[Any]],
    spec: TraversalSpec,
    stats: TraversalStats,
) -> Iterator[Path]:
    topology = view.topology
    vertices_map = topology.vertices
    edges_map = topology.edges
    directed = view.directed
    sum_bounds = spec.sum_bounds
    target_is_start = spec.target_is_start
    static_target = spec.target_vertex_id
    # entries: (vertices, edges, running sums, all increments non-negative)
    queue: deque = deque()
    token = current_token()
    for start in _start_vertices(view, start_ids):
        if spec.vertex_allowed(0, start):
            queue.append(((start,), (), (0.0,) * len(sum_bounds), True))
    while queue:
        stats.note_frontier(len(queue))
        vertices, edges, sums, non_negative = queue.popleft()
        stats.vertices_visited += 1
        if token is not None:
            token.tick_vertex()
        start_id = vertices[0].id
        current = vertices[-1]
        current_id = current.id
        position = len(edges)
        target = start_id if target_is_start else static_target
        if position >= spec.min_length and (target is None or current_id == target):
            candidate = Path(vertices, edges)
            if spec.admit(candidate, sums, stats, token):
                yield candidate
        if not spec.length_could_grow_to(position):
            continue
        on_path = {v.id for v in vertices}
        for edge_id in current.out_edges:
            edge = edges_map[edge_id]
            stats.edges_examined += 1
            if token is not None:
                token.tick_edge()
            if not spec.edge_allowed(position, edge):
                continue
            if directed:
                next_id = edge.to_id
            else:
                next_id = edge.to_id if edge.from_id == current_id else edge.from_id
            closes_cycle = (
                next_id == start_id
                and position >= 1
                and all(e.id != edge_id for e in edges)
            )
            if next_id in on_path and not closes_cycle:
                continue
            next_vertex = vertices_map.get(next_id)
            if next_vertex is None:
                continue
            if not spec.vertex_allowed(position + 1, next_vertex):
                continue
            new_sums, new_non_negative = sums, non_negative
            if sum_bounds:
                new_sums, new_non_negative = _extend_sums(
                    sum_bounds, sums, edge, non_negative
                )
                if new_sums is None:
                    continue
            if closes_cycle:
                # emit the closing cycle directly; cycles never extend
                if position + 1 >= spec.min_length and (
                    target is None or next_id == target
                ):
                    candidate = Path(vertices + (next_vertex,), edges + (edge,))
                    if spec.admit(candidate, new_sums, stats, token):
                        yield candidate
                continue
            queue.append(
                (
                    vertices + (next_vertex,),
                    edges + (edge,),
                    new_sums,
                    new_non_negative,
                )
            )


# ---------------------------------------------------------------------------
# visited-once
# ---------------------------------------------------------------------------


def _reconstruct_path(
    vertices_map: Dict[Any, Vertex],
    parents: Dict[Any, Optional[Tuple[Any, Edge]]],
    tail_id: Any,
) -> Path:
    """Rebuild a path from per-vertex parent pointers."""
    vertex_chain: List[Vertex] = []
    edge_chain: List[Edge] = []
    current = tail_id
    while True:
        vertex_chain.append(vertices_map[current])
        parent = parents[current]
        if parent is None:
            break
        parent_id, edge = parent
        edge_chain.append(edge)
        current = parent_id
    vertex_chain.reverse()
    edge_chain.reverse()
    return Path(vertex_chain, edge_chain)


def _visited_once(
    view: GraphView,
    start_ids: Optional[Iterable[Any]],
    spec: TraversalSpec,
    stats: TraversalStats,
) -> Iterator[Path]:
    """BFS with a global visited set: the hop-minimal path per vertex.

    This is the discipline used by the reachability experiments
    (Figure 7): linear in the explored subgraph, stopping as soon as the
    target is reached when one is known. Parent pointers keep the hot
    loop allocation-free; paths materialize only at emission.
    """
    topology = view.topology
    vertices_map = topology.vertices
    edges_map = topology.edges
    directed = view.directed
    target = spec.target_vertex_id
    check_edges = bool(spec.edge_filters)
    check_vertices = bool(spec.vertex_filters)
    min_length = spec.min_length
    visited: Set[Any] = set()
    parents: Dict[Any, Optional[Tuple[Any, Edge]]] = {}
    queue: "deque[Tuple[Vertex, int]]" = deque()
    token = current_token()
    for start in _start_vertices(view, start_ids):
        if start.id in visited:
            continue
        if check_vertices and not spec.vertex_allowed(0, start):
            continue
        visited.add(start.id)
        parents[start.id] = None
        queue.append((start, 0))
    while queue:
        stats.note_frontier(len(queue))
        vertex, depth = queue.popleft()
        stats.vertices_visited += 1
        if token is not None:
            token.tick_vertex()
        if depth >= min_length:
            if target is None or vertex.id == target:
                candidate = _reconstruct_path(vertices_map, parents, vertex.id)
                if spec.admit(candidate, None, stats, token):
                    yield candidate
                    if target is not None:
                        return
        if not spec.length_could_grow_to(depth):
            continue
        vertex_id = vertex.id
        next_depth = depth + 1
        for edge_id in vertex.out_edges:
            edge = edges_map[edge_id]
            stats.edges_examined += 1
            if token is not None:
                token.tick_edge()
            if check_edges and not spec.edge_allowed(depth, edge):
                continue
            if directed:
                next_id = edge.to_id
            else:
                next_id = (
                    edge.to_id if edge.from_id == vertex_id else edge.from_id
                )
            if next_id in visited:
                continue
            next_vertex = vertices_map.get(next_id)
            if next_vertex is None:
                continue
            if check_vertices and not spec.vertex_allowed(
                next_depth, next_vertex
            ):
                continue
            visited.add(next_id)
            parents[next_id] = (vertex_id, edge)
            queue.append((next_vertex, next_depth))


# ---------------------------------------------------------------------------
# SPScan
# ---------------------------------------------------------------------------


def shortest_paths(
    view: GraphView,
    start_ids: Optional[Iterable[Any]],
    spec: TraversalSpec,
    weight_of: Callable[[Edge], float],
    max_paths_per_vertex: int = 1,
    stats: Optional[TraversalStats] = None,
) -> Iterator[Path]:
    """Dijkstra-based shortest-path scan (SPScan, Section 6.3).

    Yields simple paths in non-decreasing total weight, lazily, as pulled
    by the parent operator — exactly the paper's top-k use case
    (Listing 6). With ``max_paths_per_vertex = 1`` this is classic
    Dijkstra (each vertex settled once); with ``k`` it enumerates up to
    ``k`` distinct shortest simple paths per vertex, supporting
    ``SELECT TOP k`` queries.

    Heap entries carry the running ``sum_bounds`` totals, so monotone
    bounds prune here as in the other scans. Under ``target_is_start`` a
    closing cycle is a terminal heap entry — emitted in cost order, never
    extended — and slots are counted per (start, vertex), so the start's
    zero-length entry leaves its ``k`` cycle slots free and another
    start's paths cannot use them up.

    Edge weights must be non-negative (Dijkstra's precondition); a
    negative weight raises :class:`~repro.errors.ExecutionError`.
    """
    if stats is None:
        stats = TraversalStats()
    topology = view.topology
    vertices_map = topology.vertices
    edges_map = topology.edges
    directed = view.directed
    sum_bounds = spec.sum_bounds
    target_is_start = spec.target_is_start
    static_target = spec.target_vertex_id
    counter = itertools.count()
    # entries: (cost, tiebreak, vertices, edges, running sums, non-negative)
    heap: list = []
    settled: Dict[Any, int] = {}
    token = current_token()
    for start in _start_vertices(view, start_ids):
        if spec.vertex_allowed(0, start):
            heapq.heappush(
                heap,
                (0.0, next(counter), (start,), (), (0.0,) * len(sum_bounds), True),
            )
    while heap:
        stats.note_frontier(len(heap))
        cost, _tiebreak, vertices, edges, sums, non_negative = heapq.heappop(heap)
        stats.vertices_visited += 1
        if token is not None:
            token.tick_vertex()
        tail = vertices[-1]
        tail_id = tail.id
        start_id = vertices[0].id
        position = len(edges)
        if position or not target_is_start:
            slot = (start_id, tail_id) if target_is_start else tail_id
            times_settled = settled.get(slot, 0)
            if times_settled >= max_paths_per_vertex:
                continue
            settled[slot] = times_settled + 1
        target = start_id if target_is_start else static_target
        if position >= spec.min_length and (target is None or tail_id == target):
            candidate = Path(vertices, edges, cost=cost)
            if spec.admit(candidate, sums, stats, token):
                yield candidate
                if (
                    static_target is not None
                    and settled.get(static_target, 0) >= max_paths_per_vertex
                ):
                    return
        if position and tail_id == start_id:
            continue  # a closed cycle is terminal
        if not spec.length_could_grow_to(position):
            continue
        on_path = {v.id for v in vertices}
        for edge_id in tail.out_edges:
            edge = edges_map[edge_id]
            stats.edges_examined += 1
            if token is not None:
                token.tick_edge()
            if not spec.edge_allowed(position, edge):
                continue
            if directed:
                next_id = edge.to_id
            else:
                next_id = edge.to_id if edge.from_id == tail_id else edge.from_id
            if next_id in on_path and not (
                target_is_start
                and next_id == start_id
                and position >= 1
                and all(e.id != edge_id for e in edges)
            ):
                continue
            slot = (start_id, next_id) if target_is_start else next_id
            if settled.get(slot, 0) >= max_paths_per_vertex:
                continue
            next_vertex = vertices_map.get(next_id)
            if next_vertex is None:
                continue
            if not spec.vertex_allowed(position + 1, next_vertex):
                continue
            weight = weight_of(edge)
            weight = 0.0 if weight is None else float(weight)
            if weight < 0:
                raise ExecutionError(
                    "SPScan requires non-negative edge weights "
                    f"(edge {edge.id!r} has weight {weight})"
                )
            new_sums, new_non_negative = sums, non_negative
            if sum_bounds:
                new_sums, new_non_negative = _extend_sums(
                    sum_bounds, sums, edge, non_negative
                )
                if new_sums is None:
                    continue
            heapq.heappush(
                heap,
                (
                    cost + weight,
                    next(counter),
                    vertices + (next_vertex,),
                    edges + (edge,),
                    new_sums,
                    new_non_negative,
                ),
            )


# ---------------------------------------------------------------------------
# logical -> physical selection (Section 6.3)
# ---------------------------------------------------------------------------


def choose_traversal(
    average_fan_out: float,
    inferred_length: Optional[int],
    default: str = "DFS",
) -> str:
    """Pick BFScan or DFScan by the paper's memory analysis.

    A DFS stack holds ~``F * L`` entries while a BFS queue holds ~``F^L``,
    so BFS is selected exactly when ``F^L < F * L`` — evaluated in log
    space to avoid overflow. Without an inferred length the default
    operator is used, as in the paper.
    """
    if inferred_length is None or inferred_length <= 0:
        return default
    fan_out = max(average_fan_out, 1e-9)
    length = inferred_length
    bfs_cost = length * math.log(fan_out)
    dfs_cost = math.log(fan_out) + math.log(length)
    return "BFS" if bfs_cost < dfs_cost else "DFS"
