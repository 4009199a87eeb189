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

The loops walk the topology's integer slots: each out-list alternates
``edge_slot, target_slot`` with undirected targets resolved when the edge
was added, so no loop looks at edge direction, and ``on_path`` /
visited / parent / settled state is keyed by slot. Element records are
read only to test a pushed filter and to build the paths a scan keeps
(the enumerations hold the partial path's records; visited-once and
SPScan hold parent links of slots and materialise an emitted path from
them). DFScan's last hop into a bound end probes the end's incoming
pairs instead of walking out-lists (see :func:`_edges_into`). Filters
over ``Edges[0..*]`` hold at every position, so a scan evaluates them at
most once per edge (see :func:`_edge_filters`).

Counters accumulate in locals and reach the :class:`TraversalStats` when
the scan ends or is closed; visited-once and SPScan, which emit few
paths, also fold them in before each emitted path, so a caller that
pulls one path and reads the stats sees the work done for it.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..ambient import current_token
from ..errors import ExecutionError
from .graph_view import GraphView
from .path import Path
from .topology import Edge, GraphTopology, Vertex


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

    def add(self, vertices: int, edges: int, peak: int) -> None:
        """Fold a loop's local counters in."""
        self.vertices_visited += vertices
        self.edges_examined += edges
        if peak > self.peak_frontier:
            self.peak_frontier = peak

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


def _target_slot(topology: GraphTopology, spec: TraversalSpec) -> Optional[int]:
    """The slot of the bound end vertex: ``None`` when there is none, -1
    when it names no vertex — no path can match, so every scan returns
    before it walks a single edge."""
    if spec.target_vertex_id is None:
        return None
    vertex = topology.vertices.get(spec.target_vertex_id)
    return -1 if vertex is None else vertex.slot


def _edges_into(topology: GraphTopology, end: int) -> Dict[int, List[int]]:
    """Per source slot, the ``edge_slot, end`` pairs of its out-list that
    end at vertex slot ``end``, in out-list order.

    DFScan's last hop into a bound end iterates this instead of the whole
    out-list. An undirected view reads it off the end's own out-list, a
    directed one off its in-list; either way an edge is entered in both
    adjacency lists at once and removed from both in place, so the order
    per source is the out-list's.
    """
    into: Dict[int, List[int]] = {}
    vertex = topology.vertex_at[end]
    if vertex.in_slots is None:
        pairs = iter(vertex.out_pairs)
        for edge_slot in pairs:
            into.setdefault(next(pairs), []).extend((edge_slot, end))
    else:
        vertices, edge_at = topology.vertices, topology.edge_at
        for edge_slot in vertex.in_slots:
            source = vertices[edge_at[edge_slot].from_id].slot
            into.setdefault(source, []).extend((edge_slot, end))
    return into


def _allowed_at(
    filters: List[PositionalFilter], position: int, element: Any
) -> bool:
    for filt in filters:
        if filt.applies_at(position) and not filt.predicate(element):
            return False
    return True


def _edge_filters(
    spec: TraversalSpec,
) -> Tuple[Optional[Callable[[Edge], bool]], List[PositionalFilter]]:
    """Split the pushed edge filters into ``(passes, positional)``.

    Filters over ``Edges[0..*]`` hold at every position, so their
    conjunction ``passes`` is a property of the edge alone. The
    enumerations and SPScan reach an edge many times and memoise it per
    scan call in a ``bytearray`` keyed by edge slot (0 = not yet
    evaluated, 1 = pass, 2 = fail), filled lazily on an edge's first
    visit — a predicate still runs, and can still raise, only on edges
    the scan reaches. The memo lives for one scan call; results are
    materialised before any DML runs, so it needs no invalidation.
    Position-specific filters run on every visit.
    """
    passes: Optional[Callable[[Edge], bool]] = None
    positional: List[PositionalFilter] = []
    for filt in spec.edge_filters:
        if filt.start == 0 and filt.end is None:
            passes = filt.predicate if passes is None else _both(
                passes, filt.predicate)
        else:
            positional.append(filt)
    return passes, positional


def _both(first: Callable[[Edge], bool], second: Callable[[Edge], bool]):
    return lambda edge: first(edge) and second(edge)


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


def _path(
    vertex_at: List[Vertex],
    edge_at: List[Edge],
    vertex_slots: Iterable[int],
    edge_slots: Iterable[int],
    cost: Optional[float] = None,
) -> Path:
    """Materialise an emitted path from its slots."""
    return Path(
        tuple(map(vertex_at.__getitem__, vertex_slots)),
        tuple(map(edge_at.__getitem__, edge_slots)),
        cost,
    )


def _unlink(link: Tuple[int, Any, Any]) -> Tuple[List[int], List[int]]:
    """Vertex and edge slots from a start to a link's slot.

    Visited-once and SPScan keep a path as a *parent link* ``(slot, edge
    slot, parent link)`` — a start's is ``(slot, None, None)`` — which
    shares its prefix with the link it grew from, so extending a path
    copies nothing; this walks the chain back when a path is emitted.
    """
    vertex_slots: List[int] = []
    edge_slots: List[int] = []
    while True:
        slot, edge_slot, parent = link
        vertex_slots.append(slot)
        if parent is None:
            break
        edge_slots.append(edge_slot)
        link = parent
    vertex_slots.reverse()
    edge_slots.reverse()
    return vertex_slots, edge_slots


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
    # the hottest loop in the engine (triangles, 2-hop neighbourhoods).
    # Each level's iterator is resumed by a ``for`` that breaks out to
    # descend; the ``else`` branch backtracks when a level is exhausted.
    topology = view.topology
    out_pairs = topology.out_pairs
    vertex_at = topology.vertex_at
    edge_at = topology.edge_at
    passes, positional = _edge_filters(spec)
    memo = None if passes is None else bytearray(len(edge_at))
    vertex_filters = spec.vertex_filters
    sum_bounds = spec.sum_bounds
    n_bounds = len(sum_bounds)
    min_length = spec.min_length
    max_length = spec.max_length
    target_is_start = spec.target_is_start
    static_target = _target_slot(topology, spec)
    if static_target == -1:
        return
    # With a bound end and a known length bound, the edges at position
    # ``last`` can only emit by ending at that end, so that level probes
    # the end's incoming pairs (``into``) instead of walking out-lists.
    # ``into`` is built when a path first reaches that depth: once per
    # scan for a static end, once per start for a cycle.
    last = -1
    if max_length is not None and (target_is_start or static_target is not None):
        last = max_length - 1
    into = None
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
            if vertex_filters and not _allowed_at(vertex_filters, 0, start):
                continue
            start_slot = start.slot
            if target_is_start:
                target, into = start_slot, None
            else:
                target = static_target
            path_vertices: List[Vertex] = [start]
            path_edges: List[Edge] = []
            on_path: Set[int] = {start_slot}
            sums_stack: List[Tuple[float, ...]] = [(0.0,) * n_bounds]
            non_negative = True
            iterators: List[Iterator[int]] = [iter(out_pairs[start_slot])]
            if not peak:
                peak = 1
            depth = 0  # == len(path_edges) == len(iterators) - 1
            while iterators:
                pairs = iterators[-1]
                for edge_slot in pairs:
                    next_slot = next(pairs)
                    examined += 1
                    if token is not None:
                        token.tick_edge()
                    if memo is not None:
                        verdict = memo[edge_slot]
                        if not verdict:
                            verdict = memo[edge_slot] = (
                                1 if passes(edge_at[edge_slot]) else 2
                            )
                        if verdict == 2:
                            continue
                    if positional and not _allowed_at(
                        positional, depth, edge_at[edge_slot]
                    ):
                        continue
                    # Paths are simple, except that an edge may close a
                    # cycle back to the start vertex — needed by sub-graph
                    # pattern queries such as triangle counting (Listing 4).
                    if next_slot in on_path:
                        if (
                            next_slot != start_slot
                            or not depth
                            or edge_at[edge_slot] in path_edges
                        ):
                            continue  # keep paths simple
                        closes_cycle = True
                    else:
                        closes_cycle = False
                    if vertex_filters and not _allowed_at(
                        vertex_filters, depth + 1, vertex_at[next_slot]
                    ):
                        continue
                    if n_bounds:
                        new_sums, non_negative = _extend_sums(
                            sum_bounds, sums_stack[-1], edge_at[edge_slot],
                            non_negative,
                        )
                        if new_sums is None:
                            continue
                    else:
                        new_sums = ()
                    if closes_cycle:
                        # emit the cycle (if it qualifies) but never extend it
                        if depth + 1 >= min_length and (
                            target is None or next_slot == target
                        ):
                            candidate = Path(
                                path_vertices + [start],
                                path_edges + [edge_at[edge_slot]],
                            )
                            if spec.admit(candidate, new_sums, stats, token):
                                yield candidate
                        continue
                    path_edges.append(edge_at[edge_slot])
                    path_vertices.append(vertex_at[next_slot])
                    on_path.add(next_slot)
                    sums_stack.append(new_sums)
                    depth += 1
                    visited += 1
                    if token is not None:
                        token.tick_vertex()
                    if depth >= min_length and (
                        target is None or next_slot == target
                    ):
                        candidate = Path(path_vertices, path_edges)
                        if spec.admit(candidate, new_sums, stats, token):
                            yield candidate
                    if max_length is None or depth < max_length:
                        if depth == last:
                            if into is None:
                                into = _edges_into(topology, target)
                            iterators.append(iter(into.get(next_slot, ())))
                        else:
                            iterators.append(iter(out_pairs[next_slot]))
                        if depth >= peak:
                            peak = depth + 1
                        break
                    path_edges.pop()
                    path_vertices.pop()
                    on_path.discard(next_slot)
                    sums_stack.pop()
                    depth -= 1
                else:
                    iterators.pop()
                    if depth:
                        path_edges.pop()
                        on_path.discard(path_vertices.pop().slot)
                        sums_stack.pop()
                        depth -= 1
    finally:
        stats.add(visited, examined, peak)


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
    out_pairs = topology.out_pairs
    vertex_at = topology.vertex_at
    edge_at = topology.edge_at
    passes, positional = _edge_filters(spec)
    memo = None if passes is None else bytearray(len(edge_at))
    vertex_filters = spec.vertex_filters
    sum_bounds = spec.sum_bounds
    min_length = spec.min_length
    max_length = spec.max_length
    target_is_start = spec.target_is_start
    static_target = _target_slot(topology, spec)
    if static_target == -1:
        return
    # entries: (vertices, edges, running sums, all increments non-negative)
    queue: deque = deque()
    examined = 0
    visited = 0
    peak = 0
    token = current_token()
    try:
        for start in _start_vertices(view, start_ids):
            if _allowed_at(vertex_filters, 0, start):
                queue.append(((start,), (), (0.0,) * len(sum_bounds), True))
        while queue:
            if len(queue) > peak:
                peak = len(queue)
            vertices, edges, sums, non_negative = queue.popleft()
            visited += 1
            if token is not None:
                token.tick_vertex()
            start_slot = vertices[0].slot
            current = vertices[-1].slot
            position = len(edges)
            target = start_slot if target_is_start else static_target
            if position >= min_length and (target is None or current == target):
                candidate = Path(vertices, edges)
                if spec.admit(candidate, sums, stats, token):
                    yield candidate
            if max_length is not None and position >= max_length:
                continue
            on_path = {vertex.slot for vertex in vertices}
            pairs = iter(out_pairs[current])
            for edge_slot in pairs:
                next_slot = next(pairs)
                examined += 1
                if token is not None:
                    token.tick_edge()
                if memo is not None:
                    verdict = memo[edge_slot]
                    if not verdict:
                        verdict = memo[edge_slot] = (
                            1 if passes(edge_at[edge_slot]) else 2
                        )
                    if verdict == 2:
                        continue
                if positional and not _allowed_at(
                    positional, position, edge_at[edge_slot]
                ):
                    continue
                closes_cycle = (
                    next_slot == start_slot
                    and position >= 1
                    and edge_at[edge_slot] not in edges
                )
                if next_slot in on_path and not closes_cycle:
                    continue
                if vertex_filters and not _allowed_at(
                    vertex_filters, position + 1, vertex_at[next_slot]
                ):
                    continue
                edge = edge_at[edge_slot]
                new_sums, new_non_negative = sums, non_negative
                if sum_bounds:
                    new_sums, new_non_negative = _extend_sums(
                        sum_bounds, sums, edge, non_negative
                    )
                    if new_sums is None:
                        continue
                if closes_cycle:
                    # emit the closing cycle directly; cycles never extend
                    if position + 1 >= min_length and (
                        target is None or next_slot == target
                    ):
                        candidate = Path(vertices + (vertices[0],), edges + (edge,))
                        if spec.admit(candidate, new_sums, stats, token):
                            yield candidate
                    continue
                queue.append(
                    (
                        vertices + (vertex_at[next_slot],),
                        edges + (edge,),
                        new_sums,
                        new_non_negative,
                    )
                )
    finally:
        stats.add(visited, examined, peak)


# ---------------------------------------------------------------------------
# visited-once
# ---------------------------------------------------------------------------


def _visited_once(
    view: GraphView,
    start_ids: Optional[Iterable[Any]],
    spec: TraversalSpec,
    stats: TraversalStats,
) -> Iterator[Path]:
    """BFS with a global visited set: the hop-minimal path per vertex.

    This is the discipline used by the reachability experiments
    (Figure 7): linear in the explored subgraph. Parent links (``slot ->
    link``, see :func:`_unlink`) double as the visited set and keep the
    hot loop allocation-free; paths materialize only at emission. Edges
    toward a visited vertex are skipped before any filter runs, and an
    edge leads to an undiscovered vertex at most once, so a filter runs
    at most once per edge without a memo.

    A bound end vertex is tested when it is *discovered*, not when its
    level is dequeued: its parent link is set then and never changes, so
    the path is the one a dequeue-time test would emit, and the scan
    returns at once — nothing later can end at a visited vertex.

    A bound end vertex that is itself a start is never discovered again:
    only a path closing back onto it can end there, and the visited-once
    tree need not hold one (in an undirected triangle it reaches both
    neighbours of the start directly). That case runs as SPScan's cycle
    route with every edge weighing one hop, whose first path is the
    hop-minimal one.
    """
    topology = view.topology
    out_pairs = topology.out_pairs
    vertex_at = topology.vertex_at
    edge_at = topology.edge_at
    passes, positional = _edge_filters(spec)
    vertex_filters = spec.vertex_filters
    min_length = spec.min_length
    max_length = spec.max_length
    target = _target_slot(topology, spec)
    if target == -1:
        return
    parents: Dict[int, Tuple[int, Any, Any]] = {}
    frontier: List[int] = []
    examined = 0
    visited = 0
    peak = 0
    token = current_token()
    try:
        for start in _start_vertices(view, start_ids):
            slot = start.slot
            if slot in parents:
                continue
            if vertex_filters and not _allowed_at(vertex_filters, 0, start):
                continue
            parents[slot] = (slot, None, None)
            frontier.append(slot)
        if target in parents:
            starts = [vertex_at[slot].id for slot in parents]
            closing = shortest_paths(view, starts, spec, _one_hop, 1, stats)
            path = next(closing, None)
            closing.close()
            if path is not None:
                yield Path(path.vertices, path.edges)  # hops are no cost
            return
        depth = 0
        # level by level: the FIFO queue at any pop holds the rest of the
        # current level plus what this level discovered so far
        while frontier:
            discovered: List[int] = []
            waiting = len(frontier)
            emits = target is None and depth >= min_length
            grows = max_length is None or depth < max_length
            next_depth = depth + 1
            for slot in frontier:
                queued = waiting + len(discovered)
                if queued > peak:
                    peak = queued
                waiting -= 1
                visited += 1
                if token is not None:
                    token.tick_vertex()
                if emits:
                    candidate = _path(vertex_at, edge_at, *_unlink(parents[slot]))
                    if spec.admit(candidate, None, stats, token):
                        stats.add(visited, examined, peak)
                        visited = examined = 0
                        yield candidate
                if not grows:
                    continue
                link = parents[slot]
                pairs = iter(out_pairs[slot])
                for edge_slot in pairs:
                    next_slot = next(pairs)
                    examined += 1
                    if token is not None:
                        token.tick_edge()
                    if next_slot in parents:
                        continue
                    if passes is not None and not passes(edge_at[edge_slot]):
                        continue
                    if positional and not _allowed_at(
                        positional, depth, edge_at[edge_slot]
                    ):
                        continue
                    if vertex_filters and not _allowed_at(
                        vertex_filters, next_depth, vertex_at[next_slot]
                    ):
                        continue
                    parents[next_slot] = (next_slot, edge_slot, link)
                    if next_slot == target:
                        if next_depth >= min_length:
                            candidate = _path(
                                vertex_at, edge_at, *_unlink(parents[next_slot]))
                            if spec.admit(candidate, None, stats, token):
                                stats.add(visited, examined, peak)
                                visited = examined = 0
                                yield candidate
                        return
                    discovered.append(next_slot)
            frontier = discovered
            depth = next_depth
    finally:
        stats.add(visited, examined, peak)


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
    bounds prune here as in the other scans. A path from a start that
    must end where it began — every start under ``target_is_start``, or
    the start a bound end vertex names — takes the cycle route: a
    closing cycle is a terminal heap entry, emitted in cost order and
    never extended, and slots are counted per start (see
    :func:`_cycle_key`), so the start's zero-length entry leaves its
    ``k`` cycle slots free and another start's paths cannot use them up.

    Edge weights must be non-negative (Dijkstra's precondition); a
    negative weight raises :class:`~repro.errors.ExecutionError`.
    """
    if stats is None:
        stats = TraversalStats()
    topology = view.topology
    out_pairs = topology.out_pairs
    vertex_at = topology.vertex_at
    edge_at = topology.edge_at
    passes, positional = _edge_filters(spec)
    memo = None if passes is None else bytearray(len(edge_at))
    vertex_filters = spec.vertex_filters
    sum_bounds = spec.sum_bounds
    min_length = spec.min_length
    max_length = spec.max_length
    target_is_start = spec.target_is_start
    static_target = _target_slot(topology, spec)
    if static_target == -1:
        return
    heappush, heappop = heapq.heappush, heapq.heappop
    counter = itertools.count()
    # entries: (cost, tiebreak, tail slot, parent link, position, start
    # slot, first hop slot, running sums, non-negative)
    heap: list = []
    settled: Dict[Any, int] = {}
    examined = 0
    visited = 0
    peak = 0
    token = current_token()
    try:
        for start in _start_vertices(view, start_ids):
            if _allowed_at(vertex_filters, 0, start):
                slot = start.slot
                heappush(
                    heap,
                    (0.0, next(counter), slot, (slot, None, None), 0, slot,
                     None, (0.0,) * len(sum_bounds), True),
                )
        # the slot whose filling ends the scan: the bound end vertex's,
        # unless other starts share that end with the cycle route
        starts = {entry[5] for entry in heap}
        if static_target is None or target_is_start:
            final_slot: Any = None
        elif static_target not in starts:
            final_slot = static_target
        elif len(starts) == 1:
            final_slot = (static_target, static_target)
        else:
            final_slot = None
        while heap:
            if len(heap) > peak:
                peak = len(heap)
            (cost, _tiebreak, tail, link, position, start_slot, first_hop,
             sums, non_negative) = heappop(heap)
            visited += 1
            if token is not None:
                token.tick_vertex()
            cyclic = target_is_start or start_slot == static_target
            if position or not cyclic:
                slot = _cycle_key(start_slot, first_hop, tail) if cyclic else tail
                times_settled = settled.get(slot, 0)
                if times_settled >= max_paths_per_vertex:
                    continue
                settled[slot] = times_settled + 1
            target = start_slot if target_is_start else static_target
            if position >= min_length and (target is None or tail == target):
                candidate = _path(vertex_at, edge_at, *_unlink(link), cost)
                if spec.admit(candidate, sums, stats, token):
                    stats.add(visited, examined, peak)
                    visited = examined = 0
                    yield candidate
                    if (
                        slot == final_slot
                        and settled[slot] >= max_paths_per_vertex
                    ):
                        return
            if position and tail == start_slot:
                continue  # a closed cycle is terminal
            if max_length is not None and position >= max_length:
                continue
            # With one path per vertex off the cycle route, every vertex
            # on the path is settled, so the settled test below already
            # keeps the path simple.
            if cyclic or max_paths_per_vertex > 1:
                path_vertices, path_edges = _unlink(link)
                on_path: Optional[Set[int]] = set(path_vertices)
            else:
                on_path = None
            pairs = iter(out_pairs[tail])
            for edge_slot in pairs:
                next_slot = next(pairs)
                examined += 1
                if token is not None:
                    token.tick_edge()
                if memo is not None:
                    verdict = memo[edge_slot]
                    if not verdict:
                        verdict = memo[edge_slot] = (
                            1 if passes(edge_at[edge_slot]) else 2
                        )
                    if verdict == 2:
                        continue
                if positional and not _allowed_at(
                    positional, position, edge_at[edge_slot]
                ):
                    continue
                if on_path is not None and next_slot in on_path and not (
                    cyclic
                    and next_slot == start_slot
                    and position >= 1
                    and edge_slot not in path_edges
                ):
                    continue
                next_first = first_hop if position else next_slot
                next_key = (
                    _cycle_key(start_slot, next_first, next_slot)
                    if cyclic else next_slot
                )
                if settled.get(next_key, 0) >= max_paths_per_vertex:
                    continue
                if vertex_filters and not _allowed_at(
                    vertex_filters, position + 1, vertex_at[next_slot]
                ):
                    continue
                edge = edge_at[edge_slot]
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
                heappush(
                    heap,
                    (
                        cost + weight,
                        next(counter),
                        next_slot,
                        (next_slot, edge_slot, link),
                        position + 1,
                        start_slot,
                        next_first,
                        new_sums,
                        new_non_negative,
                    ),
                )
    finally:
        stats.add(visited, examined, peak)


def _cycle_key(start: int, first_hop: int, vertex: int) -> Any:
    """The settled-slot key of ``vertex`` on SPScan's cycle route, for a
    path from ``start`` whose first hop is ``first_hop``.

    The closing cycle counts per start. Every other vertex counts per
    (start, first hop, vertex): each neighbour of the start grows its
    own shortest-path tree, so a cycle is not lost when the cheapest way
    to its last vertex runs through the very edge that would close it
    (an undirected triangle, where the start reaches both neighbours
    directly).
    """
    if vertex == start:
        return (start, start)
    return (start, first_hop, vertex)


def _one_hop(edge: Edge) -> float:
    return 1.0


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
