"""Whole-graph analytics over materialized graph views.

The paper's thesis is that once the topology lives natively inside the
RDBMS, "the massive body of research that assumes a graph model"
(Section 3.1) can run in place — no extraction. This module provides the
classic algorithms such workloads need, all operating directly on a
:class:`~repro.graph.graph_view.GraphView`'s adjacency structure:

* :func:`connected_components` — undirected / weak connectivity;
* :func:`strongly_connected_components` — Tarjan, iterative;
* :func:`pagerank` — power iteration with damping;
* :func:`degree_distribution`;
* :func:`estimate_diameter` — double-sweep BFS lower bound;
* :func:`clustering_coefficient` — per-vertex triangle density.

All are pure functions of the topology; attribute-dependent variants can
filter edges through a predicate built from
:meth:`GraphView.edge_attribute_reader`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..errors import ExecutionError
from .graph_view import GraphView
from .topology import Edge

EdgeFilter = Optional[Callable[[Edge], bool]]


def _neighbors(
    view: GraphView,
    vertex_id: Any,
    edge_filter: EdgeFilter = None,
    ignore_direction: bool = False,
):
    """Neighbor ids of a vertex (optionally treating edges as undirected)."""
    topology = view.topology
    vertex_at, edge_at = topology.vertex_at, topology.edge_at
    vertex = topology.vertices[vertex_id]
    pairs = iter(vertex.out_pairs)
    for edge_slot in pairs:
        target_slot = next(pairs)
        if edge_filter is None or edge_filter(edge_at[edge_slot]):
            yield vertex_at[target_slot].id
    if ignore_direction and view.directed:
        for edge_slot in vertex.in_slots:
            edge = edge_at[edge_slot]
            if edge_filter is None or edge_filter(edge):
                yield edge.from_id


def connected_components(
    view: GraphView, edge_filter: EdgeFilter = None
) -> List[Set[Any]]:
    """Connected components (weak connectivity for directed graphs),
    largest first."""
    seen: Set[Any] = set()
    components: List[Set[Any]] = []
    for start in view.topology.vertices:
        if start in seen:
            continue
        component = {start}
        seen.add(start)
        queue = deque([start])
        while queue:
            vertex_id = queue.popleft()
            for neighbor in _neighbors(
                view, vertex_id, edge_filter, ignore_direction=True
            ):
                if neighbor not in seen:
                    seen.add(neighbor)
                    component.add(neighbor)
                    queue.append(neighbor)
        components.append(component)
    components.sort(key=len, reverse=True)
    return components


def strongly_connected_components(view: GraphView) -> List[Set[Any]]:
    """Tarjan's SCC algorithm, iterative (no recursion limit issues).

    For undirected views every connected component is one SCC.
    """
    if not view.directed:
        return connected_components(view)
    topology = view.topology
    index_counter = [0]
    indices: Dict[Any, int] = {}
    low_links: Dict[Any, int] = {}
    on_stack: Set[Any] = set()
    stack: List[Any] = []
    components: List[Set[Any]] = []

    vertex_at = topology.vertex_at

    def successors(vertex_id: Any) -> List[Any]:
        pairs = topology.vertices[vertex_id].out_pairs
        return [vertex_at[target].id for target in pairs[1::2]]

    for root in topology.vertices:
        if root in indices:
            continue
        # iterative Tarjan: work entries are (vertex, successor iterator)
        work: List[Tuple[Any, Iterable[Any]]] = [(root, iter(successors(root)))]
        indices[root] = low_links[root] = index_counter[0]
        index_counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            vertex_id, successor_iter = work[-1]
            advanced = False
            for successor in successor_iter:
                if successor not in indices:
                    indices[successor] = low_links[successor] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(successors(successor))))
                    advanced = True
                    break
                if successor in on_stack:
                    low_links[vertex_id] = min(
                        low_links[vertex_id], indices[successor]
                    )
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low_links[parent] = min(low_links[parent], low_links[vertex_id])
            if low_links[vertex_id] == indices[vertex_id]:
                component: Set[Any] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == vertex_id:
                        break
                components.append(component)
    components.sort(key=len, reverse=True)
    return components


def pagerank(
    view: GraphView,
    damping: float = 0.85,
    iterations: int = 50,
    tolerance: float = 1e-9,
) -> Dict[Any, float]:
    """PageRank by power iteration over the native adjacency lists.

    Dangling vertices redistribute their mass uniformly. Ranks sum to 1.
    """
    if not 0 < damping < 1:
        raise ExecutionError("damping must be in (0, 1)")
    topology = view.topology
    vertex_at = topology.vertex_at
    vertices = list(topology.vertices)
    n = len(vertices)
    if n == 0:
        return {}
    rank = {v: 1.0 / n for v in vertices}
    out_degree = {v: topology.vertices[v].fan_out for v in vertices}
    for _round in range(iterations):
        dangling_mass = sum(
            rank[v] for v in vertices if out_degree[v] == 0
        )
        incoming: Dict[Any, float] = {v: 0.0 for v in vertices}
        for v in vertices:
            degree = out_degree[v]
            if degree == 0:
                continue
            share = rank[v] / degree
            for target in topology.vertices[v].out_pairs[1::2]:
                incoming[vertex_at[target].id] += share
        base = (1.0 - damping) / n + damping * dangling_mass / n
        new_rank = {v: base + damping * incoming[v] for v in vertices}
        delta = sum(abs(new_rank[v] - rank[v]) for v in vertices)
        rank = new_rank
        if delta < tolerance:
            break
    return rank


def degree_distribution(view: GraphView) -> Dict[int, int]:
    """out-degree -> vertex count."""
    return view.topology.degree_histogram()


def estimate_diameter(view: GraphView, sweeps: int = 4) -> int:
    """Double-sweep BFS lower bound on the (hop) diameter.

    Starts from an arbitrary vertex, repeatedly BFS-ing from the farthest
    vertex found; the largest eccentricity observed is returned. Exact on
    trees, a tight lower bound in practice.
    """
    topology = view.topology
    if not topology.vertices:
        return 0
    current = next(iter(topology.vertices))
    best = 0
    for _sweep in range(max(1, sweeps)):
        distances = _bfs_distances(view, current)
        farthest, eccentricity = max(
            distances.items(), key=lambda item: item[1]
        )
        if eccentricity <= best:
            break
        best = eccentricity
        current = farthest
    return best


def _bfs_distances(view: GraphView, source: Any) -> Dict[Any, int]:
    distances = {source: 0}
    queue = deque([source])
    while queue:
        vertex_id = queue.popleft()
        for neighbor in _neighbors(view, vertex_id, ignore_direction=True):
            if neighbor not in distances:
                distances[neighbor] = distances[vertex_id] + 1
                queue.append(neighbor)
    return distances


def clustering_coefficient(view: GraphView, vertex_id: Any) -> float:
    """Fraction of neighbor pairs that are themselves connected
    (direction ignored). 0.0 for degree < 2."""
    neighbors = set(_neighbors(view, vertex_id, ignore_direction=True))
    neighbors.discard(vertex_id)
    k = len(neighbors)
    if k < 2:
        return 0.0
    links = 0
    for neighbor in neighbors:
        adjacent = set(_neighbors(view, neighbor, ignore_direction=True))
        links += len(adjacent & neighbors)
    return links / (k * (k - 1))


def average_clustering(view: GraphView, sample: Optional[int] = None) -> float:
    """Mean clustering coefficient (optionally over the first ``sample``
    vertices, for large graphs)."""
    vertices = list(view.topology.vertices)
    if sample is not None:
        vertices = vertices[:sample]
    if not vertices:
        return 0.0
    return sum(clustering_coefficient(view, v) for v in vertices) / len(vertices)
