"""Plain reference answers the workloads check every operation against."""

from __future__ import annotations

import heapq
import math
from typing import Any, Dict, Iterable, List, Optional, Tuple


def hop_ends(adjacency: Dict[Any, List[Any]], start: Any, hops: int = 2) -> List[Any]:
    """End vertices of every ``hops``-edge path from ``start``, sorted, one
    entry per path. Paths are simple, except that the engine lets the last
    edge close onto the start vertex (that is how it counts triangles).
    Assumes no parallel edges."""
    ends: List[Any] = []

    def walk(vertex: Any, path: List[Any]) -> None:
        if len(path) > hops:
            ends.append(vertex)
            return
        closing = len(path) == hops
        for neighbour in adjacency.get(vertex, ()):
            if neighbour not in path or (closing and neighbour == start):
                walk(neighbour, path + [neighbour])

    walk(start, [start])
    return sorted(ends)


def weighted_adjacency(
    edges: Iterable[tuple], directed: bool
) -> Dict[Any, List[Tuple[Any, float]]]:
    """``{src: [(dst, w), ...]}`` from ``(eid, src, dst, w, ...)`` rows."""
    adjacency: Dict[Any, List[Tuple[Any, float]]] = {}
    for _eid, src, dst, weight, *_rest in edges:
        adjacency.setdefault(src, []).append((dst, weight))
        if not directed:
            adjacency.setdefault(dst, []).append((src, weight))
    return adjacency


def dijkstra_cost(
    adjacency: Dict[Any, List[Tuple[Any, float]]], source: Any, target: Any
) -> Optional[float]:
    """Cost of the cheapest path, ``None`` when there is none."""
    best = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        cost, vertex = heapq.heappop(heap)
        if vertex == target:
            return cost
        if cost > best.get(vertex, math.inf):
            continue
        for neighbour, weight in adjacency.get(vertex, ()):
            candidate = cost + weight
            if candidate < best.get(neighbour, math.inf):
                best[neighbour] = candidate
                heapq.heappush(heap, (candidate, neighbour))
    return None


def rows_checksum(rows: Iterable[tuple]) -> int:
    """Order-independent checksum of integer rows."""
    return sum(hash(tuple(row)) & 0xFFFFFFFF for row in rows)


def sorted_first_column(result) -> List[Any]:
    return sorted(row[0] for row in result.rows)
