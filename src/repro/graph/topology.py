"""The materialized graph topology (Section 3.2 of the paper).

The topology is a native adjacency structure kept entirely in main
memory. It stores **no attributes** — every vertex and edge carries a
:class:`~repro.storage.table.TuplePointer` back to the relational tuple
that describes it, and the relational tuple can locate its graph element
in O(1) through the vertex/edge hash maps. This bi-directional linkage is
the paper's key design: the topology acts as a *traversal index* over the
relational data.

Every vertex and edge holds a dense integer *slot*, and adjacency exists
only as slots: per vertex slot one flat list alternating
``edge_slot, target_slot``, so from a vertex the next vertex is one list
read away. Traversals walk these integers and touch the element records
only to test pushed filters and to build the paths they emit.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Iterator, List, Optional

from ..errors import GraphViewError, IntegrityError
from ..storage.table import TuplePointer


def _canonical(identifier: Any) -> str:
    """Type-tagged text form of a vertex/edge identifier, so that e.g.
    ``1``, ``1.0``, ``True`` and ``"1"`` digest differently."""
    return f"{type(identifier).__name__}\x1f{identifier!r}"


class Vertex:
    """A topology vertex: identifier, slot, adjacency, and a tuple pointer.

    ``out_pairs`` alternates ``edge_slot, target_slot`` for every edge
    leaving the vertex (both directions when undirected) and is the
    topology's own per-slot list, not a copy. ``in_slots`` holds the
    slots of the edges arriving at the vertex; it is ``None`` in an
    undirected topology, where every incident edge is already in
    ``out_pairs`` and arrives as much as it leaves.
    """

    __slots__ = ("id", "slot", "out_pairs", "in_slots", "tuple_pointer")

    def __init__(
        self, vertex_id: Any, slot: int, tuple_pointer: Optional[TuplePointer]
    ):
        self.id = vertex_id
        self.slot = slot
        self.out_pairs: List[int] = []
        self.in_slots: Optional[List[int]] = []
        self.tuple_pointer = tuple_pointer

    @property
    def fan_out(self) -> int:
        """Number of outgoing edges (``FanOut`` in the query language)."""
        return len(self.out_pairs) >> 1

    @property
    def fan_in(self) -> int:
        """Number of incoming edges (``FanIn`` in the query language)."""
        if self.in_slots is None:
            return len(self.out_pairs) >> 1
        return len(self.in_slots)

    def __repr__(self) -> str:
        return f"Vertex({self.id!r}, out={self.fan_out}, in={self.fan_in})"


class Edge:
    """A topology edge: identifier, endpoints, and a tuple pointer. Its
    slot is where ``GraphTopology.edge_at`` holds it; the record does not
    repeat it (removal finds it in the source's out-list)."""

    __slots__ = ("id", "from_id", "to_id", "tuple_pointer")

    def __init__(
        self,
        edge_id: Any,
        from_id: Any,
        to_id: Any,
        tuple_pointer: Optional[TuplePointer],
    ):
        self.id = edge_id
        self.from_id = from_id
        self.to_id = to_id
        self.tuple_pointer = tuple_pointer

    def other_endpoint(self, vertex_id: Any) -> Any:
        """The endpoint that is not ``vertex_id`` (undirected traversal)."""
        return self.to_id if vertex_id == self.from_id else self.from_id

    def __repr__(self) -> str:
        return f"Edge({self.id!r}, {self.from_id!r}->{self.to_id!r})"


def _drop_pair(pairs: List[int], edge_slot: int) -> None:
    """Remove ``edge_slot``'s pair from an out-list, keeping the order of
    the others (emission order follows it). Edge slots sit at even
    positions; an odd match is a target slot with the same number."""
    at = pairs.index(edge_slot)
    while at & 1:
        at = pairs.index(edge_slot, at + 1)
    del pairs[at:at + 2]


class GraphTopology:
    """Slot-indexed adjacency with O(1) vertex/edge lookup by identifier.

    ``vertices`` / ``edges`` map identifiers to records in insertion
    order (VertexScan, EdgeScan and all-starts scans follow it);
    ``vertex_at`` / ``edge_at`` map slots to records and ``out_pairs``
    maps a vertex slot to that vertex's out-list. Deleting an element
    frees its slot for a later insert. An undirected edge is entered in
    both endpoints' out-lists, each time with the other endpoint as its
    target, so one traversal loop walks both kinds of graph.
    """

    def __init__(self, directed: bool = True):
        self.directed = directed
        self.vertices: Dict[Any, Vertex] = {}
        self.edges: Dict[Any, Edge] = {}
        self.vertex_at: List[Optional[Vertex]] = []
        self.edge_at: List[Optional[Edge]] = []
        self.out_pairs: List[Optional[List[int]]] = []
        self._free_vertex_slots: List[int] = []
        self._free_edge_slots: List[int] = []

    # ------------------------------------------------------------------
    # construction / maintenance
    # ------------------------------------------------------------------

    def add_vertex(
        self, vertex_id: Any, tuple_pointer: Optional[TuplePointer] = None
    ) -> Vertex:
        if vertex_id is None:
            raise GraphViewError("vertex identifier must not be NULL")
        if vertex_id in self.vertices:
            raise GraphViewError(f"duplicate vertex identifier: {vertex_id!r}")
        if self._free_vertex_slots:
            slot = self._free_vertex_slots.pop()
        else:
            slot = len(self.vertex_at)
            self.vertex_at.append(None)
            self.out_pairs.append(None)
        vertex = Vertex(vertex_id, slot, tuple_pointer)
        if not self.directed:
            vertex.in_slots = None
        self.vertex_at[slot] = vertex
        self.out_pairs[slot] = vertex.out_pairs
        self.vertices[vertex_id] = vertex
        return vertex

    def add_edge(
        self,
        edge_id: Any,
        from_id: Any,
        to_id: Any,
        tuple_pointer: Optional[TuplePointer] = None,
    ) -> Edge:
        if edge_id is None:
            raise GraphViewError("edge identifier must not be NULL")
        if edge_id in self.edges:
            raise GraphViewError(f"duplicate edge identifier: {edge_id!r}")
        source = self.vertices.get(from_id)
        target = self.vertices.get(to_id)
        if source is None or target is None:
            raise IntegrityError(
                f"edge {edge_id!r} references missing vertex "
                f"({from_id!r} -> {to_id!r})"
            )
        if self._free_edge_slots:
            slot = self._free_edge_slots.pop()
        else:
            slot = len(self.edge_at)
            self.edge_at.append(None)
        edge = Edge(edge_id, from_id, to_id, tuple_pointer)
        self.edge_at[slot] = edge
        self.edges[edge_id] = edge
        source.out_pairs.extend((slot, target.slot))
        if self.directed:
            target.in_slots.append(slot)
        elif source is not target:
            target.out_pairs.extend((slot, source.slot))
        return edge

    def remove_edge(self, edge_id: Any) -> Edge:
        edge = self.edges.pop(edge_id, None)
        if edge is None:
            raise GraphViewError(f"unknown edge identifier: {edge_id!r}")
        source = self.vertices[edge.from_id]
        target = self.vertices[edge.to_id]
        # the edge's pair in its source's out-list: the one targeting its
        # end vertex (target slots sit at odd positions) that holds it
        pairs = source.out_pairs
        at = pairs.index(target.slot, 1)
        while not at & 1 or self.edge_at[pairs[at - 1]] is not edge:
            at = pairs.index(target.slot, at + 1)
        slot = pairs[at - 1]
        del pairs[at - 1:at + 1]
        if self.directed:
            target.in_slots.remove(slot)
        elif source is not target:
            _drop_pair(target.out_pairs, slot)
        self.edge_at[slot] = None
        self._free_edge_slots.append(slot)
        return edge

    def _incident_edges(self, vertex: Vertex) -> List[Edge]:
        slots = dict.fromkeys(vertex.out_pairs[::2] + (vertex.in_slots or []))
        return [self.edge_at[slot] for slot in slots]

    def remove_vertex(self, vertex_id: Any, cascade: bool = False) -> Vertex:
        """Remove a vertex; with ``cascade`` also drop incident edges."""
        vertex = self.vertices.get(vertex_id)
        if vertex is None:
            raise GraphViewError(f"unknown vertex identifier: {vertex_id!r}")
        incident = self._incident_edges(vertex)
        if incident and not cascade:
            raise IntegrityError(
                f"vertex {vertex_id!r} still has {len(incident)} incident "
                "edge(s)"
            )
        for edge in incident:
            self.remove_edge(edge.id)
        del self.vertices[vertex_id]
        self.vertex_at[vertex.slot] = None
        self.out_pairs[vertex.slot] = None
        self._free_vertex_slots.append(vertex.slot)
        return vertex

    def rename_vertex(self, old_id: Any, new_id: Any) -> None:
        """Consistently change a vertex identifier (Section 3.3.1)."""
        if new_id in self.vertices:
            raise GraphViewError(f"vertex identifier in use: {new_id!r}")
        vertex = self.vertices.pop(old_id)
        vertex.id = new_id
        self.vertices[new_id] = vertex
        for edge in self._incident_edges(vertex):
            if edge.from_id == old_id:
                edge.from_id = new_id
            if edge.to_id == old_id:
                edge.to_id = new_id

    def rename_edge(self, old_id: Any, new_id: Any) -> None:
        """Change an edge identifier; adjacency holds slots, so it stays."""
        if new_id in self.edges:
            raise GraphViewError(f"edge identifier in use: {new_id!r}")
        edge = self.edges.pop(old_id)
        edge.id = new_id
        self.edges[new_id] = edge

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------

    def vertex(self, vertex_id: Any) -> Vertex:
        try:
            return self.vertices[vertex_id]
        except KeyError:
            raise GraphViewError(f"unknown vertex identifier: {vertex_id!r}")

    def edge(self, edge_id: Any) -> Edge:
        try:
            return self.edges[edge_id]
        except KeyError:
            raise GraphViewError(f"unknown edge identifier: {edge_id!r}")

    def has_vertex(self, vertex_id: Any) -> bool:
        return vertex_id in self.vertices

    def has_edge(self, edge_id: Any) -> bool:
        return edge_id in self.edges

    def out_edges_of(self, vertex_id: Any) -> Iterator[Edge]:
        """Edges leaving ``vertex_id`` (both directions when undirected)."""
        edge_at = self.edge_at
        for slot in self.vertices[vertex_id].out_pairs[::2]:
            yield edge_at[slot]

    def in_edges_of(self, vertex_id: Any) -> Iterator[Edge]:
        vertex = self.vertices[vertex_id]
        slots = vertex.out_pairs[::2] if vertex.in_slots is None else list(
            vertex.in_slots)
        edge_at = self.edge_at
        for slot in slots:
            yield edge_at[slot]

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def average_fan_out(self) -> float:
        """Mean out-degree — the statistic behind the BFS/DFS heuristic
        of Section 6.3."""
        if not self.vertices:
            return 0.0
        total = sum(v.fan_out for v in self.vertices.values())
        return total / len(self.vertices)

    def memory_estimate_bytes(self) -> int:
        """Rough footprint of the *topology only* (Table 3 reporting).

        Counts references at 8 bytes each: a vertex record's five fields
        plus its ``vertex_at`` and ``out_pairs`` entries, an edge
        record's four fields plus its ``edge_at`` entry, and every
        adjacency entry (two per out-list pair, one per in-list slot) —
        a deliberately simple model mirroring "compact graph-view
        structures" in the paper. Attribute values are not counted:
        they stay in the relational tuples.
        """
        per_vertex = 8 * (5 + 2)
        per_edge = 8 * (4 + 1)
        adjacency = sum(
            len(v.out_pairs) + len(v.in_slots or ())
            for v in self.vertices.values()
        )
        return (
            per_vertex * len(self.vertices)
            + per_edge * len(self.edges)
            + 8 * adjacency
        )

    def digest(self) -> str:
        """Stable CRC32 (hex) over the logical topology.

        Covers directedness, the vertex identifier set, and every edge's
        ``(id, from, to)`` triple — the state that must converge
        identically on every replica applying the same logged workload.
        Deliberately insensitive to physical artifacts (slots, adjacency
        order, insertion order, tuple pointers), so two topologies built
        along different maintenance paths compare equal iff they
        describe the same graph.
        """
        crc = zlib.crc32(b"directed" if self.directed else b"undirected")
        for key in sorted(_canonical(v) for v in self.vertices):
            crc = zlib.crc32(key.encode("utf-8"), crc)
        edge_keys = sorted(
            f"{_canonical(e.id)}:{_canonical(e.from_id)}>{_canonical(e.to_id)}"
            for e in self.edges.values()
        )
        for key in edge_keys:
            crc = zlib.crc32(key.encode("utf-8"), crc)
        return format(crc, "08x")

    def degree_histogram(self) -> Dict[int, int]:
        histogram: Dict[int, int] = {}
        for vertex in self.vertices.values():
            histogram[vertex.fan_out] = histogram.get(vertex.fan_out, 0) + 1
        return histogram

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (
            f"GraphTopology({kind}, |V|={self.vertex_count}, "
            f"|E|={self.edge_count})"
        )
