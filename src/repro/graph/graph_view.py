"""Graph views: the paper's first-class graph database objects (Section 3).

A :class:`GraphView` couples

* a materialized :class:`~repro.graph.topology.GraphTopology` (singleton,
  shared by all queries; dense integer slots with per-slot adjacency), and
* *schemas* mapping declared graph attributes to columns of the vertex /
  edge relational sources, reached through tuple pointers.

Maintenance listeners keep the topology transactionally consistent with
DML on the relational sources (Section 3.3): inserting/deleting rows adds
or removes vertexes and edges; updating identifier columns renames graph
elements and preserves the referential integrity of the edge source.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ExecutionError, GraphViewError, IntegrityError
from ..storage.table import Table, TableListener, TuplePointer
from .topology import Edge, GraphTopology, Vertex


class _NullSuspension:
    """No-op context manager used when no transaction manager is wired."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

# Reserved mapping names in CREATE GRAPH VIEW (case-insensitive).
_VERTEX_RESERVED = {"ID"}
_EDGE_RESERVED = {"ID", "FROM", "TO"}

# Properties every vertex exposes beyond its declared attributes (§5.2).
_VERTEX_SPECIAL = {"id", "fanout", "fanin"}
# Properties every edge exposes beyond its declared attributes (§5.2).
_EDGE_SPECIAL = {"id", "from", "to", "startvertex", "endvertex"}


class GraphSchema:
    """Declared attributes of one element kind (vertex or edge).

    Maps attribute names (case-insensitive) to column positions in the
    relational source table.
    """

    def __init__(self, attributes: Sequence[Tuple[str, int]]):
        self.attributes: List[Tuple[str, int]] = list(attributes)
        self._positions: Dict[str, int] = {
            name.lower(): position for name, position in attributes
        }

    def has(self, name: str) -> bool:
        return name.lower() in self._positions

    def position_of(self, name: str) -> int:
        try:
            return self._positions[name.lower()]
        except KeyError:
            raise GraphViewError(f"unknown graph attribute: {name}") from None

    @property
    def names(self) -> List[str]:
        return [name for name, _ in self.attributes]

    def __repr__(self) -> str:
        return f"GraphSchema({', '.join(self.names)})"


class ExtraAttributeSource:
    """A vertically-partitioned attribute relation (Section 3.2).

    Elements referenced here carry a *second* tuple pointer, resolved
    through ``pointers`` (element id -> TuplePointer). Elements with no
    row in this source read their attributes as NULL — the paper's
    semistructured (RDF) use case.
    """

    __slots__ = ("table", "id_position", "schema", "pointers", "_listener")

    def __init__(self, table: Table, id_position: int, schema: GraphSchema):
        self.table = table
        self.id_position = id_position
        self.schema = schema
        self.pointers: Dict[Any, TuplePointer] = {}
        self._listener: Optional[TableListener] = None

    def populate(self) -> None:
        for slot, row in self.table.scan():
            self.pointers[row[self.id_position]] = self.table.pointer_to(slot)

    def attribute_reader(self, name: str):
        position = self.schema.position_of(name)
        pointers = self.pointers

        def read(element):
            pointer = pointers.get(element.id)
            if pointer is None:
                return None  # element has no row in this partition
            return pointer.dereference()[position]

        return read


class _ExtraSourceListener(TableListener):
    """Keeps an extra source's id -> pointer map in sync with DML."""

    def __init__(self, extra: ExtraAttributeSource):
        self.extra = extra

    def on_insert(self, table, pointer, row):
        self.extra.pointers[row[self.extra.id_position]] = pointer

    def on_delete(self, table, pointer, row):
        self.extra.pointers.pop(row[self.extra.id_position], None)

    def on_update(self, table, pointer, old_row, new_row):
        old_id = old_row[self.extra.id_position]
        new_id = new_row[self.extra.id_position]
        if old_id != new_id:
            self.extra.pointers.pop(old_id, None)
        self.extra.pointers[new_id] = pointer


class GraphView:
    """A named graph database object, registered in the catalog."""

    def __init__(
        self,
        name: str,
        directed: bool,
        vertex_table: Table,
        edge_table: Table,
        vertex_id_position: int,
        edge_id_position: int,
        edge_from_position: int,
        edge_to_position: int,
        vertex_schema: GraphSchema,
        edge_schema: GraphSchema,
    ):
        self.name = name
        self.directed = directed
        self.topology = GraphTopology(directed)
        self.vertex_table = vertex_table
        self.edge_table = edge_table
        self.vertex_id_position = vertex_id_position
        self.edge_id_position = edge_id_position
        self.edge_from_position = edge_from_position
        self.edge_to_position = edge_to_position
        self.vertex_schema = vertex_schema
        self.edge_schema = edge_schema
        self._average_fan_out: Optional[float] = None
        self._listeners: List[TableListener] = []
        # vertical partitioning (Section 3.2): extra attribute relations
        self.vertex_extra_sources: List[ExtraAttributeSource] = []
        self.edge_extra_sources: List[ExtraAttributeSource] = []
        # Factory for a context manager suppressing undo logging while
        # maintenance performs *derived* writes (vertex-id cascades into
        # the edge source). Installed by the Database; defaults to a
        # no-op for raw-table usage.
        self.undo_suspension: Callable[[], Any] = _NullSuspension

    # ------------------------------------------------------------------
    # attribute access through tuple pointers (O(1), Section 3.2)
    # ------------------------------------------------------------------

    def has_vertex_attribute(self, name: str) -> bool:
        if name.lower() in _VERTEX_SPECIAL or self.vertex_schema.has(name):
            return True
        return any(s.schema.has(name) for s in self.vertex_extra_sources)

    def has_edge_attribute(self, name: str) -> bool:
        if name.lower() in _EDGE_SPECIAL or self.edge_schema.has(name):
            return True
        return any(s.schema.has(name) for s in self.edge_extra_sources)

    def vertex_attribute(self, vertex: Vertex, name: str) -> Any:
        """Read a declared attribute or FanIn/FanOut/Id of a vertex."""
        lowered = name.lower()
        if lowered == "id":
            return vertex.id
        if lowered == "fanout":
            return vertex.fan_out
        if lowered == "fanin":
            return vertex.fan_in
        if self.vertex_schema.has(name):
            row = vertex.tuple_pointer.dereference()
            return row[self.vertex_schema.position_of(name)]
        for extra in self.vertex_extra_sources:
            if extra.schema.has(name):
                return extra.attribute_reader(name)(vertex)
        # raise the canonical unknown-attribute error
        return vertex.tuple_pointer.dereference()[
            self.vertex_schema.position_of(name)
        ]

    def edge_attribute(self, edge: Edge, name: str) -> Any:
        """Read a declared attribute or Id/From/To of an edge."""
        lowered = name.lower()
        if lowered == "id":
            return edge.id
        if lowered in ("from", "startvertex"):
            return edge.from_id
        if lowered in ("to", "endvertex"):
            return edge.to_id
        if self.edge_schema.has(name):
            row = edge.tuple_pointer.dereference()
            return row[self.edge_schema.position_of(name)]
        for extra in self.edge_extra_sources:
            if extra.schema.has(name):
                return extra.attribute_reader(name)(edge)
        return edge.tuple_pointer.dereference()[
            self.edge_schema.position_of(name)
        ]

    def edge_row(self, edge: Edge) -> Tuple[Any, ...]:
        return edge.tuple_pointer.dereference()

    # Pre-resolved attribute readers: name resolution happens once at
    # compile time, so per-element access on traversal hot paths is a
    # dereference plus an index.

    def vertex_attribute_reader(self, name: str):
        """A ``Vertex -> value`` accessor with the name pre-resolved."""
        lowered = name.lower()
        if lowered == "id":
            return lambda vertex: vertex.id
        if lowered == "fanout":
            return lambda vertex: vertex.fan_out
        if lowered == "fanin":
            return lambda vertex: vertex.fan_in
        if self.vertex_schema.has(name):
            return _make_tuple_reader(self.vertex_schema.position_of(name))
        for extra in self.vertex_extra_sources:
            if extra.schema.has(name):
                return extra.attribute_reader(name)
        return _make_tuple_reader(self.vertex_schema.position_of(name))

    def edge_attribute_reader(self, name: str):
        """An ``Edge -> value`` accessor with the name pre-resolved."""
        lowered = name.lower()
        if lowered == "id":
            return lambda edge: edge.id
        if lowered in ("from", "startvertex"):
            return lambda edge: edge.from_id
        if lowered in ("to", "endvertex"):
            return lambda edge: edge.to_id
        if self.edge_schema.has(name):
            return _make_tuple_reader(self.edge_schema.position_of(name))
        for extra in self.edge_extra_sources:
            if extra.schema.has(name):
                return extra.attribute_reader(name)
        return _make_tuple_reader(self.edge_schema.position_of(name))

    # ------------------------------------------------------------------
    # statistics (Section 6.3)
    # ------------------------------------------------------------------

    def average_fan_out(self) -> float:
        """Cached average fan-out; invalidated on topology changes.

        The paper computes this with a background thread over the compact
        topology; here it is recomputed lazily on first use after any
        topological update.
        """
        if self._average_fan_out is None:
            self._average_fan_out = self.topology.average_fan_out()
        return self._average_fan_out

    def _invalidate_statistics(self) -> None:
        self._average_fan_out = None

    def topology_digest(self) -> str:
        """Stable CRC32 (hex) of the materialized topology.

        The topology is *derived* state: replicas rebuild it by applying
        the same logged DML, so after applying the same log prefix every
        replica must report the same digest. Replication ships this
        alongside per-table row digests to detect a replica whose
        maintenance diverged (see :mod:`repro.replication.digest`).
        """
        return self.topology.digest()

    # ------------------------------------------------------------------
    # vertices / edges iteration for VertexScan / EdgeScan
    # ------------------------------------------------------------------

    def iter_vertices(self) -> Iterator[Vertex]:
        return iter(self.topology.vertices.values())

    def iter_edges(self) -> Iterator[Edge]:
        return iter(self.topology.edges.values())

    def find_vertex(self, vertex_id: Any) -> Optional[Vertex]:
        return self.topology.vertices.get(vertex_id)

    # ------------------------------------------------------------------
    # construction + online maintenance (Section 3.3)
    # ------------------------------------------------------------------

    def populate(self) -> None:
        """Single pass over the relational sources to build the topology."""
        for slot, row in self.vertex_table.scan():
            self._add_vertex_from_row(self.vertex_table.pointer_to(slot), row)
        for slot, row in self.edge_table.scan():
            self._add_edge_from_row(self.edge_table.pointer_to(slot), row)
        self._invalidate_statistics()

    def attach_maintenance_listeners(self) -> None:
        vertex_listener = _VertexSourceListener(self)
        edge_listener = _EdgeSourceListener(self)
        self.vertex_table.add_listener(vertex_listener)
        self.edge_table.add_listener(edge_listener)
        self._listeners = [vertex_listener, edge_listener]

    def detach_maintenance_listeners(self) -> None:
        for listener in self._listeners:
            self.vertex_table.remove_listener(listener)
            self.edge_table.remove_listener(listener)
        self._listeners = []
        for extra in self.vertex_extra_sources + self.edge_extra_sources:
            if extra._listener is not None:
                extra.table.remove_listener(extra._listener)
                extra._listener = None

    # ------------------------------------------------------------------
    # vertical partitioning (Section 3.2): multiple tuple pointers
    # ------------------------------------------------------------------

    def attach_attribute_source(
        self,
        element: str,
        table: Table,
        mappings: Sequence[Tuple[str, str]],
    ) -> ExtraAttributeSource:
        """Attach an additional attribute relation for vertexes/edges.

        ``mappings`` uses the CREATE GRAPH VIEW syntax: one ``ID``
        mapping designating the join column plus attribute mappings.
        Elements without a row in the relation read these attributes as
        NULL. Attribute names must not collide with existing ones.
        """
        id_position = None
        attributes: List[Tuple[str, int]] = []
        for attribute, column in mappings:
            position = table.schema.position_of(column)
            if attribute.upper() == "ID":
                id_position = position
            else:
                attributes.append((attribute, position))
        if id_position is None:
            raise GraphViewError(
                f"graph view {self.name}: attribute source must map ID"
            )
        if not attributes:
            raise GraphViewError(
                f"graph view {self.name}: attribute source defines no "
                "attributes"
            )
        is_vertex = element.upper() == "VERTEXES"
        for attribute, _position in attributes:
            exists = (
                self.has_vertex_attribute(attribute)
                if is_vertex
                else self.has_edge_attribute(attribute)
            )
            if exists:
                raise GraphViewError(
                    f"graph view {self.name}: attribute {attribute!r} "
                    "already exists"
                )
        extra = ExtraAttributeSource(table, id_position, GraphSchema(attributes))
        extra.populate()
        listener = _ExtraSourceListener(extra)
        table.add_listener(listener)
        extra._listener = listener
        if is_vertex:
            self.vertex_extra_sources.append(extra)
        else:
            self.edge_extra_sources.append(extra)
        return extra

    def all_vertex_attribute_names(self) -> List[str]:
        names = list(self.vertex_schema.names)
        for extra in self.vertex_extra_sources:
            names.extend(extra.schema.names)
        return names

    def all_edge_attribute_names(self) -> List[str]:
        names = list(self.edge_schema.names)
        for extra in self.edge_extra_sources:
            names.extend(extra.schema.names)
        return names

    def _add_vertex_from_row(self, pointer: TuplePointer, row: Tuple) -> None:
        vertex_id = row[self.vertex_id_position]
        existing = self.topology.vertices.get(vertex_id)
        if existing is not None:
            # Rollback replay: a blocked DELETE physically removed the
            # row before graph maintenance vetoed it, so the vertex is
            # still in the topology with a now-stale pointer. Refresh
            # the pointer; a *live* duplicate is a genuine error.
            if existing.tuple_pointer is None or not existing.tuple_pointer.is_live:
                existing.tuple_pointer = pointer
                return
        self.topology.add_vertex(vertex_id, pointer)
        self._invalidate_statistics()

    def _add_edge_from_row(self, pointer: TuplePointer, row: Tuple) -> None:
        edge_id = row[self.edge_id_position]
        from_id = row[self.edge_from_position]
        to_id = row[self.edge_to_position]
        existing = self.topology.edges.get(edge_id)
        if existing is not None and (
            existing.tuple_pointer is None or not existing.tuple_pointer.is_live
        ):
            # rollback replay of a blocked delete (see vertex case)
            if (existing.from_id, existing.to_id) == (from_id, to_id):
                existing.tuple_pointer = pointer
                return
            self.topology.remove_edge(edge_id)
        if not self.topology.has_vertex(from_id) or not self.topology.has_vertex(
            to_id
        ):
            raise IntegrityError(
                f"graph view {self.name}: edge {edge_id!r} references a "
                f"vertex not present in the vertex source "
                f"({from_id!r} -> {to_id!r})"
            )
        self.topology.add_edge(edge_id, from_id, to_id, pointer)
        self._invalidate_statistics()

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (
            f"GraphView({self.name}, {kind}, |V|="
            f"{self.topology.vertex_count}, |E|={self.topology.edge_count})"
        )


def _make_tuple_reader(position: int):
    """Element -> attribute value, with the dereference inlined.

    This closure sits on the per-edge hot path of filtered traversals;
    it keeps the generation check but avoids the extra call frame of
    :meth:`TuplePointer.dereference`.
    """

    def read(element):
        pointer = element.tuple_pointer
        table = pointer.table
        slot = pointer.slot
        row = table._rows[slot]
        if row is None or table._generations[slot] != pointer.generation:
            raise ExecutionError(
                f"{table.name}: stale tuple pointer for slot {slot}"
            )
        return row[position]

    return read


class _VertexSourceListener(TableListener):
    """Keeps the topology in sync with DML on the vertex source."""

    def __init__(self, view: GraphView):
        self.view = view

    def on_insert(self, table, pointer, row):
        self.view._add_vertex_from_row(pointer, row)

    def on_delete(self, table, pointer, row):
        vertex_id = row[self.view.vertex_id_position]
        if not self.view.topology.has_vertex(vertex_id):
            return  # already gone (e.g. transaction rollback replay)
        vertex = self.view.topology.vertex(vertex_id)
        if vertex.fan_out or vertex.fan_in:
            raise IntegrityError(
                f"graph view {self.view.name}: cannot delete vertex "
                f"{vertex_id!r} while edges reference it"
            )
        self.view.topology.remove_vertex(vertex_id)
        self.view._invalidate_statistics()

    def on_update(self, table, pointer, old_row, new_row):
        old_id = old_row[self.view.vertex_id_position]
        new_id = new_row[self.view.vertex_id_position]
        if old_id == new_id:
            return  # attribute-only update: nothing to do (Section 3.3.1)
        view = self.view
        if not view.topology.has_vertex(old_id):
            return
        view.topology.rename_vertex(old_id, new_id)
        view._invalidate_statistics()
        # Preserve referential integrity of the edge relational source:
        # rewrite FROM/TO columns of edges touching the renamed vertex.
        # The rewrites are *derived* from the vertex row, so they must
        # not log their own undo actions — rolling the vertex row back
        # re-runs this handler and regenerates them (in an order that
        # keeps the topology's integrity checks satisfied).
        edge_table = view.edge_table
        fixes = []
        for slot, row in edge_table.scan():
            if (
                row[view.edge_from_position] == old_id
                or row[view.edge_to_position] == old_id
            ):
                fixes.append((slot, row))
        with view.undo_suspension():
            for slot, row in fixes:
                updated = list(row)
                if updated[view.edge_from_position] == old_id:
                    updated[view.edge_from_position] = new_id
                if updated[view.edge_to_position] == old_id:
                    updated[view.edge_to_position] = new_id
                edge_table.update(slot, updated)


class _EdgeSourceListener(TableListener):
    """Keeps the topology in sync with DML on the edge source."""

    def __init__(self, view: GraphView):
        self.view = view

    def on_insert(self, table, pointer, row):
        self.view._add_edge_from_row(pointer, row)

    def on_delete(self, table, pointer, row):
        edge_id = row[self.view.edge_id_position]
        if self.view.topology.has_edge(edge_id):
            self.view.topology.remove_edge(edge_id)
            self.view._invalidate_statistics()

    def on_update(self, table, pointer, old_row, new_row):
        view = self.view
        old_id = old_row[view.edge_id_position]
        new_id = new_row[view.edge_id_position]
        old_from = old_row[view.edge_from_position]
        new_from = new_row[view.edge_from_position]
        old_to = old_row[view.edge_to_position]
        new_to = new_row[view.edge_to_position]
        if (old_id, old_from, old_to) == (new_id, new_from, new_to):
            return  # attribute-only update
        if view.topology.has_edge(old_id):
            view.topology.remove_edge(old_id)
        view._add_edge_from_row(pointer, new_row)


def build_graph_view(
    name: str,
    directed: bool,
    vertex_table: Table,
    vertex_mappings: Sequence[Tuple[str, str]],
    edge_table: Table,
    edge_mappings: Sequence[Tuple[str, str]],
) -> GraphView:
    """Create, populate, and wire up a graph view from relational sources.

    ``vertex_mappings`` / ``edge_mappings`` come straight from the parsed
    ``CREATE GRAPH VIEW`` statement: ``(graph_attribute, source_column)``
    pairs where the reserved attributes ``ID`` (vertexes) and ``ID`` /
    ``FROM`` / ``TO`` (edges) designate identifier columns.
    """
    vertex_id_position = None
    vertex_attributes: List[Tuple[str, int]] = []
    for attribute, column in vertex_mappings:
        position = vertex_table.schema.position_of(column)
        if attribute.upper() in _VERTEX_RESERVED:
            vertex_id_position = position
        else:
            vertex_attributes.append((attribute, position))
    if vertex_id_position is None:
        raise GraphViewError(
            f"graph view {name}: VERTEXES clause must map ID to a column"
        )

    edge_id_position = None
    edge_from_position = None
    edge_to_position = None
    edge_attributes: List[Tuple[str, int]] = []
    for attribute, column in edge_mappings:
        position = edge_table.schema.position_of(column)
        upper = attribute.upper()
        if upper == "ID":
            edge_id_position = position
        elif upper == "FROM":
            edge_from_position = position
        elif upper == "TO":
            edge_to_position = position
        else:
            edge_attributes.append((attribute, position))
    if edge_id_position is None or edge_from_position is None or edge_to_position is None:
        raise GraphViewError(
            f"graph view {name}: EDGES clause must map ID, FROM and TO"
        )

    view = GraphView(
        name,
        directed,
        vertex_table,
        edge_table,
        vertex_id_position,
        edge_id_position,
        edge_from_position,
        edge_to_position,
        GraphSchema(vertex_attributes),
        GraphSchema(edge_attributes),
    )
    view.populate()
    view.attach_maintenance_listeners()
    return view
