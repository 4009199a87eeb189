"""Name resolution scopes for expression compilation.

A :class:`Scope` maps from-clause aliases to *bindings*. Each binding
owns one slot of the combined row that flows between operators:

* :class:`RelationBinding` — slot holds a relational tuple;
* :class:`VertexBinding` / :class:`EdgeBinding` — slot holds a graph
  Vertex / Edge (produced by VertexScan / EdgeScan);
* :class:`PathBinding` — slot holds a Path (produced by PathScan).

Resolution of a dotted chain like ``PS.Edges[0..*].Cost`` produces a
*reference descriptor* the compiler lowers to a closure.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import PlanningError
from ..sql import ast
from ..storage.schema import TableSchema

# Path pseudo-properties handled without touching the relational sources.
_PATH_SCALARS = {
    "length",
    "pathstring",
    "startvertexid",
    "endvertexid",
    "cost",
}


class Binding:
    """Base class: an alias bound to one combined-row slot."""

    def __init__(self, alias: str, slot: int):
        self.alias = alias
        self.slot = slot


class RelationBinding(Binding):
    def __init__(self, alias: str, slot: int, schema: TableSchema):
        super().__init__(alias, slot)
        self.schema = schema


class VertexBinding(Binding):
    def __init__(self, alias: str, slot: int, view):
        super().__init__(alias, slot)
        self.view = view


class EdgeBinding(Binding):
    def __init__(self, alias: str, slot: int, view):
        super().__init__(alias, slot)
        self.view = view


class PathBinding(Binding):
    def __init__(self, alias: str, slot: int, view):
        super().__init__(alias, slot)
        self.view = view


# ---------------------------------------------------------------------------
# reference descriptors the compiler understands
# ---------------------------------------------------------------------------


class ColumnRef:
    """Relational column: ``row[slot][position]``."""

    __slots__ = ("binding", "position", "name")

    def __init__(self, binding: RelationBinding, position: int, name: str):
        self.binding = binding
        self.position = position
        self.name = name


class VertexAttrRef:
    """Attribute of a vertex object in a slot."""

    __slots__ = ("binding", "attribute")

    def __init__(self, binding: VertexBinding, attribute: str):
        self.binding = binding
        self.attribute = attribute


class EdgeAttrRef:
    """Attribute of an edge object in a slot."""

    __slots__ = ("binding", "attribute")

    def __init__(self, binding: EdgeBinding, attribute: str):
        self.binding = binding
        self.attribute = attribute


class PathScalarRef:
    """``PS.Length``, ``PS.PathString``, ``PS.StartVertexId``, ``PS.Cost``."""

    __slots__ = ("binding", "property_name")

    def __init__(self, binding: PathBinding, property_name: str):
        self.binding = binding
        self.property_name = property_name.lower()


class PathEndpointRef:
    """``PS.StartVertex.attr`` / ``PS.EndVertex.attr`` (attr may be Id)."""

    __slots__ = ("binding", "which", "attribute")

    def __init__(self, binding: PathBinding, which: str, attribute: str):
        self.binding = binding
        self.which = which  # 'start' | 'end'
        self.attribute = attribute


class PathElementRef:
    """``PS.Edges[i].attr`` — a single positioned element attribute."""

    __slots__ = ("binding", "collection", "index", "attribute")

    def __init__(
        self, binding: PathBinding, collection: str, index: int, attribute: str
    ):
        self.binding = binding
        self.collection = collection  # 'edges' | 'vertexes'
        self.index = index
        self.attribute = attribute


class PathRangeRef:
    """``PS.Edges[i..j].attr`` / ``PS.Edges[i..*].attr`` — a quantified
    reference: the enclosing predicate must hold for *every* element in
    the range (Section 4)."""

    __slots__ = ("binding", "collection", "start", "end", "attribute")

    def __init__(
        self,
        binding: PathBinding,
        collection: str,
        start: int,
        end: Optional[int],
        attribute: str,
    ):
        self.binding = binding
        self.collection = collection
        self.start = start
        self.end = end
        self.attribute = attribute


class PathCollectionRef:
    """``PS.Edges.attr`` with no index — only valid inside an aggregate
    (``SUM(PS.Edges.Weight)``)."""

    __slots__ = ("binding", "collection", "attribute")

    def __init__(self, binding: PathBinding, collection: str, attribute: str):
        self.binding = binding
        self.collection = collection
        self.attribute = attribute


class WholeBindingRef:
    """A bare alias used as a value (e.g. ``COUNT(P)``, ``SELECT TOP 2 PS``)."""

    __slots__ = ("binding",)

    def __init__(self, binding: Binding):
        self.binding = binding


Reference = Union[
    ColumnRef,
    VertexAttrRef,
    EdgeAttrRef,
    PathScalarRef,
    PathEndpointRef,
    PathElementRef,
    PathRangeRef,
    PathCollectionRef,
    WholeBindingRef,
]


class Scope:
    """Alias → binding map with SQL-style unqualified-column fallback."""

    def __init__(self, bindings: Sequence[Binding]):
        self.bindings: List[Binding] = list(bindings)
        self._by_alias: Dict[str, Binding] = {}
        for binding in bindings:
            key = binding.alias.lower()
            if key in self._by_alias:
                raise PlanningError(f"duplicate alias in FROM: {binding.alias}")
            self._by_alias[key] = binding

    @property
    def width(self) -> int:
        return len(self.bindings)

    def binding(self, alias: str) -> Optional[Binding]:
        return self._by_alias.get(alias.lower())

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------

    def resolve_identifier(self, name: str) -> Reference:
        """A bare name: a column of exactly one relation, or an alias."""
        binding = self.binding(name)
        if binding is not None:
            return WholeBindingRef(binding)
        matches: List[Tuple[RelationBinding, int]] = []
        for candidate in self.bindings:
            if isinstance(candidate, RelationBinding) and candidate.schema.has_column(
                name
            ):
                matches.append((candidate, candidate.schema.position_of(name)))
        if len(matches) == 1:
            binding_, position = matches[0]
            return ColumnRef(binding_, position, name)
        if len(matches) > 1:
            raise PlanningError(f"ambiguous column reference: {name}")
        # vertex/edge bindings may expose the attribute unqualified too
        element_matches: List[Reference] = []
        for candidate in self.bindings:
            if isinstance(candidate, VertexBinding) and candidate.view.has_vertex_attribute(
                name
            ):
                element_matches.append(VertexAttrRef(candidate, name))
            elif isinstance(candidate, EdgeBinding) and candidate.view.has_edge_attribute(
                name
            ):
                element_matches.append(EdgeAttrRef(candidate, name))
        if len(element_matches) == 1:
            return element_matches[0]
        if len(element_matches) > 1:
            raise PlanningError(f"ambiguous attribute reference: {name}")
        raise PlanningError(f"unknown column or alias: {name}")

    def resolve_field_access(self, node: ast.FieldAccess) -> Reference:
        binding = self.binding(node.base)
        if binding is None:
            # could be ``table.column`` where ``table`` is the table name
            raise PlanningError(
                f"unknown alias {node.base!r} in expression"
            )
        accessors = node.accessors
        if isinstance(binding, RelationBinding):
            return self._resolve_relation_access(binding, accessors)
        if isinstance(binding, VertexBinding):
            return self._resolve_element_access(
                binding, accessors, VertexAttrRef, "vertex"
            )
        if isinstance(binding, EdgeBinding):
            return self._resolve_element_access(
                binding, accessors, EdgeAttrRef, "edge"
            )
        if isinstance(binding, PathBinding):
            return self._resolve_path_access(binding, accessors)
        raise PlanningError(f"cannot access members of alias {node.base!r}")

    # ------------------------------------------------------------------

    @staticmethod
    def _resolve_relation_access(
        binding: RelationBinding, accessors: Sequence[ast.Node]
    ) -> Reference:
        if len(accessors) == 1 and isinstance(accessors[0], ast.NameAccessor):
            name = accessors[0].name
            return ColumnRef(binding, binding.schema.position_of(name), name)
        raise PlanningError(
            f"invalid column access on relation {binding.alias!r}"
        )

    @staticmethod
    def _resolve_element_access(binding, accessors, ref_class, kind: str) -> Reference:
        if len(accessors) == 1 and isinstance(accessors[0], ast.NameAccessor):
            name = accessors[0].name
            has = (
                binding.view.has_vertex_attribute(name)
                if kind == "vertex"
                else binding.view.has_edge_attribute(name)
            )
            if not has:
                raise PlanningError(
                    f"graph view {binding.view.name} has no {kind} "
                    f"attribute {name!r}"
                )
            return ref_class(binding, name)
        raise PlanningError(f"invalid {kind} attribute access on {binding.alias!r}")

    def _resolve_path_access(
        self, binding: PathBinding, accessors: Sequence[ast.Node]
    ) -> Reference:
        first = accessors[0]
        if not isinstance(first, ast.NameAccessor):
            raise PlanningError(
                f"path alias {binding.alias!r} cannot be indexed directly"
            )
        head = first.name.lower()
        rest = accessors[1:]
        if head in _PATH_SCALARS:
            if rest:
                raise PlanningError(
                    f"path property {first.name} takes no further accessors"
                )
            return PathScalarRef(binding, head)
        if head in ("startvertex", "endvertex"):
            which = "start" if head == "startvertex" else "end"
            if not rest:
                # bare StartVertex/EndVertex compares by vertex identifier
                return PathEndpointRef(binding, which, "Id")
            if len(rest) == 1 and isinstance(rest[0], ast.NameAccessor):
                return PathEndpointRef(binding, which, rest[0].name)
            raise PlanningError(f"invalid accessor after {first.name}")
        if head in ("edges", "vertexes", "vertices"):
            collection = "edges" if head == "edges" else "vertexes"
            return self._resolve_collection_access(binding, collection, rest)
        raise PlanningError(
            f"unknown path property {first.name!r} on {binding.alias!r}"
        )

    def _resolve_collection_access(
        self,
        binding: PathBinding,
        collection: str,
        rest: Sequence[ast.Node],
    ) -> Reference:
        view = binding.view
        def check_attribute(name: str) -> None:
            has = (
                view.has_edge_attribute(name)
                if collection == "edges"
                else view.has_vertex_attribute(name)
            )
            if not has:
                kind = "edge" if collection == "edges" else "vertex"
                raise PlanningError(
                    f"graph view {view.name} has no {kind} attribute {name!r}"
                )

        if len(rest) == 1 and isinstance(rest[0], ast.NameAccessor):
            name = rest[0].name
            check_attribute(name)
            return PathCollectionRef(binding, collection, name)
        if len(rest) == 2 and isinstance(rest[1], ast.NameAccessor):
            selector, attr_node = rest
            name = attr_node.name
            check_attribute(name)
            if isinstance(selector, ast.IndexAccessor):
                return PathElementRef(binding, collection, selector.index, name)
            if isinstance(selector, ast.RangeAccessor):
                if selector.end is not None and selector.end < selector.start:
                    raise PlanningError(
                        f"invalid path range [{selector.start}..{selector.end}]"
                    )
                if selector.end is not None and selector.end == selector.start:
                    return PathElementRef(
                        binding, collection, selector.start, name
                    )
                return PathRangeRef(
                    binding, collection, selector.start, selector.end, name
                )
        if len(rest) == 1 and isinstance(rest[0], ast.IndexAccessor):
            raise PlanningError(
                f"indexed path element needs an attribute, e.g. "
                f"{binding.alias}.Edges[{rest[0].index}].attr"
            )
        raise PlanningError(
            f"invalid path collection access on {binding.alias!r}"
        )
