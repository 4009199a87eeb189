"""System catalog: the registry of tables, views, indexes and graph views.

The catalog is deliberately independent of the upper layers: graph views
register themselves as opaque objects (the :mod:`repro.graph` package owns
their behaviour), mirroring how the paper stores graph-view definitions in
the system catalog (Section 3.2).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..errors import CatalogError
from .schema import TableSchema
from .table import Table


class Catalog:
    """Holds every named database object. Names are case-insensitive."""

    def __init__(self):
        self._tables: Dict[str, Table] = {}
        self._views: Dict[str, Any] = {}
        self._graph_views: Dict[str, Any] = {}
        self._index_owner: Dict[str, str] = {}
        # per-graph-view statistics, e.g. average fan-out (Section 6.3)
        self.statistics: Dict[str, Dict[str, float]] = {}
        #: Bumped by every change a plan may depend on (every mutator
        #: below, plus ALTER GRAPH VIEW and ANALYZE through
        #: :meth:`changed`): a plan made under another version is stale.
        self.version = 0

    def changed(self) -> None:
        """Record a change to the catalog or its statistics."""
        self.version += 1

    # ------------------------------------------------------------------
    # tables
    # ------------------------------------------------------------------

    def create_table(self, name: str, schema: TableSchema) -> Table:
        key = name.lower()
        if self._name_in_use(key):
            raise CatalogError(f"name already in use: {name}")
        table = Table(name, schema)
        if table.primary_key_index is not None:
            # reserve the implicit index's name like any CREATE INDEX name
            self.register_index(table.primary_key_index.name, name)
        self._tables[key] = table
        self.changed()
        return table

    def drop_table(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(f"unknown table: {name}")
        table = self._tables[key]
        for index_name in list(table.indexes):
            self._index_owner.pop(index_name.lower(), None)
        del self._tables[key]
        self.changed()

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown table: {name}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def tables(self) -> List[Table]:
        return list(self._tables.values())

    # ------------------------------------------------------------------
    # relational views (materialized) — managed by the core layer
    # ------------------------------------------------------------------

    def register_view(self, name: str, view: Any) -> None:
        key = name.lower()
        if self._name_in_use(key):
            raise CatalogError(f"name already in use: {name}")
        self._views[key] = view
        self.changed()

    def drop_view(self, name: str) -> None:
        key = name.lower()
        if key not in self._views:
            raise CatalogError(f"unknown view: {name}")
        del self._views[key]
        self.changed()

    def view(self, name: str) -> Any:
        try:
            return self._views[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown view: {name}") from None

    def has_view(self, name: str) -> bool:
        return name.lower() in self._views

    # ------------------------------------------------------------------
    # graph views — managed by repro.graph
    # ------------------------------------------------------------------

    def register_graph_view(self, name: str, graph_view: Any) -> None:
        key = name.lower()
        if self._name_in_use(key):
            raise CatalogError(f"name already in use: {name}")
        self._graph_views[key] = graph_view
        self.changed()

    def drop_graph_view(self, name: str) -> None:
        key = name.lower()
        if key not in self._graph_views:
            raise CatalogError(f"unknown graph view: {name}")
        del self._graph_views[key]
        self.changed()

    def graph_view(self, name: str) -> Any:
        try:
            return self._graph_views[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown graph view: {name}") from None

    def has_graph_view(self, name: str) -> bool:
        return name.lower() in self._graph_views

    def graph_views(self) -> List[Any]:
        return list(self._graph_views.values())

    # ------------------------------------------------------------------
    # indexes
    # ------------------------------------------------------------------

    def register_index(self, index_name: str, table_name: str) -> None:
        key = index_name.lower()
        if key in self._index_owner:
            raise CatalogError(f"duplicate index name: {index_name}")
        self._index_owner[key] = table_name.lower()
        self.changed()

    def drop_index(self, index_name: str) -> None:
        """Drop an index from its table and free its name."""
        owner = self.index_owner(index_name)
        if owner is None:
            raise CatalogError(f"unknown index: {index_name}")
        self.table(owner).drop_index(index_name)
        del self._index_owner[index_name.lower()]
        self.changed()

    def index_owner(self, index_name: str) -> Optional[str]:
        return self._index_owner.get(index_name.lower())

    # ------------------------------------------------------------------

    def _name_in_use(self, key: str) -> bool:
        return key in self._tables or key in self._views or key in self._graph_views
