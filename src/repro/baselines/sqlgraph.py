"""SQLGraph-style baseline: graphs in relational tables, traversals as
relational self-joins (the Native Relational-Core approach, Figure 1a).

SQLGraph [46] stores property graphs in a storage-optimized relational
schema and compiles Gremlin traversals into SQL. The property the
paper's evaluation isolates — and the one reproduced here — is that
**every traversal hop costs one relational join**: a reachability query
whose answer path has length *l* becomes an *l*-way self-join of the
edge table, so query time grows with path length and the intermediate
join results blow up on high-degree graphs (Section 7.2). We use a
plain normalized edge-table encoding rather than SQLGraph's hashed
multi-column layout; both share the join-per-hop behaviour (see
DESIGN.md, substitutions).

The baseline runs on the same relational engine as GRFusion, mirroring
the paper's methodology of implementing SQLGraph inside VoltDB.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Tuple

from ..core.database import Database
from ..errors import ExecutionError


class SqlGraphStore:
    """A graph encoded relationally, queried via self-joins."""

    def __init__(self, directed: bool = True, database: Optional[Database] = None):
        self.directed = directed
        self.db = database or Database()
        self.db.execute(
            "CREATE TABLE sg_vertices (vid INTEGER PRIMARY KEY, "
            "vlabel VARCHAR, vsel INTEGER)"
        )
        self.db.execute(
            "CREATE TABLE sg_edges (eid INTEGER PRIMARY KEY, src INTEGER, "
            "dst INTEGER, w FLOAT, elabel VARCHAR, esel INTEGER)"
        )
        self.db.execute("CREATE INDEX sg_edges_src ON sg_edges (src)")

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------

    def load_vertices(
        self, rows: Iterable[Tuple[Any, str, int]]
    ) -> int:
        """Rows: ``(vid, label, selectivity_column)``."""
        return self.db.load_rows("sg_vertices", rows)

    def load_edges(
        self, rows: Iterable[Tuple[Any, Any, Any, float, str, int]]
    ) -> int:
        """Rows: ``(eid, src, dst, weight, label, selectivity_column)``.

        For undirected graphs each edge is stored in both directions
        (the standard relational encoding; the reverse row's id is the
        negated original id).
        """
        count = 0
        prepared: List[Tuple] = []
        for eid, src, dst, w, label, sel in rows:
            prepared.append((eid, src, dst, w, label, sel))
            if not self.directed:
                prepared.append((-eid - 1, dst, src, w, label, sel))
            count += 1
        self.db.load_rows("sg_edges", prepared)
        return count

    @property
    def vertex_count(self) -> int:
        return self.db.table("sg_vertices").row_count

    @property
    def edge_count(self) -> int:
        return self.db.table("sg_edges").row_count

    # ------------------------------------------------------------------
    # query generation: one join per hop
    # ------------------------------------------------------------------

    def reachability_sql(
        self,
        source: Any,
        target: Any,
        hops: int,
        edge_predicate: Optional[str] = None,
    ) -> str:
        """SQL checking for a path of exactly ``hops`` edges.

        ``edge_predicate`` is a template like ``"{alias}.esel < 20"``
        applied to every hop (the constrained-reachability workload).
        """
        if hops < 1:
            raise ExecutionError("reachability needs at least one hop")
        aliases = [f"e{i}" for i in range(hops)]
        from_clause = ", ".join(f"sg_edges {a}" for a in aliases)
        conditions = [f"e0.src = {_sql_value(source)}"]
        for previous, current in zip(aliases, aliases[1:]):
            conditions.append(f"{current}.src = {previous}.dst")
        conditions.append(f"{aliases[-1]}.dst = {_sql_value(target)}")
        if edge_predicate:
            for alias in aliases:
                conditions.append(edge_predicate.format(alias=alias))
        where_clause = " AND ".join(conditions)
        return f"SELECT 1 FROM {from_clause} WHERE {where_clause} LIMIT 1"

    def reachable_within(
        self,
        source: Any,
        target: Any,
        max_hops: int,
        edge_predicate: Optional[str] = None,
    ) -> bool:
        """Iteratively deepen: one self-join query per candidate length,
        exactly how a SQL translation layer answers reachability."""
        for hops in range(1, max_hops + 1):
            sql = self.reachability_sql(source, target, hops, edge_predicate)
            if self.db.execute(sql).rows:
                return True
        return False

    def reachable_at(
        self,
        source: Any,
        target: Any,
        hops: int,
        edge_predicate: Optional[str] = None,
    ) -> bool:
        """Single fixed-length probe (the Figure-7 measurement point)."""
        sql = self.reachability_sql(source, target, hops, edge_predicate)
        return bool(self.db.execute(sql).rows)

    def khop_neighbors_sql(self, source: Any, hops: int) -> str:
        aliases = [f"e{i}" for i in range(hops)]
        from_clause = ", ".join(f"sg_edges {a}" for a in aliases)
        conditions = [f"e0.src = {_sql_value(source)}"]
        for previous, current in zip(aliases, aliases[1:]):
            conditions.append(f"{current}.src = {previous}.dst")
        where_clause = " AND ".join(conditions)
        return (
            f"SELECT DISTINCT {aliases[-1]}.dst FROM {from_clause} "
            f"WHERE {where_clause}"
        )

    def khop_neighbors(self, source: Any, hops: int) -> List[Any]:
        return self.db.execute(self.khop_neighbors_sql(source, hops)).column(0)

    # ------------------------------------------------------------------
    # pattern matching: triangles as a 3-way self-join (Figure 10)
    # ------------------------------------------------------------------

    def triangle_count_sql(self, edge_predicate: Optional[str] = None) -> str:
        conditions = [
            "e1.src = e0.dst",
            "e2.src = e1.dst",
            "e2.dst = e0.src",
        ]
        if edge_predicate:
            for alias in ("e0", "e1", "e2"):
                conditions.append(edge_predicate.format(alias=alias))
        where_clause = " AND ".join(conditions)
        return (
            "SELECT COUNT(*) FROM sg_edges e0, sg_edges e1, sg_edges e2 "
            f"WHERE {where_clause}"
        )

    def triangle_count(self, edge_predicate: Optional[str] = None) -> int:
        return self.db.execute(self.triangle_count_sql(edge_predicate)).scalar()


def _sql_value(value: Any) -> str:
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return str(value)
