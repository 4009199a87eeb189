"""Property-based tests for SQL execution against a Python oracle.

Random small tables and random predicates / aggregates are executed
through the full SQL stack and compared with direct Python evaluation.
Also checks logic laws (De Morgan) under SQL three-valued semantics and
graph-view maintenance equivalence under random DML.
"""

from hypothesis import given, settings, strategies as st

from repro import Database

from .graph_fixtures import make_graph_view

values = st.one_of(st.integers(min_value=-5, max_value=5), st.none())
rows_strategy = st.lists(
    st.tuples(values, values), min_size=0, max_size=12
)


def load_table(rows):
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
    for a, b in rows:
        db.execute(
            "INSERT INTO t VALUES "
            f"({'NULL' if a is None else a}, {'NULL' if b is None else b})"
        )
    return db


class TestFiltersAgainstOracle:
    @given(rows_strategy, st.integers(min_value=-5, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_comparison_filter(self, rows, bound):
        db = load_table(rows)
        got = sorted(
            db.execute(f"SELECT a, b FROM t WHERE a < {bound}").rows
        , key=str)
        expected = sorted(
            ((a, b) for a, b in rows if a is not None and a < bound),
            key=str,
        )
        assert got == [tuple(e) for e in expected]

    @given(rows_strategy)
    @settings(max_examples=60, deadline=None)
    def test_null_handling(self, rows):
        db = load_table(rows)
        nulls = db.execute("SELECT COUNT(*) FROM t WHERE a IS NULL").scalar()
        not_nulls = db.execute(
            "SELECT COUNT(*) FROM t WHERE a IS NOT NULL"
        ).scalar()
        assert nulls + not_nulls == len(rows)
        assert nulls == sum(1 for a, _b in rows if a is None)

    @given(rows_strategy, st.integers(-5, 5), st.integers(-5, 5))
    @settings(max_examples=60, deadline=None)
    def test_de_morgan_under_three_valued_logic(self, rows, x, y):
        """NOT (p AND q) selects the same rows as (NOT p) OR (NOT q)."""
        db = load_table(rows)
        left = db.execute(
            f"SELECT COUNT(*) FROM t WHERE NOT (a > {x} AND b > {y})"
        ).scalar()
        right = db.execute(
            f"SELECT COUNT(*) FROM t WHERE NOT a > {x} OR NOT b > {y}"
        ).scalar()
        assert left == right

    @given(rows_strategy, st.integers(-5, 5), st.integers(-5, 5))
    @settings(max_examples=60, deadline=None)
    def test_between_equivalence(self, rows, low, high):
        db = load_table(rows)
        between = db.execute(
            f"SELECT COUNT(*) FROM t WHERE a BETWEEN {low} AND {high}"
        ).scalar()
        spelled = db.execute(
            f"SELECT COUNT(*) FROM t WHERE a >= {low} AND a <= {high}"
        ).scalar()
        assert between == spelled


class TestAggregatesAgainstOracle:
    @given(rows_strategy)
    @settings(max_examples=60, deadline=None)
    def test_scalar_aggregates(self, rows):
        db = load_table(rows)
        count, total, low, high = db.execute(
            "SELECT COUNT(a), SUM(a), MIN(a), MAX(a) FROM t"
        ).first()
        present = [a for a, _b in rows if a is not None]
        assert count == len(present)
        assert total == (sum(present) if present else None)
        assert low == (min(present) if present else None)
        assert high == (max(present) if present else None)

    @given(rows_strategy)
    @settings(max_examples=60, deadline=None)
    def test_group_by_matches_oracle(self, rows):
        db = load_table(rows)
        got = dict(
            db.execute(
                "SELECT b, COUNT(*) FROM t GROUP BY b"
            ).rows
        )
        expected = {}
        for _a, b in rows:
            expected[b] = expected.get(b, 0) + 1
        assert got == expected

    @given(rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_distinct_matches_set(self, rows):
        db = load_table(rows)
        got = set(db.execute("SELECT DISTINCT a FROM t").column(0))
        assert got == {a for a, _b in rows}

    @given(rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_order_by_sorts(self, rows):
        db = load_table(rows)
        got = db.execute(
            "SELECT a FROM t WHERE a IS NOT NULL ORDER BY a"
        ).column(0)
        assert got == sorted(got)


# ---------------------------------------------------------------------------
# graph-view maintenance under random DML
# ---------------------------------------------------------------------------

dml_ops = st.lists(
    st.tuples(
        st.sampled_from(["add_vertex", "add_edge", "del_edge", "del_vertex"]),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=9),
    ),
    max_size=40,
)


class TestGraphMaintenanceEquivalence:
    @given(dml_ops)
    @settings(max_examples=60, deadline=None)
    def test_topology_equals_rebuild(self, ops):
        """After any DML sequence, the incrementally-maintained topology
        must equal one rebuilt from scratch over the same tables."""
        from repro.graph import build_graph_view

        view, vertex_table, edge_table = make_graph_view([], [])
        next_edge_id = [0]
        vertices = set()
        edges = {}
        for kind, x, y in ops:
            if kind == "add_vertex" and x not in vertices:
                vertex_table.insert((x, f"v{x}"))
                vertices.add(x)
            elif kind == "add_edge" and x in vertices and y in vertices:
                eid = next_edge_id[0]
                next_edge_id[0] += 1
                edge_table.insert((eid, x, y, 1.0, "x"))
                edges[eid] = (x, y)
            elif kind == "del_edge" and edges:
                eid = sorted(edges)[x % len(edges)]
                edge_table.delete(edge_table.lookup_primary_key((eid,)))
                del edges[eid]
            elif kind == "del_vertex" and x in vertices:
                incident = [e for e, (a, b) in edges.items() if x in (a, b)]
                if incident:
                    continue  # engine refuses; oracle skips too
                vertex_table.delete(vertex_table.lookup_primary_key((x,)))
                vertices.discard(x)
        rebuilt = build_graph_view(
            "rebuild",
            view.directed,
            vertex_table,
            [("ID", "id"), ("name", "name")],
            edge_table,
            [
                ("ID", "id"),
                ("FROM", "src"),
                ("TO", "dst"),
                ("w", "w"),
                ("label", "label"),
            ],
        )
        assert set(view.topology.vertices) == set(rebuilt.topology.vertices)
        assert set(view.topology.edges) == set(rebuilt.topology.edges)
        def edge_ids(edges):
            return sorted(edge.id for edge in edges)

        for vertex_id in view.topology.vertices:
            for adjacent in ("out_edges_of", "in_edges_of"):
                maintained = getattr(view.topology, adjacent)(vertex_id)
                fresh = getattr(rebuilt.topology, adjacent)(vertex_id)
                assert edge_ids(maintained) == edge_ids(fresh)
