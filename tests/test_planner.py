"""Tests for the planner: plan shapes, pushdown classification, and the
physical operator choices described in Sections 5-6 of the paper."""

import pytest

from repro import Database, PlanningError


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE people (id INTEGER PRIMARY KEY, name VARCHAR, "
        "age INTEGER)"
    )
    database.execute(
        "CREATE TABLE knows (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, "
        "since INTEGER, wt FLOAT)"
    )
    for pid in range(1, 9):
        database.execute(f"INSERT INTO people VALUES ({pid}, 'p{pid}', {20 + pid})")
    edges = [
        (1, 1, 2, 2000, 1.0),
        (2, 2, 3, 2001, 2.0),
        (3, 3, 4, 2002, 3.0),
        (4, 1, 5, 2003, 1.0),
        (5, 5, 6, 2004, 2.0),
        (6, 6, 7, 2005, 1.0),
    ]
    for edge in edges:
        database.execute(f"INSERT INTO knows VALUES {edge}")
    database.execute(
        "CREATE DIRECTED GRAPH VIEW Net "
        "VERTEXES(ID = id, name = name, age = age) FROM people "
        "EDGES(ID = id, FROM = a, TO = b, since = since, wt = wt) FROM knows"
    )
    return database


class TestRelationalPlanShapes:
    def test_single_table_filter_pushed_to_scan(self, db):
        plan = db.explain("SELECT name FROM people WHERE age > 25")
        lines = plan.splitlines()
        assert lines[0].startswith("Project")
        assert "Filter" in plan and "SeqScan(people)" in plan

    def test_equi_join_uses_hash_join(self, db):
        plan = db.explain(
            "SELECT 1 FROM people p, knows k WHERE k.a = p.id"
        )
        assert "HashJoin" in plan

    def test_non_equi_join_uses_nested_loop(self, db):
        plan = db.explain(
            "SELECT 1 FROM people p, knows k WHERE k.a < p.id"
        )
        assert "NestedLoopJoin" in plan
        assert "HashJoin" not in plan

    def test_constant_comparison_is_filter_not_join(self, db):
        plan = db.explain(
            "SELECT 1 FROM people p, knows k WHERE p.id = 1 AND k.a = 1"
        )
        assert "HashJoin" not in plan

    def test_index_chosen_when_available(self, db):
        db.execute("CREATE INDEX people_name ON people (name)")
        plan = db.explain("SELECT id FROM people p WHERE p.name = 'p3'")
        assert "IndexLookup(people.people_name)" in plan

    def test_aggregate_plan_shape(self, db):
        plan = db.explain(
            "SELECT age, COUNT(*) FROM people GROUP BY age"
        )
        assert "Aggregate(groups=1, aggs=1)" in plan

    def test_order_limit_shape(self, db):
        plan = db.explain(
            "SELECT name FROM people ORDER BY age LIMIT 3"
        )
        lines = [line.strip() for line in plan.splitlines()]
        assert lines[0].startswith("Limit")
        assert any(line.startswith("Sort") for line in lines)


class TestGraphPlanShapes:
    def test_vertex_id_equality_uses_lookup(self, db):
        plan = db.explain(
            "SELECT VS.name FROM Net.Vertexes VS WHERE VS.Id = 3"
        )
        assert "VertexLookup(Net)" in plan
        assert "VertexScan" not in plan

    def test_vertex_lookup_correct(self, db):
        result = db.execute(
            "SELECT VS.name FROM Net.Vertexes VS WHERE VS.Id = 3"
        )
        assert result.rows == [("p3",)]
        assert db.execute(
            "SELECT VS.name FROM Net.Vertexes VS WHERE VS.Id = 999"
        ).rows == []

    def test_edge_id_equality_uses_lookup(self, db):
        plan = db.explain("SELECT ES.wt FROM Net.Edges ES WHERE ES.Id = 2")
        assert "EdgeLookup(Net)" in plan

    def test_vertex_attribute_filter_scans(self, db):
        plan = db.explain(
            "SELECT VS.Id FROM Net.Vertexes VS WHERE VS.age > 25"
        )
        assert "VertexScan(Net)" in plan

    def test_prepared_vertex_lookup_rebinds(self, db):
        query = db.prepare(
            "SELECT VS.name FROM Net.Vertexes VS WHERE VS.Id = ?"
        )
        assert "VertexLookup" in query.explain()
        assert query.execute(2).scalar() == "p2"
        assert query.execute(7).scalar() == "p7"

    def test_correlated_path_probe_shape(self, db):
        plan = db.explain(
            "SELECT PS.Length FROM people p, Net.Paths PS "
            "WHERE p.age > 25 AND PS.StartVertex.Id = p.id AND PS.Length = 1"
        )
        lines = [line.strip() for line in plan.splitlines()]
        assert any(line.startswith("PathScanProbe(Net") for line in lines)
        # the relational side sits under the probe
        probe_index = next(
            i for i, line in enumerate(lines) if "PathScanProbe" in line
        )
        assert any("SeqScan(people)" in line for line in lines[probe_index:])

    def test_uncorrelated_path_source_shape(self, db):
        plan = db.explain(
            "SELECT PS.Length FROM Net.Paths PS "
            "WHERE PS.StartVertex.Id = 1 AND PS.Length = 2"
        )
        assert "PathScan(Net" in plan
        assert "Probe" not in plan

    def test_contradictory_length_yields_empty_plan(self, db):
        plan = db.explain(
            "SELECT PS.Length FROM Net.Paths PS "
            "WHERE PS.Length > 5 AND PS.Length < 3"
        )
        assert "EmptyPathScan" in plan
        result = db.execute(
            "SELECT PS.Length FROM Net.Paths PS "
            "WHERE PS.Length > 5 AND PS.Length < 3"
        )
        assert result.rows == []


class TestPhysicalTraversalChoice:
    def test_reachability_uses_visited_once_bfs(self, db):
        plan = db.explain(
            "SELECT PS.PathString FROM Net.Paths PS "
            "WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 4 LIMIT 1"
        )
        assert "BFS" in plan

    @pytest.mark.parametrize(
        "condition, limit",
        [("", 2), ("AND PS.Edges[0].since = 2000 ", 1)],
        ids=["limit_2", "positional_filter"],
    )
    def test_enumeration_when_shortcut_not_taken(self, db, condition, limit):
        # more than one path wanted, or a filter tied to one position: the
        # visited-once BFS would lose paths, so the scan enumerates (DFS:
        # no length bound is inferred for the BFS/DFS heuristic)
        sql = (
            "SELECT PS.PathString FROM Net.Paths PS "
            "WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 3 "
            f"{condition}LIMIT {limit}"
        )
        assert "PathScan(Net, DFS)" in db.explain(sql)
        assert db.execute(sql).rows[0] == ("1->2->3",)

    def test_no_shortcut_without_limit(self, db):
        # without LIMIT 1 all paths are required: enumeration mode
        result = db.execute(
            "SELECT COUNT(*) FROM Net.Paths PS "
            "WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 4 "
            "AND PS.Length <= 6"
        )
        assert result.scalar() == 1

    def test_positional_filter_disables_shortcut_but_stays_correct(self, db):
        result = db.execute(
            "SELECT PS.PathString FROM Net.Paths PS "
            "WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 3 "
            "AND PS.Edges[0].since = 2000 AND PS.Length <= 4 LIMIT 1"
        )
        assert result.rows == [("1->2->3",)]

    def test_hints_override_heuristic(self, db):
        for hint in ("DFS", "BFS"):
            plan = db.explain(
                f"SELECT PS.Length FROM Net.Paths PS HINT({hint}) "
                "WHERE PS.StartVertex.Id = 1 AND PS.Length = 2"
            )
            assert hint in plan

    def test_sp_scan_for_shortest_path_hint(self, db):
        plan = db.explain(
            "SELECT PS.Cost FROM Net.Paths PS HINT(SHORTESTPATH(wt)) "
            "WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 4 LIMIT 1"
        )
        assert "SP" in plan


class TestConjunctAssignment:
    def test_conjunct_spanning_two_paths_goes_to_later(self, db):
        # P2's start is bound to P1's end: P2 must be planned with the
        # binding available (no error, correct result)
        result = db.execute(
            "SELECT P1.PathString, P2.PathString FROM Net.Paths P1, "
            "Net.Paths P2 "
            "WHERE P1.StartVertex.Id = 1 AND P1.Length = 1 "
            "AND P2.StartVertex.Id = P1.EndVertex.Id AND P2.Length = 1"
        )
        starts = {row[1].split("->")[0] for row in result.rows}
        assert starts <= {"2", "5"}

    def test_path_only_residual_evaluated_in_scan(self, db):
        # two element refs in one conjunct: not pushable positionally,
        # must still filter correctly as a residual path predicate
        result = db.execute(
            "SELECT PS.PathString FROM Net.Paths PS "
            "WHERE PS.StartVertex.Id = 1 AND PS.Length = 2 "
            "AND PS.Edges[0].since < PS.Edges[1].since"
        )
        assert sorted(result.column(0)) == ["1->2->3", "1->5->6"]

    def test_join_residual_after_probe(self, db):
        result = db.execute(
            "SELECT p.name FROM people p, Net.Paths PS "
            "WHERE PS.StartVertex.Id = p.id AND PS.Length = 2 "
            "AND PS.EndVertex.age > p.age"
        )
        assert set(result.column(0)) <= {"p1", "p2", "p3", "p5", "p6"}


class TestPlannerErrors:
    def test_unknown_graph_attribute(self, db):
        with pytest.raises(PlanningError):
            db.execute("SELECT VS.salary FROM Net.Vertexes VS")

    def test_unknown_path_property(self, db):
        with pytest.raises(PlanningError):
            db.execute("SELECT PS.Nonsense FROM Net.Paths PS")

    def test_path_range_outside_predicate(self, db):
        with pytest.raises(PlanningError):
            db.execute("SELECT PS.Edges[0..*].wt FROM Net.Paths PS")

    def test_collection_ref_outside_aggregate(self, db):
        with pytest.raises(PlanningError):
            db.execute("SELECT PS.Edges.wt FROM Net.Paths PS")

    def test_left_join_on_paths_rejected(self, db):
        with pytest.raises(PlanningError):
            db.execute(
                "SELECT 1 FROM people p LEFT JOIN Net.Paths PS "
                "ON PS.StartVertex.Id = p.id"
            )
