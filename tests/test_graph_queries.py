"""Integration tests for graph-relational SQL: the paper's Listings 1-6
plus the cross-model pipeline behaviours of Sections 4-6."""

import pytest

from repro import Database, PlannerOptions, PlanningError


@pytest.fixture
def social(request):
    """The paper's running example (Figure 3 / Listing 1)."""
    db = Database()
    db.execute(
        "CREATE TABLE Users (uId INTEGER PRIMARY KEY, fName VARCHAR, "
        "lName VARCHAR, dob TIMESTAMP, job VARCHAR)"
    )
    db.execute(
        "CREATE TABLE Relationships (relId INTEGER PRIMARY KEY, "
        "uId INTEGER, uId2 INTEGER, startDate TIMESTAMP, isRelative BOOLEAN)"
    )
    users = [
        (1, "Edy", "Smith", "1990-01-01", "Lawyer"),
        (2, "Ann", "Jones", "1985-05-05", "Doctor"),
        (3, "Bill", "Parker", "1970-02-02", "Lawyer"),
        (4, "Pat", "Patrick", "1960-03-03", "Chef"),
        (5, "Sue", "Quincy", "1995-07-07", "Doctor"),
    ]
    for user in users:
        db.execute(
            f"INSERT INTO Users VALUES ({user[0]}, '{user[1]}', "
            f"'{user[2]}', '{user[3]}', '{user[4]}')"
        )
    relationships = [
        (1, 1, 2, "2005-01-01", True),
        (2, 2, 3, "2010-01-01", False),
        (3, 3, 4, "1995-01-01", False),
        (4, 2, 5, "2015-01-01", False),
    ]
    for rel in relationships:
        db.execute(
            f"INSERT INTO Relationships VALUES ({rel[0]}, {rel[1]}, "
            f"{rel[2]}, '{rel[3]}', {rel[4]})"
        )
    db.execute(
        "CREATE UNDIRECTED GRAPH VIEW SocialNetwork "
        "VERTEXES(ID = uId, lstName = lName, birthdate = dob) FROM Users "
        "EDGES(ID = relId, FROM = uId, TO = uId2, sdate = startDate, "
        "relative = isRelative) FROM Relationships"
    )
    return db


@pytest.fixture
def weighted(request):
    """A small directed weighted graph for SP / pattern tests.

    1 -> 2 -> 4, 1 -> 3 -> 4 (diamond) plus 4 -> 5 and a triangle
    5 -> 6 -> 7 -> 5.
    """
    db = Database()
    db.execute("CREATE TABLE V (id INTEGER PRIMARY KEY, name VARCHAR)")
    db.execute(
        "CREATE TABLE E (id INTEGER PRIMARY KEY, src INTEGER, dst INTEGER, "
        "w FLOAT, label VARCHAR)"
    )
    for vertex_id in range(1, 8):
        db.execute(f"INSERT INTO V VALUES ({vertex_id}, 'v{vertex_id}')")
    edges = [
        (10, 1, 2, 1.0, "a"),
        (11, 1, 3, 5.0, "b"),
        (12, 2, 4, 1.0, "a"),
        (13, 3, 4, 1.0, "b"),
        (14, 4, 5, 2.0, "c"),
        (15, 5, 6, 1.0, "A"),
        (16, 6, 7, 1.0, "B"),
        (17, 7, 5, 1.0, "C"),
    ]
    for edge in edges:
        db.execute(
            f"INSERT INTO E VALUES ({edge[0]}, {edge[1]}, {edge[2]}, "
            f"{edge[3]}, '{edge[4]}')"
        )
    db.execute(
        "CREATE DIRECTED GRAPH VIEW G "
        "VERTEXES(ID = id, name = name) FROM V "
        "EDGES(ID = id, FROM = src, TO = dst, w = w, label = label) FROM E"
    )
    return db


class TestVertexEdgeScans:
    def test_listing_5_vertex_selection(self, social):
        result = social.execute(
            "SELECT VS.birthdate, VS.fanOut FROM SocialNetwork.Vertexes VS "
            "WHERE VS.lstName = 'Smith'"
        )
        assert len(result) == 1
        assert result.first()[1] == 1  # Smith has one relationship

    def test_vertex_scan_star(self, social):
        result = social.execute("SELECT * FROM SocialNetwork.Vertexes VS")
        assert result.columns == ["Id", "lstName", "birthdate", "FanOut", "FanIn"]
        assert len(result) == 5

    def test_edge_scan(self, social):
        result = social.execute(
            "SELECT ES.Id, ES.relative FROM SocialNetwork.Edges ES "
            "WHERE ES.relative = TRUE"
        )
        assert result.rows == [(1, True)]

    def test_edge_scan_star(self, social):
        result = social.execute("SELECT * FROM SocialNetwork.Edges ES")
        assert result.columns == ["Id", "From", "To", "sdate", "relative"]
        assert len(result) == 4

    def test_fan_in_fan_out_undirected(self, social):
        result = social.execute(
            "SELECT VS.Id, VS.fanOut, VS.fanIn FROM SocialNetwork.Vertexes VS "
            "WHERE VS.Id = 2"
        )
        assert result.first() == (2, 3, 3)

    def test_join_vertexes_with_relational(self, social):
        result = social.execute(
            "SELECT U.job FROM Users U, SocialNetwork.Vertexes VS "
            "WHERE VS.Id = U.uId AND VS.fanOut = 3"
        )
        assert result.column("job") == ["Doctor"]


class TestPathQueries:
    def test_listing_2_friends_of_friends(self, social):
        result = social.execute(
            "SELECT PS.EndVertex.lstName FROM Users U, SocialNetwork.Paths PS "
            "WHERE U.Job = 'Lawyer' AND PS.StartVertex.Id = U.uId "
            "AND PS.Length = 2 AND PS.Edges[0..*].sdate > '1/1/2000'"
        )
        # Smith(1): 1-2-3 Parker, 1-2-5 Quincy; Parker(3): 3-2-1 Smith,
        # 3-2-5 Quincy (edge 3-4 is 1995, excluded)
        assert sorted(result.column(0)) == [
            "Parker",
            "Quincy",
            "Quincy",
            "Smith",
        ]

    def test_listing_3_reachability(self, social):
        result = social.execute(
            "SELECT PS.PathString FROM Users U1, Users U2, "
            "SocialNetwork.Paths PS "
            "WHERE U1.lName = 'Smith' AND U2.lName = 'Patrick' "
            "AND PS.StartVertex.Id = U1.uId AND PS.EndVertex.Id = U2.uId "
            "LIMIT 1"
        )
        assert result.rows == [("1->2->3->4",)]

    def test_reachability_false(self, weighted):
        result = weighted.execute(
            "SELECT PS.PathString FROM G.Paths PS "
            "WHERE PS.StartVertex.Id = 4 AND PS.EndVertex.Id = 1 LIMIT 1"
        )
        assert result.rows == []

    def test_path_length_filter(self, weighted):
        result = weighted.execute(
            "SELECT PS.PathString FROM G.Paths PS "
            "WHERE PS.StartVertex.Id = 1 AND PS.Length = 2"
        )
        assert sorted(result.column(0)) == ["1->2->4", "1->3->4"]

    def test_edge_predicate_on_all_positions(self, weighted):
        result = weighted.execute(
            "SELECT PS.PathString FROM G.Paths PS "
            "WHERE PS.StartVertex.Id = 1 AND PS.Length <= 3 "
            "AND PS.Edges[0..*].label = 'a'"
        )
        assert sorted(result.column(0)) == ["1->2", "1->2->4"]

    def test_single_position_edge_predicate(self, weighted):
        result = weighted.execute(
            "SELECT PS.PathString FROM G.Paths PS "
            "WHERE PS.StartVertex.Id = 1 AND PS.Length = 2 "
            "AND PS.Edges[1].label = 'b'"
        )
        assert result.column(0) == ["1->3->4"]

    def test_start_vertex_attribute_filter(self, weighted):
        result = weighted.execute(
            "SELECT PS.PathString FROM G.Paths PS "
            "WHERE PS.StartVertex.name = 'v5' AND PS.Length = 1"
        )
        assert result.column(0) == ["5->6"]

    def test_end_vertex_attribute_in_select(self, weighted):
        result = weighted.execute(
            "SELECT PS.EndVertex.name FROM G.Paths PS "
            "WHERE PS.StartVertex.Id = 1 AND PS.Length = 1"
        )
        assert sorted(result.column(0)) == ["v2", "v3"]

    def test_vertexes_positional_predicate(self, weighted):
        result = weighted.execute(
            "SELECT PS.PathString FROM G.Paths PS "
            "WHERE PS.StartVertex.Id = 1 AND PS.Length = 2 "
            "AND PS.Vertexes[1].name = 'v2'"
        )
        assert result.column(0) == ["1->2->4"]

    def test_path_without_start_binding_scans_all(self, weighted):
        result = weighted.execute(
            "SELECT COUNT(*) FROM G.Paths PS WHERE PS.Length = 1"
        )
        assert result.scalar() == 8  # one per edge

    def test_in_predicate_on_edges(self, weighted):
        result = weighted.execute(
            "SELECT PS.PathString FROM G.Paths PS "
            "WHERE PS.StartVertex.Id = 5 AND PS.Length = 2 "
            "AND PS.Edges[0..*].label IN ('A', 'B')"
        )
        assert result.column(0) == ["5->6->7"]


class TestPathAggregates:
    def test_sum_over_path_edges(self, weighted):
        result = weighted.execute(
            "SELECT PS.PathString, SUM(PS.Edges.w) FROM G.Paths PS "
            "WHERE PS.StartVertex.Id = 1 AND PS.Length = 2"
        )
        rows = dict(result.rows)
        assert rows["1->2->4"] == pytest.approx(2.0)
        assert rows["1->3->4"] == pytest.approx(6.0)

    def test_sum_bound_filter(self, weighted):
        result = weighted.execute(
            "SELECT PS.PathString FROM G.Paths PS "
            "WHERE PS.StartVertex.Id = 1 AND PS.Length = 2 "
            "AND SUM(PS.Edges.w) < 3"
        )
        assert result.column(0) == ["1->2->4"]

    def test_min_max_over_path(self, weighted):
        result = weighted.execute(
            "SELECT MIN(PS.Edges.w), MAX(PS.Edges.w) FROM G.Paths PS "
            "WHERE PS.StartVertex.Id = 1 AND PS.Length = 2 "
            "AND PS.Edges[0].label = 'b'"
        )
        assert result.first() == (1.0, 5.0)


class TestTriangleCounting:
    def test_listing_4_triangles(self, weighted):
        result = weighted.execute(
            "SELECT COUNT(P) FROM G.Paths P WHERE P.Length = 3 "
            "AND P.Edges[0].Label = 'A' AND P.Edges[1].Label = 'B' "
            "AND P.Edges[2].Label = 'C' "
            "AND P.Edges[2].EndVertex = P.Edges[0].StartVertex"
        )
        assert result.scalar() == 1

    def test_unlabeled_triangles(self, weighted):
        result = weighted.execute(
            "SELECT COUNT(P) FROM G.Paths P WHERE P.Length = 3 "
            "AND P.Edges[2].EndVertex = P.Edges[0].StartVertex"
        )
        # directed triangle 5->6->7->5 counted from each rotation
        assert result.scalar() == 3


class TestShortestPathQueries:
    def test_listing_6_top_k_shortest(self, weighted):
        result = weighted.execute(
            "SELECT TOP 2 PS.PathString FROM G.Paths PS "
            "HINT(SHORTESTPATH(w)), G.Vertexes Src, G.Vertexes Dst "
            "WHERE PS.StartVertex.Id = Src.Id AND PS.EndVertex.Id = Dst.Id "
            "AND Src.name = 'v1' AND Dst.name = 'v4'"
        )
        assert result.column(0) == ["1->2->4", "1->3->4"]

    def test_shortest_path_cost_exposed(self, weighted):
        result = weighted.execute(
            "SELECT PS.Cost FROM G.Paths PS HINT(SHORTESTPATH(w)) "
            "WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 5 LIMIT 1"
        )
        assert result.scalar() == pytest.approx(4.0)

    def test_shortest_path_with_edge_filter(self, weighted):
        result = weighted.execute(
            "SELECT PS.PathString FROM G.Paths PS HINT(SHORTESTPATH(w)) "
            "WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 4 "
            "AND PS.Edges[0..*].label = 'b' LIMIT 1"
        )
        assert result.column(0) == ["1->3->4"]

    def test_unknown_weight_attribute_rejected(self, weighted):
        with pytest.raises(PlanningError):
            weighted.execute(
                "SELECT PS.PathString FROM G.Paths PS "
                "HINT(SHORTESTPATH(nope)) WHERE PS.StartVertex.Id = 1 LIMIT 1"
            )


@pytest.fixture
def looped():
    """1 -> 2 -> 3 -> 1 (weight 1 each) plus 1 -> 4 -> 3 (weight 5 each)."""
    db = Database()
    db.execute("CREATE TABLE V (id INTEGER PRIMARY KEY)")
    db.execute(
        "CREATE TABLE E (id INTEGER PRIMARY KEY, s INTEGER, d INTEGER, w FLOAT)"
    )
    db.execute("INSERT INTO V VALUES (1), (2), (3), (4)")
    db.execute(
        "INSERT INTO E VALUES (1, 1, 2, 1.0), (2, 2, 3, 1.0), (3, 3, 1, 1.0), "
        "(4, 1, 4, 5.0), (5, 4, 3, 5.0)"
    )
    db.execute(
        "CREATE DIRECTED GRAPH VIEW G VERTEXES(ID = id) FROM V "
        "EDGES(ID = id, FROM = s, TO = d, w = w) FROM E"
    )
    return db


class TestShortestPathHonoursSpec:
    """SPScan applies sum bounds and the cycle pattern pushed into it, as
    DFScan and BFScan do (it used to drop both)."""

    def test_lower_sum_bound(self, looped):
        result = looped.execute(
            "SELECT PS.PathString, SUM(PS.Edges.w) FROM G.Paths PS "
            "HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = 1 "
            "AND SUM(PS.Edges.w) > 3"
        )
        assert result.rows == [("1->4", 5.0)]

    def test_upper_sum_bound(self, looped):
        result = looped.execute(
            "SELECT PS.PathString, SUM(PS.Edges.w) FROM G.Paths PS "
            "HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = 1 "
            "AND SUM(PS.Edges.w) < 2"
        )
        assert result.rows == [("1->2", 1.0)]

    def test_cheapest_cycle(self, looped):
        result = looped.execute(
            "SELECT PS.PathString FROM G.Paths PS HINT(SHORTESTPATH(w)) "
            "WHERE PS.StartVertex.Id = 1 AND PS.StartVertexId = PS.EndVertexId"
        )
        assert result.rows == [("1->2->3->1",)]

    def test_cycles_in_cost_order(self, looped):
        result = looped.execute(
            "SELECT TOP 2 PS.PathString, PS.Cost FROM G.Paths PS "
            "HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = 1 "
            "AND PS.StartVertexId = PS.EndVertexId"
        )
        assert result.rows == [("1->2->3->1", 3.0), ("1->4->3->1", 11.0)]


class TestHintsAndPhysicalChoice:
    def test_dfs_hint_in_plan(self, weighted):
        plan = weighted.explain(
            "SELECT PS.PathString FROM G.Paths PS HINT(DFS) "
            "WHERE PS.StartVertex.Id = 1 AND PS.Length = 2"
        )
        assert "DFS" in plan

    def test_bfs_hint_in_plan(self, weighted):
        plan = weighted.explain(
            "SELECT PS.PathString FROM G.Paths PS HINT(BFS) "
            "WHERE PS.StartVertex.Id = 1 AND PS.Length = 2"
        )
        assert "BFS" in plan

    def test_sp_hint_in_plan(self, weighted):
        plan = weighted.explain(
            "SELECT PS.PathString FROM G.Paths PS HINT(SHORTESTPATH(w)) "
            "WHERE PS.StartVertex.Id = 1 LIMIT 1"
        )
        assert "SP" in plan

    def test_reachability_uses_bfs_shortcut(self, weighted):
        plan = weighted.explain(
            "SELECT PS.PathString FROM G.Paths PS "
            "WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 5 LIMIT 1"
        )
        assert "PathScan(G, BFS)" in plan

    def test_cycle_query_with_limit_1_enumerates(self, looped):
        # the visited-once BFS can never close a cycle: enumerate instead
        sql = (
            "SELECT PS.PathString FROM G.Paths PS WHERE PS.EndVertex.Id = 3 "
            "AND PS.StartVertexId = PS.EndVertexId LIMIT 1"
        )
        assert "PathScan(G, DFS)" in looped.explain(sql)
        assert looped.execute(sql).rows == [("3->1->2->3",)]

    def test_pushdown_disabled_still_correct(self, weighted):
        db = weighted
        db.planner_options = PlannerOptions(push_path_filters=False)
        result = db.execute(
            "SELECT PS.PathString FROM G.Paths PS "
            "WHERE PS.StartVertex.Id = 1 AND PS.Length <= 3 "
            "AND PS.Edges[0..*].label = 'a'"
        )
        assert sorted(result.column(0)) == ["1->2", "1->2->4"]

    def test_length_inference_disabled_needs_cap(self, weighted):
        db = weighted
        db.planner_options = PlannerOptions(
            infer_path_length=False, default_max_path_length=4
        )
        result = db.execute(
            "SELECT PS.PathString FROM G.Paths PS "
            "WHERE PS.StartVertex.Id = 1 AND PS.Length = 2"
        )
        assert sorted(result.column(0)) == ["1->2->4", "1->3->4"]


class TestCrossModelPipelines:
    def test_relational_probe_into_paths(self, social):
        plan = social.explain(
            "SELECT PS.Length FROM Users U, SocialNetwork.Paths PS "
            "WHERE U.job = 'Chef' AND PS.StartVertex.Id = U.uId "
            "AND PS.Length = 1"
        )
        assert "PathScanProbe" in plan
        assert "SeqScan(Users)" in plan

    def test_join_path_result_with_relational(self, social):
        result = social.execute(
            "SELECT U2.fName FROM Users U, SocialNetwork.Paths PS, Users U2 "
            "WHERE U.lName = 'Smith' AND PS.StartVertex.Id = U.uId "
            "AND PS.Length = 1 AND U2.uId = PS.EndVertex.Id"
        )
        assert result.column(0) == ["Ann"]

    def test_group_by_over_paths(self, weighted):
        result = weighted.execute(
            "SELECT PS.Length, COUNT(*) FROM G.Paths PS "
            "WHERE PS.StartVertex.Id = 1 AND PS.Length <= 2 "
            "GROUP BY PS.Length ORDER BY PS.Length"
        )
        assert result.rows == [(1, 2), (2, 2)]

    def test_order_by_path_cost(self, weighted):
        result = weighted.execute(
            "SELECT PS.PathString, SUM(PS.Edges.w) s FROM G.Paths PS "
            "WHERE PS.StartVertex.Id = 1 AND PS.Length = 2 ORDER BY s DESC"
        )
        assert result.column(0) == ["1->3->4", "1->2->4"]

    def test_two_path_aliases_self_join(self, weighted):
        # paths of length 1 composed through a shared middle vertex
        result = weighted.execute(
            "SELECT P1.PathString, P2.PathString FROM G.Paths P1, G.Paths P2 "
            "WHERE P1.StartVertex.Id = 1 AND P1.Length = 1 "
            "AND P2.StartVertex.Id = P1.EndVertex.Id AND P2.Length = 1 "
            "AND P2.EndVertex.Id = 4"
        )
        assert sorted(result.rows) == [("1->2", "2->4"), ("1->3", "3->4")]

    def test_paths_star_projection(self, weighted):
        result = weighted.execute(
            "SELECT * FROM G.Paths PS WHERE PS.StartVertex.Id = 1 "
            "AND PS.Length = 1"
        )
        assert result.columns == [
            "PathString",
            "Length",
            "StartVertexId",
            "EndVertexId",
            "Cost",
        ]


class TestGraphDdlErrors:
    def test_unknown_graph_view(self, social):
        with pytest.raises(Exception):
            social.execute("SELECT 1 FROM Nope.Paths PS")

    def test_drop_graph_view_stops_maintenance(self, social):
        social.execute("DROP GRAPH VIEW SocialNetwork")
        # source tables are writable again without graph checks
        social.execute("DELETE FROM Relationships WHERE relId = 1")
        with pytest.raises(Exception):
            social.execute("SELECT 1 FROM SocialNetwork.Vertexes V")

    def test_drop_source_table_protected(self, social):
        with pytest.raises(Exception):
            social.execute("DROP TABLE Users")
