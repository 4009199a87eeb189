"""Property test: filter pushdown must never change query answers.

For random graphs and random path predicates, the same query runs with
``push_path_filters`` on and off; the result sets must be identical.
This is the correctness contract of Section 6.2. Edge weights, edge tags
and the vertex attribute ``k`` may be NULL, so the pushed filters must
follow SQL's three-valued logic exactly as the residual ones do.
"""

from hypothesis import given, settings, strategies as st

from repro import Database, PlannerOptions


def vertex_k(i):
    return None if i % 3 == 2 else i % 2


def build_db(n, edges):
    db = Database()
    db.execute("CREATE TABLE V (id INTEGER PRIMARY KEY, k INTEGER)")
    db.execute(
        "CREATE TABLE E (id INTEGER PRIMARY KEY, s INTEGER, d INTEGER, "
        "w FLOAT, tag VARCHAR)"
    )
    db.load_rows("V", [(i, vertex_k(i)) for i in range(n)])
    db.load_rows("E", edges)
    db.execute(
        "CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id, k = k) FROM V "
        "EDGES(ID = id, FROM = s, TO = d, w = w, tag = tag) FROM E"
    )
    return db


@st.composite
def graph_and_predicate(draw):
    n = draw(st.integers(min_value=3, max_value=7))
    possible = [(a, b) for a in range(n) for b in range(n) if a != b]
    chosen = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=12)
    )
    edges = []
    for i, (a, b) in enumerate(chosen):
        weight = draw(st.sampled_from([1.0, 2.0, 3.0, None]))
        tag = draw(st.sampled_from(["x", "y", "xy", None]))
        edges.append((i, a, b, weight, tag))

    predicate = draw(
        st.sampled_from(
            [
                "PS.Edges[0..*].w < 3",
                "PS.Edges[0..*].tag = 'x'",
                "PS.Edges[0..*].tag IN ('x', 'y')",
                "PS.Edges[0..*].w BETWEEN 1 AND 2",
                "PS.Edges[0].tag = 'y'",
                "PS.Edges[1..2].w >= 2",
                "PS.Edges[0..*].tag <> 'y'",
                "NOT PS.Edges[0..*].tag = 'x'",
                "PS.Vertexes[0..*].Id < 5",
                "SUM(PS.Edges.w) < 5",
                "SUM(PS.Edges.w) >= 3",
                "PS.Edges[0..*].tag NOT IN ('x', NULL)",
                "PS.Edges[0..*].tag IN ('x', NULL)",
                "PS.Edges[1].tag NOT IN ('y')",
                "2 > PS.Edges[0..*].w",
                "3 <= PS.Edges[1..*].w",
                "PS.Edges[0..*].tag LIKE 'x%'",
                "PS.Edges[0..*].w IS NULL",
                "PS.Edges[0..*].tag IS NOT NULL",
                "PS.StartVertex.k = 1",
                "PS.StartVertex.k IS NULL OR PS.StartVertex.Id > 3",
            ]
        )
    )
    max_length = draw(st.integers(min_value=1, max_value=3))
    return n, edges, predicate, max_length


def pushed_and_residual(db, sql):
    db.planner_options = PlannerOptions(push_path_filters=True)
    pushed = sorted(db.execute(sql).column(0))
    db.planner_options = PlannerOptions(push_path_filters=False)
    residual = sorted(db.execute(sql).column(0))
    return pushed, residual


@given(graph_and_predicate(), st.sampled_from(["", "HINT(DFS)", "HINT(BFS)"]))
@settings(max_examples=300, deadline=None)
def test_pushdown_never_changes_answers(case, hint):
    n, edges, predicate, max_length = case
    db = build_db(n, edges)
    sql = (
        f"SELECT PS.PathString FROM g.Paths PS {hint} "
        f"WHERE PS.Length <= {max_length} AND {predicate}"
    )
    pushed, residual = pushed_and_residual(db, sql)
    assert pushed == residual, sql


@given(
    graph_and_predicate(),
    st.sampled_from([
        "SUM(PS.Edges.w) < 5",
        "SUM(PS.Edges.w) <= 3",
        "SUM(PS.Edges.w) >= 3",
        "SUM(PS.Edges.w) > 2",
        "SUM(PS.Edges.w) <> 3",
    ]),
)
@settings(max_examples=60, deadline=None)
def test_shortest_path_sum_bounds_pushed_or_not(case, bound):
    # bounds on the weight itself: pruning the SPScan by the bound settles
    # each vertex on the same cheapest path a Filter above it would see
    n, edges, _predicate, max_length = case
    db = build_db(n, edges)
    sql = (
        "SELECT PS.PathString FROM g.Paths PS HINT(SHORTESTPATH(w)) "
        f"WHERE PS.StartVertex.Id = 0 AND PS.Length <= {max_length} AND {bound}"
    )
    pushed, residual = pushed_and_residual(db, sql)
    assert pushed == residual, sql


@given(
    graph_and_predicate(),
    st.sampled_from([
        "PS.Edges[0..*].w < ?",
        "? >= PS.Edges[0..*].w",
        "PS.Edges[0..*].tag = ?",
        "PS.StartVertex.k <> ?",
    ]),
    st.lists(st.sampled_from([None, 1, 2.5, "x", "y"]), min_size=2, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_prepared_operand_rebinds_on_every_execute(case, predicate, values):
    # one prepared plan per setting, executed once per value: a pushed
    # filter reads the parameter when it runs, never when it was compiled
    n, edges, _predicate, max_length = case
    sql = (
        "SELECT PS.PathString FROM g.Paths PS "
        f"WHERE PS.Length <= {max_length} AND {predicate}"
    )
    statements = []
    for push in (True, False):
        db = build_db(n, edges)
        db.planner_options = PlannerOptions(push_path_filters=push)
        statements.append(db.prepare(sql))
    for value in values:
        outcomes = []
        for prepared in statements:
            try:
                outcomes.append(sorted(prepared.execute(value).column(0)))
            except Exception as error:  # the same error, pushed or not
                outcomes.append((type(error), str(error)))
        assert outcomes[0] == outcomes[1], (sql, value)


def test_not_in_with_null_item_is_never_true():
    # x NOT IN (7, NULL) is NULL or FALSE for every x: no path, pushed or
    # residual, and no row of the edge table
    db = Database()
    db.execute("CREATE TABLE V (id INTEGER PRIMARY KEY)")
    db.execute(
        "CREATE TABLE E (id INTEGER PRIMARY KEY, s INTEGER, d INTEGER, "
        "t INTEGER)"
    )
    db.load_rows("V", [(0,), (1,), (2,)])
    db.load_rows("E", [(0, 0, 1, 1), (1, 1, 2, 2)])
    db.execute(
        "CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id) FROM V "
        "EDGES(ID = id, FROM = s, TO = d, t = t) FROM E"
    )
    pushed, residual = pushed_and_residual(
        db,
        "SELECT P.PathString FROM g.Paths P "
        "WHERE P.StartVertexId = 0 AND P.Edges[0..*].t NOT IN (7, NULL)",
    )
    assert pushed == residual == []
    assert db.execute("SELECT E.id FROM E WHERE E.t NOT IN (7, NULL)").rows == []
