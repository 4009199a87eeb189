"""Property test: filter pushdown must never change query answers.

For random graphs and random path predicates, the same query runs with
``push_path_filters`` on and off; the result sets must be identical.
This is the correctness contract of Section 6.2.
"""

from hypothesis import given, settings, strategies as st

from repro import Database, PlannerOptions


def build_db(n, edges):
    db = Database()
    db.execute("CREATE TABLE V (id INTEGER PRIMARY KEY)")
    db.execute(
        "CREATE TABLE E (id INTEGER PRIMARY KEY, s INTEGER, d INTEGER, "
        "w FLOAT, tag VARCHAR)"
    )
    db.load_rows("V", [(i,) for i in range(n)])
    db.load_rows("E", edges)
    db.execute(
        "CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id) FROM V "
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
        weight = draw(st.sampled_from([1.0, 2.0, 3.0]))
        tag = draw(st.sampled_from(["x", "y"]))
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
@settings(max_examples=90, deadline=None)
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
