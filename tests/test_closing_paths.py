"""PATHS queries whose bound end vertex is their start vertex.

Such a query asks for a cycle through the start. The ``LIMIT 1`` form runs
on the visited-once BFS and ``HINT(SHORTESTPATH(w))`` on SPScan; both must
find the cycle the enumerating scans find, and the shortest one.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro.graph import TraversalSpec, dfs_paths

REACH = ("SELECT PS.Length FROM g.Paths PS {hint} "
         "WHERE PS.StartVertex.Id = ? AND PS.EndVertex.Id = ?{limit}")
SHORTEST = ("SELECT PS.Cost FROM g.Paths PS HINT(SHORTESTPATH(w)) "
            "WHERE PS.StartVertex.Id = ? AND PS.EndVertex.Id = ? LIMIT 1")


def build(n, edges, directed):
    db = Database()
    db.execute("CREATE TABLE V (id INTEGER PRIMARY KEY)")
    db.execute("CREATE TABLE E (id INTEGER PRIMARY KEY, src INTEGER, "
               "dst INTEGER, w FLOAT)")
    db.load_rows("V", [(i,) for i in range(n)])
    db.load_rows("E", edges)
    kind = "DIRECTED" if directed else "UNDIRECTED"
    db.execute(f"CREATE {kind} GRAPH VIEW g VERTEXES(ID = id) FROM V "
               "EDGES(ID = id, FROM = src, TO = dst, w = w) FROM E")
    return db


TRIANGLE = [(10, 0, 1, 1.0), (11, 1, 2, 1.0), (12, 2, 0, 1.0)]


@pytest.mark.parametrize("directed", [True, False])
class TestCycleThroughTheStart:
    @pytest.mark.parametrize("hint", ["", "HINT(DFS)", "HINT(BFS)"])
    @pytest.mark.parametrize("limit", ["", " LIMIT 1"])
    def test_every_scan_finds_the_triangle(self, directed, hint, limit):
        db = build(3, TRIANGLE, directed)
        rows = db.execute(
            REACH.format(hint=hint, limit=limit).replace("?", "0")).rows
        assert rows and set(rows) == {(3,)}

    def test_prepared_reachability(self, directed):
        db = build(3, TRIANGLE, directed)
        query = db.prepare(REACH.format(hint="", limit=" LIMIT 1"))
        assert query.execute(0, 0).rows == [(3,)]
        assert query.execute(0, 2).rows == [(1 if not directed else 2,)]

    def test_shortest_path_hint(self, directed):
        db = build(3, TRIANGLE, directed)
        assert db.execute(SHORTEST.replace("?", "0")).rows == [(3.0,)]
        unlimited = SHORTEST.replace("?", "0").replace(" LIMIT 1", "")
        assert db.execute(unlimited).rows


def test_undirected_edge_does_not_close_over_itself():
    db = build(2, [(10, 0, 1, 1.0)], directed=False)
    assert db.execute(
        REACH.format(hint="", limit=" LIMIT 1").replace("?", "0")).rows == []
    db.execute("INSERT INTO E VALUES (11, 1, 0, 2.0)")  # a parallel edge
    assert db.execute(
        REACH.format(hint="", limit=" LIMIT 1").replace("?", "0")).rows == [(2,)]
    assert db.execute(SHORTEST.replace("?", "0")).rows == [(3.0,)]


@st.composite
def small_graph(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    directed = draw(st.booleans())
    possible = [(a, b) for a in range(n) for b in range(n)]
    chosen = draw(st.lists(st.sampled_from(possible), max_size=2 * n + 2))
    edges = [
        (i, a, b, float(draw(st.integers(min_value=1, max_value=4))))
        for i, (a, b) in enumerate(chosen)
    ]
    return n, edges, directed


@given(small_graph())
@settings(max_examples=80, deadline=None)
def test_limit_one_finds_the_shortest_path_the_enumeration_finds(graph):
    """For every (s, t), s = t included: the ``LIMIT 1`` row exists iff
    the enumerating scan finds a path, its length is the minimum, and
    SPScan's cost is the minimum cost."""
    n, edges, directed = graph
    db = build(n, edges, directed)
    view = db.graph_view("g")
    weight = view.edge_attribute_reader("w")
    reach = db.prepare(REACH.format(hint="", limit=" LIMIT 1"))
    shortest = db.prepare(SHORTEST)
    for s in range(n):
        for t in range(n):
            paths = list(dfs_paths(view, [s], TraversalSpec(target_vertex_id=t)))
            first = reach.execute(s, t).rows
            cheapest = shortest.execute(s, t).rows
            if not paths:
                assert first == [] and cheapest == [], (s, t)
                continue
            assert first == [(min(p.length for p in paths),)], (s, t)
            costs = [sum(weight(e) for e in p.edges) for p in paths]
            assert len(cheapest) == 1, (s, t)
            assert cheapest[0][0] == pytest.approx(min(costs)), (s, t)
