"""The per-scan edge-filter memo.

A filter over ``Edges[0..*]`` holds at every position, so a scan evaluates
it at most once per edge, lazily, on the edge's first visit. The
reference for every check is the same predicate split into ``[0]`` and
``[1..*]``: position-specific filters, which run on every visit and must
give the same paths and the same counters.
"""

from collections import Counter

import pytest

from repro import Database
from repro.graph import TraversalSpec, bfs_paths, dfs_paths, shortest_paths
from repro.graph.traversal import PositionalFilter, TraversalStats

from .graph_fixtures import make_graph_view


def complete_graph(n, directed):
    edges = []
    for a in range(n):
        for b in range(n):
            if a != b and (directed or a < b):
                eid = len(edges)
                edges.append((eid, a, b, float(1 + eid % 4), "ab"[eid % 2]))
    return make_graph_view(range(n), edges, directed=directed)[0]


def run(view, scan, edge_filters):
    stats = TraversalStats()
    spec = TraversalSpec(
        max_length=3 if scan in ("dfs", "bfs") else None,
        edge_filters=edge_filters,
        unique_vertices=scan == "visited_once",
    )
    if scan == "dfs":
        paths = dfs_paths(view, None, spec, stats)
    elif scan == "sp":
        paths = shortest_paths(
            view, [0], spec, view.edge_attribute_reader("w"),
            max_paths_per_vertex=2, stats=stats)
    else:
        paths = bfs_paths(view, None if scan == "bfs" else [0], spec, stats)
    emitted = [(p.path_string, p.cost) for p in paths]
    counters = (stats.paths_emitted, stats.vertices_visited,
                stats.edges_examined, stats.peak_frontier)
    return emitted, counters


def counting(view):
    """A ``w < 4`` predicate that counts its calls per edge."""
    weight = view.edge_attribute_reader("w")
    calls = Counter()

    def predicate(edge):
        calls[edge.id] += 1
        return weight(edge) < 4

    return predicate, calls


SCANS = ["dfs", "bfs", "visited_once", "sp"]


@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("scan", SCANS)
def test_uniform_filter_runs_once_per_edge(scan, directed):
    view = complete_graph(5, directed)
    memoised, calls = counting(view)
    per_visit, reference_calls = counting(view)
    got = run(view, scan, [PositionalFilter(0, None, memoised)])
    reference = run(view, scan, [PositionalFilter(0, 0, per_visit),
                                 PositionalFilter(1, None, per_visit)])
    assert got == reference  # same paths, same four counters
    assert max(calls.values()) == 1
    assert set(calls) == set(reference_calls)
    if scan in ("dfs", "bfs"):
        # the enumerations revisit edges: the memo is what saved the calls
        assert sum(reference_calls.values()) > len(reference_calls)


@pytest.mark.parametrize("scan", SCANS)
def test_predicate_never_runs_on_an_edge_the_scan_does_not_reach(scan):
    # 0 -> 1 -> 2 and an unreachable 3 -> 4; the predicate fails loudly
    # on the latter
    view = make_graph_view(
        range(5), [(0, 0, 1), (1, 1, 2), (2, 3, 4)], directed=True)[0]

    def predicate(edge):
        if edge.from_id == 3:
            raise AssertionError("evaluated an unreachable edge")
        return True

    spec = TraversalSpec(
        edge_filters=[PositionalFilter(0, None, predicate)],
        unique_vertices=scan == "visited_once")
    if scan == "sp":
        paths = shortest_paths(view, [0], spec, lambda edge: 1.0)
    else:
        paths = (dfs_paths if scan == "dfs" else bfs_paths)(view, [0], spec)
    assert sorted(p.path_string for p in paths) == ["0->1", "0->1->2"]


def test_limit_one_probe_stops_before_edges_past_the_target():
    view = make_graph_view(
        range(4), [(0, 0, 1), (1, 1, 2), (2, 2, 3)], directed=True)[0]

    def predicate(edge):
        if edge.id == 2:
            raise AssertionError("swept past the target")
        return True

    spec = TraversalSpec(edge_filters=[PositionalFilter(0, None, predicate)],
                         target_vertex_id=2, unique_vertices=True)
    assert next(bfs_paths(view, [0], spec)).path_string == "0->1->2"


def test_prepared_filtered_statement_sees_an_update():
    db = Database()
    db.execute("CREATE TABLE V (id INTEGER PRIMARY KEY)")
    db.execute("CREATE TABLE E (id INTEGER PRIMARY KEY, src INTEGER, "
               "dst INTEGER, w FLOAT, esel INTEGER)")
    db.load_rows("V", [(i,) for i in range(3)])
    db.load_rows("E", [(0, 0, 1, 1.0, 5), (1, 1, 2, 1.0, 5),
                       (2, 0, 2, 9.0, 50)])
    db.execute("CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id) FROM V "
               "EDGES(ID = id, FROM = src, TO = dst, w = w, esel = esel) "
               "FROM E")
    shapes = {
        "reach": "SELECT PS.Length FROM g.Paths PS WHERE {where} LIMIT 1",
        "dfs": "SELECT PS.Length FROM g.Paths PS HINT(DFS) WHERE {where}",
        "sp": "SELECT PS.Cost FROM g.Paths PS HINT(SHORTESTPATH(w)) "
              "WHERE {where}",
    }
    where = ("PS.StartVertex.Id = ? AND PS.EndVertex.Id = ? "
             "AND PS.Edges[0..*].esel < 20")
    queries = {name: db.prepare(sql.format(where=where))
               for name, sql in shapes.items()}
    answers = {name: q.execute(0, 2).rows for name, q in queries.items()}
    assert answers == {"reach": [(2,)], "dfs": [(2,)], "sp": [(2.0,)]}
    db.execute("UPDATE E SET esel = 1 WHERE id = 2")
    answers = {name: q.execute(0, 2).rows for name, q in queries.items()}
    assert answers == {
        "reach": [(1,)], "dfs": [(2,), (1,)], "sp": [(2.0,), (9.0,)]}
    db.execute("UPDATE E SET esel = 99 WHERE id = 1")
    answers = {name: q.execute(0, 2).rows for name, q in queries.items()}
    assert answers == {"reach": [(1,)], "dfs": [(1,)], "sp": [(9.0,)]}


@pytest.mark.parametrize("bounds", [(1, None), (0, 0), (1, 2)])
@pytest.mark.parametrize("scan", [dfs_paths, bfs_paths])
def test_position_specific_filters_run_on_every_visit(scan, bounds):
    view = complete_graph(4, directed=False)
    weight = view.edge_attribute_reader("w")
    predicate, calls = counting(view)
    start, end = bounds

    def holds(path):
        return all(weight(edge) < 4 for position, edge in enumerate(path.edges)
                   if start <= position and (end is None or position <= end))

    filtered = scan(view, None, TraversalSpec(
        max_length=3, edge_filters=[PositionalFilter(start, end, predicate)]))
    everything = scan(view, None, TraversalSpec(max_length=3))
    assert [p.path_string for p in filtered] == [
        p.path_string for p in everything if holds(p)]
    assert max(calls.values()) > 1  # no memo: an edge is tested per visit
