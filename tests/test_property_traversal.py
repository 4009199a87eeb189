"""Property-based tests for graph traversal, with networkx as oracle.

Invariants on random graphs:

* every produced path is *well-formed*: consecutive vertices joined by
  the listed edges, simple except for a possible closing cycle;
* DFScan and BFScan enumerate exactly the same path set under a random
  spec, and every path satisfies every element of it;
* reachability through the engine matches networkx;
* SPScan distances match networkx Dijkstra, and costs are non-decreasing;
* SPScan honours a random spec too, and its cheapest cycle through a
  vertex costs what networkx says;
* the global-visited BFS discipline finds hop-minimal witnesses;
* with a bound end, on multigraphs: DFScan's probed last hop emits what
  the unbound scan emits there, visited-once exiting on discovery returns
  what a dequeue-time BFS returns for no more edges, and an edge budget
  still aborts a probed scan.
"""

import operator

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro import QueryBudget, ResourceExhaustedError
from repro.ambient import activate
from repro.graph import TraversalSpec, bfs_paths, dfs_paths, shortest_paths
from repro.graph.traversal import PositionalFilter, SumBound, TraversalStats

from .graph_fixtures import make_graph_view


@st.composite
def random_graph(draw, max_vertices=8, directed=None):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    if directed is None:
        directed = draw(st.booleans())
    possible = [
        (a, b) for a in range(n) for b in range(n) if a != b
    ]
    chosen = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=2 * n)
    )
    edges = [
        (i, a, b, float(draw(st.integers(min_value=1, max_value=9))), "x")
        for i, (a, b) in enumerate(chosen)
    ]
    return n, edges, directed


def to_networkx(n, edges, directed):
    graph = nx.DiGraph() if directed else nx.Graph()
    graph.add_nodes_from(range(n))
    for eid, a, b, w, _label in edges:
        # parallel edges: keep the lighter one (nx.Graph collapses them)
        if graph.has_edge(a, b):
            w = min(w, graph[a][b]["weight"])
        graph.add_edge(a, b, weight=w)
    return graph


def check_path_well_formed(view, path):
    """Edges must join consecutive vertices; inner vertices unique."""
    ids = path.vertex_ids()
    inner = ids[:-1]
    assert len(inner) == len(set(inner))
    if len(ids) != len(set(ids)):
        assert ids[0] == ids[-1]
    for position, edge in enumerate(path.edges):
        a, b = ids[position], ids[position + 1]
        if view.directed:
            assert (edge.from_id, edge.to_id) == (a, b)
        else:
            assert {edge.from_id, edge.to_id} == {a, b} or (
                edge.from_id == edge.to_id and a == b
            )
    # no repeated edges within a path
    edge_ids = path.edge_ids()
    assert len(edge_ids) == len(set(edge_ids))


COMPARE = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    ">=": operator.ge, "=": operator.eq, "<>": operator.ne,
}
#: ``[i..j]`` position ranges (``None`` = ``*``)
RANGES = [(0, None), (0, 0), (1, 1), (1, 2), (1, None)]


@st.composite
def spec_description(draw, n, longest=3):
    """A random TraversalSpec as plain data: positional and ``[0..*]``
    edge (weight) and vertex (id) filters, prunable (``<``, ``<=``) and
    final-only sum bounds, a target, the cycle pattern, start vertexes."""
    ranges = st.sampled_from(RANGES)
    min_length = draw(st.integers(min_value=1, max_value=2))
    return {
        "edge_filters": draw(st.lists(st.tuples(
            ranges, st.sampled_from(["<=", ">="]),
            st.integers(min_value=1, max_value=9)), max_size=2)),
        "vertex_filters": draw(st.lists(st.tuples(
            ranges, st.sampled_from(["<>", "<"]),
            st.integers(min_value=0, max_value=n)), max_size=2)),
        "sum_bounds": draw(st.lists(st.tuples(
            st.sampled_from(sorted(COMPARE)),
            st.integers(min_value=1, max_value=20)), max_size=2)),
        "min_length": min_length,
        "max_length": draw(st.integers(min_value=min_length, max_value=longest)),
        "target": draw(st.none() | st.integers(min_value=0, max_value=n - 1)),
        "target_is_start": draw(st.booleans()),
        "starts": draw(st.none() | st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=1, max_size=3, unique=True)),
    }


def build_spec(view, described):
    weight = view.edge_attribute_reader("w")

    def edge_filter(bounds, op, threshold):
        return PositionalFilter(
            *bounds, lambda e: COMPARE[op](weight(e), threshold))

    def vertex_filter(bounds, op, threshold):
        return PositionalFilter(
            *bounds, lambda v: COMPARE[op](v.id, threshold))

    return TraversalSpec(
        min_length=described["min_length"],
        max_length=described["max_length"],
        edge_filters=[edge_filter(*f) for f in described["edge_filters"]],
        vertex_filters=[vertex_filter(*f) for f in described["vertex_filters"]],
        sum_bounds=[
            SumBound(weight, op, float(bound))
            for op, bound in described["sum_bounds"]
        ],
        target_vertex_id=described["target"],
        target_is_start=described["target_is_start"],
    )


def satisfies(view, described, path):
    """Every element of the described spec, checked on the finished path."""
    weight = view.edge_attribute_reader("w")
    ids = path.vertex_ids()

    def holds(filters, elements, value_of):
        return all(
            COMPARE[op](value_of(element), threshold)
            for (start, end), op, threshold in filters
            for position, element in enumerate(elements)
            if start <= position and (end is None or position <= end)
        )

    total = sum(weight(e) for e in path.edges)
    return (
        described["min_length"] <= path.length <= described["max_length"]
        and holds(described["edge_filters"], path.edges, weight)
        and holds(described["vertex_filters"], path.vertices, lambda v: v.id)
        and all(COMPARE[op](total, b) for op, b in described["sum_bounds"])
        and described["target"] in (None, ids[-1])
        and (not described["target_is_start"] or ids[0] == ids[-1])
        and (described["starts"] is None or ids[0] in described["starts"])
    )


class TestEnumerationProperties:
    @given(random_graph())
    @settings(max_examples=80, deadline=None)
    def test_paths_are_well_formed(self, data):
        n, edges, directed = data
        view, _vt, _et = make_graph_view(range(n), edges, directed=directed)
        spec = TraversalSpec(max_length=3)
        for path in dfs_paths(view, [0], spec):
            check_path_well_formed(view, path)

    @given(random_graph(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_dfs_and_bfs_agree(self, data, draw):
        n, edges, directed = data
        view, _vt, _et = make_graph_view(range(n), edges, directed=directed)
        described = draw.draw(spec_description(n))
        starts = described["starts"]
        spec = build_spec(view, described)
        dfs_set = {
            (tuple(p.vertex_ids()), tuple(p.edge_ids()))
            for p in dfs_paths(view, starts, spec)
        }
        bfs_paths_list = list(bfs_paths(view, starts, build_spec(view, described)))
        bfs_set = {
            (tuple(p.vertex_ids()), tuple(p.edge_ids())) for p in bfs_paths_list
        }
        assert dfs_set == bfs_set
        for path in bfs_paths_list:
            check_path_well_formed(view, path)
            assert satisfies(view, described, path)

    @given(random_graph())
    @settings(max_examples=60, deadline=None)
    def test_length_bounds_respected(self, data):
        n, edges, directed = data
        view, _vt, _et = make_graph_view(range(n), edges, directed=directed)
        spec = TraversalSpec(min_length=2, max_length=3)
        for path in dfs_paths(view, None, spec):
            assert 2 <= path.length <= 3


class TestReachabilityAgainstNetworkx:
    @given(random_graph())
    @settings(max_examples=80, deadline=None)
    def test_global_bfs_matches_networkx(self, data):
        n, edges, directed = data
        view, _vt, _et = make_graph_view(range(n), edges, directed=directed)
        oracle = to_networkx(n, edges, directed)
        reachable_oracle = set(nx.descendants(oracle, 0))
        spec = TraversalSpec(max_length=n + 1, unique_vertices=True)
        reached = {p.end_vertex_id for p in bfs_paths(view, [0], spec)}
        assert reached == reachable_oracle

    @given(random_graph())
    @settings(max_examples=60, deadline=None)
    def test_global_bfs_paths_are_hop_minimal(self, data):
        n, edges, directed = data
        view, _vt, _et = make_graph_view(range(n), edges, directed=directed)
        oracle = to_networkx(n, edges, directed)
        lengths = nx.single_source_shortest_path_length(oracle, 0)
        spec = TraversalSpec(max_length=n + 1, unique_vertices=True)
        for path in bfs_paths(view, [0], spec):
            assert path.length == lengths[path.end_vertex_id]


class TestShortestPathsAgainstNetworkx:
    @given(random_graph())
    @settings(max_examples=80, deadline=None)
    def test_dijkstra_distances_match(self, data):
        n, edges, directed = data
        view, _vt, _et = make_graph_view(range(n), edges, directed=directed)
        oracle = to_networkx(n, edges, directed)
        distances = nx.single_source_dijkstra_path_length(
            oracle, 0, weight="weight"
        )
        spec = TraversalSpec(max_length=n + 1)
        weight_of = view.edge_attribute_reader("w")
        produced = {
            p.end_vertex_id: p.cost
            for p in shortest_paths(view, [0], spec, weight_of)
        }
        for vertex, distance in distances.items():
            if vertex == 0:
                continue
            assert produced[vertex] == pytest.approx(distance)

    @given(random_graph())
    @settings(max_examples=60, deadline=None)
    def test_costs_non_decreasing(self, data):
        n, edges, directed = data
        view, _vt, _et = make_graph_view(range(n), edges, directed=directed)
        spec = TraversalSpec(max_length=n + 1)
        weight_of = view.edge_attribute_reader("w")
        costs = [p.cost for p in shortest_paths(view, [0], spec, weight_of)]
        assert costs == sorted(costs)

    @given(random_graph(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_path_satisfies_the_spec(self, data, draw):
        n, edges, directed = data
        view, _vt, _et = make_graph_view(range(n), edges, directed=directed)
        described = draw.draw(spec_description(n, longest=n))
        per_vertex = draw.draw(st.integers(min_value=1, max_value=3))
        weight_of = view.edge_attribute_reader("w")
        paths = list(shortest_paths(
            view, described["starts"], build_spec(view, described), weight_of,
            max_paths_per_vertex=per_vertex))
        costs = [p.cost for p in paths]
        assert costs == sorted(costs)
        for path in paths:
            check_path_well_formed(view, path)
            assert satisfies(view, described, path)
            assert path.cost == pytest.approx(sum(weight_of(e) for e in path.edges))

    @given(random_graph(directed=True))
    @settings(max_examples=80, deadline=None)
    def test_cheapest_cycle_matches_networkx(self, data):
        n, edges, directed = data
        view, _vt, _et = make_graph_view(range(n), edges, directed=directed)
        oracle = to_networkx(n, edges, directed)
        distances = nx.single_source_dijkstra_path_length(oracle, 0, weight="weight")
        closing = [
            distances[b] + oracle[b][0]["weight"]
            for b in oracle.predecessors(0)
            if b in distances
        ]
        spec = TraversalSpec(max_length=n + 1, target_is_start=True)
        cycles = list(shortest_paths(
            view, [0], spec, view.edge_attribute_reader("w")))
        if not closing:
            assert cycles == []
            return
        assert len(cycles) == 1
        assert cycles[0].start_vertex_id == cycles[0].end_vertex_id == 0
        assert cycles[0].cost == pytest.approx(min(closing))


# ---------------------------------------------------------------------------
# a bound end vertex: the scans stop where the answer is
# ---------------------------------------------------------------------------


@st.composite
def random_multigraph(draw, max_vertices=6):
    """A graph with parallel edges and self-loops, some of its edges
    removed again from the built topology (removal keeps the order of
    the remaining adjacency entries, which emission order follows)."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    directed = draw(st.booleans())
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    edges = [
        (i, a, b, float(draw(st.integers(min_value=1, max_value=9))), "x")
        for i, (a, b) in enumerate(pairs)
    ]
    removed = draw(st.sets(st.sampled_from(range(len(edges))))) if edges else set()
    view = make_graph_view(range(n), edges, directed=directed)[0]
    for edge_id in sorted(removed):
        view.topology.remove_edge(edge_id)
    return n, view


def path_key(path):
    return tuple(path.vertex_ids()), tuple(path.edge_ids())


def dequeue_time_visited_once(view, starts, described):
    """The reference visited-once walk: level-order BFS that tests the
    end vertex when it is *dequeued*. Returns the emitted path's key (or
    ``None``) and the number of edges it examined."""
    weight = view.edge_attribute_reader("w")
    topology = view.topology

    def allowed(filters, position, value):
        return all(
            COMPARE[op](value, threshold)
            for (start, end), op, threshold in filters
            if start <= position and (end is None or position <= end)
        )

    target = described["target"]
    parents = {}
    frontier = []
    for start in starts:
        if start in topology.vertices and start not in parents and allowed(
                described["vertex_filters"], 0, start):
            parents[start] = None
            frontier.append(start)
    examined = 0
    depth = 0
    while frontier:
        discovered = []
        for vertex in frontier:
            if depth >= described["min_length"] and vertex == target:
                ids, edges = [vertex], []
                while parents[ids[-1]] is not None:
                    parent, edge = parents[ids[-1]]
                    ids.append(parent)
                    edges.append(edge)
                total = sum(weight(edge) for edge in edges)
                if all(COMPARE[op](total, bound)
                       for op, bound in described["sum_bounds"]):
                    return (tuple(reversed(ids)),
                            tuple(edge.id for edge in reversed(edges))), examined
            if described["max_length"] is not None and depth >= described["max_length"]:
                continue
            for edge in topology.out_edges_of(vertex):
                examined += 1
                nxt = edge.to_id if view.directed else edge.other_endpoint(vertex)
                if nxt in parents:
                    continue
                if not allowed(described["edge_filters"], depth, weight(edge)):
                    continue
                if not allowed(described["vertex_filters"], depth + 1, nxt):
                    continue
                parents[nxt] = (vertex, edge)
                discovered.append(nxt)
        frontier = discovered
        depth += 1
    return None, examined


class TestBoundEndPruning:
    @given(random_multigraph(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_probed_last_hop_emits_the_unbound_paths_ending_there(self, graph, draw):
        """DFScan with a bound end (or a cycle) and a fixed length bound
        probes the edges into the end on its last hop; it emits, in
        order, exactly the paths of the unbound scan that end there."""
        n, view = graph
        described = draw.draw(spec_description(n, longest=4))
        if described["target"] is None and not described["target_is_start"]:
            described["target"] = draw.draw(st.integers(min_value=0, max_value=n - 1))
        unbound = dict(described, target=None, target_is_start=False)
        starts = described["starts"]

        def ends_there(path):
            ids = path.vertex_ids()
            return (described["target"] in (None, ids[-1])
                    and (not described["target_is_start"] or ids[0] == ids[-1]))

        probed = [path_key(p) for p in dfs_paths(view, starts, build_spec(view, described))]
        walked = [path_key(p) for p in dfs_paths(view, starts, build_spec(view, unbound))
                  if ends_there(p)]
        assert probed == walked

    @given(random_multigraph(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_visited_once_exits_on_discovery(self, graph, draw):
        """Visited-once with a bound end returns the path the dequeue-time
        reference returns, and examines no more edges than it."""
        n, view = graph
        described = draw.draw(spec_description(n, longest=n))
        described["max_length"] = draw.draw(st.none() | st.just(described["max_length"]))
        target = draw.draw(st.integers(min_value=0, max_value=n - 1))
        described.update(target=target, target_is_start=False)
        # a bound end that is itself a start takes SPScan's cycle route
        others = [v for v in range(n) if v != target]
        starts = draw.draw(st.lists(st.sampled_from(others), min_size=1, max_size=3))
        spec = build_spec(view, described)
        spec.unique_vertices = True
        stats = TraversalStats()
        paths = [path_key(p) for p in bfs_paths(view, starts, spec, stats)]
        expected, examined = dequeue_time_visited_once(view, starts, described)
        assert paths == ([] if expected is None else [expected])
        assert stats.edges_examined <= examined

    @given(random_multigraph(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_edge_budget_aborts_a_probed_scan(self, graph, draw):
        n, view = graph
        described = draw.draw(spec_description(n, longest=4))
        if described["target"] is None:
            described["target_is_start"] = True
        starts = described["starts"]
        stats = TraversalStats()
        paths = list(dfs_paths(view, starts, build_spec(view, described), stats))
        examined = stats.edges_examined
        if examined < 2:
            return  # a budget allows at least one edge
        with activate(token=QueryBudget(max_edges=examined).start()):
            assert list(dfs_paths(view, starts, build_spec(view, described))) == paths
        with activate(token=QueryBudget(max_edges=examined - 1).start()):
                with pytest.raises(ResourceExhaustedError, match="max_edges"):
                    list(dfs_paths(view, starts, build_spec(view, described)))


# ---------------------------------------------------------------------------
# maintenance: a topology kept up to date by DML equals a fresh build
# ---------------------------------------------------------------------------

#: Statement templates: ``{x}`` / ``{y}`` are vertex ids, ``{e}`` / ``{f}``
#: edge ids. Statements the engine refuses (a duplicate key, a vertex
#: still referenced, an edge to a missing vertex) are part of the stream:
#: they roll back through the same listeners, inside an explicit
#: transaction as well as outside one.
DML = [
    "INSERT INTO V VALUES ({x})",
    "DELETE FROM V WHERE id = {x}",
    "UPDATE V SET id = {y} WHERE id = {x}",
    "INSERT INTO E VALUES ({e}, {x}, {y}, {w})",
    "INSERT INTO E VALUES ({e}, {x}, {y}, {w}), ({f}, {y}, {x}, {w})",
    "DELETE FROM E WHERE id = {e}",
    "DELETE FROM E WHERE id >= {e} AND id < {f}",
    "UPDATE E SET id = {f} WHERE id = {e}",
    "UPDATE E SET d = {y} WHERE id = {e}",
    "BEGIN",
    "COMMIT",
    "ROLLBACK",
]

maintenance_ops = st.lists(
    st.tuples(
        st.sampled_from(DML),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=1, max_value=4),
    ),
    max_size=40,
)


def _run_dml(db, template, x, y, e, f, w):
    from repro.errors import DatabaseError

    if template == "BEGIN":
        if not db.transactions.in_transaction:
            db.begin()
    elif template in ("COMMIT", "ROLLBACK"):
        if db.transactions.in_transaction:
            (db.commit if template == "COMMIT" else db.rollback)()
    else:
        try:
            db.execute(template.format(x=x, y=y, e=e, f=f, w=w))
        except DatabaseError:
            pass


def _scan_results(view, start):
    """What each of the four scans answers from ``start``, in a form that
    does not depend on adjacency order: the full path set of the
    enumerations, the hop length / cost per end vertex of visited-once and
    SPScan (which path wins a tie follows adjacency order)."""
    def key(path):
        return (tuple(path.vertex_ids()), tuple(path.edge_ids()))

    weight = view.edge_attribute_reader("w")
    return (
        sorted(key(p) for p in dfs_paths(view, [start], TraversalSpec(max_length=3))),
        sorted(key(p) for p in bfs_paths(view, [start], TraversalSpec(max_length=3))),
        sorted((p.end_vertex_id, p.length) for p in bfs_paths(
            view, [start], TraversalSpec(unique_vertices=True))),
        sorted((p.end_vertex_id, p.cost) for p in shortest_paths(
            view, [start], TraversalSpec(), weight)),
    )


class TestMaintenanceMatchesRebuild:
    @given(st.booleans(), maintenance_ops)
    @settings(max_examples=80, deadline=None)
    def test_maintained_topology_equals_a_fresh_view(self, directed, ops):
        from repro import Database

        db = Database()
        db.execute("CREATE TABLE V (id INTEGER PRIMARY KEY)")
        db.execute("CREATE TABLE E (id INTEGER PRIMARY KEY, s INTEGER, "
                   "d INTEGER, w FLOAT)")
        db.load_rows("V", [(i,) for i in range(4)])
        db.load_rows("E", [(0, 0, 1, 1.0), (1, 1, 2, 2.0), (2, 2, 0, 1.0)])
        kind = "DIRECTED" if directed else "UNDIRECTED"
        view_sql = (f"CREATE {kind} GRAPH VIEW {{name}} VERTEXES(ID = id) "
                    "FROM V EDGES(ID = id, FROM = s, TO = d, w = w) FROM E")
        db.execute(view_sql.format(name="g"))
        for op in ops:
            _run_dml(db, *op)
        if db.transactions.in_transaction:
            db.rollback()
        db.execute(view_sql.format(name="fresh"))
        maintained, fresh = db.graph_view("g"), db.graph_view("fresh")

        assert maintained.topology_digest() == fresh.topology_digest()
        vertex_ids = sorted(fresh.topology.vertices)
        assert sorted(maintained.topology.vertices) == vertex_ids
        for vertex_id in vertex_ids:
            ours = maintained.topology.vertex(vertex_id)
            theirs = fresh.topology.vertex(vertex_id)
            assert (ours.fan_in, ours.fan_out) == (theirs.fan_in, theirs.fan_out)
            assert _scan_results(maintained, vertex_id) == _scan_results(
                fresh, vertex_id)
