"""Unit tests for the physical path-scan algorithms (DFScan, BFScan,
SPScan) and the traversal-spec pushdown machinery."""

import re

import pytest

from repro import Database
from repro.errors import ExecutionError
from repro.graph import (
    TraversalSpec,
    bfs_paths,
    choose_traversal,
    dfs_paths,
    shortest_paths,
)
from repro.graph.traversal import PositionalFilter, SumBound, TraversalStats

from .graph_fixtures import make_graph_view


def diamond_view(directed=True):
    """1 -> 2 -> 4, 1 -> 3 -> 4 with distinct weights."""
    return make_graph_view(
        [1, 2, 3, 4],
        [
            (10, 1, 2, 1.0, "a"),
            (11, 1, 3, 5.0, "b"),
            (12, 2, 4, 1.0, "a"),
            (13, 3, 4, 1.0, "b"),
        ],
        directed=directed,
    )[0]


def path_strings(paths):
    return sorted(p.path_string for p in paths)


class TestDfsEnumeration:
    def test_all_paths_from_start(self):
        view = diamond_view()
        spec = TraversalSpec(max_length=3)
        paths = list(dfs_paths(view, [1], spec))
        assert path_strings(paths) == sorted(
            ["1->2", "1->3", "1->2->4", "1->3->4"]
        )

    def test_paths_are_simple_except_closing_cycle(self):
        # cycle 1 -> 2 -> 3 -> 1: inner vertices may not repeat, but the
        # path may close back onto its start (triangle queries need this)
        view = make_graph_view(
            [1, 2, 3], [(1, 1, 2), (2, 2, 3), (3, 3, 1)]
        )[0]
        paths = list(dfs_paths(view, [1], TraversalSpec(max_length=10)))
        for path in paths:
            ids = path.vertex_ids()
            inner = ids[:-1]
            assert len(inner) == len(set(inner))
            if len(ids) != len(set(ids)):
                assert ids[0] == ids[-1]  # only the closing cycle repeats
        assert max(p.length for p in paths) == 3
        assert "1->2->3->1" in {p.path_string for p in paths}

    def test_min_length_filters(self):
        view = diamond_view()
        spec = TraversalSpec(min_length=2, max_length=3)
        paths = list(dfs_paths(view, [1], spec))
        assert path_strings(paths) == sorted(["1->2->4", "1->3->4"])

    def test_max_length_prunes_expansion(self):
        view = diamond_view()
        spec = TraversalSpec(max_length=1)
        paths = list(dfs_paths(view, [1], spec))
        assert path_strings(paths) == sorted(["1->2", "1->3"])

    def test_all_vertices_as_starts_when_none(self):
        view = diamond_view()
        spec = TraversalSpec(max_length=1)
        paths = list(dfs_paths(view, None, spec))
        assert len(paths) == 4  # one per edge

    def test_undirected_walks_both_ways(self):
        view = diamond_view(directed=False)
        spec = TraversalSpec(max_length=1)
        paths = list(dfs_paths(view, [4], spec))
        assert path_strings(paths) == sorted(["4->2", "4->3"])

    def test_missing_start_vertex_ignored(self):
        view = diamond_view()
        paths = list(dfs_paths(view, [99], TraversalSpec(max_length=2)))
        assert paths == []

    def test_lazy_generation(self):
        """The scan must not enumerate everything up front."""
        view = diamond_view()
        generator = dfs_paths(view, [1], TraversalSpec(max_length=3))
        first = next(generator)
        assert first.length >= 1  # pulled exactly one


class TestBfsEnumeration:
    def test_same_path_set_as_dfs(self):
        view = diamond_view()
        spec = TraversalSpec(max_length=3)
        dfs_result = path_strings(dfs_paths(view, [1], spec))
        bfs_result = path_strings(bfs_paths(view, [1], spec))
        assert dfs_result == bfs_result

    def test_bfs_yields_shorter_paths_first(self):
        view = diamond_view()
        lengths = [
            p.length for p in bfs_paths(view, [1], TraversalSpec(max_length=3))
        ]
        assert lengths == sorted(lengths)


class TestTargetFiltering:
    def test_target_restricts_output(self):
        view = diamond_view()
        spec = TraversalSpec(max_length=3, target_vertex_id=4)
        paths = list(dfs_paths(view, [1], spec))
        assert path_strings(paths) == sorted(["1->2->4", "1->3->4"])

    def test_unreachable_target(self):
        view = diamond_view()
        spec = TraversalSpec(max_length=3, target_vertex_id=1)
        assert list(dfs_paths(view, [4], spec)) == []


def run_scan(view, scan, spec, stats):
    if scan == "sp":
        return list(shortest_paths(
            view, [1], spec, view.edge_attribute_reader("w"), stats=stats))
    return list((dfs_paths if scan == "dfs" else bfs_paths)(view, [1], spec, stats))


#: A ring 0 -> 1 -> ... -> 5 -> 0 with chords i -> i + 2, for SQL.
RING_SQL = [
    "CREATE TABLE V (id INTEGER PRIMARY KEY)",
    "CREATE TABLE E (id INTEGER PRIMARY KEY, src INTEGER, dst INTEGER, w FLOAT)",
    "INSERT INTO V VALUES (0), (1), (2), (3), (4), (5)",
    "INSERT INTO E VALUES " + ", ".join(
        f"({i}, {i}, {(i + 1) % 6}, 1.0), ({10 + i}, {i}, {(i + 2) % 6}, 2.0)"
        for i in range(6)),
    "CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id) FROM V "
    "EDGES(ID = id, FROM = src, TO = dst, w = w) FROM E",
]
MISSING_END = "PS.StartVertex.Id = 0 AND PS.EndVertex.Id = 999999"


class TestMissingEndVertex:
    """An end vertex that names no vertex matches no path: every scan
    returns before it examines a single edge."""

    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("scan, options", [
        ("dfs", {"max_length": 4}),
        ("dfs", {}),
        ("bfs", {"max_length": 4}),
        ("bfs", {"max_length": 4, "unique_vertices": True}),
        ("sp", {}),
    ])
    def test_scan_functions(self, scan, options, directed):
        view = diamond_view(directed)
        stats = TraversalStats()
        spec = TraversalSpec(target_vertex_id=999999, **options)
        assert run_scan(view, scan, spec, stats) == []
        assert stats.edges_examined == 0
        # the same scan toward a vertex that exists does walk
        spec = TraversalSpec(target_vertex_id=4, **options)
        assert run_scan(view, scan, spec, TraversalStats())

    @pytest.mark.parametrize("query", [
        f"SELECT PS.Length FROM g.Paths PS WHERE {MISSING_END} LIMIT 1",
        "SELECT PS.Cost FROM g.Paths PS HINT(SHORTESTPATH(w)) "
        f"WHERE {MISSING_END} LIMIT 1",
        f"SELECT PS.Length FROM g.Paths PS HINT(DFS) WHERE {MISSING_END} "
        "AND PS.Length = 4",
        f"SELECT PS.Length FROM g.Paths PS HINT(BFS) WHERE {MISSING_END} "
        "AND PS.Length = 4",
    ], ids=["reach", "shortest", "dfs", "bfs"])
    def test_sql(self, query):
        db = Database()
        for statement in RING_SQL:
            db.execute(statement)
        assert db.execute(query).rows == []
        plan = "\n".join(row[0] for row in db.execute("EXPLAIN ANALYZE " + query).rows)
        assert re.search(r"\[traversal mode=\w+ paths=0 vertices=\d+ edges=0 ", plan), plan


class TestGlobalVisitedMode:
    def test_bfs_global_yields_one_path_per_vertex(self):
        view = diamond_view()
        spec = TraversalSpec(max_length=5, unique_vertices=True)
        paths = list(bfs_paths(view, [1], spec))
        ends = [p.end_vertex_id for p in paths]
        assert sorted(ends) == [2, 3, 4]  # each reached vertex once

    def test_bfs_global_path_is_hop_minimal(self):
        view = make_graph_view(
            [1, 2, 3, 4],
            [(1, 1, 2), (2, 2, 3), (3, 3, 4), (4, 1, 4)],
        )[0]
        spec = TraversalSpec(max_length=5, unique_vertices=True, target_vertex_id=4)
        paths = list(bfs_paths(view, [1], spec))
        assert len(paths) == 1
        assert paths[0].length == 1  # direct edge preferred

    def test_bfs_global_stops_after_target(self):
        view = diamond_view()
        stats = TraversalStats()
        spec = TraversalSpec(max_length=5, unique_vertices=True, target_vertex_id=2)
        paths = list(bfs_paths(view, [1], spec, stats))
        assert len(paths) == 1
        assert stats.paths_emitted == 1

    def test_dfs_visited_once_mode(self):
        view = diamond_view()
        spec = TraversalSpec(max_length=5, unique_vertices=True)
        paths = list(dfs_paths(view, [1], spec))
        assert sorted(p.end_vertex_id for p in paths) == [2, 3, 4]
        # dfs_paths routes visited-once to the one BFS loop: a depth-first
        # walk would reach 5 through 1->3->4->5 before 2's edge to it
        view = make_graph_view(
            [1, 2, 3, 4, 5],
            [(1, 1, 2), (2, 1, 3), (3, 3, 4), (4, 4, 5), (5, 2, 5)],
        )[0]
        paths = list(dfs_paths(view, [1], spec))
        assert {p.end_vertex_id: p.length for p in paths} == {
            2: 1, 3: 1, 4: 2, 5: 2
        }


class TestPositionalFilters:
    def test_edge_filter_all_positions(self):
        view = diamond_view()
        only_a = PositionalFilter(
            0, None, lambda e: view.edge_attribute(e, "label") == "a"
        )
        spec = TraversalSpec(max_length=3, edge_filters=[only_a])
        paths = list(dfs_paths(view, [1], spec))
        assert path_strings(paths) == sorted(["1->2", "1->2->4"])

    def test_edge_filter_single_position(self):
        view = diamond_view()
        first_is_b = PositionalFilter(
            0, 0, lambda e: view.edge_attribute(e, "label") == "b"
        )
        spec = TraversalSpec(max_length=3, edge_filters=[first_is_b])
        paths = list(dfs_paths(view, [1], spec))
        assert path_strings(paths) == sorted(["1->3", "1->3->4"])

    def test_vertex_filter_start_position(self):
        view = diamond_view()
        start_is_1 = PositionalFilter(0, 0, lambda v: v.id == 1)
        spec = TraversalSpec(max_length=1, vertex_filters=[start_is_1])
        paths = list(dfs_paths(view, None, spec))
        assert path_strings(paths) == sorted(["1->2", "1->3"])

    def test_filter_coverage_requirement(self):
        filt = PositionalFilter(5, None, lambda e: True)
        assert filt.must_be_covered() == 6
        assert PositionalFilter(7, 9, lambda e: True).must_be_covered() == 10


class TestSumBounds:
    def test_sum_bound_prunes(self):
        view = diamond_view()
        bound = SumBound(lambda e: view.edge_attribute(e, "w"), "<", 3.0)
        spec = TraversalSpec(max_length=3, sum_bounds=[bound])
        paths = list(dfs_paths(view, [1], spec))
        # 1->3 has weight 5 (pruned); 1->2 (1), 1->2->4 (2) survive
        assert path_strings(paths) == sorted(["1->2", "1->2->4"])

    def test_sum_bound_final_check_lower(self):
        view = diamond_view()
        bound = SumBound(lambda e: view.edge_attribute(e, "w"), ">=", 2.0)
        spec = TraversalSpec(max_length=3, sum_bounds=[bound])
        paths = list(bfs_paths(view, [1], spec))
        assert path_strings(paths) == sorted(["1->3", "1->2->4", "1->3->4"])

    def test_invalid_op_rejected(self):
        with pytest.raises(ExecutionError):
            SumBound(lambda e: 1, "!!", 1.0)


class TestResidualPathPredicate:
    def test_predicate_applied_at_emit(self):
        view = diamond_view()
        spec = TraversalSpec(
            max_length=3,
            path_predicate=lambda p: p.end_vertex_id == 4 and p.length == 2,
        )
        paths = list(dfs_paths(view, [1], spec))
        assert path_strings(paths) == sorted(["1->2->4", "1->3->4"])


class TestShortestPaths:
    def test_dijkstra_order(self):
        view = diamond_view()
        spec = TraversalSpec(max_length=5)
        paths = list(
            shortest_paths(
                view, [1], spec, lambda e: view.edge_attribute(e, "w")
            )
        )
        costs = [p.cost for p in paths]
        assert costs == sorted(costs)

    def test_shortest_to_target(self):
        view = diamond_view()
        spec = TraversalSpec(max_length=5, target_vertex_id=4)
        paths = list(
            shortest_paths(
                view, [1], spec, lambda e: view.edge_attribute(e, "w")
            )
        )
        assert paths[0].path_string == "1->2->4"
        assert paths[0].cost == pytest.approx(2.0)

    def test_top_k_shortest(self):
        view = diamond_view()
        spec = TraversalSpec(max_length=5, target_vertex_id=4)
        paths = list(
            shortest_paths(
                view,
                [1],
                spec,
                lambda e: view.edge_attribute(e, "w"),
                max_paths_per_vertex=2,
            )
        )
        assert [p.path_string for p in paths] == ["1->2->4", "1->3->4"]
        assert paths[1].cost == pytest.approx(6.0)

    def test_negative_weight_rejected(self):
        view = make_graph_view([1, 2], [(1, 1, 2, -1.0)])[0]
        spec = TraversalSpec(max_length=2)
        with pytest.raises(ExecutionError):
            list(shortest_paths(view, [1], spec, lambda e: view.edge_attribute(e, "w")))

    def test_edge_filter_respected(self):
        view = diamond_view()
        only_b = PositionalFilter(
            0, None, lambda e: view.edge_attribute(e, "label") == "b"
        )
        spec = TraversalSpec(
            max_length=5, target_vertex_id=4, edge_filters=[only_b]
        )
        paths = list(
            shortest_paths(
                view, [1], spec, lambda e: view.edge_attribute(e, "w")
            )
        )
        assert paths[0].path_string == "1->3->4"


class TestTraversalChoice:
    def test_bfs_for_tiny_fanout(self):
        # F^L < F*L only when the fan-out is barely above zero edges/vertex
        assert choose_traversal(0.5, 4) == "BFS"

    def test_dfs_for_large_fanout(self):
        assert choose_traversal(50.0, 4) == "DFS"

    def test_default_when_length_unknown(self):
        assert choose_traversal(10.0, None) == "DFS"
        assert choose_traversal(10.0, None, default="BFS") == "BFS"

    def test_boundary_math(self):
        # F = 1: F^L == F*L at L=1; log comparison picks DFS (not less)
        assert choose_traversal(1.0, 1) == "DFS"


class TestStatsCollection:
    def test_stats_counters(self):
        view = diamond_view()
        stats = TraversalStats()
        paths = list(dfs_paths(view, [1], TraversalSpec(max_length=3), stats))
        assert stats.paths_emitted == len(paths)
        assert stats.edges_examined >= len(paths)
        assert stats.peak_frontier >= 1

    def test_bfs_peak_frontier_at_least_queue_width(self):
        view = diamond_view()
        stats = TraversalStats()
        list(bfs_paths(view, [1], TraversalSpec(max_length=3), stats))
        assert stats.peak_frontier >= 2
