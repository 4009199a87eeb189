"""Golden paths and counters for the path scans.

``traversal_golden.json`` holds, per case, the emitted path sequence (in
emission order, with the SPScan cost) and the ``TraversalStats``
counters. The paths are the scans' answers and never change; the
counters are what ``benchmarks/layers`` reports as
``graph.edges_per_path`` / ``vertices_per_path`` / ``peak_frontier`` and
change only when a scan is meant to do less (or more) work. The two are
separate tests, and re-recording rewrites the counters only: it refuses
to run while any case's paths differ from the file, so a recorded
counter change cannot carry a path change along.

Re-record (only when a change of the counters is intended)::

    PYTHONPATH=src python -m tests.test_traversal_golden --record
"""

import json
import pathlib
import sys

import pytest

from repro.graph import TraversalSpec, bfs_paths, dfs_paths, shortest_paths
from repro.graph.traversal import PositionalFilter, TraversalStats

from .graph_fixtures import make_graph_view

GOLDEN_PATH = pathlib.Path(__file__).parent / "traversal_golden.json"


def grid_edges(side):
    """A ``side`` x ``side`` grid, right and down edges, uneven weights."""
    edges = []
    for row in range(side):
        for col in range(side):
            vertex = row * side + col
            if col + 1 < side:
                edges.append((len(edges), vertex, vertex + 1))
            if row + 1 < side:
                edges.append((len(edges), vertex, vertex + side))
    return [
        (eid, a, b, float(1 + (eid * 7) % 5), "ab"[eid % 2])
        for eid, a, b in edges
    ]


GRAPHS = {
    "diamond": (
        [1, 2, 3, 4],
        [(10, 1, 2, 1.0, "a"), (11, 1, 3, 5.0, "b"),
         (12, 2, 4, 1.0, "a"), (13, 3, 4, 1.0, "b")],
        True,
    ),
    "triangle_directed": (
        [1, 2, 3],
        [(1, 1, 2, 1.0, "a"), (2, 2, 3, 2.0, "b"), (3, 3, 1, 3.0, "a")],
        True,
    ),
    "triangle_undirected": (
        [1, 2, 3],
        [(1, 1, 2, 1.0, "a"), (2, 2, 3, 2.0, "b"), (3, 3, 1, 3.0, "a")],
        False,
    ),
    "grid6": (list(range(36)), grid_edges(6), False),
}

#: ``(scan, start ids, spec keywords, SPScan max_paths_per_vertex)``;
#: ``label_a`` stands for a ``Edges[0..*].label = 'a'`` filter.
SCANS = {
    "dfs_all": ("dfs", None, {"max_length": 3}, None),
    "dfs_from_first": ("dfs", "first", {"max_length": 4}, None),
    "dfs_to_last": ("dfs", "first", {"max_length": 4, "target": "last"}, None),
    "dfs_cycles": ("dfs", None, {"max_length": 4, "target_is_start": True}, None),
    "dfs_label_a": ("dfs", None, {"max_length": 3, "label_a": True}, None),
    "bfs_all": ("bfs", None, {"max_length": 3}, None),
    "bfs_from_first": ("bfs", "first", {"max_length": 4}, None),
    "bfs_cycles": ("bfs", None, {"max_length": 4, "target_is_start": True}, None),
    "visited_once": ("bfs", "first", {"unique_vertices": True}, None),
    "visited_once_to_last": (
        "bfs", "first", {"unique_vertices": True, "target": "last"}, None),
    "visited_once_all": ("bfs", None, {"unique_vertices": True}, None),
    "sp_from_first": ("sp", "first", {}, 1),
    "sp_to_last": ("sp", "first", {"target": "last"}, 1),
    "sp_top2_to_last": ("sp", "first", {"target": "last"}, 2),
    "sp_top3": ("sp", "first", {"max_length": 4}, 3),
    "sp_label_a": ("sp", "first", {"label_a": True}, 1),
}


def run_case(graph_name, scan_name):
    vertices, edges, directed = GRAPHS[graph_name]
    view = make_graph_view(vertices, edges, directed=directed)[0]
    scan, starts, options, per_vertex = SCANS[scan_name]
    options = dict(options)
    if options.pop("label_a", False):
        options["edge_filters"] = [
            PositionalFilter(0, None, lambda e: view.edge_attribute(e, "label") == "a")
        ]
    if options.pop("target", None) == "last":
        options["target_vertex_id"] = vertices[-1]
    spec = TraversalSpec(**options)
    start_ids = [vertices[0]] if starts == "first" else None
    stats = TraversalStats()
    if scan == "sp":
        paths = shortest_paths(
            view, start_ids, spec, view.edge_attribute_reader("w"),
            max_paths_per_vertex=per_vertex, stats=stats,
        )
    else:
        paths = (dfs_paths if scan == "dfs" else bfs_paths)(
            view, start_ids, spec, stats)
    emitted = [[p.path_string, p.cost] for p in paths]
    return {
        "paths": emitted,
        "stats": [stats.paths_emitted, stats.vertices_visited,
                  stats.edges_examined, stats.peak_frontier],
    }


CASES = [f"{graph}/{scan}" for graph in GRAPHS for scan in SCANS]


def load_golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def record():
    """Rewrite the counters; a case new to the file records its paths."""
    golden = load_golden()
    results = {case: run_case(*case.split("/")) for case in CASES}
    changed = [
        case for case, result in results.items()
        if case in golden and result["paths"] != golden[case]["paths"]
    ]
    if changed:
        sys.exit("paths differ from the golden file, not recording: "
                 + ", ".join(changed))
    lines = [f"{json.dumps(case)}: {json.dumps(results[case])}" for case in CASES]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


@pytest.mark.parametrize("case", CASES)
def test_scan_matches_golden(case):
    """The emitted paths, in order, with their costs."""
    assert run_case(*case.split("/"))["paths"] == load_golden()[case]["paths"]


@pytest.mark.parametrize("case", CASES)
def test_scan_counters_match_golden(case):
    assert run_case(*case.split("/"))["stats"] == load_golden()[case]["stats"]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    record()
