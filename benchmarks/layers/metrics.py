"""The metric tables: every name the benchmark emits, with its unit.

``BENCHMARK.json`` repeats names, units, directions and bounds for the
driver; ``test_smoke.py`` asserts the two agree. What ``BENCHMARK.json``
cannot hold — which layer metrics are derived by subtraction and which
end-to-end metric each should move — lives here and is copied into
``results.json``.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float  # share of the parent's median it may worsen by


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    derived: bool  # obtained by subtraction, the layer has no entry point
    moves: str  # the end-to-end metric @ workload this number should move


#: Bounds are three times the run-to-run spread seen on the reference box
#: (a shared 2-core VM): under 3 % in-process, but up to 7.6 % for
#: ``serve_mixed``, whose round trips ride on the host's thread wake-up
#: latency; a bound holds for all workloads, and 0.25 is the most allowed.
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("ops_per_s", "1/s", "higher", 0.25),
    EndToEnd("read_p50_us", "us", "lower", 0.25),
    EndToEnd("read_p95_us", "us", "lower", 0.25),
    EndToEnd("write_p50_us", "us", "lower", 0.25),
    EndToEnd("write_p95_us", "us", "lower", 0.25),
    EndToEnd("paths_p50_us", "us", "lower", 0.25),
    EndToEnd("paths_p95_us", "us", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.05),
)

PER_LAYER: Tuple[PerLayer, ...] = (
    PerLayer("sql.parse_us", "us", "lower", False,
             "read_p50_us, ops_per_s @ kv_adhoc"),
    PerLayer("sql.distinct_text_share", "ratio", "lower", False,
             "ceiling of any text-keyed cache @ kv_adhoc"),
    PerLayer("planner.plan_us", "us", "lower", True,
             "read_p50_us @ kv_adhoc; setup_s elsewhere"),
    PerLayer("planner.scan_fallback_ops", "count", "lower", False,
             "read_p50_us @ kv_adhoc"),
    PerLayer("executor.exec_us", "us", "lower", False,
             "read_p50_us @ kv_adhoc, serve_mixed"),
    PerLayer("executor.rows_examined_per_row", "ratio", "lower", False,
             "read_p50_us, write_p50_us @ kv_adhoc"),
    PerLayer("executor.dml_us", "us", "lower", True,
             "write_p50_us @ kv_adhoc, graph_update"),
    PerLayer("storage.insert_us", "us", "lower", False,
             "write_p50_us @ kv_adhoc, graph_update"),
    PerLayer("storage.delete_us", "us", "lower", False,
             "write_p50_us @ kv_adhoc, graph_update"),
    PerLayer("storage.lookup_us", "us", "lower", False,
             "read_p50_us @ kv_adhoc once reads reach an index"),
    PerLayer("core.execute_overhead_us", "us", "lower", True,
             "read_p50_us @ kv_adhoc, serve_mixed"),
    PerLayer("core.log_append_us", "us", "lower", True,
             "write_p50_us @ serve_mixed"),
    PerLayer("core.fsyncs_per_write", "ratio", "higher", False,
             "guards lost acked writes @ serve_mixed; must stay >= 1.0"),
    PerLayer("core.log_bytes_per_write", "B", "lower", False,
             "write_p50_us @ serve_mixed"),
    PerLayer("graph.traverse_us_per_edge", "us", "lower", False,
             "paths_p50_us, ops_per_s @ graph_query"),
    PerLayer("graph.edges_per_path", "ratio", "lower", False,
             "wasted work; paths_p50_us @ graph_query"),
    PerLayer("graph.vertices_per_path", "ratio", "lower", False,
             "wasted work; paths_p50_us @ graph_query"),
    PerLayer("graph.peak_frontier", "count", "lower", False,
             "peak_rss_mb @ graph_query"),
    PerLayer("graph.reach_us", "us", "lower", False,
             "paths_p50_us @ graph_query"),
    PerLayer("graph.sp_us", "us", "lower", False,
             "paths_p50_us, paths_p95_us @ graph_query"),
    PerLayer("graph.hop2_us", "us", "lower", False,
             "paths_p50_us @ graph_query, serve_mixed"),
    PerLayer("graph.tri_ms", "ms", "lower", False,
             "paths_p95_us, ops_per_s @ graph_query"),
    PerLayer("graph.fixed_us", "us", "lower", False,
             "paths_p50_us @ serve_mixed, graph_update"),
    PerLayer("graph.maintain_us_per_row", "us", "lower", True,
             "write_p50_us @ graph_update"),
    PerLayer("graph.view_build_s", "s", "lower", False, "setup_s"),
    PerLayer("graph.topology_bytes_per_edge", "B", "lower", False,
             "peak_rss_mb"),
    PerLayer("server.rtt_us", "us", "lower", False,
             "read_p50_us, ops_per_s @ serve_mixed"),
    PerLayer("server.encode_us_per_row", "us", "lower", False,
             "read_p95_us @ serve_mixed"),
    PerLayer("server.decode_us_per_row", "us", "lower", False,
             "read_p95_us @ serve_mixed"),
    PerLayer("server.bytes_per_op", "B", "lower", False,
             "read_p50_us @ serve_mixed"),
    PerLayer("server.frames_per_op", "ratio", "lower", False,
             "read_p50_us @ serve_mixed"),
    PerLayer("server.sched_read_us", "us", "lower", False,
             "read_p50_us, read_p95_us @ serve_mixed"),
    PerLayer("server.sched_write_us", "us", "lower", False,
             "write_p50_us, write_p95_us @ serve_mixed"),
    PerLayer("server.wire_overhead_us", "us", "lower", True,
             "read_p50_us, ops_per_s @ serve_mixed"),
    PerLayer("client.overhead_us", "us", "lower", False,
             "read_p50_us @ serve_mixed"),
    PerLayer("observability.trace_overhead_share", "ratio", "lower", False,
             "none: the benchmark's own cost"),
)

UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}
