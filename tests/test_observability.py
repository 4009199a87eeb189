"""Tests for the observability layer: metrics registry, operator
tracing / EXPLAIN ANALYZE, slow-query log, and engine-seam gauges."""

import io
import sys
import threading

import pytest

from repro import Database, QueryBudget
from repro.errors import PlanningError
from repro.executor.operators import SeqScanOp
from repro.observability import (
    MetricsRegistry,
    QueryTracer,
    SlowQueryLog,
    get_registry,
    metrics_enabled,
    set_enabled,
)
from repro.ambient import activate, current_tracer
from repro.replication import (
    Primary,
    Replica,
    ReplicationManager,
)
from repro.resilience.faults import FaultInjector
from repro.shell import Shell


@pytest.fixture
def registry_enabled():
    """Metrics recording on, global registry cleared before and after."""
    was_enabled = metrics_enabled()
    set_enabled(True)
    get_registry().reset()
    yield get_registry()
    get_registry().reset()
    set_enabled(was_enabled)


def make_graph_db():
    db = Database()
    db.execute("CREATE TABLE V (id INTEGER PRIMARY KEY, name VARCHAR)")
    db.execute(
        "CREATE TABLE E (id INTEGER PRIMARY KEY, src INTEGER, dst INTEGER)"
    )
    for i in range(8):
        db.execute(f"INSERT INTO V VALUES ({i}, 'v{i}')")
    edges = [(0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 4), (4, 0, 5), (5, 5, 6)]
    for edge_id, src, dst in edges:
        db.execute(f"INSERT INTO E VALUES ({edge_id}, {src}, {dst})")
    db.execute(
        "CREATE DIRECTED GRAPH VIEW G "
        "VERTEXES(ID = id, name = name) FROM V "
        "EDGES(ID = id, FROM = src, TO = dst) FROM E"
    )
    return db


class TestCounterGaugeHistogram:
    def test_counter_semantics(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc()
        counter.inc(4)
        assert registry.value("c_total") == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labeled_counters_are_independent(self):
        registry = MetricsRegistry()
        registry.counter("stmts_total", kind="Select").inc()
        registry.counter("stmts_total", kind="Insert").inc(2)
        assert registry.value("stmts_total", kind="Select") == 1
        assert registry.value("stmts_total", kind="Insert") == 2
        assert registry.value("stmts_total", kind="Delete") is None

    def test_gauge_semantics(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("lag")
        gauge.set(7)
        gauge.inc()
        gauge.dec(3)
        assert registry.value("lag") == 5

    def test_histogram_buckets_and_sum(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat_ms", buckets=(1.0, 10.0))
        for value in (0.5, 0.9, 5.0, 100.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(106.4)
        cumulative = histogram.cumulative_buckets()
        assert cumulative == [(1.0, 2), (10.0, 3), (float("inf"), 4)]

    def test_kind_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad name")
        with pytest.raises(ValueError):
            registry.counter("ok_total", **{"bad-label": "v"})

    def test_same_handle_returned(self):
        registry = MetricsRegistry()
        assert registry.counter("a_total") is registry.counter("a_total")

    # -- the unlocked repeat-call lookup --------------------------------

    def test_reset_forgets_cached_handles(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", kind="a").inc(3)
        registry.counter("hits_total", kind="a").inc()  # a repeat call
        registry.reset()
        counter = registry.counter("hits_total", kind="a")
        assert counter.value == 0
        counter.inc()
        assert registry.snapshot()["hits_total"]["samples"] == [
            {"labels": {"kind": "a"}, "value": 1}
        ]

    def test_kind_conflict_after_a_repeat_call(self):
        registry = MetricsRegistry()
        registry.counter("x_total", kind="a")
        registry.counter("x_total", kind="a")
        with pytest.raises(ValueError):
            registry.gauge("x_total", kind="a")

    def test_invalid_label_name_rejected_every_time(self):
        registry = MetricsRegistry()
        registry.counter("ok_total", good="v")
        registry.counter("ok_total", good="v")
        for _ in range(2):
            with pytest.raises(ValueError):
                registry.counter("ok_total", **{"bad-label": "v"})

    def test_unhashable_label_value_works(self):
        registry = MetricsRegistry()
        registry.counter("lists_total", shard=[1, 2]).inc()
        registry.counter("lists_total", shard=[1, 2]).inc()
        assert registry.value("lists_total", shard="[1, 2]") == 2

    def test_concurrent_increments_lose_nothing(self):
        registry = MetricsRegistry()

        def work():
            for _ in range(10_000):
                registry.counter("race_total", kind="x").inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert registry.value("race_total", kind="x") == 80_000


class TestPrometheusExposition:
    def test_golden_rendering(self):
        registry = MetricsRegistry()
        registry.counter("b_total", help="B things.", kind="x").inc(3)
        registry.counter("b_total", kind="a").inc()
        registry.gauge("a_gauge", help="An a.").set(1.5)
        registry.histogram("h_ms", buckets=(1.0, 5.0)).observe(2.0)
        expected = "\n".join(
            [
                "# HELP a_gauge An a.",
                "# TYPE a_gauge gauge",
                "a_gauge 1.5",
                "# HELP b_total B things.",
                "# TYPE b_total counter",
                'b_total{kind="a"} 1',
                'b_total{kind="x"} 3',
                "# TYPE h_ms histogram",
                'h_ms_bucket{le="1"} 0',
                'h_ms_bucket{le="5"} 1',
                'h_ms_bucket{le="+Inf"} 1',
                "h_ms_sum 2",
                "h_ms_count 1",
            ]
        )
        assert registry.render_prometheus() == expected

    def test_filter_keeps_matching_families(self):
        registry = MetricsRegistry()
        registry.counter("alpha_total").inc()
        registry.gauge("beta_gauge").set(2)
        text = registry.render_prometheus("alpha")
        assert "alpha_total" in text
        assert "beta_gauge" not in text

    def test_snapshot_is_json_shaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", kind="Select").inc()
        registry.histogram("h_ms", buckets=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["c_total"]["kind"] == "counter"
        assert snapshot["c_total"]["samples"][0]["labels"] == {
            "kind": "Select"
        }
        histogram = snapshot["h_ms"]["samples"][0]
        assert histogram["count"] == 1
        assert histogram["buckets"][-1]["le"] == "+Inf"


class TestTracerDisabledPath:
    def test_iter_returns_raw_generator_without_tracer(self):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER)")
        table = db.table("t")
        operator = SeqScanOp(table, 0, 1)
        assert current_tracer() is None
        iterator = iter(operator)
        # the untraced path must hand back the bare _rows generator:
        # no wrapper frame, no span bookkeeping
        assert iterator.gi_code is operator._rows().gi_code

    def test_no_spans_recorded_without_activation(self):
        db = make_graph_db()
        tracer = QueryTracer()
        db.execute("SELECT id FROM V WHERE id > 2")
        assert tracer.spans == []

    def test_wrap_used_when_tracer_active(self):
        db = make_graph_db()
        tracer = QueryTracer()
        with activate(tracer=tracer):
            db.execute("SELECT id FROM V WHERE id > 2")
        labels = [span.label for span in tracer.spans]
        # V's primary key answers ``id > 2`` with a range scan
        assert any("IndexRangeScan" in label for label in labels)


class TestExplainAnalyze:
    def test_actual_rows_on_three_operator_plan(self):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER)")  # no key: Filter over a scan
        for i in range(10):
            db.execute(f"INSERT INTO t VALUES ({i})")
        text = db.explain("SELECT a FROM t WHERE a > 1", analyze=True)
        lines = text.splitlines()
        assert "Project" in lines[0] and "rows=8" in lines[0]
        assert "Filter" in lines[1] and "rows=8" in lines[1]
        assert "SeqScan(t)" in lines[2] and "rows=10" in lines[2]
        assert lines[-1].startswith("Execution: 8 row(s) in ")

    def test_explain_statement_returns_result_set(self):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER)")
        result = db.execute("EXPLAIN SELECT a FROM t;")
        assert result.columns == ["QUERY PLAN"]
        assert any("SeqScan(t)" in line for (line,) in result.rows)
        # plain EXPLAIN never executes: no actuals
        assert all("actual" not in line for (line,) in result.rows)

    def test_explain_analyze_statement_has_actuals(self):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        result = db.execute("EXPLAIN ANALYZE SELECT a FROM t")
        assert any("(actual rows=1" in line for (line,) in result.rows)

    def test_paths_query_reports_traversal_stats(self):
        db = make_graph_db()
        sql = (
            "SELECT PS.EndVertex.Id FROM G.Paths PS "
            "WHERE PS.StartVertex.Id = 0 AND PS.Length = 2"
        )
        executed_rows = len(db.execute(sql).rows)
        text = db.explain(sql, analyze=True)
        path_scan_lines = [
            line for line in text.splitlines() if "PathScan(" in line
        ]
        assert len(path_scan_lines) == 1
        line = path_scan_lines[0]
        # acceptance: PathScan actual row count == executed result rows
        assert f"rows={executed_rows}" in line
        assert "[traversal mode=" in line
        assert "peak_frontier=" in line
        assert "vertices=" in line

    def test_correlated_probe_traversal_folded_into_join(self):
        db = make_graph_db()
        text = db.explain(
            "SELECT PS.PathString FROM V U, G.Paths PS "
            "WHERE PS.StartVertex.Id = U.id AND PS.Length = 1",
            analyze=True,
        )
        probe_lines = [
            line for line in text.splitlines() if "PathScanProbe" in line
        ]
        assert len(probe_lines) == 1
        assert "[traversal mode=" in probe_lines[0]
        assert "scans=8" in probe_lines[0]

    def test_never_executed_annotation(self):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        # LIMIT 0 stops before the scan is ever pulled
        text = db.explain("SELECT a FROM t LIMIT 0", analyze=True)
        assert "Execution: 0 row(s)" in text.splitlines()[-1]

    def test_budget_abort_renders_partial_actuals(self):
        db = make_graph_db()
        text = db.explain(
            "SELECT id FROM V",
            analyze=True,
            budget=QueryBudget(max_rows=2),
        )
        assert "Aborted: ResourceExhaustedError" in text

    def test_explain_on_dml_names_statement_kind(self):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER)")
        with pytest.raises(PlanningError, match=r"got Insert"):
            db.explain("INSERT INTO t VALUES (1)")
        # UPDATE / DELETE have an access plan to show, but are not run
        assert db.execute("EXPLAIN DELETE FROM t").rows == [
            ("Delete(t)",), ("  SeqScan(t)",),
        ]
        with pytest.raises(PlanningError, match=r"got Update"):
            db.execute("EXPLAIN ANALYZE UPDATE t SET a = 2")


class TestStatementMetrics:
    def test_statement_counters_and_histogram(self, registry_enabled):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("SELECT a FROM t")
        registry = registry_enabled
        assert registry.value("repro_statements_total", kind="Select") == 1
        assert registry.value("repro_statements_total", kind="Insert") == 1
        snapshot = registry.snapshot()
        assert snapshot["repro_statement_duration_ms"]["samples"][0]["count"] == 3

    def test_abort_counter(self, registry_enabled):
        db = make_graph_db()
        from repro.errors import ResourceExhaustedError

        with pytest.raises(ResourceExhaustedError):
            db.execute("SELECT id FROM V", budget=QueryBudget(max_rows=1))
        assert (
            registry_enabled.value(
                "repro_statement_aborts_total",
                cause="ResourceExhaustedError",
                kind="Select",
            )
            == 1
        )

    def test_disabled_registry_records_nothing(self, registry_enabled):
        set_enabled(False)
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER)")
        assert (
            registry_enabled.value("repro_statements_total", kind="CreateTable")
            is None
        )


class TestSlowQueryLog:
    def test_threshold_gates_recording(self):
        log = SlowQueryLog()
        assert not log.observe("SELECT 1", 100.0, 1, "Select")
        log.set_threshold(10.0)
        assert not log.observe("fast", 5.0, 0, "Select")
        assert log.observe("slow", 50.0, 3, "Select")
        entries = log.entries()
        assert len(entries) == 1
        assert entries[0].sql == "slow"
        assert entries[0].elapsed_ms == 50.0

    def test_capacity_is_bounded(self):
        log = SlowQueryLog(threshold_ms=0.0, capacity=2)
        for i in range(5):
            log.observe(f"q{i}", 1.0, 0, "Select")
        assert [e.sql for e in log.entries()] == ["q3", "q4"]

    def test_database_records_slow_statements(self, registry_enabled):
        db = Database()
        db.set_slow_query_threshold(0.0)  # everything is slow
        db.execute("CREATE TABLE t (a INTEGER)")
        kinds = [entry.kind for entry in db.slow_queries.entries()]
        assert "CreateTable" in kinds
        assert registry_enabled.value("repro_slow_queries_total") == 1


class TestReplicationGauges:
    @staticmethod
    def make_cluster(tmp_path, **kwargs):
        primary = Primary(str(tmp_path / "primary.log"))
        manager = ReplicationManager(
            primary, data_dir=str(tmp_path), **kwargs
        )
        manager.add_replica(Replica("r1", str(tmp_path)))
        manager.step(2)
        return manager

    def test_lag_gauge_under_delayed_acks(self, tmp_path, registry_enabled):
        injector = FaultInjector(seed=7, delay=1.0, max_delay_ticks=4)
        manager = self.make_cluster(
            tmp_path, ack_replicas=0, injector=injector
        )
        manager.execute("CREATE TABLE t (a INTEGER PRIMARY KEY)")
        manager.execute("INSERT INTO t VALUES (1)")
        manager.step(1)
        registry = registry_enabled
        lagged = registry.value("repro_replication_lag", replica="r1")
        assert lagged is not None and lagged > 0
        assert injector.counts["delay"] > 0
        manager.step(20)
        assert registry.value("repro_replication_lag", replica="r1") == 0
        shipped = registry.value("repro_replication_shipped_sequence")
        acked = registry.value(
            "repro_replication_acked_sequence", replica="r1"
        )
        assert shipped == acked == manager.primary.log.last_sequence

    def test_status_rows_carry_acked_and_shipped(self, tmp_path):
        manager = self.make_cluster(tmp_path)
        manager.execute("CREATE TABLE t (a INTEGER)")
        manager.step(4)
        rows = manager.status()
        assert rows[0]["acked"] == rows[0]["shipped"]
        replica_row = rows[1]
        assert replica_row["shipped"] - replica_row["acked"] == replica_row["lag"]


class TestShellMetricsCommand:
    @staticmethod
    def run_shell(lines, database=None):
        out = io.StringIO()
        shell = Shell(database=database, out=out)
        for line in lines:
            shell.feed_line(line)
        return out.getvalue()

    def test_metrics_nonempty_after_one_query(self, registry_enabled):
        output = self.run_shell(
            [
                "CREATE TABLE t (a INTEGER);",
                "SELECT a FROM t;",
                "\\metrics repro_statements",
            ]
        )
        assert "# TYPE repro_statements_total counter" in output
        assert 'repro_statements_total{kind="Select"} 1' in output

    def test_metrics_filter_and_empty_message(self, registry_enabled):
        registry_enabled.reset()
        output = self.run_shell(["\\metrics no_such_metric"])
        assert "(no metrics recorded)" in output

    def test_slow_command(self, registry_enabled):
        output = self.run_shell(
            [
                "\\slow 0",
                "CREATE TABLE t (a INTEGER);",
                ".slow",
                "\\slow off",
            ]
        )
        assert "slow-query threshold 0 ms" in output
        assert "CreateTable" in output
        assert "slow-query log off" in output


class TestUnifiedPrefixes:
    @staticmethod
    def run_shell(lines):
        out = io.StringIO()
        shell = Shell(database=Database(), out=out)
        for line in lines:
            shell.feed_line(line)
        return out.getvalue(), shell

    def test_backslash_tables_equals_dot_tables(self):
        output, _ = self.run_shell(
            ["CREATE TABLE t (a INTEGER);", "\\tables"]
        )
        assert "table       t" in output

    def test_dot_timeout_equals_backslash_timeout(self):
        output, shell = self.run_shell([".timeout 50"])
        assert "timeout 50 ms" in output
        assert shell.timeout_ms == 50

    def test_backslash_help_lists_metrics(self):
        output, _ = self.run_shell(["\\help"])
        assert "\\metrics" in output
        assert ".tables" in output
        assert "\\slow" in output

    def test_unknown_commands_both_prefixes(self):
        output, _ = self.run_shell([".frobnicate", "\\frobnicate"])
        assert output.count("unknown command") == 2
