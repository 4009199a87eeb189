"""Distributed tracing, the event journal, and the HTTP endpoint.

The contract under test: one client statement yields one trace whose
spans — client root, server statement, queue wait, execution, command
log fsync — share a single ``trace_id`` and nest correctly, retrievable
over the ``TRACES`` wire message and the per-node HTTP endpoint; and
control-plane transitions land in the bounded event journal in emission
order. Cross-*node* propagation (replication ship/apply, failover) is
pinned in ``tests/test_cluster.py``.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import ambient
from repro.client import Client
from repro.core.command_log import enable_command_log
from repro.core.database import Database
from repro.observability import events as observability_events
from repro.observability import tracing as observability_tracing
from repro.observability.http import ObservabilityHttpServer
from repro.observability.tracing import Span, SpanCollector, TraceContext
from repro.server import Server


@pytest.fixture(autouse=True)
def clean_observability():
    """Tracing on, process-wide collector and journal cleared."""
    was_enabled = observability_tracing.tracing_enabled()
    observability_tracing.set_tracing_enabled(True)
    observability_tracing.get_collector().clear()
    observability_events.get_journal().clear()
    yield
    observability_tracing.get_collector().clear()
    observability_events.get_journal().clear()
    observability_tracing.set_tracing_enabled(was_enabled)


# ----------------------------------------------------------------------
# TraceContext and the wire format
# ----------------------------------------------------------------------

class TestTraceContext:
    def test_wire_roundtrip(self):
        context = TraceContext.new()
        parsed = TraceContext.from_wire(context.to_wire())
        assert parsed is not None
        assert parsed.trace_id == context.trace_id
        assert parsed.span_id == context.span_id
        assert parsed.sampled is True

    def test_unsampled_flag_rides_the_wire(self):
        context = TraceContext.new(sampled=False)
        assert context.to_wire().endswith("-00")
        assert TraceContext.from_wire(context.to_wire()).sampled is False

    def test_child_shares_trace_and_parents_to_the_minter(self):
        root = TraceContext.new()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id
        assert child.sampled == root.sampled

    @pytest.mark.parametrize(
        "junk",
        [
            None,
            42,
            "",
            "garbage",
            "01-" + "a" * 32 + "-" + "b" * 16 + "-01",  # wrong version
            "00-" + "a" * 31 + "-" + "b" * 16 + "-01",  # short trace id
            "00-" + "a" * 32 + "-" + "b" * 15 + "-01",  # short span id
            "00-" + "g" * 32 + "-" + "b" * 16 + "-01",  # non-hex
            "00-" + "a" * 32 + "-" + "b" * 16,  # missing flags
        ],
    )
    def test_malformed_stamps_degrade_to_untraced(self, junk):
        assert TraceContext.from_wire(junk) is None


# ----------------------------------------------------------------------
# SpanCollector
# ----------------------------------------------------------------------

def _span(trace_id="t" * 32, name="x"):
    return Span(trace_id, observability_tracing.new_span_id(), None, name)


class TestSpanCollector:
    def test_ring_is_bounded(self):
        collector = SpanCollector(capacity=8)
        for i in range(20):
            collector.record(_span(name=f"s{i}"))
        assert len(collector) == 8
        assert collector.recorded == 20
        names = [s.name for s in collector.spans()]
        assert names == [f"s{i}" for i in range(12, 20)]

    def test_trace_filter_and_limit(self):
        collector = SpanCollector()
        collector.record(_span(trace_id="a" * 32, name="keep"))
        collector.record(_span(trace_id="b" * 32, name="drop"))
        collector.record(_span(trace_id="a" * 32, name="keep2"))
        kept = collector.spans(trace_id="a" * 32)
        assert [s.name for s in kept] == ["keep", "keep2"]
        assert [s.name for s in collector.spans(limit=1)] == ["keep2"]

    def test_sampling_rates(self):
        always = SpanCollector(sample_rate=1.0)
        never = SpanCollector(sample_rate=0.0)
        assert all(always.sample() for _ in range(50))
        assert not any(never.sample() for _ in range(50))
        assert never.dropped_unsampled == 50

    def test_export_is_json_ready(self):
        collector = SpanCollector()
        collector.record(_span(name="hello"))
        exported = json.loads(collector.export_json())
        assert exported[0]["name"] == "hello"
        assert set(exported[0]) == {
            "trace_id", "span_id", "parent_id", "name", "node",
            "started_at", "duration_ms", "attrs",
        }


# ----------------------------------------------------------------------
# ambient propagation and recording helpers
# ----------------------------------------------------------------------

class TestAmbientContext:
    def test_activate_installs_and_removes(self):
        context = TraceContext.new()
        assert ambient.current_trace() is None
        with ambient.activate(trace=context):
            assert ambient.current_trace() is context
        assert ambient.current_trace() is None

    def test_activate_none_is_a_noop(self):
        with ambient.activate(trace=None):
            assert ambient.current_trace() is None

    def test_ambient_is_per_thread(self):
        context = TraceContext.new()
        seen = []

        def probe():
            seen.append(ambient.current_trace())

        with ambient.activate(trace=context):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        assert seen == [None]

    def test_record_span_without_context_is_dropped(self):
        assert observability_tracing.record_span("orphan", 1.0) is None
        assert len(observability_tracing.get_collector()) == 0

    def test_record_span_skips_unsampled(self):
        context = TraceContext.new(sampled=False)
        with ambient.activate(trace=context):
            assert observability_tracing.record_span("x", 1.0) is None
            with observability_tracing.span("y") as unsampled:
                assert unsampled.context is None
        assert len(observability_tracing.get_collector()) == 0

    def test_leaf_span_parents_to_the_context(self):
        context = TraceContext.new()
        with ambient.activate(trace=context):
            span = observability_tracing.record_span(
                "leaf", 1.5, rows=3, skipme=None
            )
        assert span.parent_id == context.span_id
        assert span.span_id != context.span_id
        assert span.attrs == {"rows": 3}  # None attrs are dropped

    def test_own_span_is_the_context(self):
        """A span is the context it opens: ambient for its block, so
        what is recorded inside parents to it."""
        root = TraceContext.new()
        with ambient.activate(trace=root):
            with observability_tracing.span("stage") as opened:
                assert ambient.current_trace() is opened.context
                leaf = observability_tracing.record_span("leaf", 1.0)
            assert ambient.current_trace() is root
        stage = next(
            s for s in observability_tracing.get_collector().spans()
            if s.name == "stage"
        )
        assert stage.span_id == opened.context.span_id
        assert stage.parent_id == root.span_id
        assert leaf.parent_id == stage.span_id

    def test_span_without_a_trace_mints_nothing(self):
        with observability_tracing.span("server.statement") as opened:
            assert opened.context is None
            assert ambient.current_trace() is None
        assert len(observability_tracing.get_collector()) == 0

    def test_root_span_starts_a_trace(self):
        with observability_tracing.span.root("client.execute", True) as root:
            assert ambient.current_trace() is root.context
            with observability_tracing.span("inner") as inner:
                pass
        assert ambient.current_trace() is None
        assert root.context.parent_id is None
        assert inner.context.parent_id == root.context.span_id
        with observability_tracing.span.root("unsampled", False) as skipped:
            assert skipped.context is None
        names = [s.name for s in observability_tracing.get_collector().spans()]
        assert names == ["inner", "client.execute"]

    def test_span_context_manager_records_errors(self):
        context = TraceContext.new()
        with pytest.raises(ValueError):
            with ambient.activate(trace=context):
                with observability_tracing.span("boom"):
                    raise ValueError("nope")
        recorded = observability_tracing.get_collector().spans()
        assert recorded[-1].name == "boom"
        assert recorded[-1].attrs["error"] == "ValueError"
        assert ambient.current_trace() is None

    def test_node_label_scoping(self):
        assert ambient.current_node() == ""
        with ambient.adopt(ambient.Snapshot(TraceContext.new(), "n7")):
            assert ambient.current_node() == "n7"
            span = observability_tracing.record_span("x", 1.0)
            assert span.node == "n7"
        assert ambient.current_node() == ""
        assert ambient.current_trace() is None

    def test_disabled_tracing_records_nothing(self):
        observability_tracing.set_tracing_enabled(False)
        assert observability_tracing.recording_collector() is None
        with ambient.activate(trace=TraceContext.new()):
            assert observability_tracing.record_span("x", 1.0) is None
            with observability_tracing.span("y") as disabled:
                assert disabled.context is None
        assert len(observability_tracing.get_collector()) == 0


# ----------------------------------------------------------------------
# the event journal
# ----------------------------------------------------------------------

class TestEventJournal:
    def test_emit_orders_and_bounds(self):
        journal = observability_events.EventJournal(capacity=4)
        for i in range(10):
            journal.emit("tick", node="n1", i=i)
        events = journal.events()
        assert len(events) == 4
        assert [e.detail["i"] for e in events] == [6, 7, 8, 9]
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)

    def test_filters(self):
        journal = observability_events.EventJournal()
        journal.emit("a", node="n1")
        journal.emit("b", node="n2")
        journal.emit("a", node="n2")
        assert len(journal.events(kind="a")) == 2
        assert len(journal.events(node="n2")) == 2
        assert len(journal.events(kind="a", node="n2")) == 1
        assert len(journal.events(limit=1)) == 1

    def test_none_details_are_dropped(self):
        journal = observability_events.EventJournal()
        event = journal.emit("x", node="n1", keep=1, drop=None)
        assert event.detail == {"keep": 1}

    def test_process_journal_seq_is_shared(self):
        first = observability_events.emit("one")
        second = observability_events.emit("two")
        assert second.seq == first.seq + 1


# ----------------------------------------------------------------------
# end to end: one statement, one trace, all the seams
# ----------------------------------------------------------------------

@pytest.fixture
def logged_server(tmp_path):
    db = Database()
    log = enable_command_log(db, str(tmp_path / "cmd.log"))
    server = Server(db).start()
    yield server
    server.shutdown(drain=False, timeout=5.0)
    log.detach()


class TestEndToEndTrace:
    def test_write_produces_one_nested_trace(self, logged_server):
        collector = observability_tracing.get_collector()
        with Client("127.0.0.1", logged_server.port) as client:
            client.execute("CREATE TABLE t (a INTEGER)")
            collector.clear()
            client.execute("INSERT INTO t VALUES (1)")
        spans = {s.name: s for s in collector.spans()}
        for name in (
            "client.execute", "server.statement", "queue.wait",
            "db.execute", "log.fsync",
        ):
            assert name in spans, sorted(spans)
        trace_ids = {s.trace_id for s in spans.values()}
        assert len(trace_ids) == 1
        root = spans["client.execute"]
        statement = spans["server.statement"]
        assert root.parent_id is None
        assert statement.parent_id == root.span_id
        for leaf in ("queue.wait", "db.execute", "log.fsync"):
            assert spans[leaf].parent_id == statement.span_id

    def test_traces_wire_message_filters_by_trace(self, logged_server):
        collector = observability_tracing.get_collector()
        with Client("127.0.0.1", logged_server.port) as client:
            client.execute("CREATE TABLE t (a INTEGER)")
            client.execute("INSERT INTO t VALUES (1)")
            root = next(
                s for s in collector.spans()
                if s.name == "client.execute" and "INSERT" in s.attrs["sql"]
            )
            spans = client.traces(trace_id=root.trace_id)
            assert spans
            assert {s["trace_id"] for s in spans} == {root.trace_id}
            limited = client.traces(limit=2)
            assert len(limited) == 2

    def test_prepared_statements_are_traced(self, logged_server):
        collector = observability_tracing.get_collector()
        with Client("127.0.0.1", logged_server.port) as client:
            client.execute("CREATE TABLE t (a INTEGER)")
            client.execute("INSERT INTO t VALUES (7)")
            prepared = client.prepare("SELECT a FROM t WHERE a = ?")
            collector.clear()
            assert prepared.execute(7).rows == [(7,)]
        names = {s.name for s in collector.spans()}
        assert "client.execute" in names
        assert "server.statement" in names

    def test_disabled_tracing_stamps_nothing(self, logged_server):
        observability_tracing.set_tracing_enabled(False)
        collector = observability_tracing.get_collector()
        with Client("127.0.0.1", logged_server.port) as client:
            client.execute("CREATE TABLE t (a INTEGER)")
            client.execute("INSERT INTO t VALUES (1)")
        assert len(collector) == 0

    def test_slowlog_entries_carry_trace_and_session(self, logged_server):
        logged_server.db.set_slow_query_threshold(0.0)
        with Client("127.0.0.1", logged_server.port) as client:
            client.execute("CREATE TABLE t (a INTEGER)")
            report = client.slow_queries()
            assert report["threshold_ms"] == 0.0
            entry = next(
                e for e in report["entries"] if "CREATE" in e["sql"]
            )
            assert entry["session"].startswith("conn-")
            assert len(entry["trace_id"]) == 32
            local = next(
                e for e in logged_server.db.slow_queries.entries()
                if "CREATE" in e.sql
            )
            assert local.trace_id == entry["trace_id"]

    def test_events_wire_message(self, logged_server):
        observability_events.emit("health", node="", **{
            "from": "healthy", "to": "degraded", "reason": "test",
        })
        with Client("127.0.0.1", logged_server.port) as client:
            events = client.events(kind="health")
            assert events
            assert events[-1]["detail"]["to"] == "degraded"
            assert client.events(kind="no_such_kind") == []


# ----------------------------------------------------------------------
# the HTTP endpoint
# ----------------------------------------------------------------------

def _get(url):
    with urllib.request.urlopen(url, timeout=5.0) as response:
        return response.status, response.read().decode("utf-8")


@pytest.fixture
def http_endpoint():
    server = ObservabilityHttpServer(
        port=0,
        node_name="n1",
        health_provider=lambda: {"state": "healthy", "role": "primary"},
    ).start()
    yield server
    server.stop()


class TestHttpEndpoint:
    def test_health_document(self, http_endpoint):
        status, body = _get(http_endpoint.url("/health"))
        assert status == 200
        payload = json.loads(body)
        assert payload["node"] == "n1"
        assert payload["state"] == "healthy"

    def test_metrics_text_and_root_alias(self, http_endpoint):
        status, body = _get(http_endpoint.url("/metrics"))
        assert status == 200
        status, root_body = _get(http_endpoint.url("/"))
        assert status == 200
        assert root_body == body

    def test_events_with_filters(self, http_endpoint):
        observability_events.emit("election_won", node="n1", epoch=2)
        observability_events.emit("heartbeat", node="n1")
        status, body = _get(
            http_endpoint.url("/events?kind=election_won")
        )
        assert status == 200
        payload = json.loads(body)
        assert [e["kind"] for e in payload["events"]] == ["election_won"]

    def test_traces_with_filters(self, http_endpoint):
        context = TraceContext.new()
        with ambient.activate(trace=context):
            observability_tracing.record_span("a", 1.0)
        with ambient.activate(trace=TraceContext.new()):
            observability_tracing.record_span("b", 1.0)
        status, body = _get(
            http_endpoint.url(f"/traces?trace_id={context.trace_id}")
        )
        payload = json.loads(body)
        assert [s["name"] for s in payload["spans"]] == ["a"]
        status, body = _get(http_endpoint.url("/traces?limit=1"))
        assert len(json.loads(body)["spans"]) == 1

    def test_unknown_route_is_404(self, http_endpoint):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(http_endpoint.url("/nope"))
        assert excinfo.value.code == 404


# ----------------------------------------------------------------------
# router fan-out: one statement, one trace across every shard
# ----------------------------------------------------------------------

class TestRouterTraceContinuity:
    """A routed statement must keep ONE trace_id across the client,
    the router (statement + fanout + forward spans), the router's
    backend clients, and the shard servers' own statement spans."""

    @pytest.fixture
    def sharded(self):
        from repro.sharding import start_sharded, stop_sharded

        router, shards = start_sharded(2)
        yield router, shards
        stop_sharded(router, shards)

    def test_scatter_read_is_one_trace(self, sharded):
        router, shards = sharded
        collector = observability_tracing.get_collector()
        with Client("127.0.0.1", router.port) as client:
            client.execute(
                "CREATE TABLE KV (k INTEGER PRIMARY KEY, v INTEGER) "
                "PARTITION BY k"
            )
            client.execute("INSERT INTO KV VALUES (1, 1), (2, 2), (3, 3)")
            collector.clear()
            assert client.execute(
                "SELECT COUNT(*) FROM KV"
            ).rows == [(3,)]
        root = next(
            s for s in collector.spans() if s.name == "client.execute"
            and s.parent_id is None
        )
        spans = collector.spans(trace_id=root.trace_id)
        names = [s.name for s in spans]
        assert "router.statement" in names
        assert "router.fanout" in names
        # the backend clients and the shard servers joined the trace
        # instead of minting their own roots
        assert names.count("server.statement") >= 2
        backend_roots = [
            s for s in spans
            if s.name == "client.execute" and s.span_id != root.span_id
        ]
        assert len(backend_roots) == 2
        assert all(s.parent_id is not None for s in backend_roots)
        fanout = next(s for s in spans if s.name == "router.fanout")
        assert fanout.attrs.get("mode") == "scatter"
        statement = next(s for s in spans if s.name == "router.statement")
        assert statement.node == "router"
        # nothing leaked into other traces
        stray = [
            s for s in collector.spans()
            if s.trace_id != root.trace_id
        ]
        assert stray == []

    def test_fast_path_and_write_share_the_trace(self, sharded):
        router, shards = sharded
        collector = observability_tracing.get_collector()
        with Client("127.0.0.1", router.port) as client:
            client.execute(
                "CREATE TABLE KV (k INTEGER PRIMARY KEY, v INTEGER) "
                "PARTITION BY k"
            )
            collector.clear()
            client.execute("INSERT INTO KV VALUES (5, 25)")
            insert_root = next(
                s for s in collector.spans()
                if s.name == "client.execute" and s.parent_id is None
            )
            insert_spans = collector.spans(trace_id=insert_root.trace_id)
            fanout = next(
                s for s in insert_spans if s.name == "router.fanout"
            )
            assert fanout.attrs.get("mode") == "write"
            collector.clear()
            assert client.execute(
                "SELECT v FROM KV WHERE k = 5"
            ).rows == [(25,)]
        read_root = next(
            s for s in collector.spans()
            if s.name == "client.execute" and s.parent_id is None
        )
        read_spans = collector.spans(trace_id=read_root.trace_id)
        read_names = [s.name for s in read_spans]
        assert "router.statement" in read_names
        assert read_names.count("router.forward") == 1
        assert "server.statement" in read_names

    def test_routed_traces_are_trees(self, sharded):
        """Scatter read, fast-path read and multi-shard write: each
        trace is one tree — unique span ids, every parent recorded,
        backend hops under the router span that made them, and every
        span the router's threads record attributed to the router."""
        router, shards = sharded
        collector = observability_tracing.get_collector()
        statements = [
            "INSERT INTO KV VALUES (1, 10), (2, 20), (3, 30), (4, 40)",
            "SELECT COUNT(*) FROM KV",
            "SELECT v FROM KV WHERE k = 3",
        ]
        with Client("127.0.0.1", router.port) as client:
            client.execute(
                "CREATE TABLE KV (k INTEGER PRIMARY KEY, v INTEGER) "
                "PARTITION BY k"
            )
            for sql in statements:
                collector.clear()
                client.execute(sql)
                _assert_routed_tree(sql, collector.spans())


def _assert_routed_tree(sql, spans):
    by_id = {s.span_id: s for s in spans}
    assert len(by_id) == len(spans), (sql, [s.as_dict() for s in spans])
    assert len({s.trace_id for s in spans}) == 1, sql
    roots = [s for s in spans if s.parent_id is None]
    assert [s.name for s in roots] == ["client.execute"], sql
    for s in spans:
        assert s.parent_id is None or s.parent_id in by_id, (sql, s.as_dict())
    hops = [
        s for s in spans if s.name == "client.execute" and s is not roots[0]
    ]
    assert hops, sql
    for hop in hops:
        assert by_id[hop.parent_id].name in ("router.fanout", "router.forward")

    def on_router(span):
        # the nearest statement span above decides which node recorded it
        while span.name not in ("router.statement", "server.statement"):
            if span.parent_id is None:
                return False
            span = by_id[span.parent_id]
        return span.name == "router.statement"

    router_spans = [s for s in spans if on_router(s)]
    assert {s.name for s in router_spans} >= {
        "router.statement", "client.execute"
    }, sql
    assert {s.node for s in router_spans} == {"router"}, (
        sql, [s.as_dict() for s in router_spans]
    )
