"""Per-layer probes: each layer under ``src/repro`` timed or counted at a
public entry point, on the inputs of the workload built for that layer
(``kv_adhoc`` for sql / planner / executor / storage / core façade,
``graph_query`` for graph, ``serve_mixed`` for server / client / command
log). "Derived" numbers are differences of two timings, because the layer
has no public entry point of its own.
"""

from __future__ import annotations

import os
import socket
import statistics
import tempfile
from typing import Any, Callable, Dict, List, Sequence

from repro import Database
from repro.client import Client
from repro.core.command_log import enable_command_log
from repro.graph.traversal import (
    TraversalSpec,
    TraversalStats,
    bfs_paths,
    dfs_paths,
    shortest_paths,
)
from repro.server import SingleWriterScheduler, encode_frame, read_frame
from repro.sql.parser import parse_statement

from . import graph_query, kv_adhoc, serve_mixed
from .harness import OUT_DIR, Tracer, now, plan_shape, run_rep
from .wire import StubServer

#: Operations sampled from a workload's list where a probe does not need
#: all of them.
SAMPLE = 300


def median_us(call: Callable[[Any], Any], inputs: Sequence[Any]) -> float:
    """Median microseconds of ``call(x)`` over ``inputs``."""
    samples = []
    for value in inputs:
        t0 = now()
        call(value)
        samples.append(now() - t0)
    return statistics.median(samples) * 1e6


def paired_us(first: Callable[[Any], Any], second: Callable[[Any], Any],
              inputs: Sequence[Any]) -> float:
    """Median microseconds by which ``first(x)`` is slower than
    ``second(x)``, each pair timed back to back so that a drifting machine
    speed cancels: the derived metrics are small differences of large
    numbers."""
    samples = []
    for value in inputs:
        t0 = now()
        first(value)
        t1 = now()
        second(value)
        samples.append((t1 - t0) - (now() - t1))
    return statistics.median(samples) * 1e6


def batched_us(call: Callable[[Any], Any], inputs: Sequence[Any],
               batch: int = 100) -> float:
    """Median microseconds per call, timed in batches because one call is
    shorter than the clock can resolve."""
    samples = []
    for start in range(0, len(inputs) - batch + 1, batch):
        chunk = inputs[start:start + batch]
        t0 = now()
        for value in chunk:
            call(value)
        samples.append((now() - t0) / batch)
    return statistics.median(samples) * 1e6


class Probes:
    """Collects the per-layer metrics and the probes' own correctness."""

    def __init__(self, seed: int, scale: float):
        self.seed = seed
        self.scale = scale
        self.values: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def absorb(self, rep) -> None:
        """Count a repetition's operations among the probes' checks."""
        self.attempted += rep.attempted
        self.failed += rep.failed
        self.errors += rep.errors

    def run(self) -> "Probes":
        self.relational()
        self.graph()
        self.command_log()
        self.scheduler()
        self.framing()
        self.client()
        self.served()
        return self

    # -- sql, planner, executor, storage, core façade: kv_adhoc's inputs ----

    def relational(self) -> None:
        rows, graph = kv_adhoc.dataset()
        db = kv_adhoc.build(rows, graph)
        ops = kv_adhoc.operations(self.seed, self.scale, rows, graph)
        texts = [op.text for op in ops]
        selects = [op.text for op in ops if op.kind == "read"][:SAMPLE]
        writes = [op.text for op in ops if op.kind == "write"]

        self.values["sql.parse_us"] = median_us(parse_statement, texts)
        self.values["sql.distinct_text_share"] = len(set(texts)) / len(texts)
        self.values["planner.plan_us"] = paired_us(
            db.prepare, parse_statement, selects)

        # access paths: a key-equality read that plans onto a scan
        key_reads = [op for op in ops if op.cls in ("point_read", "group_read")]
        shapes = {text: plan_shape(db.explain(text))
                  for text in {op.text for op in key_reads}}
        self.values["planner.scan_fallback_ops"] = sum(
            "SeqScan" in shapes[op.text] for op in key_reads)

        queries = [db.prepare(text) for text in selects]
        self.values["executor.exec_us"] = median_us(
            lambda query: query.execute(), queries)
        examined = returned = 0
        for text in selects:
            plan = db.explain(text, analyze=True).splitlines()
            examined += _actual_rows(plan[-2])  # the leaf operator
            returned += _actual_rows(plan[0])
        self.values["executor.rows_examined_per_row"] = examined / returned

        self.values["core.execute_overhead_us"] = paired_us(
            db.execute, lambda text: db.prepare(text).execute(), selects)
        self.values["executor.dml_us"] = paired_us(
            db.execute, parse_statement, writes)
        self.expect(sorted(db.table("KV").rows()) == sorted(rows),
                    "kv probe: the paired UPDATEs did not restore KV")

        # storage, on a table no graph view listens to
        db.execute("CREATE TABLE Scratch (k INTEGER PRIMARY KEY, g INTEGER, "
                   "v INTEGER)")
        db.execute("CREATE INDEX scratch_g ON Scratch (g)")
        table = db.table("Scratch")
        index = table.find_index_on("g")
        pointers: List[Any] = []
        self.values["storage.insert_us"] = batched_us(
            lambda row: pointers.append(table.insert(row)), rows)
        self.values["storage.lookup_us"] = batched_us(
            lambda row: index.lookup((row[1],)), rows)
        self.values["storage.delete_us"] = batched_us(
            lambda pointer: table.delete(pointer.slot), pointers)

    # -- graph: graph_query's inputs ---------------------------------------

    def graph(self) -> None:
        data = graph_query.dataset()
        db = graph_query.build(data)
        ops = graph_query.operations(self.seed, self.scale, data)
        prepared = {text: db.prepare(text) for text in graph_query.PREPARED}

        def class_median(*classes: str) -> float:
            chosen = [op for op in ops if op.cls in classes][:SAMPLE]
            for op in chosen[:20]:
                self.expect(
                    graph_query.check(op, prepared[op.text].execute(*op.params)),
                    f"graph probe: wrong answer for {op.cls} {op.params}")
            return median_us(
                lambda op: prepared[op.text].execute(*op.params), chosen)

        self.values["graph.reach_us"] = class_median("reach_2", "reach_4", "reach_6")
        self.values["graph.sp_us"] = class_median("shortest")
        self.values["graph.hop2_us"] = class_median("hop2")
        self.values["graph.tri_ms"] = class_median("triangles") / 1000.0

        # per-execution operator set-up: reachability of a direct neighbour
        followers = data["followers"]
        adjacent = [(src, dst) for _eid, src, dst, *_ in followers.edges[:SAMPLE]]
        reach = prepared[graph_query.REACH]
        self.values["graph.fixed_us"] = median_us(
            lambda pair: reach.execute(*pair), adjacent)

        # the traversals themselves, without the operators around them
        stats = TraversalStats()
        g_view, r_view = db.graph_view("G"), db.graph_view("R")
        weight_of = r_view.edge_attribute_reader("w")
        busy = 0.0
        for op in [op for op in ops if op.kind == "paths"][:SAMPLE]:
            if op.cls in ("reach_2", "reach_4", "reach_6"):
                source, target = op.params
                scan = bfs_paths(
                    g_view, [source],
                    TraversalSpec(target_vertex_id=target, unique_vertices=True),
                    stats)
            elif op.cls == "shortest":
                source, target = op.params
                scan = shortest_paths(
                    r_view, [source], TraversalSpec(target_vertex_id=target),
                    weight_of, stats=stats)
            elif op.cls == "hop2":
                scan = dfs_paths(
                    g_view, list(op.params),
                    TraversalSpec(min_length=2, max_length=2), stats)
            else:
                continue
            t0 = now()
            if op.cls == "hop2":
                for _path in scan:
                    pass
            else:
                next(scan, None)
            busy += now() - t0
        self.values["graph.traverse_us_per_edge"] = (
            busy * 1e6 / stats.edges_examined)
        self.values["graph.edges_per_path"] = (
            stats.edges_examined / stats.paths_emitted)
        self.values["graph.vertices_per_path"] = (
            stats.vertices_visited / stats.paths_emitted)
        self.values["graph.peak_frontier"] = stats.peak_frontier

        topology = g_view.topology
        self.values["graph.topology_bytes_per_edge"] = (
            topology.memory_estimate_bytes() / topology.edge_count)
        t0 = now()
        db.execute(
            "CREATE DIRECTED GRAPH VIEW G_again "
            "VERTEXES(ID = vid, vlabel = vlabel, vsel = vsel) FROM twitter_v "
            "EDGES(ID = eid, FROM = src, TO = dst, w = w, elabel = elabel, "
            "esel = esel) FROM twitter_e")
        self.values["graph.view_build_s"] = now() - t0
        db.execute("DROP GRAPH VIEW G_again")

        # topology maintenance per row: the same inserts and deletes on the
        # edge source with the view listening, then without
        edges = db.table("twitter_e")
        fresh = [(2_000_000 + i, src, dst, 1.0, "follows", 0)
                 for i, (_eid, dst, src, *_) in enumerate(followers.edges[:2000])]

        def insert_delete_us() -> float:
            pointers: List[Any] = []
            inserted = batched_us(
                lambda row: pointers.append(edges.insert(row)), fresh)
            return inserted + batched_us(
                lambda pointer: edges.delete(pointer.slot), pointers)

        attached = insert_delete_us()
        self.expect(topology.edge_count == edges.row_count,
                    "graph probe: topology lost track of the edge table")
        g_view.detach_maintenance_listeners()
        self.values["graph.maintain_us_per_row"] = attached - insert_delete_us()

    # -- core.command_log ---------------------------------------------------

    def command_log(self) -> None:
        """The same single-row INSERTs with the log attached (fsync per
        commit) and detached, in-process."""
        db = Database()
        db.execute("CREATE TABLE Events (eid INTEGER PRIMARY KEY, k INTEGER, "
                   "payload VARCHAR)")
        inserts = [f"INSERT INTO Events VALUES ({i}, {i}, 'payload-{i}')"
                   for i in range(2 * SAMPLE)]
        os.makedirs(OUT_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as directory:
            log = enable_command_log(
                db, os.path.join(directory, "probe.log"),
                sync=serve_mixed.FSYNC_POLICY)
            logged = median_us(db.execute, inserts[:SAMPLE])
            log.detach()
        self.values["core.log_append_us"] = (
            logged - median_us(db.execute, inserts[SAMPLE:]))

    # -- server.scheduler -----------------------------------------------------

    def scheduler(self) -> None:
        scheduler = SingleWriterScheduler()
        scheduler.start()
        try:
            calls = range(10 * SAMPLE)
            self.values["server.sched_read_us"] = batched_us(
                lambda _i: scheduler.run_read(_noop), calls)
            self.values["server.sched_write_us"] = median_us(
                lambda _i: scheduler.execute_write(_noop), calls[:SAMPLE])
        finally:
            scheduler.drain(timeout=10)

    # -- server.protocol --------------------------------------------------------

    def framing(self) -> None:
        """``encode_frame`` / ``read_frame`` on the ROWS frame of
        serve_mixed's 200-row group read, over a socketpair."""
        rows, _graph = serve_mixed.dataset()
        group = [[k, v] for k, g, v in rows if g == 0]
        message = {"type": "ROWS", "id": 1, "rows": group}
        repeats = range(SAMPLE)
        self.values["server.encode_us_per_row"] = (
            median_us(lambda _i: encode_frame(message), repeats) / len(group))
        frame = encode_frame(message)
        left, right = socket.socketpair()
        try:
            def send_and_read(_i: int) -> float:
                left.sendall(frame)
                t0 = now()
                read_frame(right)
                return now() - t0

            decode = statistics.median(send_and_read(i) for i in repeats)
        finally:
            left.close()
            right.close()
        self.values["server.decode_us_per_row"] = decode * 1e6 / len(group)

    # -- client ---------------------------------------------------------------------

    def client(self) -> None:
        stub = StubServer()
        client = Client(*stub.address, reconnect=False).connect()
        try:
            self.values["client.overhead_us"] = median_us(
                lambda _i: client.execute("SELECT 7"), range(2 * SAMPLE))
        finally:
            client.close()
            stub.close()

    # -- the serving path: serve_mixed's server, statements and relay ---------------------

    def served(self) -> None:
        instance = serve_mixed.setup(self.seed, self.scale)
        try:
            client = instance.connections[0][0]
            run_rep(instance, ops_per_lane=instance.block_len)  # warm
            instance.restore()
            self.values["server.rtt_us"] = median_us(
                lambda _i: client.ping(), range(2 * SAMPLE))

            # what the wire adds to a read under the workload's own load:
            # the read median of an untraced repetition (point reads are
            # 6 in 7 reads) against the same prepared point read in-process
            loaded = run_rep(instance)
            instance.restore()
            self.absorb(loaded)
            local = serve_mixed.build(*serve_mixed.dataset()).prepare(
                serve_mixed.POINT_READ)
            keys = [op.params[0] for op in instance.lanes[0]
                    if op.cls == "point_read"][:SAMPLE]
            self.values["server.wire_overhead_us"] = (
                statistics.median(loaded.latencies["read"]) * 1e6
                - median_us(lambda key: local.execute(key), keys))

            # one repetition through the byte-counting relay, bracketed by
            # the server's own fsync counter and the size of its log
            fsyncs_before = _fsyncs(client)
            bytes_before = os.path.getsize(instance.log_path)
            rep = run_rep(instance, Tracer())
            fsyncs = _fsyncs(client) - fsyncs_before
            log_bytes = os.path.getsize(instance.log_path) - bytes_before
            instance.restore()
            writes = sum(op.kind == "write" for lane in instance.lanes for op in lane)
            self.absorb(rep)
            self.values["core.fsyncs_per_write"] = fsyncs / writes
            self.values["core.log_bytes_per_write"] = log_bytes / writes
            self.values["server.bytes_per_op"] = instance.relay.bytes / rep.attempted
            self.values["server.frames_per_op"] = instance.relay.frames / rep.attempted
            self.expect(fsyncs >= writes,
                        "serve probe: fewer fsyncs than acknowledged writes")
        finally:
            instance.close()


def _noop() -> None:
    return None


def _actual_rows(plan_line: str) -> int:
    """``actual rows=N`` of one EXPLAIN ANALYZE line."""
    return int(plan_line.split("actual rows=", 1)[1].split()[0])


def _fsyncs(client: Client) -> int:
    for line in client.metrics("repro_commandlog_fsyncs_total").splitlines():
        if line.startswith("repro_commandlog_fsyncs_total"):
            return int(float(line.split()[-1]))
    return 0


