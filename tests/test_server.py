"""End-to-end tests of the network server against real sockets.

Everything here runs a real :class:`~repro.server.Server` on an
ephemeral port and talks to it with the real
:class:`~repro.client.Client` — the same code paths ``repro --serve`` /
``--connect`` use, including the single-writer scheduler, the
command-log hook, and disconnect cancellation.
"""

import json
import socket
import struct
import threading
import time

import pytest

from repro.client import Client
from repro.core.command_log import CommandLog, replay_log
from repro.core.database import Database
from repro.errors import ClientConnectionError, RemoteError
from repro.observability.metrics import get_registry
from repro.replication.digest import database_digest
from repro.server import Server, protocol


@pytest.fixture
def server():
    srv = Server(Database()).start()
    yield srv
    srv.shutdown(drain=False, timeout=10)


@pytest.fixture
def client(server):
    with Client(*server.address) as c:
        yield c


def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def build_graph(client, vertices=20):
    """A dense undirected graph: enough fan-out that a Length=6 path
    enumeration runs for many seconds unless cancelled."""
    client.execute("CREATE TABLE Users (uId INTEGER PRIMARY KEY)")
    client.execute(
        "CREATE TABLE Rel (relId INTEGER PRIMARY KEY, "
        "uId INTEGER, uId2 INTEGER)"
    )
    client.execute(
        "INSERT INTO Users VALUES "
        + ", ".join(f"({i})" for i in range(vertices))
    )
    edges = []
    k = 0
    for i in range(vertices):
        for j in range(vertices):
            if i != j:
                edges.append(f"({k}, {i}, {j})")
                k += 1
    client.execute("INSERT INTO Rel VALUES " + ", ".join(edges))
    client.execute(
        "CREATE UNDIRECTED GRAPH VIEW G VERTEXES(ID = uId) FROM Users "
        "EDGES(ID = relId, FROM = uId, TO = uId2) FROM Rel"
    )


class TestRoundtrip:
    def test_ddl_dml_select(self, client):
        client.execute("CREATE TABLE T (a INTEGER PRIMARY KEY, b VARCHAR)")
        result = client.execute("INSERT INTO T VALUES (1, 'x'), (2, 'y')")
        assert result.rowcount == 2
        result = client.execute("SELECT a, b FROM T ORDER BY a")
        assert result.columns == ["a", "b"]
        assert result.rows == [(1, "x"), (2, "y")]

    def test_result_streams_in_batches(self, client):
        client.execute("CREATE TABLE Big (a INTEGER PRIMARY KEY)")
        client.execute(
            "INSERT INTO Big VALUES "
            + ", ".join(f"({i})" for i in range(600))
        )
        result = client.execute("SELECT a FROM Big ORDER BY a")
        assert len(result.rows) == 600  # spans multiple ROWS frames
        assert result.rows[0] == (0,) and result.rows[-1] == (599,)

    def test_prepared_statements(self, client):
        client.execute("CREATE TABLE T (a INTEGER PRIMARY KEY, b VARCHAR)")
        client.execute("INSERT INTO T VALUES (1, 'x'), (2, 'y'), (3, 'z')")
        prepared = client.prepare("SELECT b FROM T WHERE a = ?")
        assert prepared.parameter_count == 1
        assert prepared.execute(2).rows == [("y",)]
        assert prepared.execute(3).rows == [("z",)]

    def test_error_codes_over_the_wire(self, client):
        with pytest.raises(RemoteError) as excinfo:
            client.execute("SELEKT broken")
        assert excinfo.value.code == "PARSE_ERROR"
        with pytest.raises(RemoteError) as excinfo:
            client.execute("SELECT * FROM Missing")
        assert excinfo.value.code == "PLANNING_ERROR"
        with pytest.raises(RemoteError) as excinfo:
            client.execute("INSERT INTO Missing VALUES (1)")
        assert excinfo.value.code == "CATALOG_ERROR"

    def test_budget_exceeded_code(self, client):
        client.execute("CREATE TABLE T (a INTEGER PRIMARY KEY)")
        client.execute("INSERT INTO T VALUES (1), (2), (3)")
        with pytest.raises(RemoteError) as excinfo:
            client.execute("SELECT * FROM T", budget={"max_rows": 1})
        assert excinfo.value.code == "BUDGET_EXCEEDED"

    def test_session_budget_timeout_code(self, client):
        build_graph(client, vertices=14)
        client.set_budget({"timeout_ms": 30})
        with pytest.raises(RemoteError) as excinfo:
            client.execute(
                "SELECT PS.PathString FROM G.Paths PS WHERE PS.Length = 6"
            )
        assert excinfo.value.code == "TIMEOUT"
        client.set_budget(None)
        assert client.execute("SELECT uId FROM Users WHERE uId = 1").rows

    def test_ping_and_metrics(self, client):
        assert client.ping() is True
        text = client.metrics("repro_server")
        assert "repro_server_sessions" in text


def wire_bytes(*messages):
    """Length-prefixed compact-JSON frames, encoded independently of
    ``encode_frame``: the byte contract a response must keep."""
    out = b""
    for message in messages:
        payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
        out += struct.pack(">I", len(payload)) + payload
    return out


@pytest.fixture
def session_writes(monkeypatch):
    """Every ``sendall`` made by a server session thread, in order."""
    writes = []
    sendall = socket.socket.sendall

    def recording(sock, data, *args):
        if threading.current_thread().name.startswith("repro-session-"):
            writes.append(bytes(data))
        return sendall(sock, data, *args)

    monkeypatch.setattr(socket.socket, "sendall", recording)
    return writes


class TestServingPath:
    """One thread per connection, one write per response."""

    def test_one_row_result_is_one_write(self, client, session_writes):
        client.execute("CREATE TABLE T (a INTEGER PRIMARY KEY)")
        client.execute("INSERT INTO T VALUES (7)")
        del session_writes[:]
        result = client.execute("SELECT a FROM T WHERE a = 7")
        request = client._next_id
        assert session_writes == [wire_bytes(
            {"type": "RESULT_HEAD", "id": request, "columns": ["a"]},
            {"type": "ROWS", "id": request, "rows": [[7]]},
            {"type": "RESULT_END", "id": request, "rows": 1,
             "rowcount": result.rowcount},
        )]

    def test_three_batch_result_is_one_write(self, client, session_writes):
        client.execute("CREATE TABLE Big (a INTEGER PRIMARY KEY)")
        client.execute(
            "INSERT INTO Big VALUES " + ", ".join(f"({i})" for i in range(600))
        )
        del session_writes[:]
        result = client.execute("SELECT a FROM Big ORDER BY a")
        request = client._next_id
        batches = [
            {"type": "ROWS", "id": request,
             "rows": [[i] for i in range(start, min(start + 256, 600))]}
            for start in (0, 256, 512)
        ]
        assert session_writes == [wire_bytes(
            {"type": "RESULT_HEAD", "id": request, "columns": ["a"]},
            *batches,
            {"type": "RESULT_END", "id": request, "rows": 600,
             "rowcount": result.rowcount},
        )]

    def test_one_thread_per_connection(self, server):
        with Client(*server.address, session="solo") as client:
            assert client.ping()
            named = [t.name for t in threading.enumerate() if "solo" in t.name]
            assert named == ["repro-session-solo"]

    def test_back_to_back_requests_answered_in_order(self, server):
        with Client(*server.address) as setup:
            setup.execute("CREATE TABLE T (a INTEGER PRIMARY KEY, b VARCHAR)")
            setup.execute("INSERT INTO T VALUES (1, 'x'), (2, 'y')")
        with socket.create_connection(server.address) as sock:
            protocol.send_frame(sock, {"type": "HELLO", "protocol": 1})
            assert protocol.read_frame(sock)["type"] == "HELLO_OK"
            protocol.send_frame(sock, {
                "type": "PREPARE", "id": 1, "sql": "SELECT b FROM T WHERE a = ?",
            })
            handle = protocol.read_frame(sock)["statement"]
            sock.sendall(b"".join(
                protocol.encode_frame({
                    "type": "EXECUTE", "id": request, "statement": handle,
                    "params": [key],
                })
                for request, key in ((2, 1), (3, 2))
            ))
            frames = [protocol.read_frame(sock) for _ in range(6)]
        assert [(f["type"], f["id"]) for f in frames] == [
            ("RESULT_HEAD", 2), ("ROWS", 2), ("RESULT_END", 2),
            ("RESULT_HEAD", 3), ("ROWS", 3), ("RESULT_END", 3),
        ]
        assert frames[1]["rows"] == [["x"]] and frames[4]["rows"] == [["y"]]

    def test_oversized_frame_is_an_error_not_a_dead_session(
        self, client, monkeypatch
    ):
        client.execute("CREATE TABLE Wide (k INTEGER PRIMARY KEY, pad VARCHAR)")
        client.execute("INSERT INTO Wide VALUES " + ", ".join(
            f"({i}, '{'x' * 400}')" for i in range(5)
        ))
        session = client.session_name
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 1000)
        with pytest.raises(RemoteError) as excinfo:
            client.execute("SELECT k, pad FROM Wide")
        assert excinfo.value.code == "PROTOCOL_ERROR"
        assert "1000-byte limit" in str(excinfo.value)
        # the same session goes on serving
        assert client.execute("SELECT 1 FROM Wide WHERE k = 1").rows == [(1,)]
        assert client.session_name == session
        assert client.stats["reconnects"] == 0


class TestAuth:
    def test_wrong_token_rejected_with_stable_code(self):
        server = Server(Database(), auth_token="sesame").start()
        try:
            with pytest.raises(RemoteError) as excinfo:
                Client(*server.address, auth="wrong").connect()
            assert excinfo.value.code == "AUTH_FAILED"
            with pytest.raises(RemoteError):
                Client(*server.address).connect()  # no token at all
            with Client(*server.address, auth="sesame") as ok:
                assert ok.ping()
        finally:
            server.shutdown(drain=False)


class TestReadOnlyReplica:
    def test_write_on_replica_maps_to_read_only_code(self):
        db = Database()
        db.execute("CREATE TABLE T (a INTEGER PRIMARY KEY)")
        db.set_role("replica")
        server = Server(db).start()
        try:
            with Client(*server.address) as client:
                assert client.server_role == "replica"
                with pytest.raises(RemoteError) as excinfo:
                    client.execute("INSERT INTO T VALUES (1)")
                assert excinfo.value.code == "READ_ONLY"
                assert client.execute("SELECT * FROM T").rows == []
        finally:
            server.shutdown(drain=False)


class TestStatementsParseOnce:
    """A statement is parsed once on its way through the server, the
    shard guard, the engine and the command log."""

    @pytest.fixture
    def parses(self, monkeypatch):
        from repro.sql.parser import Parser

        texts = []
        construct = Parser.__init__

        def counting(parser, text):
            texts.append(text)
            construct(parser, text)

        monkeypatch.setattr(Parser, "__init__", counting)
        return texts

    def test_wire_statements_on_a_logged_server(self, tmp_path, parses):
        db = Database()
        log = CommandLog(db, str(tmp_path / "server.log"))
        server = Server(db).start()
        try:
            with Client(*server.address) as client:
                client.execute("CREATE TABLE T (k INTEGER PRIMARY KEY)")
                del parses[:]
                client.execute("INSERT INTO T VALUES (1)")
                assert parses == ["INSERT INTO T VALUES (1)"]
                del parses[:]
                assert client.execute("SELECT k FROM T").rows == [(1,)]
                assert parses == ["SELECT k FROM T"]
        finally:
            server.shutdown(drain=False, timeout=10)
            log.detach()
        assert replay_log(str(log.path)).table("T").row_count == 1

    def test_in_process_execute_with_a_log(self, tmp_path, parses):
        db = Database()
        log = CommandLog(db, str(tmp_path / "c.log"))
        db.execute("CREATE TABLE T (k INTEGER)")
        assert parses == ["CREATE TABLE T (k INTEGER)"]
        log.detach()

    def test_shard_server_query(self, parses):
        shard_info = {"index": 0, "count": 2, "slots": 64, "version": 1}
        db = Database()
        db.execute("CREATE TABLE KV (k INTEGER PRIMARY KEY) PARTITION BY k")
        server = Server(db, shard_info=shard_info).start()
        try:
            with Client(*server.address, reconnect=False) as client:
                del parses[:]
                client.execute("SELECT k FROM KV")
                assert parses == ["SELECT k FROM KV"]
        finally:
            server.shutdown(drain=False, timeout=10)


class TestConcurrentClients:
    CLIENTS = 8
    WRITES_PER_CLIENT = 25

    def test_mixed_workload_writes_serialize_through_command_log(self, tmp_path):
        """8 concurrent clients; the command log's replay must rebuild a
        database identical to the live one — i.e. the single-writer
        queue produced one serial write history."""
        db = Database()
        log = CommandLog(db, str(tmp_path / "server.log"))
        server = Server(db).start()
        errors = []
        try:
            with Client(*server.address) as setup:
                setup.execute(
                    "CREATE TABLE Items (k INTEGER PRIMARY KEY, owner VARCHAR)"
                )
                build_graph(setup, vertices=8)

            def workload(index):
                def run():
                    try:
                        with Client(*server.address,
                                    session=f"w{index}") as client:
                            for i in range(self.WRITES_PER_CLIENT):
                                key = index * 1000 + i
                                client.execute(
                                    f"INSERT INTO Items VALUES "
                                    f"({key}, 'w{index}')"
                                )
                                if i % 5 == 0:
                                    rows = client.execute(
                                        "SELECT k FROM Items "
                                        f"WHERE owner = 'w{index}'"
                                    ).rows
                                    assert len(rows) == i + 1
                                if i % 9 == 0:
                                    client.execute(
                                        "SELECT PS.PathString FROM G.Paths PS"
                                        " WHERE PS.Length = 2"
                                        " AND PS.StartVertex.Id = 0"
                                    )
                    except Exception as error:  # pragma: no cover
                        errors.append(error)

                return run

            threads = [
                threading.Thread(target=workload(i))
                for i in range(self.CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors
            assert (
                db.table("Items").row_count
                == self.CLIENTS * self.WRITES_PER_CLIENT
            )
        finally:
            server.shutdown(drain=True, timeout=10)
            log.detach()
        replayed = replay_log(str(tmp_path / "server.log"))
        assert (
            database_digest(replayed)["combined"]
            == database_digest(db)["combined"]
        )


class TestDisconnectCancellation:
    def test_killed_client_cancels_its_traversal(self, server):
        with Client(*server.address) as setup:
            build_graph(setup, vertices=20)
        registry = get_registry()
        aborts_before = registry.value(
            "repro_statement_aborts_total",
            cause="QueryCancelledError", kind="Select",
        ) or 0

        victim = Client(*server.address, session="victim",
                        reconnect=False).connect()
        failure = {}

        def doomed():
            try:
                victim.execute(
                    "SELECT PS.PathString FROM G.Paths PS WHERE PS.Length = 6"
                )
            except ClientConnectionError:
                failure["kind"] = "connection"

        thread = threading.Thread(target=doomed)
        thread.start()
        assert wait_until(
            lambda: server.sessions.get("victim") is not None
            and server.sessions["victim"].active_token is not None
        ), "victim's traversal never started"

        # the kill: what the server sees when the client process dies
        victim._sock.shutdown(socket.SHUT_RDWR)
        thread.join(timeout=10)
        assert not thread.is_alive(), "traversal was not cancelled"
        assert failure.get("kind") == "connection"

        # no session leak: the server reaps the dead session...
        assert wait_until(lambda: "victim" not in server.sessions)
        # ...and the statement was aborted through the governor
        aborts_after = registry.value(
            "repro_statement_aborts_total",
            cause="QueryCancelledError", kind="Select",
        ) or 0
        assert aborts_after == aborts_before + 1
        victim._drop_connection()

    def test_queued_write_of_a_vanished_client_is_skipped(self):
        server = Server(Database()).start()
        try:
            with Client(*server.address) as setup:
                setup.execute("CREATE TABLE T (a INTEGER PRIMARY KEY)")
            gate = threading.Event()
            server.scheduler.submit_write(gate.wait)  # occupy the writer
            assert wait_until(lambda: server.scheduler.queue_depth == 0)
            executed = server.scheduler.writes_executed

            victim = Client(*server.address, session="gone",
                            reconnect=False).connect()
            failure = {}

            def doomed():
                try:
                    victim.execute("INSERT INTO T VALUES (1)")
                except ClientConnectionError:
                    failure["kind"] = "connection"

            thread = threading.Thread(target=doomed)
            thread.start()
            assert wait_until(lambda: server.scheduler.queue_depth == 1)
            victim._sock.shutdown(socket.SHUT_RDWR)
            thread.join(timeout=10)
            assert failure.get("kind") == "connection"
            # the session leaves while its write is still queued...
            assert wait_until(lambda: "gone" not in server.sessions)
            gate.set()
            # ...and the writer skips it: FIFO, so once this no-op has
            # run, the victim's ticket has been dealt with
            server.scheduler.execute_write(lambda: None)
            assert server.scheduler.writes_executed == executed + 2
            assert server.db.execute("SELECT a FROM T").rows == []
            victim._drop_connection()
        finally:
            server.shutdown(drain=False)


class TestBackpressure:
    def test_full_write_queue_returns_overloaded(self):
        server = Server(Database(), max_queue=1).start()
        try:
            with Client(*server.address) as setup:
                setup.execute("CREATE TABLE T (a INTEGER PRIMARY KEY)")
            gate = threading.Event()
            server.scheduler.submit_write(gate.wait)  # occupy the writer
            assert wait_until(lambda: server.scheduler.queue_depth == 0)
            blocked = threading.Event()
            server.scheduler.submit_write(blocked.wait)  # fill the queue

            with Client(*server.address) as client:
                with pytest.raises(RemoteError) as excinfo:
                    client.execute("INSERT INTO T VALUES (1)")
                assert excinfo.value.code == "OVERLOADED"
                # a read is never bounced by the clogged *write* queue:
                # it is admitted, waits for the in-flight write's
                # exclusive lock, and completes once the writer frees up
                rows = {}

                def read():
                    with Client(*server.address) as reader:
                        rows["value"] = reader.execute(
                            "SELECT * FROM T"
                        ).rows

                read_thread = threading.Thread(target=read)
                read_thread.start()
                gate.set()
                blocked.set()
                read_thread.join(timeout=10)
                assert not read_thread.is_alive()
                assert rows["value"] == []
                assert wait_until(lambda: server.scheduler.queue_depth == 0)
                client.execute("INSERT INTO T VALUES (1)")  # now admitted
                assert client.execute("SELECT * FROM T").rows == [(1,)]
        finally:
            server.shutdown(drain=False)


class TestGracefulDrain:
    def test_drain_finishes_in_flight_and_rejects_new(self):
        db = Database()
        server = Server(db).start()
        with Client(*server.address) as setup:
            setup.execute("CREATE TABLE T (a INTEGER PRIMARY KEY)")
        client = Client(*server.address, reconnect=False).connect()

        started = threading.Event()

        def slow_write():
            started.set()
            time.sleep(0.3)
            db.execute("INSERT INTO T VALUES (42)")

        # an admitted (in-flight) write the drain must wait for
        server.scheduler.submit_write(slow_write)
        started.wait(timeout=5)

        finished = {}

        def drain():
            finished["clean"] = server.shutdown(drain=True, timeout=10)

        drain_thread = threading.Thread(target=drain)
        drain_thread.start()
        assert wait_until(lambda: server.scheduler.draining)

        # new statements are rejected while draining
        try:
            client.execute("INSERT INTO T VALUES (43)")
            rejected_code = None
        except RemoteError as error:
            rejected_code = error.code
        except ClientConnectionError:
            rejected_code = "SHUTTING_DOWN"  # socket already torn down
        assert rejected_code == "SHUTTING_DOWN"

        drain_thread.join(timeout=15)
        assert finished.get("clean") is True
        # the in-flight write completed; the rejected one did not run
        assert db.execute("SELECT a FROM T").rows == [(42,)]
        client._drop_connection()

    def test_new_connections_refused_after_shutdown(self, server):
        address = server.address
        server.shutdown(drain=True, timeout=10)
        with pytest.raises(ClientConnectionError):
            Client(*address, connect_timeout=1.0).connect()


class TestClientReconnect:
    def test_reads_retry_transparently(self, server):
        with Client(*server.address) as client:
            client.execute("CREATE TABLE T (a INTEGER PRIMARY KEY)")
            client.execute("INSERT INTO T VALUES (1)")
            first_session = client.session_name
            client._sock.shutdown(socket.SHUT_RDWR)  # drop the connection
            assert client.execute("SELECT a FROM T").rows == [(1,)]
            assert client.session_name != first_session

    def test_writes_do_not_retry(self, server):
        with Client(*server.address) as client:
            client.execute("CREATE TABLE T (a INTEGER PRIMARY KEY)")
            client._sock.shutdown(socket.SHUT_RDWR)
            with pytest.raises(ClientConnectionError):
                client.execute("INSERT INTO T VALUES (1)")
            # the connection heals on the next (idempotent) request...
            assert client.execute("SELECT * FROM T").rows == []
            # ...and the un-retried write never applied
            client.execute("INSERT INTO T VALUES (1)")
            assert client.execute("SELECT * FROM T").rows == [(1,)]

    def test_prepared_statements_survive_reconnect(self, server):
        with Client(*server.address) as client:
            client.execute("CREATE TABLE T (a INTEGER PRIMARY KEY)")
            client.execute("INSERT INTO T VALUES (7)")
            prepared = client.prepare("SELECT a FROM T WHERE a = ?")
            client._sock.shutdown(socket.SHUT_RDWR)
            assert prepared.execute(7).rows == [(7,)]

    def test_session_budget_survives_reconnect(self, server):
        with Client(*server.address) as client:
            client.execute("CREATE TABLE T (a INTEGER PRIMARY KEY)")
            client.execute("INSERT INTO T VALUES (1), (2), (3)")
            client.set_budget({"max_rows": 2})
            client._sock.shutdown(socket.SHUT_RDWR)
            with pytest.raises(RemoteError) as excinfo:
                client.execute("SELECT * FROM T")
            assert excinfo.value.code == "BUDGET_EXCEEDED"


class TestSlowLogAttribution:
    def test_slow_statement_carries_session_label(self, server):
        server.db.set_slow_query_threshold(0.0)
        with Client(*server.address, session="alice") as client:
            client.execute("CREATE TABLE T (a INTEGER PRIMARY KEY)")
            client.execute("INSERT INTO T VALUES (1)")
            client.execute("SELECT * FROM T")
        sessions = {e.session for e in server.db.slow_queries.entries()}
        assert "alice" in sessions
