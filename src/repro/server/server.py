"""The network server: sessions, dispatch, and disconnect cancellation.

Threading model (one thread per connection, plus the single writer):

* the **session** thread is the thread that ran the connection's
  handshake, renamed ``repro-session-<name>``. It reads a request
  (through the session's buffered :class:`~repro.server.protocol.
  FrameReader`), runs it — reads inline under the scheduler's shared
  lock, writes through the single-writer queue — and answers with one
  ``sendall`` holding every frame of the response (a response past
  ``_FLUSH_BYTES`` goes out in pieces of that size, so a large
  ``PATHS`` result is not held twice). Only this thread touches the
  socket.
* **disconnect cancellation** rides the statement's own budget checks:
  every statement runs under a :class:`~repro.budget.CancellationToken`
  (an unlimited one when no budget level is configured) whose probe,
  at most once per ``_PROBE_INTERVAL_S``, takes whatever the client has
  sent without blocking. EOF or a socket error cancels the statement,
  so a client that dies is noticed within 64 ticks and 1 ms of
  statement time. A session waiting on a queued write probes from its
  wait loop, so a write whose client has gone is skipped before it
  starts.

Sessions die cleanly: the session thread's exit removes the session
from the registry, closes the socket, rolls back any transaction the
session left open, and drops its prepared statements.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Dict, Iterable, Optional, Tuple

from .. import ambient
from ..budget import CancellationToken, QueryBudget
from ..core.database import Database, PreparedQuery, statement_is_write
from ..errors import (
    DatabaseError,
    NotPrimaryError,
    PlanningError,
    ProtocolError,
)
from ..observability import events as observability_events
from ..observability import tracing as observability_tracing
from ..observability.metrics import get_registry, recording_registry
from . import protocol
from .protocol import ROW_BATCH, error_code_for
from .scheduler import SingleWriterScheduler

#: A response is sent in one write unless it grows past this many bytes.
_FLUSH_BYTES = 1 << 20

#: Least time between two disconnect probes of one running statement.
_PROBE_INTERVAL_S = 0.001


class Session:
    """One authenticated connection: its socket, budget, and statements.

    The thread that registers a session serves it, and only that thread
    reads or writes its socket and frame buffer.
    """

    def __init__(self, name: str, sock: socket.socket, address):
        self.name = name
        self.sock = sock
        self.address = address
        #: The client's frames: requests, and whatever a probe took in
        #: while a statement ran.
        self.frames = protocol.FrameReader(sock)
        #: Session-level budget (SET_BUDGET), tightened into every statement.
        self.budget: Optional[QueryBudget] = None
        #: Token of the statement this session is executing right now —
        #: its probe cancels it when the client disconnects.
        self.active_token: Optional[CancellationToken] = None
        self.disconnected = False
        #: handle -> PreparedQuery, handles minted by PREPARE.
        self.prepared: Dict[str, Any] = {}
        self._next_handle = 0
        self.statements = 0
        self._thread = threading.get_ident()
        self._next_probe = 0.0

    def mint_handle(self) -> str:
        self._next_handle += 1
        return f"s{self._next_handle}"

    def watch(self, token: CancellationToken) -> None:
        """Make ``token`` the running statement's: the one a disconnect
        cancels, found by its own budget checks."""
        token.probe = self.probe
        self.active_token = token

    def probe(self) -> None:
        """At most once per ``_PROBE_INTERVAL_S``, take what the client
        has sent without blocking; EOF or a socket error cancels the
        active statement."""
        if threading.get_ident() != self._thread:
            return  # the writer running this session's write
        now = time.monotonic()
        if now < self._next_probe:
            return
        self._next_probe = now + _PROBE_INTERVAL_S
        if self.frames.poll():
            return
        self.disconnected = True
        token = self.active_token
        if token is not None:
            token.cancel("client disconnected")

    def __repr__(self) -> str:
        return f"Session({self.name!r}, peer={self.address!r})"


class Server:
    """A TCP front end for one :class:`~repro.core.database.Database`.

    ::

        server = Server(db, host="127.0.0.1", port=7070)
        server.start()
        ...
        server.shutdown(drain=True)

    ``port=0`` binds an ephemeral port; read the real one from
    :attr:`address` (tests do exactly this).
    """

    def __init__(
        self,
        db: Database,
        host: str = "127.0.0.1",
        port: int = 0,
        auth_token: Optional[str] = None,
        max_queue: int = 64,
        backlog: int = 32,
        supervisor=None,
        cluster=None,
        shard_info=None,
    ):
        self.db = db
        self.host = host
        self.port = port
        self.auth_token = auth_token
        self.scheduler = SingleWriterScheduler(max_queue=max_queue)
        self.backlog = backlog
        #: Optional :class:`~repro.resilience.supervisor.Supervisor`;
        #: when set, HEALTH responses include its full status and its
        #: self-heal runs through this server's write scheduler.
        self.supervisor = supervisor
        if supervisor is not None:
            supervisor.scheduler = self.scheduler
        #: Optional cluster hook (a :class:`~repro.replication.node.
        #: ClusterNode`). When set: writes are gated on being the
        #: current primary (``NOT_PRIMARY`` + leader hint otherwise),
        #: acknowledged only after the cluster's semi-sync barrier,
        #: and ``CLUSTER_STATE`` / ``HEALTH`` expose replication state.
        self.cluster = cluster
        #: Optional shard identity (``{"index", "count", "slots",
        #: "version"}``). When set, this server is one shard of a
        #: partitioned deployment: single-partition statements whose
        #: bound key hashes to a *different* shard are rejected with
        #: ``SHARD_REDIRECT`` before execution (see
        #: :func:`~repro.sharding.shard_map.check_shard_ownership`).
        self.shard_info = shard_info
        self.sessions: Dict[str, Session] = {}
        self._sessions_lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._session_threads: list = []
        self._draining = False
        self._closed = False
        self._next_session = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — authoritative once started."""
        if self._listener is None:
            return (self.host, self.port)
        return self._listener.getsockname()[:2]

    def start(self) -> "Server":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(self.backlog)
        self._listener = listener
        self.port = listener.getsockname()[1]
        self.scheduler.start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Block until :meth:`shutdown` (for ``repro --serve``)."""
        if self._accept_thread is None:
            self.start()
        self._accept_thread.join()

    def shutdown(self, drain: bool = True, timeout: float = 10.0) -> bool:
        """Stop the server.

        With ``drain=True`` (graceful): stop accepting, let every
        admitted statement finish (new ones get ``SHUTTING_DOWN``),
        then close the sessions. With ``drain=False``: cancel what is
        running and tear down. Returns True when everything stopped
        within ``timeout``.
        """
        self._draining = True
        if self._listener is not None:
            # closing the fd does not reliably unblock a thread parked
            # in accept(); shutdown() does on Linux, and the self-connect
            # poke covers platforms where it raises ENOTCONN instead
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                self._poke_listener()
            try:
                self._listener.close()
            except OSError:
                pass
        if not drain:
            with self._sessions_lock:
                live = list(self.sessions.values())
            for session in live:
                token = session.active_token
                if token is not None:
                    token.cancel("server shutting down")
        finished = self.scheduler.drain(timeout=timeout)
        with self._sessions_lock:
            live = list(self.sessions.values())
        for session in live:
            self._close_socket(session)
        for thread in list(self._session_threads):
            thread.join(timeout=timeout)
            finished = finished and not thread.is_alive()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=timeout)
            finished = finished and not self._accept_thread.is_alive()
        self._closed = True
        return finished

    def _poke_listener(self) -> None:
        try:
            with socket.create_connection(self.address, timeout=1.0):
                pass
        except OSError:
            pass

    # ------------------------------------------------------------------
    # accept / handshake
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, address = self._listener.accept()
            except OSError:
                return  # listener closed: shutdown
            if self._draining:
                sock.close()
                continue
            # small request/response frames must not sit in Nagle's
            # buffer waiting for the peer's delayed ACK
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(
                target=self._handshake,
                args=(sock, address),
                name="repro-handshake",
                daemon=True,
            ).start()

    def _handshake(self, sock: socket.socket, address) -> None:
        """Run HELLO/AUTH on a fresh connection, then serve it as a
        session on this thread."""
        try:
            hello = protocol.read_frame(sock)
        except ProtocolError as error:
            self._send_safely(sock, {
                "type": "ERROR", "code": "PROTOCOL_ERROR", "message": str(error),
            })
            sock.close()
            return
        if hello is None:
            sock.close()
            return
        if hello.get("type") != "HELLO":
            self._send_safely(sock, {
                "type": "ERROR",
                "code": "PROTOCOL_ERROR",
                "message": "first frame must be HELLO",
            })
            sock.close()
            return
        if self.auth_token is not None and hello.get("auth") != self.auth_token:
            self._count_error("AUTH_FAILED")
            self._send_safely(sock, {
                "type": "ERROR",
                "code": "AUTH_FAILED",
                "message": "authentication token rejected",
            })
            sock.close()
            return
        session = self._register_session(hello, sock, address)
        hello_ok = {
            "type": "HELLO_OK",
            "protocol": protocol.PROTOCOL_VERSION,
            "session": session.name,
            "role": self.db.role,
            "health": self.db.health.state,
        }
        if self.cluster is not None:
            hello_ok["node"] = self.cluster.name
            hello_ok["leader"] = self.cluster.leader_hint()
        self._send_safely(sock, hello_ok)
        thread = threading.current_thread()
        thread.name = f"repro-session-{session.name}"
        self._session_threads.append(thread)
        self._serve(session)

    def _register_session(self, hello, sock, address) -> Session:
        with self._sessions_lock:
            self._next_session += 1
            base = str(hello.get("session") or f"conn-{self._next_session}")
            name = base
            suffix = 1
            while name in self.sessions:
                suffix += 1
                name = f"{base}#{suffix}"
            session = Session(name, sock, address)
            self.sessions[name] = session
            self._set_gauge("repro_server_sessions", len(self.sessions))
        self._inc_counter("repro_server_connections_total")
        return session

    # ------------------------------------------------------------------
    # session: read a request, run it, answer
    # ------------------------------------------------------------------

    def _serve(self, session: Session) -> None:
        # every statement this thread runs inline (the read path) is
        # attributed to this session in the slow-query log, and every
        # span it records carries this node's name
        labels = ambient.Snapshot(
            node=self._node_name() or "", session=session.name
        )
        with ambient.adopt(labels):
            try:
                while not session.disconnected:
                    try:
                        request = session.frames.read_frame()
                    except (ProtocolError, OSError):
                        return  # the peer is gone, or sent garbage
                    if request is None or not self._dispatch(session, request):
                        return
            finally:
                self._teardown(session)

    def _dispatch(self, session, request) -> bool:
        """Handle one request; False ends the session."""
        kind = request.get("type")
        self._inc_counter("repro_server_requests_total", type=str(kind))
        if kind in ("QUERY", "EXECUTE"):
            return self._handle_statement(session, request)
        if kind == "PREPARE":
            return self._handle_prepare(session, request)
        if kind == "SET_BUDGET":
            return self._handle_set_budget(session, request)
        if kind == "METRICS":
            text = get_registry().render_prometheus(request.get("filter"))
            return self._send_safely(session.sock, {
                "type": "METRICS", "text": text,
            })
        if kind == "HEALTH":
            return self._send_safely(
                session.sock, self._health_message(request.get("id"))
            )
        if kind == "CLUSTER_STATE":
            return self._send_safely(
                session.sock, self._cluster_state_message(request.get("id"))
            )
        if kind == "TRACES":
            return self._send_safely(session.sock, {
                "type": "TRACES",
                "id": request.get("id"),
                "node": self._node_name(),
                "spans": observability_tracing.get_collector().export(
                    trace_id=_wire_str(request.get("trace_id")),
                    limit=_wire_int(request.get("limit")),
                ),
            })
        if kind == "EVENTS":
            return self._send_safely(session.sock, {
                "type": "EVENTS",
                "id": request.get("id"),
                "node": self._node_name(),
                "events": observability_events.get_journal().export(
                    kind=_wire_str(request.get("kind")),
                    limit=_wire_int(request.get("limit")),
                ),
            })
        if kind == "SLOWLOG":
            slow = self.db.slow_queries
            return self._send_safely(session.sock, {
                "type": "SLOWLOG",
                "id": request.get("id"),
                "node": self._node_name(),
                "threshold_ms": slow.threshold_ms,
                "entries": [entry.as_dict() for entry in slow.entries()],
            })
        if kind == "SHARD_STATE":
            # a plain server is not a router: it answers with its own
            # shard identity (or none), so probes need no special case
            return self._send_safely(session.sock, {
                "type": "SHARD_STATE",
                "id": request.get("id"),
                "sharded": False,
                "shard": self.shard_info,
            })
        if kind == "PING":
            return self._send_safely(session.sock, {"type": "PONG"})
        if kind == "CLOSE":
            self._send_safely(session.sock, {"type": "GOODBYE"})
            return False
        self._count_error("UNSUPPORTED")
        return self._send_safely(session.sock, {
            "type": "ERROR",
            "id": request.get("id"),
            "code": "UNSUPPORTED",
            "message": f"unsupported request type: {kind!r}",
        })

    # -- statements -----------------------------------------------------

    def _handle_statement(self, session, request) -> bool:
        request_id = request.get("id")
        try:
            result = self._run_statement(session, request)
        except BaseException as error:
            return self._send_error(session, request_id, error)
        return self._send_frames(session.sock, _result_frames(request_id, result))

    #: The span every statement this server runs is timed into.
    _STATEMENT_SPAN = "server.statement"

    def _run_statement(self, session: Session, request):
        """The statement prologue: the tightest budget and its token,
        the client's trace context adopted from the wire, the token
        watched, the statement span open — then
        :meth:`_execute_request` inside it.

        There is always a token: an unlimited one still carries the
        session's disconnect probe into the operator loops. The spans
        the statement records (queue wait, execution, fsync,
        replication) nest under the statement span, which nests under
        the client's.
        """
        budget = QueryBudget.tightest(
            self.db.planner_options.budget,
            self.db.budget,
            session.budget,
            protocol.budget_from_wire(request.get("budget")),
        )
        token = budget.start() if budget is not None else CancellationToken()
        stamped = None
        if observability_tracing.tracing_enabled():
            stamped = observability_tracing.TraceContext.from_wire(
                request.get("trace")
            )
        session.watch(token)
        session.statements += 1
        try:
            with ambient.activate(trace=stamped), observability_tracing.span(
                self._STATEMENT_SPAN, session=session.name
            ) as span:
                return self._execute_request(
                    session, request, budget, token, span
                )
        finally:
            session.active_token = None

    def _execute_request(self, session: Session, request, budget, token,
                         span):
        """Run one QUERY / EXECUTE request: reads inline under the
        shared lock, writes through the single-writer queue."""
        cluster = self.cluster
        if request.get("type") == "EXECUTE":
            runner, is_write = self._prepared_runner(session, request, token)
        else:
            sql = request.get("sql")
            if not isinstance(sql, str):
                raise ProtocolError("QUERY requires a string 'sql' field")
            # the statement cache's plan for the text (parsed once on a
            # miss), or its parse: routing, the shard guard and the
            # engine all work from this one form
            executable = self.db.compile(sql)
            statement = (
                executable.statement
                if isinstance(executable, PreparedQuery)
                else executable
            )
            is_write = statement_is_write(statement)
            if self.shard_info is not None:
                # rejected before execution, so retrying elsewhere is
                # safe even for writes (same contract as NOT_PRIMARY);
                # imported here because repro.sharding imports this
                # module (the router subclasses Server)
                from ..sharding.shard_map import check_shard_ownership

                check_shard_ownership(self.db, self.shard_info, statement)
            runner = lambda: self.db.execute_parsed(  # noqa: E731
                executable, sql, token=token
            )
        span.attrs["write"] = is_write
        if is_write and cluster is not None and not cluster.is_primary():
            observability_events.emit(
                "not_primary",
                node=cluster.name,
                session=session.name,
                leader=cluster.leader_hint(),
            )
            raise NotPrimaryError(
                f"{cluster.name} is not the primary; "
                "writes go to the current leader",
                leader_hint=cluster.leader_hint(),
            )
        if is_write:
            result = self.scheduler.execute_write(runner, token=token)
            if cluster is not None:
                # semi-sync: the client's acknowledgement is held
                # until the cluster's ack quorum has the write
                cluster.after_write()
            return result
        return self.scheduler.run_read(runner)

    def _prepared_runner(self, session: Session, request, token):
        handle = request.get("statement")
        prepared = session.prepared.get(handle)
        if prepared is None:
            raise ProtocolError(f"unknown prepared statement: {handle!r}")
        params = request.get("params") or []
        if not isinstance(params, list):
            raise ProtocolError("EXECUTE 'params' must be an array")
        # only SELECTs can be prepared, so EXECUTE is always a read
        return (lambda: prepared.execute(*params, token=token)), False

    def _send_error(self, session, request_id, error) -> bool:
        code = error_code_for(error)
        self._count_error(code)
        if not isinstance(error, (DatabaseError, ProtocolError)):
            # an engine bug, not a user error — keep serving, but say so
            code = "INTERNAL_ERROR"
        frame = {
            "type": "ERROR",
            "id": request_id,
            "code": code,
            "message": str(error),
        }
        hint = getattr(error, "leader_hint", None)
        if hint is not None:
            frame["leader_hint"] = hint
        shard_hint = getattr(error, "shard_hint", None)
        if shard_hint is not None:
            frame["shard_hint"] = shard_hint
        return self._send_safely(session.sock, frame)

    def _health_message(self, request_id=None) -> Dict[str, Any]:
        """The HEALTH response: the engine's health state plus, when a
        supervisor is attached, its liveness/readiness and counters."""
        health = self.db.health
        message: Dict[str, Any] = {
            "type": "HEALTH",
            "id": request_id,
            "state": health.state,
            "reason": health.reason,
            "last_error": health.last_error,
            "role": self.db.role,
            "liveness": health.state != "failed",
            "readiness": {
                "reads": health.allows_reads(),
                "writes": health.allows_writes(),
            },
        }
        if self.supervisor is not None:
            message["supervisor"] = self.supervisor.status()
        if self.cluster is not None:
            message["replication"] = self.cluster.replication_status()
        return message

    def _cluster_state_message(self, request_id=None) -> Dict[str, Any]:
        """The CLUSTER_STATE response. Standalone servers answer with
        their role and no topology, so probes never need a special
        case; cluster nodes answer with the full node state."""
        if self.cluster is not None:
            message = self.cluster.state_message()
        else:
            message = {
                "node": None,
                "role": self.db.role,
                "epoch": None,
                "sequence": None,
                "lag": None,
                "health": self.db.health.state,
                "leader": None,
                "peers": [],
            }
        message["type"] = "CLUSTER_STATE"
        message["id"] = request_id
        return message

    # -- small requests -------------------------------------------------

    def _handle_prepare(self, session, request) -> bool:
        request_id = request.get("id")
        sql = request.get("sql")
        try:
            if not isinstance(sql, str):
                raise ProtocolError("PREPARE requires a string 'sql' field")
            # planning reads the catalog, so it takes the read lock too
            prepared = self.scheduler.run_read(lambda: self.db.prepare(sql))
            if statement_is_write(prepared.statement):
                # EXECUTE is retried after a reconnect like any read
                raise PlanningError(
                    "only SELECT statements can be prepared over the wire"
                )
        except BaseException as error:
            return self._send_error(session, request_id, error)
        handle = session.mint_handle()
        session.prepared[handle] = prepared
        return self._send_safely(session.sock, {
            "type": "PREPARED",
            "id": request_id,
            "statement": handle,
            "params": prepared.parameter_count,
            "columns": prepared.column_names,
        })

    def _handle_set_budget(self, session, request) -> bool:
        request_id = request.get("id")
        try:
            session.budget = protocol.budget_from_wire(request.get("budget"))
        except ProtocolError as error:
            return self._send_error(session, request_id, error)
        return self._send_safely(session.sock, {
            "type": "OK",
            "id": request_id,
            "budget": protocol.budget_to_wire(session.budget),
        })

    # ------------------------------------------------------------------
    # teardown and plumbing
    # ------------------------------------------------------------------

    def _teardown(self, session: Session) -> None:
        with self._sessions_lock:
            self.sessions.pop(session.name, None)
            self._set_gauge("repro_server_sessions", len(self.sessions))
        session.prepared.clear()
        self._close_socket(session)
        # a disconnected client must not pin a transaction open forever;
        # rollback routes through the writer so it cannot interleave
        # with a write in flight
        if self.db.transactions.in_transaction and not self._draining:
            try:
                self.scheduler.execute_write(self.db.rollback)
            except DatabaseError:
                pass

    @staticmethod
    def _close_socket(session: Session) -> None:
        try:
            session.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            session.sock.close()
        except OSError:
            pass

    def _send_safely(self, sock, message) -> bool:
        """Send one frame; False (not an exception) when the peer died —
        the caller winds the session down."""
        return self._send_frames(sock, (message,))

    def _send_frames(self, sock, messages: Iterable[Dict[str, Any]]) -> bool:
        """Send a response in one write, or in ``_FLUSH_BYTES`` pieces
        when it is larger; False when the peer died.

        A message too large for one frame ends the response with a
        ``PROTOCOL_ERROR`` frame (the client stops reading a response at
        its ``ERROR``), and the session goes on.
        """
        chunks = []
        size = 0
        try:
            for message in messages:
                try:
                    frame = protocol.encode_frame(message)
                except ProtocolError as error:
                    self._count_error("PROTOCOL_ERROR")
                    chunks.append(protocol.encode_frame({
                        "type": "ERROR",
                        "id": message.get("id"),
                        "code": "PROTOCOL_ERROR",
                        "message": str(error),
                    }))
                    break
                chunks.append(frame)
                size += len(frame)
                if size >= _FLUSH_BYTES:
                    sock.sendall(b"".join(chunks))
                    chunks, size = [], 0
            if chunks:
                sock.sendall(b"".join(chunks))
            return True
        except OSError:
            return False

    # -- metrics --------------------------------------------------------

    def _inc_counter(self, name: str, **labels) -> None:
        registry = recording_registry()
        if registry is not None:
            registry.counter(name, **labels).inc()

    def _set_gauge(self, name: str, value: float) -> None:
        registry = recording_registry()
        if registry is not None:
            registry.gauge(name, help="Live server sessions.").set(value)

    def _count_error(self, code: str) -> None:
        self._inc_counter("repro_server_errors_total", code=code)

    def _node_name(self) -> Optional[str]:
        return self.cluster.name if self.cluster is not None else None


def _result_frames(request_id, result) -> Iterable[Dict[str, Any]]:
    """``RESULT_HEAD``, a ``ROWS`` frame per ``ROW_BATCH`` rows, then
    ``RESULT_END`` — built one at a time as they are encoded."""
    rows = result.rows or []
    yield {
        "type": "RESULT_HEAD", "id": request_id,
        "columns": list(result.columns or []),
    }
    for start in range(0, len(rows), ROW_BATCH):
        yield {
            "type": "ROWS",
            "id": request_id,
            "rows": [
                protocol.jsonable_row(row)
                for row in rows[start:start + ROW_BATCH]
            ],
        }
    yield {
        "type": "RESULT_END",
        "id": request_id,
        "rows": len(rows),
        "rowcount": result.rowcount,
    }


def _wire_str(value: Any) -> Optional[str]:
    """An optional string filter from a request field (else None)."""
    return value if isinstance(value, str) and value else None


def _wire_int(value: Any) -> Optional[int]:
    """An optional int limit from a request field (else None)."""
    return value if isinstance(value, int) and not isinstance(value, bool) else None
