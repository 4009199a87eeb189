"""A pure-Python, cluster-aware client for the repro wire protocol.

::

    from repro.client import Client

    with Client("127.0.0.1", 7070) as client:
        client.execute("INSERT INTO Users VALUES (1, 'ann')")
        result = client.execute(
            "SELECT PS.PathString FROM G.Paths PS WHERE PS.Length = 2")
        for row in result.rows:
            ...

    # cluster mode: a seed list instead of one address
    with Client(seeds=["10.0.0.1:7070", "10.0.0.2:7070",
                       "10.0.0.3:7070"]) as client:
        client.execute("INSERT INTO Users VALUES (2, 'bob')")

Server-side failures surface as :class:`~repro.errors.RemoteError`
carrying the **stable** wire code (``error.code == "TIMEOUT"``,
``"OVERLOADED"``, ``"READ_ONLY"``...); transport failures surface as
:class:`~repro.errors.ClientConnectionError`.

Reconnect policy (``reconnect=True``): when the connection drops the
client transparently redials — under the shared
:class:`~repro.resilience.retry.RetryPolicy`, so repeated dials back
off with jitter instead of hammering a restarting server — and retries
the request, but only when it is safe to repeat (SELECT / EXPLAIN
statements, PING, METRICS, SET_BUDGET). A write whose frame may have
reached the server is *never* retried: its outcome is unknown, and
retrying could apply it twice; the caller gets
:class:`ClientConnectionError` and decides. Prepared statements are
re-prepared automatically after a reconnect.

Cluster awareness (``seeds=[...]``): the client dials the first
reachable seed, reads the node's ``leader`` hint from ``HELLO_OK``, and
follows it to the primary (bounded hops). When a statement lands on a
non-primary node the server answers ``NOT_PRIMARY`` with a
``leader_hint`` — **rejected before execution**, so the client follows
the hint and retries even a write, bounded by the retry policy. A
failover mid-session is just both policies composing: the dead primary
drops the connection (reads retry through the seed list, writes raise),
and the next statement chases ``NOT_PRIMARY`` hints to the new primary.

Replica reads (``read_preference="replica", max_lag=N``): idempotent
statements are routed to a replica over a second internal connection,
with the replica's apply lag checked against ``max_lag`` via ``HEALTH``
(rechecked every ``lag_check_interval`` seconds). A stale, quarantined,
or unreachable replica silently falls back to the primary — the
preference trades bounded staleness for primary offload, never
availability.

Distributed tracing: when tracing is enabled (the default), every
``QUERY`` / ``PREPARE`` / ``EXECUTE`` frame is stamped with a
traceparent-style ``trace`` value minted per statement, and the client
records the root span locally. The stamp is applied *before* the retry
loops, so a write bounced around by ``NOT_PRIMARY`` or ``OVERLOADED``
keeps one trace_id across every hop — :meth:`Client.traces` (or a
node's HTTP ``/traces``) then shows the full journey.

Backpressure policy: an ``OVERLOADED`` error means the server's write
queue was full and the statement was **never admitted** — uniquely
safe to retry, write or not. The client honors the pushback by backing
off under the same policy before retrying, a bounded number of times;
``client.stats`` and the ``repro_client_*`` metrics expose how often
that happened.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .. import ambient
from ..core.result import ResultSet
from ..errors import ClientConnectionError, ProtocolError, RemoteError
from ..observability import tracing as observability_tracing
from ..observability.metrics import recording_registry
from ..resilience.retry import RetryPolicy
from ..server import protocol

#: Statement prefixes that are safe to retry after a reconnect.
_IDEMPOTENT_PREFIXES = ("SELECT", "EXPLAIN", "WITH")

#: HELLO_OK leader-hint hops before giving up on redirect chasing (a
#: cluster mid-election can point nodes at each other transiently).
_MAX_LEADER_HOPS = 5

_READ_PREFERENCES = ("primary", "replica")


def default_client_retry() -> RetryPolicy:
    """The client's default backoff: 4 attempts, 50ms..1s, jittered
    (the jitter is what keeps a fleet of clients from re-dialing a
    restarted server in lockstep)."""
    return RetryPolicy(
        base_delay=0.05, max_delay=1.0, multiplier=2.0, jitter=0.25,
        max_attempts=4,
    )


def strip_leading_sql_comments(sql: str) -> str:
    """``sql`` with leading whitespace, ``--`` line comments, and
    ``/* */`` block comments removed.

    Retry classification must see the first *token*, not the first
    character: ``-- audit\\nDELETE FROM t`` starts with a comment but is
    very much not idempotent, and ``/* hint */ SELECT ...`` is a read
    that deserves its retry. An unterminated comment yields ``""``
    (classified non-idempotent — the server will reject it anyway).
    """
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
        elif sql.startswith("--", i):
            newline = sql.find("\n", i + 2)
            if newline == -1:
                return ""
            i = newline + 1
        elif sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            if end == -1:
                return ""
            i = end + 2
        else:
            break
    return sql[i:]


def _is_idempotent_sql(sql: str) -> bool:
    return strip_leading_sql_comments(sql).upper().startswith(
        _IDEMPOTENT_PREFIXES
    )


AddressSpec = Union[str, Tuple[str, int], List]


def _parse_address(spec: AddressSpec) -> Tuple[str, int]:
    """``(host, port)`` from ``"host:port"``, ``"port"``-less tuples, or
    a bare port string (host defaults to loopback)."""
    if isinstance(spec, (tuple, list)):
        if len(spec) != 2:
            raise ValueError(f"address must be (host, port), got {spec!r}")
        return str(spec[0]), int(spec[1])
    text = str(spec).strip()
    host, _, port = text.rpartition(":")
    return (host or "127.0.0.1"), int(port or text)


class Prepared:
    """A client-side handle to a server-side prepared statement."""

    def __init__(self, client: "Client", sql: str, handle: str,
                 params: int, columns: List[str]):
        self._client = client
        self.sql = sql
        self.handle = handle
        self.parameter_count = params
        self.columns = columns

    def execute(self, *params: Any,
                budget: Optional[Dict[str, Any]] = None) -> ResultSet:
        return self._client._execute_prepared(self, params, budget)

    def __repr__(self) -> str:
        return f"Prepared({self.sql!r}, handle={self.handle!r})"


class Client:
    """One connection to a repro server or cluster (thread-safe: one
    request at a time, serialized by an internal lock).

    Address either a single server (``Client(host, port)``) or a
    cluster (``Client(seeds=["h1:7070", "h2:7070", ...])``); with
    seeds, the client discovers the primary and keeps following it
    across failovers.
    """

    def __init__(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        auth: Optional[str] = None,
        session: Optional[str] = None,
        timeout: Optional[float] = None,
        connect_timeout: float = 5.0,
        reconnect: bool = True,
        retry_policy: Optional[RetryPolicy] = None,
        seeds: Optional[Sequence[AddressSpec]] = None,
        read_preference: str = "primary",
        max_lag: Optional[int] = None,
        lag_check_interval: float = 1.0,
        follow_leader: bool = True,
        prefer_role: Optional[str] = None,
    ):
        self.seeds: List[Tuple[str, int]] = [
            _parse_address(spec) for spec in (seeds or [])
        ]
        if host is None and not self.seeds:
            raise ValueError("Client needs a host/port or a seeds list")
        if read_preference not in _READ_PREFERENCES:
            raise ValueError(
                f"read_preference must be one of {_READ_PREFERENCES}, "
                f"got {read_preference!r}"
            )
        if host is not None:
            self.host, self.port = str(host), int(port)
        else:
            self.host, self.port = self.seeds[0]
        #: The address this client was pointed at originally. A leader
        #: chase rewrites host/port to wherever the connection settles,
        #: so without this a seedless client that followed a hint to
        #: the primary would forget the (still live) node it first
        #: dialed and have no way back after the primary dies.
        self._initial_address: Tuple[str, int] = (self.host, self.port)
        self.auth = auth
        self.session = session
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.reconnect = reconnect
        #: Shared backoff for redials, OVERLOADED and NOT_PRIMARY retries.
        self.retry_policy = retry_policy or default_client_retry()
        self.read_preference = read_preference
        self.max_lag = max_lag
        self.lag_check_interval = lag_check_interval
        #: Chase HELLO_OK leader hints to the primary (the replica-read
        #: connection turns this off — it *wants* a non-primary).
        self.follow_leader = follow_leader
        #: Prefer connecting to a node with this role ("replica") when
        #: one is reachable; fall back to whatever answers.
        self.prefer_role = prefer_role
        #: Attempt counters: how often this client was pushed back,
        #: had to redial, or chased a leader redirect.
        self.stats: Dict[str, int] = {
            "reconnects": 0,
            "reconnect_attempts": 0,
            "overloaded_retries": 0,
            "overloaded_gave_up": 0,
            "leader_redirects": 0,
            "shard_redirects": 0,
            "replica_reads": 0,
            "replica_fallbacks": 0,
        }
        self._sock: Optional[socket.socket] = None
        #: The connection's buffered frame reader (set with ``_sock``).
        self._frames: Optional[protocol.FrameReader] = None
        self._lock = threading.Lock()
        self._next_id = 0
        #: Server-assigned session name, role, and node (from HELLO_OK).
        self.session_name: Optional[str] = None
        self.server_role: Optional[str] = None
        self.server_node: Optional[str] = None
        #: Last known primary address, from HELLO_OK / NOT_PRIMARY hints.
        self._leader: Optional[Tuple[str, int]] = None
        #: Session budget, replayed after a reconnect.
        self._budget: Optional[Dict[str, Any]] = None
        #: Live Prepared handles, re-prepared after a reconnect.
        self._prepared: List[Prepared] = []
        #: The replica-read side connection (lazy) and its lag verdict.
        self._replica_lock = threading.Lock()
        self._replica_client: Optional["Client"] = None
        self._replica_fresh_until = 0.0

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------

    def connect(self) -> "Client":
        with self._lock:
            self._connect_locked()
        return self

    def _candidates(self) -> List[Tuple[str, int]]:
        """Dial order: believed leader first (when chasing leaders),
        then the current target, then every seed."""
        ordered: List[Tuple[str, int]] = []
        if self.follow_leader and self._leader is not None:
            ordered.append(self._leader)
        ordered.append((self.host, self.port))
        ordered.extend(self.seeds)
        ordered.append(self._initial_address)
        seen = set()
        unique = []
        for address in ordered:
            if address not in seen:
                seen.add(address)
                unique.append(address)
        return unique

    def _connect_locked(self) -> None:
        if self._sock is not None:
            return
        last_error: Optional[Exception] = None
        fallback: Optional[Tuple[str, int]] = None
        for address in self._candidates():
            hops = 0
            while True:
                try:
                    sock, reply = self._handshake(address)
                except ClientConnectionError as error:
                    last_error = error
                    break  # unreachable: try the next candidate
                role = reply.get("role")
                leader = self._hint_address(reply.get("leader"))
                if leader is not None:
                    self._leader = leader
                if (
                    self.follow_leader
                    and role != "primary"
                    and leader is not None
                    and leader != address
                    and hops < _MAX_LEADER_HOPS
                ):
                    # connected to a non-primary that knows the leader:
                    # follow the hint instead of settling — but remember
                    # this reachable node, so a dead hint (the old
                    # primary, mid-election) degrades to a live replica
                    # connection instead of no connection at all
                    if fallback is None:
                        fallback = address
                    sock.close()
                    address = leader
                    hops += 1
                    self.stats["leader_redirects"] += 1
                    continue
                if (
                    self.prefer_role is not None
                    and role != self.prefer_role
                    and fallback is None
                ):
                    # reachable but not the role we prefer; remember it
                    # and keep looking (we re-dial it if nothing better)
                    fallback = address
                    sock.close()
                    break
                self._adopt_connection(sock, reply, address)
                return
        if fallback is not None:
            try:
                sock, reply = self._handshake(fallback)
            except ClientConnectionError as error:
                last_error = error
            else:
                self._adopt_connection(sock, reply, fallback)
                return
        if isinstance(last_error, Exception):
            raise last_error
        raise ClientConnectionError(
            f"no reachable server among {self._candidates()}"
        )

    def _handshake(
        self, address: Tuple[str, int]
    ) -> Tuple[socket.socket, Dict[str, Any]]:
        """Dial one address and run HELLO; ``(socket, HELLO_OK)``.

        Raises :class:`ClientConnectionError` for transport problems
        (the caller tries the next candidate) and :class:`RemoteError`
        for a server rejection like ``AUTH_FAILED`` (fatal: every node
        of the cluster shares the auth config; trying the rest of the
        seed list would just fail four more times).
        """
        host, port = address
        try:
            sock = socket.create_connection(
                (host, port), timeout=self.connect_timeout
            )
        except OSError as error:
            raise ClientConnectionError(
                f"cannot connect to {host}:{port}: {error}"
            )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(self.timeout)
        hello: Dict[str, Any] = {
            "type": "HELLO", "protocol": protocol.PROTOCOL_VERSION,
        }
        if self.auth is not None:
            hello["auth"] = self.auth
        if self.session is not None:
            hello["session"] = self.session
        try:
            protocol.send_frame(sock, hello)
            reply = protocol.read_frame(sock)
        except (OSError, ProtocolError) as error:
            sock.close()
            raise ClientConnectionError(f"handshake failed: {error}")
        if reply is None:
            sock.close()
            raise ClientConnectionError("server closed during handshake")
        if reply.get("type") == "ERROR":
            sock.close()
            raise RemoteError(
                reply.get("code", "INTERNAL_ERROR"),
                reply.get("message", "handshake rejected"),
            )
        if reply.get("type") != "HELLO_OK":
            sock.close()
            raise ClientConnectionError(
                f"unexpected handshake reply: {reply.get('type')!r}"
            )
        return sock, reply

    def _adopt_connection(self, sock, reply, address) -> None:
        self._sock = sock
        self._frames = protocol.FrameReader(sock)
        self.host, self.port = address
        self.session_name = reply.get("session")
        self.server_role = reply.get("role")
        self.server_node = reply.get("node")
        try:
            self._restore_session_state()
        except ClientConnectionError:
            self._drop_connection()
            raise

    @staticmethod
    def _hint_address(hint) -> Optional[Tuple[str, int]]:
        if isinstance(hint, dict) and hint.get("host") and hint.get("port"):
            return (str(hint["host"]), int(hint["port"]))
        return None

    def _restore_session_state(self) -> None:
        """Replay budget and prepared statements on the new connection.

        Runs with ``self._lock`` already held (we are called from
        ``_connect_locked``), so this must go straight to
        ``_roundtrip_locked`` — re-entering ``_roundtrip`` would
        deadlock on the non-reentrant request lock.
        """
        if self._budget is not None:
            self._roundtrip_locked(
                {"type": "SET_BUDGET", "budget": self._budget}, until=None
            )
        for prepared in self._prepared:
            reply = self._roundtrip_locked(
                {"type": "PREPARE", "sql": prepared.sql}, until=None
            )[0]
            prepared.handle = reply["statement"]

    def close(self) -> None:
        with self._replica_lock:
            self._drop_replica_locked()
        with self._lock:
            sock, frames = self._sock, self._frames
            self._sock = self._frames = None
            if sock is None:
                return
            try:
                protocol.send_frame(sock, {"type": "CLOSE"})
                frames.read_frame()  # GOODBYE (best effort)
            except (OSError, ProtocolError):
                pass
            finally:
                sock.close()

    def __enter__(self) -> "Client":
        return self.connect()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    @property
    def connected(self) -> bool:
        return self._sock is not None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def execute(self, sql: str,
                budget: Optional[Dict[str, Any]] = None,
                read_preference: Optional[str] = None) -> ResultSet:
        """Run one statement; returns a real
        :class:`~repro.core.result.ResultSet`.

        ``read_preference`` overrides the client-level preference for
        this one statement; only idempotent reads are ever routed to a
        replica, and only within the client's ``max_lag`` bound.
        """
        preference = read_preference or self.read_preference
        if preference not in _READ_PREFERENCES:
            raise ValueError(
                f"read_preference must be one of {_READ_PREFERENCES}, "
                f"got {preference!r}"
            )
        idempotent = _is_idempotent_sql(sql)
        if preference == "replica" and idempotent:
            result = self._replica_read(sql, budget)
            if result is not None:
                return result
        message: Dict[str, Any] = {"type": "QUERY", "sql": sql}
        if budget is not None:
            message["budget"] = budget
        return self._traced(
            self._collect_result, message, self.reconnect and idempotent,
            "client.execute", sql=strip_leading_sql_comments(sql)[:80],
        )

    def prepare(self, sql: str) -> Prepared:
        message: Dict[str, Any] = {"type": "PREPARE", "sql": sql}
        reply = self._traced(
            self._request, message, self.reconnect,
            "client.prepare", sql=strip_leading_sql_comments(sql)[:80],
        )
        prepared = Prepared(
            self, sql, reply["statement"],
            reply.get("params", 0), reply.get("columns", []),
        )
        self._prepared.append(prepared)
        return prepared

    def _execute_prepared(self, prepared: Prepared, params, budget) -> ResultSet:
        message: Dict[str, Any] = {
            "type": "EXECUTE",
            "statement": prepared.handle,
            "params": protocol.jsonable_row(params),
        }
        if budget is not None:
            message["budget"] = budget
        # prepared statements are SELECT-only, hence always retryable
        return self._traced(
            self._collect_result, message, self.reconnect,
            "client.execute", statement=prepared.handle,
        )

    def _traced(self, send, message: Dict[str, Any], retry: bool,
                name: str, **attrs):
        """``send(message, retry)`` — one request — inside its client
        span, whose context is stamped on ``message``.

        Inside a trace (a router's hop to its shards) the span is a
        child of the ambient context, so every hop shares the
        statement's trace_id; otherwise this is where a trace starts,
        its sampling decision rolled here and nowhere else. The stamp
        goes on *before* the retry loops, so an OVERLOADED backoff or a
        NOT_PRIMARY leader chase re-sends the same ``trace`` value —
        the whole journey shares one trace_id. With tracing disabled
        nothing is minted, stamped or recorded.
        """
        collector = observability_tracing.recording_collector()
        if collector is None:
            return send(message, retry)
        if ambient.current_trace() is None:
            opened = observability_tracing.span.root(
                name, collector.sample(), **attrs
            )
        else:
            opened = observability_tracing.span(name, **attrs)
        with opened:
            if opened.context is not None:
                message["trace"] = opened.context.to_wire()
            return send(message, retry)

    def set_budget(self, budget: Optional[Dict[str, Any]]) -> None:
        """Install (or clear, with None) the session-level budget."""
        self._request({"type": "SET_BUDGET", "budget": budget},
                      retry=self.reconnect)
        self._budget = budget

    def ping(self) -> bool:
        return self._request({"type": "PING"},
                             retry=self.reconnect)["type"] == "PONG"

    def metrics(self, filter: Optional[str] = None) -> str:
        """The server's metrics in Prometheus text format."""
        message: Dict[str, Any] = {"type": "METRICS"}
        if filter is not None:
            message["filter"] = filter
        return self._request(message, retry=self.reconnect)["text"]

    def health(self) -> Dict[str, Any]:
        """The server's HEALTH report: health state, liveness,
        read/write readiness, supervisor counters when a supervisor
        runs the node, and — on a cluster node — the ``replication``
        section (role, epoch, apply lag, leader)."""
        reply = self._request({"type": "HEALTH"}, retry=self.reconnect)
        return {
            key: value
            for key, value in reply.items()
            if key not in ("type", "id")
        }

    def traces(
        self,
        trace_id: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Finished spans from the server's collector (oldest first),
        optionally filtered to one ``trace_id``. On a cluster, each node
        answers with *its* spans — stitching a cross-node trace means
        asking every node (or the HTTP ``/traces`` endpoints) and
        merging on ``trace_id``."""
        message: Dict[str, Any] = {"type": "TRACES"}
        if trace_id is not None:
            message["trace_id"] = trace_id
        if limit is not None:
            message["limit"] = limit
        return self._request(message, retry=self.reconnect).get("spans", [])

    def events(
        self,
        kind: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """The server's structured event journal (oldest first),
        optionally filtered by ``kind`` (``election_won``,
        ``epoch_bump``, ``health``, ...)."""
        message: Dict[str, Any] = {"type": "EVENTS"}
        if kind is not None:
            message["kind"] = kind
        if limit is not None:
            message["limit"] = limit
        return self._request(message, retry=self.reconnect).get("events", [])

    def slow_queries(self) -> Dict[str, Any]:
        """The server's slow-query log: ``{node, threshold_ms,
        entries}``, each entry carrying sql, elapsed_ms, session,
        trace_id and node attribution."""
        reply = self._request({"type": "SLOWLOG"}, retry=self.reconnect)
        return {
            key: value
            for key, value in reply.items()
            if key not in ("type", "id")
        }

    def shard_state(self) -> Dict[str, Any]:
        """The endpoint's SHARD_STATE report. A router answers
        ``{"sharded": True, "map": ..., "shards": [...], "routing":
        {...}}``; a plain server answers ``{"sharded": False, "shard":
        identity-or-None}``, so probes need no special case."""
        reply = self._request({"type": "SHARD_STATE"}, retry=self.reconnect)
        return {
            key: value
            for key, value in reply.items()
            if key not in ("type", "id")
        }

    def cluster_state(self) -> Dict[str, Any]:
        """The node's CLUSTER_STATE report: its role, epoch, log
        position, lag, believed leader, and last known peer states
        (standalone servers answer with role and no topology)."""
        reply = self._request(
            {"type": "CLUSTER_STATE"}, retry=self.reconnect
        )
        return {
            key: value
            for key, value in reply.items()
            if key not in ("type", "id")
        }

    # ------------------------------------------------------------------
    # replica reads
    # ------------------------------------------------------------------

    def _replica_read(self, sql, budget) -> Optional[ResultSet]:
        """Serve one idempotent read from a replica, or ``None`` to
        fall back to the primary (stale, quarantined, unreachable, or
        no replica exists). Fallback is silent by design: a degraded
        replica tier costs freshness headroom, never availability."""
        with self._replica_lock:
            try:
                client = self._replica_client_locked()
                if client is None or not self._replica_fresh_locked(client):
                    self.stats["replica_fallbacks"] += 1
                    return None
                result = client.execute(sql, budget=budget)
                self.stats["replica_reads"] += 1
                self._count("repro_client_replica_reads_total")
                return result
            except (ClientConnectionError, RemoteError):
                self._drop_replica_locked()
                self.stats["replica_fallbacks"] += 1
                self._count("repro_client_replica_fallbacks_total")
                return None

    def _replica_client_locked(self) -> Optional["Client"]:
        if self._replica_client is not None:
            return self._replica_client
        seeds = self.seeds or [(self.host, self.port)]
        client = Client(
            auth=self.auth,
            timeout=self.timeout,
            connect_timeout=self.connect_timeout,
            reconnect=True,
            retry_policy=self.retry_policy,
            seeds=seeds,
            follow_leader=False,
            prefer_role="replica",
        )
        client.connect()
        self._replica_client = client
        self._replica_fresh_until = 0.0
        return client

    def _replica_fresh_locked(self, client: "Client") -> bool:
        """True when the replica connection may serve reads: role still
        replica, not quarantined, apply lag within ``max_lag``. The
        verdict is cached for ``lag_check_interval`` seconds so every
        read does not cost an extra HEALTH round trip."""
        now = time.monotonic()
        if now < self._replica_fresh_until:
            return True
        health = client.health()
        replication = health.get("replication")
        if replication is None:
            # a standalone server: the only node there is, hence as
            # fresh as it gets
            self._replica_fresh_until = now + self.lag_check_interval
            return True
        if replication.get("role") != "replica":
            # the node was promoted under us: it is now the primary, so
            # reading from it defeats the preference — repick next time
            self._drop_replica_locked()
            return False
        if replication.get("quarantined"):
            self._drop_replica_locked()
            return False
        lag = replication.get("lag")
        if self.max_lag is not None and (lag is None or lag > self.max_lag):
            # stale beyond the bound: this read goes to the primary,
            # but keep the connection — the replica is catching up
            return False
        self._replica_fresh_until = now + self.lag_check_interval
        return True

    def _drop_replica_locked(self) -> None:
        client = self._replica_client
        self._replica_client = None
        self._replica_fresh_until = 0.0
        if client is not None:
            try:
                client.close()
            except Exception:
                pass

    # ------------------------------------------------------------------
    # request plumbing
    # ------------------------------------------------------------------

    def _collect_result(self, message, retry: bool) -> ResultSet:
        frames = self._roundtrip(message, retry=retry, until="RESULT_END")
        columns: List[str] = []
        rows: List[Tuple] = []
        rowcount = 0
        for frame in frames:
            kind = frame["type"]
            if kind == "RESULT_HEAD":
                columns = frame.get("columns", [])
            elif kind == "ROWS":
                rows.extend(tuple(row) for row in frame.get("rows", []))
            elif kind == "RESULT_END":
                rowcount = frame.get("rowcount", 0)
        return ResultSet(columns or None, rows, rowcount=rowcount)

    def _request(self, message, retry: bool) -> Dict[str, Any]:
        """One request expecting exactly one reply frame."""
        return self._roundtrip(message, retry=retry, until=None)[0]

    def _roundtrip(self, message, retry: bool, until: Optional[str]):
        """One request with the backpressure and redirect loops around it.

        OVERLOADED means the statement was never admitted to the write
        queue, so retrying can never double-apply — and NOT_PRIMARY
        means it was rejected before execution on a node that is not
        the leader, so following the ``leader_hint`` and retrying is
        equally safe, *even for writes*. Both backoffs happen outside
        the request lock: sleeping while holding it would stall every
        other thread sharing this client.
        """
        attempt = 0
        while True:
            attempt += 1
            try:
                return self._roundtrip_transport(message, retry, until)
            except RemoteError as error:
                policy = self.retry_policy
                give_up = (
                    policy.max_attempts is not None
                    and attempt >= policy.max_attempts
                )
                if error.code == "NOT_PRIMARY" and self.reconnect:
                    if give_up:
                        raise
                    hint = self._hint_address(error.leader_hint)
                    with self._lock:
                        if hint is not None:
                            self._leader = hint
                        self._drop_connection()
                    self.stats["leader_redirects"] += 1
                    self._count("repro_client_leader_redirects_total")
                    if hint is None:
                        # mid-election: nobody knows the leader yet;
                        # back off and rediscover through the seeds
                        policy.sleep(policy.delay(attempt))
                    continue
                if error.code == "SHARD_REDIRECT" and self.reconnect:
                    # rejected before execution by a shard that does not
                    # own the key: safe to retry (even writes), and the
                    # redial re-reads HELLO/seeds, so a router in front
                    # of the shards picks the statement up correctly
                    if give_up:
                        raise
                    with self._lock:
                        self._drop_connection()
                    self.stats["shard_redirects"] += 1
                    self._count("repro_client_shard_redirects_total")
                    policy.sleep(policy.delay(attempt))
                    continue
                if error.code != "OVERLOADED":
                    raise
                if give_up:
                    self.stats["overloaded_gave_up"] += 1
                    self._count("repro_client_overload_giveups_total")
                    raise
                self.stats["overloaded_retries"] += 1
                self._count("repro_client_overload_retries_total")
                policy.sleep(policy.delay(attempt))

    def _roundtrip_transport(self, message, retry: bool, until: Optional[str]):
        with self._lock:
            try:
                return self._roundtrip_locked(message, until)
            except ClientConnectionError:
                self._drop_connection()
                if not retry or not self.reconnect:
                    raise
            # The request never produced a reply and is safe to repeat:
            # redial under the shared policy (backed off, jittered),
            # then retry the request on the fresh connection.
            policy = self.retry_policy
            dial = 0
            while True:
                dial += 1
                self.stats["reconnect_attempts"] += 1
                try:
                    self._connect_locked()
                except ClientConnectionError:
                    self._drop_connection()
                    if (
                        policy.max_attempts is not None
                        and dial >= policy.max_attempts
                    ):
                        raise
                    policy.sleep(policy.delay(dial))
                    continue
                self.stats["reconnects"] += 1
                self._count("repro_client_reconnects_total")
                try:
                    return self._roundtrip_locked(message, until)
                except ClientConnectionError:
                    self._drop_connection()
                    raise

    def _count(self, name: str) -> None:
        registry = recording_registry()
        if registry is not None:
            registry.counter(
                name, help="Client retry/backoff events."
            ).inc()

    def _roundtrip_locked(self, message, until: Optional[str]):
        if self._sock is None:
            if not self.reconnect:
                raise ClientConnectionError("client is not connected")
            self._connect_locked()
        self._next_id += 1
        message = dict(message)
        message.setdefault("id", self._next_id)
        try:
            protocol.send_frame(self._sock, message)
        except OSError as error:
            raise ClientConnectionError(f"send failed: {error}")
        frames = []
        while True:
            try:
                frame = self._frames.read_frame()
            except (OSError, ProtocolError, socket.timeout) as error:
                raise ClientConnectionError(f"receive failed: {error}")
            if frame is None:
                raise ClientConnectionError(
                    "server closed the connection mid-request"
                )
            if frame.get("type") == "ERROR":
                raise RemoteError(
                    frame.get("code", "INTERNAL_ERROR"),
                    frame.get("message", "server error"),
                    leader_hint=frame.get("leader_hint"),
                    shard_hint=frame.get("shard_hint"),
                )
            frames.append(frame)
            if until is None or frame.get("type") == until:
                return frames

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = self._frames = None

    def __repr__(self) -> str:
        state = "connected" if self.connected else "disconnected"
        return f"Client({self.host}:{self.port}, {state})"
