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

Retry ladder: a request is one loop of attempts under the client's
:class:`~repro.resilience.retry.RetryPolicy`. An attempt takes the
request lock, dials when there is no connection, exchanges frames and
releases the lock. A failed attempt is classified once:

==================  ===========================================  ==========
failure             retried when, and how                        backs off
==================  ===========================================  ==========
connection error    idempotent request and ``reconnect``: the    yes
                    connection is dropped and the retry redials
missed ``timeout``  never: the server is up but slow, and a
                    re-run would multiply its load
``NOT_PRIMARY``     ``reconnect``: rejected before execution,    only
                    so even a write; adopts the ``leader_hint``  without a
                                                                 hint
``SHARD_REDIRECT``  ``reconnect``: rejected before execution,    yes
                    so even a write; the retry redials
``OVERLOADED``      always: never admitted to the write queue,   yes
                    so even a write
anything else       never: raised
==================  ===========================================  ==========

Idempotent requests are SELECT / EXPLAIN / WITH statements, EXECUTE of
a prepared statement, and the non-statement messages (PREPARE, PING,
METRICS, SET_BUDGET, the reports). A write whose frame may have reached
the server is *never* re-sent: its outcome is unknown, and retrying
could apply it twice; the caller gets :class:`ClientConnectionError`
and decides. Every cause draws on the policy's one ``max_attempts``
budget, and the backoff (jittered, so a fleet of clients does not
re-dial a restarted server in lockstep) sleeps outside the request lock.
Each retry lands in ``client.stats`` and the ``repro_client_*``
counters. The session budget and prepared statements are replayed on
every new connection.

Cluster awareness (``seeds=[...]``): the client dials the first
reachable seed, reads the node's ``leader`` hint from ``HELLO_OK``, and
follows it to the primary (bounded hops). When a statement lands on a
non-primary node the server answers ``NOT_PRIMARY`` with a
``leader_hint`` — **rejected before execution**, so the client follows
the hint and retries even a write, bounded by the retry policy. A
failover mid-session is two rungs of the ladder: the dead primary drops
the connection (reads redial through the seed list, writes raise), and
the next statement chases ``NOT_PRIMARY`` hints to the new primary.

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
loop, so a write bounced around by ``NOT_PRIMARY`` or ``OVERLOADED``
keeps one trace_id across every hop — :meth:`Client.traces` (or a
node's HTTP ``/traces``) then shows the full journey.
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


#: Retry-ladder verdicts, ``(stats key, repro_client_* counter, back
#: off?)``: a redial after a dropped connection, and an overload.
_REDIAL = ("reconnect_attempts", None, True)
_OVERLOADED = (
    "overloaded_retries", "repro_client_overload_retries_total", True,
)


def _result_set(frames) -> ResultSet:
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

    def __init__(self, client: "Client", sql: str):
        self._client = client
        self.sql = sql
        self.handle = ""
        self.parameter_count = 0
        self.columns: List[str] = []

    def _update(self, reply: Dict[str, Any]) -> None:
        """Take the handle, parameter count and columns of a PREPARED
        reply."""
        self.handle = reply["statement"]
        self.parameter_count = reply.get("params", 0)
        self.columns = reply.get("columns", [])

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
        #: The one retry ladder's backoff and ``max_attempts`` budget.
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
        #: One Prepared handle per SQL text, re-prepared after a reconnect.
        self._prepared: Dict[str, Prepared] = {}
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
        for prepared in list(self._prepared.values()):
            prepared._update(self._roundtrip_locked(
                {"type": "PREPARE", "sql": prepared.sql}, until=None
            )[0])

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
        statement = strip_leading_sql_comments(sql)
        idempotent = statement.upper().startswith(_IDEMPOTENT_PREFIXES)
        if preference == "replica" and idempotent:
            result = self._replica_read(sql, budget)
            if result is not None:
                return result
        message: Dict[str, Any] = {"type": "QUERY", "sql": sql}
        if budget is not None:
            message["budget"] = budget
        return _result_set(self._traced(
            message, idempotent, "RESULT_END",
            "client.execute", sql=statement[:80],
        ))

    def prepare(self, sql: str) -> Prepared:
        """The handle for ``sql``: one per text. Preparing a known text
        still asks the server, so a column list changed by DDL shows,
        and refreshes the existing handle in place."""
        message: Dict[str, Any] = {"type": "PREPARE", "sql": sql}
        reply = self._traced(
            message, True, None,
            "client.prepare", sql=strip_leading_sql_comments(sql)[:80],
        )[0]
        # one atomic step, so threads preparing one text share a handle
        prepared = self._prepared.setdefault(sql, Prepared(self, sql))
        prepared._update(reply)
        return prepared

    def _execute_prepared(self, prepared: Prepared, params, budget) -> ResultSet:
        # the message carries the Prepared itself until it is sent: a
        # redial on the way re-prepares it under a new handle
        message: Dict[str, Any] = {
            "type": "EXECUTE",
            "statement": prepared,
            "params": protocol.jsonable_row(params),
        }
        if budget is not None:
            message["budget"] = budget
        # prepared statements are SELECT-only, hence always retryable
        return _result_set(self._traced(
            message, True, "RESULT_END",
            "client.execute", statement=prepared.handle,
        ))

    def _traced(self, message: Dict[str, Any], idempotent: bool,
                until: Optional[str], name: str, **attrs):
        """One request's frames, inside its client span, whose context
        is stamped on ``message``.

        Inside a trace (a router's hop to its shards) the span is a
        child of the ambient context, so every hop shares the
        statement's trace_id; otherwise this is where a trace starts.
        The stamp goes on *before* the retry loop, so an OVERLOADED
        backoff or a NOT_PRIMARY leader chase re-sends the same
        ``trace`` value — the whole journey shares one trace_id. With
        tracing disabled nothing is minted, stamped or recorded.
        """
        if not observability_tracing.tracing_enabled():
            return self._roundtrip(message, idempotent, until)
        if ambient.current_trace() is None:
            opened = observability_tracing.span.root(name, **attrs)
        else:
            opened = observability_tracing.span(name, **attrs)
        with opened:
            if opened.context is not None:
                message["trace"] = opened.context.to_wire()
            return self._roundtrip(message, idempotent, until)

    def set_budget(self, budget: Optional[Dict[str, Any]]) -> None:
        """Install (or clear, with None) the session-level budget."""
        self._request({"type": "SET_BUDGET", "budget": budget})
        self._budget = budget

    def ping(self) -> bool:
        return self._request({"type": "PING"})["type"] == "PONG"

    def metrics(self, filter: Optional[str] = None) -> str:
        """The server's metrics in Prometheus text format."""
        message: Dict[str, Any] = {"type": "METRICS"}
        if filter is not None:
            message["filter"] = filter
        return self._request(message)["text"]

    def health(self) -> Dict[str, Any]:
        """The server's HEALTH report: health state, liveness,
        read/write readiness, supervisor counters when a supervisor
        runs the node, and — on a cluster node — the ``replication``
        section (role, epoch, apply lag, leader)."""
        reply = self._request({"type": "HEALTH"})
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
        return self._request(message).get("spans", [])

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
        return self._request(message).get("events", [])

    def slow_queries(self) -> Dict[str, Any]:
        """The server's slow-query log: ``{node, threshold_ms,
        entries}``, each entry carrying sql, elapsed_ms, session,
        trace_id and node attribution."""
        reply = self._request({"type": "SLOWLOG"})
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
        reply = self._request({"type": "SHARD_STATE"})
        return {
            key: value
            for key, value in reply.items()
            if key not in ("type", "id")
        }

    def cluster_state(self) -> Dict[str, Any]:
        """The node's CLUSTER_STATE report: its role, epoch, log
        position, lag, believed leader, and last known peer states
        (standalone servers answer with role and no topology)."""
        reply = self._request({"type": "CLUSTER_STATE"})
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

    def _request(self, message) -> Dict[str, Any]:
        """One idempotent request expecting exactly one reply frame."""
        return self._roundtrip(message, True, None)[0]

    def _roundtrip(self, message, idempotent: bool, until: Optional[str]):
        """One request under the retry ladder (see the module
        docstring): attempt, classify a failure, back off outside the
        request lock, attempt again, every cause drawing on the policy's
        one ``max_attempts`` budget."""
        policy = self.retry_policy
        attempt = 0
        redial = False
        while True:
            attempt += 1
            try:
                return self._attempt(message, redial, until)
            except (ClientConnectionError, RemoteError) as error:
                retry = self._classify(error, idempotent)
                if retry is None:
                    raise
                if (
                    policy.max_attempts is not None
                    and attempt >= policy.max_attempts
                ):
                    if retry is _OVERLOADED:
                        self.stats["overloaded_gave_up"] += 1
                        self._count("repro_client_overload_giveups_total")
                    raise
                stat, counter, back_off = retry
                self.stats[stat] += 1
                if counter is not None:
                    self._count(counter)
                redial = retry is _REDIAL
                if back_off:
                    policy.sleep(policy.delay(attempt))

    def _classify(self, error, idempotent: bool):
        """The ladder's one table: ``(stats key, counter, back off?)``
        for a failure worth another attempt, ``None`` for one to raise.
        A redirect drops the connection here (a connection error's
        attempt already dropped it), so the next attempt redials —
        the ``NOT_PRIMARY`` leader hint first."""
        if isinstance(error, ClientConnectionError):
            # a reply that missed the ``timeout`` deadline is not
            # retried: the server is up but slow, and a re-run would
            # multiply both the caller's wait and the server's load
            if (
                idempotent and self.reconnect
                and not isinstance(error.__cause__, socket.timeout)
            ):
                return _REDIAL
            return None
        if error.code == "OVERLOADED":
            return _OVERLOADED
        if not self.reconnect or error.code not in (
            "NOT_PRIMARY", "SHARD_REDIRECT",
        ):
            return None
        hint = self._hint_address(error.leader_hint)
        with self._lock:
            if hint is not None:
                self._leader = hint
            self._drop_connection()
        if error.code == "SHARD_REDIRECT":
            return ("shard_redirects", "repro_client_shard_redirects_total",
                    True)
        # mid-election nobody knows the leader: back off, then
        # rediscover it through the seeds
        return ("leader_redirects", "repro_client_leader_redirects_total",
                hint is None)

    def _attempt(self, message, redial: bool, until: Optional[str]):
        """One try of one request, and the only one holding the request
        lock for it: dial when there is no connection (after a dropped
        one, ``redial`` counts the dial as a reconnect), exchange
        frames, release. A connection error drops the connection."""
        with self._lock:
            try:
                if self._sock is None:
                    if not self.reconnect:
                        raise ClientConnectionError("client is not connected")
                    self._connect_locked()
                    if redial:
                        self.stats["reconnects"] += 1
                        self._count("repro_client_reconnects_total")
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
        self._next_id += 1
        message = dict(message)
        message.setdefault("id", self._next_id)
        if message["type"] == "EXECUTE":
            message["statement"] = message["statement"].handle
        try:
            protocol.send_frame(self._sock, message)
        except OSError as error:
            raise ClientConnectionError(f"send failed: {error}")
        frames = []
        while True:
            try:
                frame = self._frames.read_frame()
            except (OSError, ProtocolError, socket.timeout) as error:
                raise ClientConnectionError(
                    f"receive failed: {error}"
                ) from error
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
