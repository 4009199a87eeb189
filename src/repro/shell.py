"""Interactive SQL shell: ``python -m repro.shell``.

A small REPL over one :class:`~repro.core.database.Database` instance.
Statements end with ``;`` and may span lines — ``EXPLAIN [ANALYZE]
SELECT ...;`` runs like any other statement. Meta-commands start with
``.`` or ``\\``; the two prefixes are interchangeable (``.help`` and
``\\help`` are the same command):

====================  ====================================================
``.help``             this text
``.tables``           list tables, views and graph views
``.schema NAME``      columns and indexes of a table/view, or structure of a
                      graph view (``\\d NAME`` is the same command)
``.explain SQL``      physical plan of a SELECT, or the access plan of an
                      UPDATE / DELETE (no trailing ``;`` needed)
``.timer on|off``     print wall-clock time per statement
``.run FILE``         execute a ``;``-separated SQL script from a file
``\\timeout MS``       abort statements running longer than MS milliseconds
                      (``\\timeout off`` clears; ``\\timeout`` shows current)
``\\metrics [FILTER]`` engine metrics (Prometheus text format), optionally
                      only names containing FILTER
``\\slow [MS|off]``    set the slow-query threshold, or (no argument) list
                      the statements recorded over it; ``\\slow show``
                      lists entries — the one form that also works over
                      a remote connection (``SLOWLOG``), with session,
                      node and trace_id attribution
``\\traces [TRACE_ID]`` recorded distributed-trace spans, grouped by
                      trace — optionally only one trace's spans (works
                      locally and over a remote connection)
``\\events [KIND]``    the structured event journal (elections, epoch
                      bumps, health transitions, breaker trips...),
                      optionally only events of KIND (works locally and
                      over a remote connection)
``\\replica status``   one line per cluster node: role, epoch, applied
                      sequence, lag, acked/shipped positions, state
                      (needs an attached cluster)
``\\promote [NAME]``   fail over to replica NAME (or the most caught-up
                      healthy replica); the old primary is fenced
``\\cluster status``   this node's cluster view: role, epoch, sequence,
                      lag, believed leader, and last known peer states
                      (works locally and over a remote connection)
``\\shards [status]``  connected to a shard router: the shard map,
                      per-shard health, and routing-tier counters;
                      connected to a shard server: its shard identity
                      (remote connections only)
``\\health``           engine health state, last durable-write error,
                      retry/breaker counters, replication role/epoch/lag
                      on a cluster node, and supervisor status
                      (works locally and over a remote connection)
``.quit``             exit
====================  ====================================================

Errors never kill the session: every :class:`~repro.errors.DatabaseError`
prints as a one-line message (syntax errors point at line and column;
budget aborts hint at ``\\timeout``) and the prompt returns.
"""

from __future__ import annotations

import sys
import time
from typing import Iterable, List, Optional, TextIO

from .budget import QueryBudget
from .core.database import Database
from .core.result import ResultSet
from .errors import DatabaseError, ResourceExhaustedError, SqlSyntaxError
from .observability.metrics import get_registry
from .storage.index import OrderedIndex

PROMPT = "repro> "
CONTINUATION = "  ...> "

_HELP = __doc__.split("same command):", 1)[1]


def format_result(result: ResultSet, max_rows: int = 200) -> str:
    """Render a result set as an aligned text table."""
    if not result.columns:
        return f"ok ({result.rowcount} row(s) affected)"
    headers = result.columns
    rows = [[_cell(v) for v in row] for row in result.rows[:max_rows]]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, value in enumerate(row):
            widths[i] = max(widths[i], len(value))
    lines = [
        " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "-+-".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append(
            " | ".join(value.ljust(widths[i]) for i, value in enumerate(row))
        )
    if len(result.rows) > max_rows:
        lines.append(f"... ({len(result.rows)} rows total)")
    else:
        lines.append(f"({len(result.rows)} row(s))")
    return "\n".join(lines)


def _cell(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


class Shell:
    """The REPL engine, factored for testability (streams injectable)."""

    def __init__(
        self,
        database: Optional[Database] = None,
        out: TextIO = sys.stdout,
        cluster=None,
        client=None,
        supervisor=None,
        node=None,
    ):
        #: Optional :class:`~repro.resilience.supervisor.Supervisor` —
        #: enriches ``\health`` with checkpoint/probe/heal counters.
        self.supervisor = supervisor
        #: Optional :class:`~repro.replication.node.ClusterNode` —
        #: enables ``\cluster status`` and the replication section of
        #: ``\health`` when the shell runs inside a cluster process.
        self.node = node
        #: Optional :class:`~repro.replication.ReplicationManager` —
        #: enables ``\replica status`` and ``\promote``. When attached,
        #: the shell's database is the cluster's current primary's.
        self.cluster = cluster
        #: Optional :class:`~repro.client.Client` — remote mode
        #: (``repro --connect``): statements go over the wire, and the
        #: catalog-introspection commands are unavailable.
        self.client = client
        if client is not None:
            self.db = None
        else:
            self.db = database or (cluster.primary.db if cluster else Database())
        self.out = out
        self.timer = False
        self.timeout_ms: Optional[int] = None
        self._buffer: List[str] = []
        self.done = False

    # ------------------------------------------------------------------

    def write(self, text: str) -> None:
        print(text, file=self.out)

    def prompt(self) -> str:
        return CONTINUATION if self._buffer else PROMPT

    def feed_line(self, line: str) -> None:
        """Process one input line (may or may not complete a statement)."""
        stripped = line.strip()
        if not self._buffer and stripped[:1] in (".", "\\"):
            self._command(stripped)
            return
        if not stripped and not self._buffer:
            return
        self._buffer.append(line)
        joined = "\n".join(self._buffer)
        if stripped.endswith(";"):
            self._buffer = []
            self.execute_statement(joined)

    def execute_statement(self, sql: str) -> None:
        started = time.perf_counter()
        try:
            if self.client is not None:
                result = self.client.execute(sql)
            elif self.cluster is not None:
                # route through the manager: writes are acknowledged
                # only after the configured replicas have applied them
                result = self.cluster.execute(sql)
            else:
                result = self.db.execute(sql)
        except DatabaseError as error:
            self.write(self._format_error(error))
            return
        self.write(format_result(result))
        if self.timer:
            self.write(f"time: {(time.perf_counter() - started) * 1000:.2f} ms")

    @staticmethod
    def _format_error(error: DatabaseError) -> str:
        """One friendly line per failure; the session always survives."""
        message = str(error).split("\n", 1)[0]
        if isinstance(error, SqlSyntaxError) and error.line:
            suffix = f" (at line {error.line}, column {error.column})"
            if message.endswith(suffix):
                message = message[: -len(suffix)]
            return (
                f"syntax error at line {error.line}, column {error.column}: "
                f"{message}"
            )
        if isinstance(error, ResourceExhaustedError):
            return (
                f"aborted: {message} "
                "(adjust with \\timeout or a wider QueryBudget)"
            )
        return f"error: {message}"

    # ------------------------------------------------------------------
    # meta-commands (``.name`` and ``\name`` are interchangeable)
    # ------------------------------------------------------------------

    def _command(self, line: str) -> None:
        parts = line.split(None, 1)
        name = parts[0][1:].lower()
        if name == "d":
            name = "schema"
        argument = parts[1].strip() if len(parts) > 1 else ""
        if self.client is not None and name in (
            "tables", "schema", "run", "replica", "promote",
        ):
            # these introspect server-side objects the protocol does not
            # expose; everything else works identically over the wire
            self.write(f"{parts[0]} is not available over a remote connection")
            return
        if name in ("quit", "exit"):
            self.done = True
        elif name == "help":
            self.write(_HELP.strip())
        elif name == "tables":
            self._list_objects()
        elif name == "schema":
            self._show_schema(argument)
        elif name == "explain":
            self._explain(argument)
        elif name == "timer":
            if argument.lower() in ("on", "off"):
                self.timer = argument.lower() == "on"
                self.write(f"timer {'on' if self.timer else 'off'}")
            else:
                self.write("usage: .timer on|off")
        elif name == "run":
            self._run_script(argument)
        elif name == "timeout":
            self._set_timeout(argument)
        elif name == "metrics":
            self._metrics(argument)
        elif name == "slow":
            self._slow(argument)
        elif name == "traces":
            self._traces(argument)
        elif name == "events":
            self._events(argument)
        elif name == "replica":
            self._replica_command(argument)
        elif name == "promote":
            self._promote(argument)
        elif name == "cluster":
            self._cluster_command(argument)
        elif name == "shards":
            self._shards_command(argument)
        elif name == "health":
            self._health()
        else:
            self.write(f"unknown command {parts[0]} (try .help)")

    def _metrics(self, argument: str) -> None:
        """``\\metrics [FILTER]`` — dump the (possibly remote) registry."""
        if self.client is not None:
            try:
                text = self.client.metrics(argument or None)
            except DatabaseError as error:
                self.write(self._format_error(error))
                return
        else:
            text = get_registry().render_prometheus(argument or None)
        self.write(text if text else "(no metrics recorded)")

    def _slow(self, argument: str) -> None:
        """``\\slow [MS|off|show]`` — configure or list the slow-query
        log. Remotely only ``show`` is available (the threshold is the
        server's knob); entries arrive over ``SLOWLOG`` carrying
        session, node and trace_id attribution."""
        if self.client is not None:
            if argument and argument.lower() != "show":
                self.write(
                    "only \\slow show works over a remote connection "
                    "(the threshold is configured on the server)"
                )
                return
            try:
                report = self.client.slow_queries()
            except DatabaseError as error:
                self.write(self._format_error(error))
                return
            if report.get("threshold_ms") is None:
                self.write("slow-query log off (server threshold unset)")
                return
            entries = report.get("entries") or []
            if not entries:
                self.write("no slow queries recorded")
                return
            for entry in entries:
                self._write_slow_entry(entry)
            return
        if argument and argument.lower() != "show":
            if argument.lower() in ("off", "none"):
                self.db.set_slow_query_threshold(None)
                self.write("slow-query log off")
                return
            try:
                ms = float(argument)
                if ms < 0:
                    raise ValueError
            except ValueError:
                self.write("usage: \\slow MS|off|show")
                return
            self.db.set_slow_query_threshold(ms)
            self.write(f"slow-query threshold {ms:g} ms")
            return
        if self.db.slow_queries.threshold_ms is None:
            self.write("slow-query log off (set with \\slow MS)")
            return
        entries = self.db.slow_queries.entries()
        if not entries:
            self.write("no slow queries recorded")
            return
        for entry in entries:
            self._write_slow_entry(entry.as_dict())

    def _write_slow_entry(self, entry: dict) -> None:
        """One slow-log line, identical for local and wire entries."""
        sql = entry.get("sql", "")
        head = sql if len(sql) <= 48 else sql[:45] + "..."
        suffix = ""
        if entry.get("session"):
            suffix += f"  session={entry['session']}"
        if entry.get("node"):
            suffix += f"  node={entry['node']}"
        if entry.get("trace_id"):
            suffix += f"  trace={entry['trace_id'][:16]}"
        self.write(
            f"  {entry.get('elapsed_ms', 0.0):8.2f} ms  "
            f"{entry.get('kind', ''):<10} "
            f"rows={entry.get('rows', 0):<6} {head}{suffix}"
        )

    def _traces(self, argument: str) -> None:
        """``\\traces [TRACE_ID]`` — recorded spans, grouped by trace.

        Local mode reads the process collector; remote mode asks the
        connected node over ``TRACES`` (each node answers with *its*
        spans — stitch a cross-node trace by asking every node).
        """
        trace_id = argument.split()[0] if argument else None
        if self.client is not None:
            try:
                spans = self.client.traces(trace_id=trace_id)
            except DatabaseError as error:
                self.write(self._format_error(error))
                return
        else:
            from .observability import tracing as observability_tracing

            spans = observability_tracing.get_collector().export(trace_id)
        if not spans:
            self.write("no spans recorded")
            return
        grouped: dict = {}
        order: List[str] = []
        for span in spans:
            tid = span.get("trace_id", "?")
            if tid not in grouped:
                grouped[tid] = []
                order.append(tid)
            grouped[tid].append(span)
        shown = order if trace_id else order[-10:]
        if len(order) > len(shown):
            self.write(
                f"({len(order)} traces recorded; showing the last "
                f"{len(shown)} — filter with \\traces TRACE_ID)"
            )
        for tid in shown:
            self.write(f"trace {tid}")
            for span in sorted(
                grouped[tid], key=lambda s: s.get("started_at", 0.0)
            ):
                node = span.get("node") or "-"
                self.write(
                    f"  {span.get('name', '?'):<18} node={node:<10} "
                    f"{span.get('duration_ms', 0.0):9.3f} ms  "
                    f"span={span.get('span_id')} "
                    f"parent={span.get('parent_id') or '-'}"
                )

    def _events(self, argument: str) -> None:
        """``\\events [KIND]`` — the structured event journal."""
        kind = argument.split()[0] if argument else None
        if self.client is not None:
            try:
                events = self.client.events(kind=kind)
            except DatabaseError as error:
                self.write(self._format_error(error))
                return
        else:
            from .observability import events as observability_events

            events = observability_events.get_journal().export(kind)
        if not events:
            self.write("no events recorded")
            return
        for event in events:
            node = event.get("node") or "-"
            detail = event.get("detail") or {}
            rendered = " ".join(
                f"{key}={value}" for key, value in sorted(detail.items())
            )
            self.write(
                f"  #{event.get('seq'):<5} {event.get('kind', '?'):<16} "
                f"node={node:<10} {rendered}"
            )

    def _set_timeout(self, argument: str) -> None:
        """``\\timeout MS`` — session statement budget; ``off`` clears."""
        if not argument:
            if self.timeout_ms is None:
                self.write("timeout off")
            else:
                self.write(f"timeout {self.timeout_ms} ms")
            return
        if argument.lower() in ("off", "0", "none"):
            self.timeout_ms = None
            self._apply_timeout(None)
            self.write("timeout off")
            return
        try:
            ms = int(argument)
            if ms <= 0:
                raise ValueError
        except ValueError:
            self.write("usage: \\timeout MS|off")
            return
        self.timeout_ms = ms
        self._apply_timeout(ms)
        self.write(f"timeout {ms} ms")

    def _apply_timeout(self, ms: Optional[int]) -> None:
        if self.client is not None:
            # session-level budget on the server; combined (tightest
            # knob wins) with any server-wide budget
            self.client.set_budget(
                {"timeout_ms": ms} if ms is not None else None
            )
        else:
            self.db.set_budget(
                QueryBudget(timeout_ms=ms) if ms is not None else None
            )

    def _replica_command(self, argument: str) -> None:
        """``\\replica status`` — render the cluster's status rows."""
        if argument.lower() != "status":
            self.write("usage: \\replica status")
            return
        if self.cluster is None:
            self.write("error: replication is not configured")
            return
        rows = self.cluster.status()
        self.write(
            f"epoch {self.cluster.epoch}, tick {self.cluster.tick}, "
            f"primary {self.cluster.primary.name}"
        )
        for row in rows:
            self.write(
                f"  {row['node']:<12} {row['role']:<8} e{row['epoch']} "
                f"seq={row['sequence']} lag={row['lag']} "
                f"acked={row['acked']} shipped={row['shipped']} {row['state']}"
            )

    def _cluster_command(self, argument: str) -> None:
        """``\\cluster status`` — this node's cluster view, rendered
        identically whether the state comes from an in-process
        :class:`~repro.replication.node.ClusterNode` or over the wire
        via ``CLUSTER_STATE``."""
        if argument.lower() not in ("", "status"):
            self.write("usage: \\cluster status")
            return
        if self.client is not None:
            try:
                state = self.client.cluster_state()
            except DatabaseError as error:
                self.write(self._format_error(error))
                return
        elif self.node is not None:
            state = self.node.state_message()
        else:
            self.write("error: this is not a cluster node")
            return
        leader = state.get("leader") or {}
        leader_text = (
            f"{leader.get('node')} ({leader.get('host')}:"
            f"{leader.get('port')})"
            if leader
            else "unknown (mid-election?)"
        )
        self.write(
            f"node        {state.get('node', '?')}  "
            f"role={state.get('role', '?')}  "
            f"epoch={state.get('epoch')}  seq={state.get('sequence')}  "
            f"lag={state.get('lag')}"
        )
        flags = [
            flag
            for flag in ("fenced", "quarantined")
            if state.get(flag)
        ]
        if flags:
            self.write(f"flags       {', '.join(flags)}")
        self.write(f"health      {state.get('health', '?')}")
        self.write(f"leader      {leader_text}")
        peers = state.get("peers") or []
        if not peers:
            self.write("peers       (none seen)")
            return
        for peer in peers:
            age = ""
            if peer.get("polled_at"):
                age = f"  seen {max(0.0, time.time() - peer['polled_at']):.1f}s ago"
            self.write(
                f"  {peer.get('node', '?'):<12} "
                f"{peer.get('role', '?'):<8} "
                f"e{peer.get('epoch')} seq={peer.get('sequence')} "
                f"lag={peer.get('lag')}{age}"
            )

    def _shards_command(self, argument: str) -> None:
        """``\\shards [status]`` — the endpoint's SHARD_STATE: a
        router's map + health + routing counters, or a shard server's
        own identity."""
        if argument.lower() not in ("", "status"):
            self.write("usage: \\shards status")
            return
        if self.client is None:
            self.write("error: \\shards needs a remote connection "
                       "(--connect to a router or shard)")
            return
        try:
            state = self.client.shard_state()
        except DatabaseError as error:
            self.write(self._format_error(error))
            return
        if not state.get("sharded"):
            shard = state.get("shard")
            if shard is None:
                self.write("not sharded: a standalone server")
            else:
                self.write(
                    f"shard {shard.get('index')} of {shard.get('count')} "
                    f"({shard.get('slots')} slots, "
                    f"map v{shard.get('version')})"
                )
            return
        shard_map = state.get("map") or {}
        self.write(
            f"router      {shard_map.get('shard_count')} shard(s), "
            f"{shard_map.get('slots')} slots, "
            f"map v{shard_map.get('version')}, "
            f"write seq {state.get('global_sequence')}"
        )
        for shard in state.get("shards") or []:
            health = "healthy" if shard.get("healthy") else "UNREACHABLE"
            self.write(
                f"  shard {shard.get('index')}  "
                f"{shard.get('host')}:{shard.get('port')}  {health}"
            )
        tables = shard_map.get("tables") or {}
        for name, info in sorted(tables.items()):
            placement = (
                "broadcast" if info.get("broadcast")
                else f"partition by {info.get('partition_by')}"
            )
            self.write(f"  table {name}: {placement}")
        views = shard_map.get("graph_views") or {}
        for name, info in sorted(views.items()):
            placement = (
                "broadcast" if info.get("broadcast")
                else "coordinator-only (partitioned sources)"
            )
            self.write(f"  graph view {name}: {placement}")
        routing = state.get("routing") or {}
        self.write(
            "routing     "
            + "  ".join(f"{k}={v}" for k, v in sorted(routing.items()))
        )

    def _promote(self, argument: str) -> None:
        """``\\promote [NAME]`` — manual failover to a replica."""
        if self.cluster is None:
            self.write("error: replication is not configured")
            return
        try:
            new_primary = self.cluster.promote(argument or None)
        except DatabaseError as error:
            self.write(self._format_error(error))
            return
        self.db = new_primary.db
        self.write(
            f"promoted {new_primary.name} to primary "
            f"(epoch {new_primary.epoch})"
        )

    def _health(self) -> None:
        """``\\health`` — engine health, local or over the wire."""
        if self.client is not None:
            try:
                info = self.client.health()
            except DatabaseError as error:
                self.write(self._format_error(error))
                return
            self.write(
                f"state       {info.get('state', '?')}"
                + (f"  ({info['reason']})" if info.get("reason") else "")
            )
            self.write(f"role        {info.get('role', '?')}")
            self.write(f"liveness    {info.get('liveness')}")
            ready = info.get("readiness") or {}
            self.write(
                f"readiness   reads={ready.get('reads')} "
                f"writes={ready.get('writes')}"
            )
            if info.get("last_error"):
                self.write(f"last error  {info['last_error']}")
            replication = info.get("replication")
            if replication:
                self._render_replication(replication)
            supervisor = info.get("supervisor")
            if supervisor:
                self._render_supervisor(supervisor)
            return
        health = self.db.health.status()
        self.write(
            f"state       {health['state']}"
            + (f"  ({health['reason']})" if health.get("reason") else "")
        )
        self.write(
            f"writes      {'accepted' if self.db.health.allows_writes() else 'rejected (DEGRADED)'}"
        )
        if health.get("last_error"):
            self.write(f"last error  {health['last_error']}")
        if self.node is not None:
            self._render_replication(self.node.replication_status())
        if self.supervisor is not None:
            self._render_supervisor(self.supervisor.status())

    def _render_replication(self, status: dict) -> None:
        """Render the HEALTH message's replication section: role,
        epoch, and apply lag, so replica staleness is visible from the
        operator's seat."""
        line = (
            f"replication {status.get('role', '?')} "
            f"e{status.get('epoch')} seq={status.get('sequence')} "
            f"lag={status.get('lag')}"
        )
        flags = [
            flag
            for flag in ("fenced", "quarantined")
            if status.get(flag)
        ]
        if flags:
            line += f" [{', '.join(flags)}]"
        self.write(line)
        leader = status.get("leader")
        if leader:
            self.write(f"leader      {leader}")
        replicas = status.get("replicas")
        if replicas:
            for name, lag in sorted(replicas.items()):
                self.write(f"  replica   {name:<12} lag={lag}")
        elif status.get("role") == "replica":
            self.write(
                "  connected "
                + ("yes" if status.get("connected") else "no (dialing)")
            )

    def _render_supervisor(self, status: dict) -> None:
        """Render the counters a supervisor's ``status()`` exposes."""
        self.write(
            f"supervisor  epoch {status.get('epoch')} "
            f"seq {status.get('sequence')} sync={status.get('sync')}"
        )
        checkpoints = status.get("checkpoints") or {}
        probes = status.get("probes") or {}
        heal = status.get("heal") or {}
        breaker = heal.get("breaker") or {}
        self.write(
            f"checkpoints taken={checkpoints.get('taken', 0)} "
            f"failed={checkpoints.get('failed', 0)}"
        )
        self.write(
            f"probes      run={probes.get('run', 0)} "
            f"failed={probes.get('failed', 0)} "
            f"consecutive_ok={probes.get('consecutive_ok', 0)}"
        )
        self.write(
            f"self-heal   attempted={heal.get('attempted', 0)} "
            f"succeeded={heal.get('succeeded', 0)} "
            f"breaker={breaker.get('state', '?')}"
        )
        self.write(f"fsync       retries={status.get('fsync_retries', 0)}")
        if status.get("last_durable_error"):
            self.write(f"durable err {status['last_durable_error']}")

    def _list_objects(self) -> None:
        catalog = self.db.catalog
        for table in sorted(catalog.tables(), key=lambda t: t.name.lower()):
            self.write(f"table       {table.name} ({table.row_count} rows)")
        for name in sorted(catalog._views):
            view = catalog.view(name)
            self.write(
                f"view        {view.name} ({view.table.row_count} rows)"
            )
        for view in sorted(
            catalog.graph_views(), key=lambda v: v.name.lower()
        ):
            self.write(
                f"graph view  {view.name} (|V|="
                f"{view.topology.vertex_count}, |E|="
                f"{view.topology.edge_count})"
            )

    def _show_schema(self, name: str) -> None:
        if not name:
            self.write("usage: .schema NAME")
            return
        catalog = self.db.catalog
        if catalog.has_graph_view(name):
            view = catalog.graph_view(name)
            direction = "directed" if view.directed else "undirected"
            self.write(f"graph view {view.name} ({direction})")
            self.write(
                f"  vertexes from {view.vertex_table.name}: "
                f"Id + {', '.join(view.vertex_schema.names) or '(no attrs)'}"
            )
            self.write(
                f"  edges from {view.edge_table.name}: Id, From, To + "
                f"{', '.join(view.edge_schema.names) or '(no attrs)'}"
            )
            return
        try:
            table = (
                catalog.table(name)
                if catalog.has_table(name)
                else catalog.view(name).table
            )
        except DatabaseError:
            self.write(f"unknown object: {name}")
            return
        for column in table.schema.columns:
            flags = []
            if column.primary_key:
                flags.append("PRIMARY KEY")
            elif not column.nullable:
                flags.append("NOT NULL")
            suffix = (" " + " ".join(flags)) if flags else ""
            self.write(f"  {column.name} {column.sql_type.value}{suffix}")
        for index in table.indexes.values():
            if index is table.primary_key_index:
                kind = "PRIMARY KEY"
            else:
                kind = ("unique " if index.unique else "") + (
                    "ordered" if isinstance(index, OrderedIndex) else "hash"
                )
            self.write(
                f"  index {index.name} ({', '.join(index.key_columns)}) {kind}"
            )

    def _explain(self, sql: str) -> None:
        if not sql:
            self.write("usage: .explain SELECT ... | UPDATE ... | DELETE ...")
            return
        try:
            if self.client is not None:
                result = self.client.execute("EXPLAIN " + sql.rstrip(";"))
                self.write("\n".join(str(row[0]) for row in result.rows))
            else:
                self.write(self.db.explain(sql.rstrip(";")))
        except DatabaseError as error:
            self.write(self._format_error(error))

    def _run_script(self, path: str) -> None:
        if not path:
            self.write("usage: .run FILE")
            return
        try:
            with open(path) as handle:
                script = handle.read()
        except OSError as error:
            self.write(f"cannot read {path}: {error}")
            return
        try:
            results = self.db.execute_script(script)
        except DatabaseError as error:
            self.write(self._format_error(error))
            return
        self.write(f"ok ({len(results)} statement(s))")

    # ------------------------------------------------------------------

    def run(self, lines: Optional[Iterable[str]] = None) -> None:
        """Main loop; reads stdin unless ``lines`` is supplied."""
        self.write("repro shell — graphs inside a relational database")
        self.write("statements end with ';' — .help for commands")
        if lines is not None:
            for line in lines:
                if self.done:
                    break
                self._feed_line_safely(line)
            return
        while not self.done:
            try:
                line = input(self.prompt())
            except EOFError:
                break
            except KeyboardInterrupt:
                self._buffer = []
                self.write("")
                continue
            self._feed_line_safely(line)

    def _feed_line_safely(self, line: str) -> None:
        """Backstop: a DatabaseError escaping a command never kills the
        loop (statement execution already reports errors inline)."""
        try:
            self.feed_line(line)
        except DatabaseError as error:
            self.write(self._format_error(error))


def main() -> None:  # pragma: no cover - thin CLI wrapper
    Shell().run()


if __name__ == "__main__":  # pragma: no cover
    main()
