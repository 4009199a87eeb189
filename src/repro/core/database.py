"""The GRFusion database façade.

One :class:`Database` instance is one in-memory database: tables,
materialized views, graph views, and a SQL interface covering the
paper's dialect::

    db = Database()
    db.execute("CREATE TABLE Users (uId INTEGER PRIMARY KEY, lName VARCHAR)")
    db.execute("CREATE TABLE Rel (relId INTEGER PRIMARY KEY, "
               "uId INTEGER, uId2 INTEGER, sDate INTEGER)")
    db.execute(
        "CREATE UNDIRECTED GRAPH VIEW SocialNetwork "
        "VERTEXES(ID = uId, lstName = lName) FROM Users "
        "EDGES(ID = relId, FROM = uId, TO = uId2, sdate = sDate) FROM Rel")
    db.execute("SELECT PS.EndVertex.lstName FROM Users U, "
               "SocialNetwork.Paths PS "
               "WHERE PS.StartVertex.Id = U.uId AND PS.Length = 2")

Statements run in an implicit transaction unless one was opened with
:meth:`Database.begin`; on error all effects (including graph-view
topology changes) are rolled back.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .. import budget as budget_module
from ..budget import CancellationToken, QueryBudget
from ..errors import (
    CatalogError,
    DegradedError,
    ExecutionError,
    PlanningError,
    QueryCancelledError,
    ReadOnlyError,
    ResourceExhaustedError,
)
from ..expr.compile import ExpressionCompiler
from ..expr.scope import RelationBinding, Scope
from ..graph.graph_view import GraphView, build_graph_view
from ..observability import context as observability_context
from ..observability import tracer as tracer_module
from ..observability import tracing as tracing_module
from ..observability.metrics import recording_registry
from ..observability.slowlog import SlowQueryLog
from ..observability.tracer import QueryTracer
from ..planner.options import PlannerOptions
from ..resilience.health import HealthMonitor
from ..planner.rewrite import find_relational_aggregates
from ..planner.select_planner import PlannedQuery, SelectPlanner
from ..sql import Parser, ast, parse_statement
from ..storage.catalog import Catalog
from ..storage.index import HashIndex, Index, OrderedIndex
from ..storage.schema import Column, TableSchema
from ..storage.table import Table
from ..txn.transactions import TransactionManager, UndoListener
from ..types import SqlType
from .result import ResultSet
from .views import MaterializedView


_STREAM_DONE = object()  # sentinel: stream() iterator exhausted

#: Statement types that mutate durable state. The command log replays
#: exactly these on recovery, and a database in the ``"replica"`` role
#: rejects them unless they arrive through :meth:`Database.apply_replicated`.
WRITE_STATEMENT_TYPES = (
    ast.CreateTable,
    ast.CreateIndex,
    ast.CreateView,
    ast.CreateGraphView,
    ast.AlterGraphViewAddSource,
    ast.Drop,
    ast.Insert,
    ast.Update,
    ast.Delete,
    ast.Truncate,
)

#: Valid values for :attr:`Database.role`.
ROLES = ("standalone", "primary", "replica")


def statement_is_write(statement: ast.Statement) -> bool:
    """True when a parsed statement mutates durable state.

    This is the engine's single read/write classification point: the
    statement funnel uses it to decide what the command log records,
    replicas use it to reject client writes, and the network server
    uses it to route a statement either to the single-writer scheduler
    (writes, serialized) or to the calling session thread (reads,
    concurrent).
    """
    return isinstance(statement, WRITE_STATEMENT_TYPES)


def _stream_rows(operator, token: Optional[CancellationToken]):
    """Yield an operator's rows lazily, enforcing ``token`` per pull."""
    if token is None:
        for row in operator:
            yield tuple(row)
        return
    iterator = iter(operator)
    try:
        while True:
            # the ambient token is scoped to each pull, so interleaved
            # statements (or other streams) govern themselves correctly
            with budget_module.activate(token):
                row = next(iterator, _STREAM_DONE)
                if row is _STREAM_DONE:
                    return
                token.tick_rows()
            yield tuple(row)
    finally:
        # closing the generator early (or an exception escaping a
        # pull) must never strand the token on the ambient stack,
        # where it would govern unrelated statements
        budget_module.deactivate(token)


class Database:
    """An in-memory relational database with native graph views."""

    def __init__(
        self,
        planner_options: Optional[PlannerOptions] = None,
        budget: Optional[QueryBudget] = None,
    ):
        self.catalog = Catalog()
        self.transactions = TransactionManager()
        self.planner_options = planner_options or PlannerOptions()
        self.budget = budget
        self.recovery_report = None  # set by Database.recover / replay_log
        #: Replication role: "standalone" (default), "primary", or
        #: "replica". Replicas reject client writes (see set_role).
        self.role = "standalone"
        self._replica_apply_depth = 0
        #: Engine health: a durable-write failure flips this to
        #: DEGRADED and the database becomes read-only (see
        #: :mod:`repro.resilience.health`).
        self.health = HealthMonitor()
        #: Replication position embedded in the snapshot this database
        #: was restored from (``{"epoch": E, "sequence": S}`` or None);
        #: set by :func:`~repro.core.snapshot.restore_into` so recovery
        #: replays only the log records past the snapshot.
        self.snapshot_replication: Optional[Dict[str, Any]] = None
        #: The attached :class:`~repro.core.command_log.CommandLog` (at
        #: most one, or None): :meth:`execute_parsed` hands it every
        #: successful write, :meth:`commit` / :meth:`rollback` settle
        #: what an explicit transaction left pending in it.
        self.command_log = None
        self._undo_listener = UndoListener(self.transactions)
        #: Bounded log of statements slower than the configured
        #: threshold (off until :meth:`set_slow_query_threshold`).
        self.slow_queries = SlowQueryLog()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def set_role(self, role: str) -> None:
        """Set the replication role of this database.

        ``"replica"`` makes the database read-only for clients: any
        data-changing statement raises
        :class:`~repro.errors.ReadOnlyError`. Replication applies the
        primary's shipped statements through :meth:`apply_replicated`,
        which is exempt — the log stream is the *only* write path on a
        replica, which is what keeps replicas convergent.
        """
        if role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}, got {role!r}")
        self.role = role

    def apply_replicated(
        self, sql: str, budget: Optional[QueryBudget] = None
    ) -> ResultSet:
        """Replica apply hook: execute one replicated statement even
        though the database's role is ``"replica"``.

        This is the single write entry point replication uses when it
        applies the primary's command-log stream through the ordinary
        replay path; client-facing code must use :meth:`execute`.
        """
        self._replica_apply_depth += 1
        try:
            return self.execute(sql, budget=budget)
        finally:
            self._replica_apply_depth -= 1

    def set_budget(self, budget: Optional[QueryBudget]) -> None:
        """Install (or clear, with ``None``) the database-level budget.

        Every subsequent statement runs under the tightest combination
        of this budget, the planner-options budget, and any
        per-statement budget passed to :meth:`execute`.
        """
        self.budget = budget

    def _effective_budget(
        self, statement_budget: Optional[QueryBudget]
    ) -> Optional[QueryBudget]:
        return QueryBudget.tightest(
            self.planner_options.budget, self.budget, statement_budget
        )

    def _start_token(
        self, statement_budget: Optional[QueryBudget]
    ) -> Optional[CancellationToken]:
        effective = self._effective_budget(statement_budget)
        if effective is None or effective.is_unlimited():
            return None
        return effective.start()

    def execute(
        self,
        sql: str,
        budget: Optional[QueryBudget] = None,
        token: Optional[CancellationToken] = None,
    ) -> ResultSet:
        """Parse and run one SQL statement.

        ``budget`` adds per-statement resource limits on top of any
        database-level or planner-level budget (tightest knob wins); an
        exhausted budget raises
        :class:`~repro.errors.ResourceExhaustedError` and rolls the
        implicit transaction back to a consistent state.

        ``token`` supplies an externally owned
        :class:`~repro.budget.CancellationToken` instead of starting a
        fresh one — the network server passes the session's token here
        so a client disconnect can cancel the running statement. When
        given, it overrides ``budget`` (the caller already combined the
        budget levels when it started the token).
        """
        return self.execute_parsed(parse_statement(sql), sql, budget, token)

    def execute_parsed(
        self,
        statement: ast.Statement,
        sql: str,
        budget: Optional[QueryBudget] = None,
        token: Optional[CancellationToken] = None,
    ) -> ResultSet:
        """Run one already-parsed statement; ``sql`` is its source text.

        This is the statement lifecycle, owned in one place: the role /
        health gate and the run (:meth:`_execute_statement`) under the
        statement's token, then the metrics / span / slow-log record,
        then — for a successful write — the hand-off to the attached
        command log (append + fsync, or pending inside an explicit
        transaction). :meth:`execute`, :meth:`execute_script` and
        :meth:`apply_replicated` all arrive here, as does the network
        server with the statement it parsed to route.
        """
        kind = type(statement).__name__
        started = time.perf_counter()
        try:
            if token is None:
                token = self._start_token(budget)
            if token is None:
                result = self._execute_statement(statement)
            else:
                with budget_module.activate(token):
                    result = self._execute_statement(statement, token)
        except (ResourceExhaustedError, QueryCancelledError) as exc:
            self._record_statement_abort(kind, exc)
            raise
        self._record_statement(sql, kind, started, result)
        if self.command_log is not None and statement_is_write(statement):
            self.command_log.record(sql)
        return result

    def set_slow_query_threshold(self, threshold_ms: Optional[float]) -> None:
        """Record statements slower than ``threshold_ms`` in
        :attr:`slow_queries` (``None`` disables the log)."""
        self.slow_queries.set_threshold(threshold_ms)

    def _record_statement(
        self, sql: str, kind: str, started: float, result: ResultSet
    ) -> None:
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        registry = recording_registry()
        if registry is not None:
            registry.counter(
                "repro_statements_total",
                help="Statements executed, by AST kind.",
                kind=kind,
            ).inc()
            registry.histogram(
                "repro_statement_duration_ms",
                help="End-to-end statement latency in milliseconds.",
            ).observe(elapsed_ms)
        rows = len(result.rows) if result.rows else 0
        session = observability_context.current_session_label()
        trace = tracing_module.current_trace()
        if trace is not None:
            # the execution span: parse + plan + run, as measured here
            tracing_module.record_span(
                "db.execute",
                elapsed_ms,
                context=trace,
                kind=kind,
                rows=rows,
                session=session or None,
            )
        if self.slow_queries.observe(
            sql,
            elapsed_ms,
            rows,
            kind,
            session,
            trace_id=trace.trace_id if trace is not None else "",
            node=tracing_module.current_node_label(),
        ):
            if registry is not None:
                registry.counter(
                    "repro_slow_queries_total",
                    help="Statements recorded by the slow-query log.",
                ).inc()

    def _record_statement_abort(self, kind: str, exc: BaseException) -> None:
        cause = type(exc).__name__
        registry = recording_registry()
        if registry is not None:
            registry.counter(
                "repro_statement_aborts_total",
                help="Statements aborted by the resource governor.",
                cause=cause,
                kind=kind,
            ).inc()
        tracer = tracer_module.current_tracer()
        if tracer is not None:
            tracer.record_abort(f"{cause}: {exc}")

    def execute_script(
        self, sql: str, budget: Optional[QueryBudget] = None
    ) -> List[ResultSet]:
        """Run a ``;``-separated sequence of statements.

        The ``budget`` (if any) applies to each statement individually,
        matching :meth:`execute` semantics.
        """
        return [
            self.execute_parsed(statement, source, budget)
            for statement, source in Parser(sql).parse_many()
        ]

    def prepare(self, sql: str) -> "PreparedQuery":
        """Plan a parameterized SELECT once; execute it many times.

        ``?`` placeholders bind positionally::

            reach = db.prepare(
                "SELECT PS.PathString FROM G.Paths PS "
                "WHERE PS.StartVertex.Id = ? AND PS.EndVertex.Id = ? "
                "LIMIT 1")
            reach.execute(1, 9)

        This is the VoltDB stored-procedure execution model the paper's
        measurements assume: parsing and planning are paid once, not per
        query.
        """
        statement = parse_statement(sql)
        if not isinstance(statement, ast.Select):
            raise PlanningError("only SELECT statements can be prepared")
        return PreparedQuery(self, statement)

    def stream(self, sql: str, budget: Optional[QueryBudget] = None):
        """Execute a SELECT and yield result rows lazily.

        Unlike :meth:`execute`, nothing is materialized: rows are pulled
        through the operator pipeline on demand, so a consumer that
        stops early (or a query over a huge path enumeration) only pays
        for what it reads. The row layout matches ``execute(...).rows``.

        A ``budget`` (or database/planner-level budget) is enforced per
        pull; note the wall-clock deadline covers the generator's whole
        lifetime, including time the consumer spends suspended.
        """
        statement = parse_statement(sql)
        if not isinstance(statement, ast.Select):
            raise PlanningError("stream() only supports SELECT statements")
        planned = self._plan_select(statement)
        yield from _stream_rows(planned.operator, self._start_token(budget))

    def explain(
        self,
        sql: str,
        analyze: bool = False,
        budget: Optional[QueryBudget] = None,
    ) -> str:
        """The physical plan of a SELECT — or the access plan of an
        UPDATE / DELETE under a ``Update(table)`` / ``Delete(table)``
        line — one operator per line.

        With ``analyze=True`` (or an ``EXPLAIN ANALYZE ...`` statement)
        the query is actually executed under a
        :class:`~repro.observability.tracer.QueryTracer` and every plan
        node is annotated with its actual row count, ``next()`` calls,
        restarts and inclusive elapsed time; traversal scans additionally
        report paths/vertices/edges visited and the frontier peak. A
        leading ``EXPLAIN [ANALYZE]`` in ``sql`` itself is accepted and
        unwrapped, so ``db.explain("EXPLAIN ANALYZE SELECT ...")`` and
        ``db.explain("SELECT ...", analyze=True)`` are equivalent.
        """
        statement = parse_statement(sql)
        if isinstance(statement, ast.Explain):
            analyze = analyze or statement.analyze
            statement = statement.statement
        return self._explain_statement(statement, analyze, budget)

    def _explain_statement(
        self,
        statement: ast.Statement,
        analyze: bool,
        budget: Optional[QueryBudget] = None,
    ) -> str:
        kind = type(statement).__name__
        if isinstance(statement, (ast.Update, ast.Delete)) and not analyze:
            table = self._resolve_writable_table(statement.table)
            plan = self._make_planner().plan_dml_targets(table, statement.where)
            return f"{kind}({table.name})\n{plan.explain(1)}"
        if not isinstance(statement, ast.Select):
            what, plannable = (
                ("EXPLAIN ANALYZE", "SELECT")
                if analyze
                else ("EXPLAIN", "SELECT, UPDATE and DELETE")
            )
            raise PlanningError(
                f"{what} is only supported for {plannable} (got {kind})"
            )
        planned = self._plan_select(statement)
        if not analyze:
            return planned.explain()
        return self._explain_analyze(planned, budget)

    def _explain_analyze(
        self, planned: PlannedQuery, budget: Optional[QueryBudget]
    ) -> str:
        """Execute ``planned`` under a tracer; render the annotated plan."""
        tracer = QueryTracer()
        token = self._start_token(budget)
        started = time.perf_counter()
        row_count = 0
        try:
            with tracer_module.activate(tracer):
                if token is None:
                    for _row in planned.operator:
                        row_count += 1
                else:
                    with budget_module.activate(token):
                        for _row in planned.operator:
                            token.tick_rows()
                            row_count += 1
        except (ResourceExhaustedError, QueryCancelledError) as exc:
            # the partial actuals are the interesting part of an aborted
            # run, so render them instead of re-raising
            tracer.record_abort(f"{type(exc).__name__}: {exc}")
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        lines = [tracer.annotate(planned.operator)]
        lines.append(f"Execution: {row_count} row(s) in {elapsed_ms:.2f} ms")
        if tracer.abort_cause is not None:
            lines.append(f"Aborted: {tracer.abort_cause}")
        return "\n".join(lines)

    def begin(self) -> None:
        """Open an explicit transaction."""
        self.transactions.begin()

    def commit(self) -> None:
        self.transactions.commit()
        if self.command_log is not None:
            self.command_log.commit()

    def rollback(self) -> None:
        self.transactions.rollback()
        if self.command_log is not None:
            self.command_log.rollback()

    def table(self, name: str) -> Table:
        return self.catalog.table(name)

    def graph_view(self, name: str) -> GraphView:
        return self.catalog.graph_view(name)

    def analyze(self) -> Dict[str, Dict[str, Any]]:
        """Refresh catalog statistics (the paper's Section-6.3 backend
        thread, run on demand): per-table row counts and per-graph-view
        fan-out statistics used by the traversal-choice heuristic.

        Returns the statistics dictionary (also stored in
        ``catalog.statistics``).
        """
        statistics: Dict[str, Dict[str, Any]] = {}
        for table in self.catalog.tables():
            statistics[table.name] = {"row_count": table.row_count}
        for view in self.catalog.graph_views():
            view._invalidate_statistics()
            histogram = view.topology.degree_histogram()
            statistics[view.name] = {
                "vertex_count": view.topology.vertex_count,
                "edge_count": view.topology.edge_count,
                "average_fan_out": view.average_fan_out(),
                "max_fan_out": max(histogram) if histogram else 0,
                "topology_bytes": view.topology.memory_estimate_bytes(),
            }
        self.catalog.statistics = statistics
        return statistics

    def save_snapshot(self, path: str) -> None:
        """Persist the whole database (schema + data + graph views) to
        a JSON snapshot file; restore with :meth:`load_snapshot`."""
        from .snapshot import save_snapshot

        save_snapshot(self, path)

    @classmethod
    def load_snapshot(cls, path: str) -> "Database":
        """Rebuild a database from a snapshot file."""
        from .snapshot import load_snapshot

        return load_snapshot(path, cls())

    @classmethod
    def recover(
        cls,
        snapshot: Optional[str] = None,
        command_log: Optional[str] = None,
        on_error: str = "abort",
    ) -> "Database":
        """Crash recovery façade: restore ``snapshot`` (if given), then
        replay ``command_log`` (if given) under the ``on_error`` policy
        (``"abort"`` | ``"skip"`` | ``"stop"``, see
        :func:`~repro.core.command_log.replay_log`).

        The resulting database carries a
        :class:`~repro.core.command_log.RecoveryReport` in
        ``db.recovery_report`` describing replayed statements, any
        dropped torn tail, and skipped corrupt lines.

        When the snapshot embeds a replication position (checkpoints
        written by the supervisor do), replay resumes *after* that
        position: a crash between the checkpoint's snapshot rename and
        its log truncation leaves the snapshot and the log overlapping,
        and replaying the overlap would double-apply it.
        """
        from .command_log import replay_log
        from .snapshot import load_snapshot

        database = cls()
        if snapshot is not None:
            load_snapshot(snapshot, database)
        if command_log is not None:
            position = database.snapshot_replication or {}
            replay_log(
                command_log,
                database,
                on_error=on_error,
                from_sequence=int(position.get("sequence", 0) or 0),
            )
        return database

    def load_rows(self, table_name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Bulk-insert pre-built rows (bypasses SQL parsing, still fires
        all constraint / index / graph-view maintenance)."""
        table = self._resolve_writable_table(table_name)
        count = 0
        for row in rows:
            table.insert(row)
            count += 1
        return count

    # ------------------------------------------------------------------
    # statement dispatch
    # ------------------------------------------------------------------

    def _execute_statement(
        self,
        statement: ast.Statement,
        token: Optional[CancellationToken] = None,
    ) -> ResultSet:
        if (
            self.role == "replica"
            and self._replica_apply_depth == 0
            and isinstance(statement, WRITE_STATEMENT_TYPES)
        ):
            raise ReadOnlyError(
                f"{type(statement).__name__} rejected: this database is a "
                "read-only replica (writes go to the primary)"
            )
        if (
            self._replica_apply_depth == 0
            and isinstance(statement, WRITE_STATEMENT_TYPES)
            and not self.health.allows_writes()
        ):
            # Recovery and replication replay through apply_replicated
            # (depth > 0): the supervisor must be able to rebuild state
            # while the engine is RECOVERING.
            raise DegradedError(
                f"{type(statement).__name__} rejected: the database is "
                f"{self.health.state} (read-only) — "
                f"{self.health.reason or 'durable writes are unavailable'}"
            )
        if isinstance(statement, ast.Explain):
            text = self._explain_statement(statement.statement, statement.analyze)
            return ResultSet(
                ["QUERY PLAN"], [(line,) for line in text.splitlines()]
            )
        if isinstance(statement, ast.Select):
            return self._plan_and_run_select(statement, token)
        if isinstance(statement, ast.SetOperation):
            return self._execute_set_operation(statement, token)
        if isinstance(statement, ast.CreateTable):
            return self._execute_create_table(statement)
        if isinstance(statement, ast.CreateIndex):
            return self._execute_create_index(statement)
        if isinstance(statement, ast.CreateView):
            return self._execute_create_view(statement)
        if isinstance(statement, ast.CreateGraphView):
            return self._execute_create_graph_view(statement)
        if isinstance(statement, ast.AlterGraphViewAddSource):
            return self._execute_alter_graph_view(statement)
        if isinstance(statement, ast.Drop):
            return self._execute_drop(statement)
        if isinstance(statement, ast.Insert):
            return self._in_transaction(self._execute_insert, statement)
        if isinstance(statement, ast.Update):
            return self._in_transaction(self._execute_update, statement)
        if isinstance(statement, ast.Delete):
            return self._in_transaction(self._execute_delete, statement)
        if isinstance(statement, ast.Truncate):
            return self._in_transaction(self._execute_truncate, statement)
        raise PlanningError(
            f"unsupported statement: {type(statement).__name__}"
        )

    def _in_transaction(self, handler, statement) -> ResultSet:
        """Run a DML handler inside the active or an implicit transaction."""
        if self.transactions.in_transaction:
            return handler(statement)
        self.transactions.begin()
        try:
            result = handler(statement)
        except BaseException:
            self.transactions.rollback()
            raise
        self.transactions.commit()
        return result

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------

    def _make_planner(self) -> SelectPlanner:
        return SelectPlanner(
            self.catalog,
            self.planner_options,
            subquery_executor=lambda sub: self._plan_and_run_select(sub).rows,
        )

    def _plan_select(self, select: ast.Select) -> PlannedQuery:
        return self._make_planner().plan(select)

    def _materialize_subqueries(
        self, expression: Optional[ast.Expression]
    ) -> Optional[ast.Expression]:
        """Evaluate uncorrelated subqueries in a DML expression."""
        if expression is None:
            return None
        return self._make_planner()._materialize_subqueries(expression)

    def _plan_and_run_select(
        self,
        select: ast.Select,
        token: Optional[CancellationToken] = None,
    ) -> ResultSet:
        planned = self._plan_select(select)
        if token is None:
            # subqueries and DML-embedded SELECTs land here: operators
            # still observe the ambient token for time/traversal caps,
            # but max_rows only governs the top-level result
            rows = [tuple(row) for row in planned.operator]
        else:
            rows = []
            for row in planned.operator:
                token.tick_rows()
                rows.append(tuple(row))
        return ResultSet(planned.column_names, rows)

    def _execute_set_operation(
        self,
        statement: ast.SetOperation,
        token: Optional[CancellationToken] = None,
    ) -> ResultSet:
        """``UNION [ALL]``: concatenation with optional deduplication.
        Column names come from the leftmost SELECT (SQL convention)."""
        left = self._execute_statement(statement.left)
        right = self._execute_statement(statement.right)
        if len(left.columns) != len(right.columns):
            raise ExecutionError(
                "UNION operands must have the same number of columns "
                f"({len(left.columns)} vs {len(right.columns)})"
            )
        rows = list(left.rows) + list(right.rows)
        if not statement.all_rows:
            seen = set()
            deduped = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    deduped.append(row)
            rows = deduped
        if token is not None:
            token.tick_rows(len(rows))
        return ResultSet(left.columns, rows)

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def _execute_create_table(self, statement: ast.CreateTable) -> ResultSet:
        columns = [
            Column(
                definition.name,
                SqlType.from_name(definition.type_name),
                nullable=not definition.not_null,
                primary_key=definition.primary_key,
            )
            for definition in statement.columns
        ]
        schema = TableSchema(columns)
        if statement.partition_by is not None:
            # validate now so a sharded CREATE fails identically on the
            # router, the coordinator, and every shard
            schema.position_of(statement.partition_by)
        table = self.catalog.create_table(statement.name, schema)
        table.partition_by = statement.partition_by
        table.add_listener(self._undo_listener)
        return ResultSet()

    def _execute_create_index(self, statement: ast.CreateIndex) -> ResultSet:
        table = self._resolve_writable_table(statement.table)
        self._attach_index(
            table,
            HashIndex(
                statement.name, table.schema, statement.columns, statement.unique
            ),
        )
        return ResultSet()

    def _attach_index(self, table: Table, index: Index) -> None:
        if self.catalog.index_owner(index.name) is not None:
            raise CatalogError(f"duplicate index name: {index.name}")
        table.attach_index(index)
        self.catalog.register_index(index.name, table.name)

    def create_ordered_index(
        self, name: str, table_name: str, columns: Sequence[str], unique=False
    ) -> None:
        """Programmatic API for a range-capable (ordered) index."""
        table = self._resolve_writable_table(table_name)
        self._attach_index(table, OrderedIndex(name, table.schema, columns, unique))

    def _execute_create_view(self, statement: ast.CreateView) -> ResultSet:
        query = statement.query
        planned = self._plan_select(query)
        schema = self._infer_view_schema(query, planned)
        backing = self.catalog.create_table(statement.name, schema)
        backing.add_listener(self._undo_listener)
        incremental = self._incremental_view_parts(query)
        if incremental is not None:
            source, predicate, projections = incremental
            view = MaterializedView(statement.name, query, backing, [source])
            view.attach_incremental(source, predicate, projections)
        else:
            sources = self._view_source_tables(query)
            view = MaterializedView(statement.name, query, backing, sources)
            for row in self._plan_and_run_select(query).rows:
                backing.insert(row)
            view.attach_full_refresh(
                lambda: self._plan_and_run_select(query).rows
            )
        # register after the backing table so the name maps to the view
        self.catalog.drop_table(statement.name)
        self.catalog.register_view(statement.name, view)
        return ResultSet()

    def _infer_view_schema(
        self, query: ast.Select, planned: PlannedQuery
    ) -> TableSchema:
        """Column names from the plan; types copied from plain column
        references, ANY (no coercion) for computed expressions."""
        types: List[SqlType] = []
        source_schemas: Dict[str, TableSchema] = {}
        for item in query.from_items:
            if isinstance(item, ast.TableRef):
                try:
                    source_schemas[item.alias.lower()] = self._resolve_readable_table(
                        item.name
                    ).schema
                except CatalogError:
                    pass
        expressions = [i.expression for i in query.items]
        if len(expressions) != len(planned.column_names):
            expressions = [None] * len(planned.column_names)  # stars expanded
        for expression in expressions:
            inferred = SqlType.ANY
            if (
                isinstance(expression, ast.FieldAccess)
                and len(expression.accessors) == 1
                and isinstance(expression.accessors[0], ast.NameAccessor)
            ):
                schema = source_schemas.get(expression.base.lower())
                if schema is not None and schema.has_column(
                    expression.accessors[0].name
                ):
                    inferred = schema.column(expression.accessors[0].name).sql_type
            types.append(inferred)
        names = self._dedupe_names(planned.column_names)
        return TableSchema(
            [Column(name, sql_type) for name, sql_type in zip(names, types)]
        )

    @staticmethod
    def _dedupe_names(names: List[str]) -> List[str]:
        seen: Dict[str, int] = {}
        out = []
        for name in names:
            key = name.lower()
            if key in seen:
                seen[key] += 1
                out.append(f"{name}_{seen[key]}")
            else:
                seen[key] = 1
                out.append(name)
        return out

    def _incremental_view_parts(self, query: ast.Select):
        """If the view is single-table filter/project, compile the pieces
        for incremental maintenance; else None."""
        if (
            len(query.from_items) != 1
            or not isinstance(query.from_items[0], ast.TableRef)
            or query.group_by
            or query.having is not None
            or query.order_by
            or query.limit is not None
            or query.distinct
        ):
            return None
        table_ref = query.from_items[0]
        try:
            source = self._resolve_readable_table(table_ref.name)
        except CatalogError:
            return None
        if self.catalog.has_view(table_ref.name):
            return None  # view-over-view: keep it simple, full refresh
        binding = RelationBinding(table_ref.alias, 0, source.schema)
        scope = Scope([binding])
        try:
            if any(isinstance(i.expression, ast.Star) for i in query.items):
                projections = [
                    ExpressionCompiler(scope).compile(
                        ast.FieldAccess(
                            table_ref.alias, [ast.NameAccessor(column.name)]
                        )
                    )
                    for column in source.schema.columns
                ]
            else:
                for item in query.items:
                    if find_relational_aggregates(item.expression, scope):
                        return None
                projections = [
                    ExpressionCompiler(scope).compile(item.expression)
                    for item in query.items
                ]
            predicate = (
                ExpressionCompiler(scope).compile(query.where)
                if query.where is not None
                else None
            )
        except PlanningError:
            return None
        return source, predicate, projections

    def _view_source_tables(self, query: ast.Select) -> List[Table]:
        sources = []
        for item in query.from_items:
            if isinstance(item, ast.TableRef):
                try:
                    sources.append(self._resolve_readable_table(item.name))
                except CatalogError:
                    pass
        return sources

    def _execute_create_graph_view(
        self, statement: ast.CreateGraphView
    ) -> ResultSet:
        vertex_table = self._resolve_readable_table(statement.vertex_source)
        edge_table = self._resolve_readable_table(statement.edge_source)
        view = build_graph_view(
            statement.name,
            statement.directed,
            vertex_table,
            statement.vertex_mappings,
            edge_table,
            statement.edge_mappings,
        )
        view.undo_suspension = self.transactions.suspend_undo
        self.catalog.register_graph_view(statement.name, view)
        return ResultSet()

    def _execute_alter_graph_view(
        self, statement: ast.AlterGraphViewAddSource
    ) -> ResultSet:
        """Vertical partitioning (Section 3.2): attach an additional
        attribute relation to an existing graph view."""
        view: GraphView = self.catalog.graph_view(statement.name)
        table = self._resolve_readable_table(statement.source)
        view.attach_attribute_source(statement.element, table, statement.mappings)
        return ResultSet()

    def _execute_drop(self, statement: ast.Drop) -> ResultSet:
        kind, name = statement.kind, statement.name
        if kind == "TABLE":
            self._check_graph_dependencies(name)
            self.catalog.drop_table(name)
        elif kind == "VIEW":
            self._check_graph_dependencies(name)
            view: MaterializedView = self.catalog.view(name)
            view.detach()
            self.catalog.drop_view(name)
        elif kind == "GRAPH VIEW":
            graph_view: GraphView = self.catalog.graph_view(name)
            graph_view.detach_maintenance_listeners()
            self.catalog.drop_graph_view(name)
        elif kind == "INDEX":
            owner = self.catalog.index_owner(name)
            if owner is None:
                raise CatalogError(f"unknown index: {name}")
            self.catalog.table(owner).drop_index(name)
        else:
            raise PlanningError(f"cannot DROP {kind}")
        return ResultSet()

    def _check_graph_dependencies(self, source_name: str) -> None:
        backing = None
        if self.catalog.has_table(source_name):
            backing = self.catalog.table(source_name)
        elif self.catalog.has_view(source_name):
            backing = self.catalog.view(source_name).table
        if backing is None:
            return
        for graph_view in self.catalog.graph_views():
            sources = [graph_view.vertex_table, graph_view.edge_table]
            sources += [
                extra.table
                for extra in graph_view.vertex_extra_sources
                + graph_view.edge_extra_sources
            ]
            if any(source is backing for source in sources):
                raise CatalogError(
                    f"{source_name} is a relational source of graph view "
                    f"{graph_view.name}; drop the graph view first"
                )

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------

    def _resolve_writable_table(self, name: str) -> Table:
        if self.catalog.has_view(name):
            raise ExecutionError(
                f"{name} is a materialized view; write to its source table"
            )
        return self.catalog.table(name)

    def _resolve_readable_table(self, name: str) -> Table:
        if self.catalog.has_table(name):
            return self.catalog.table(name)
        if self.catalog.has_view(name):
            return self.catalog.view(name).table
        raise CatalogError(f"unknown table or view: {name}")

    def _execute_insert(self, statement: ast.Insert) -> ResultSet:
        table = self._resolve_writable_table(statement.table)
        schema = table.schema
        empty_scope = Scope([RelationBinding("#none", 0, schema)])
        positions: Optional[List[int]] = None
        if statement.columns is not None:
            positions = [schema.position_of(c) for c in statement.columns]
        if statement.query is not None:
            return self._insert_from_query(table, positions, statement.query)
        count = 0
        for row_expressions in statement.rows:
            values = [
                ExpressionCompiler(empty_scope).compile(e).fn([None])
                for e in row_expressions
            ]
            if positions is None:
                row = values
            else:
                if len(values) != len(positions):
                    raise ExecutionError(
                        f"INSERT specifies {len(positions)} columns but "
                        f"{len(values)} values"
                    )
                row = [None] * len(schema)
                for position, value in zip(positions, values):
                    row[position] = value
            table.insert(row)
            count += 1
        return ResultSet(rowcount=count)

    def _insert_from_query(
        self,
        table: Table,
        positions: Optional[List[int]],
        query: ast.Select,
    ) -> ResultSet:
        """``INSERT INTO t [cols] SELECT ...`` — the workhorse of the
        Grail baseline's iterative frontier expansion."""
        rows = self._plan_and_run_select(query).rows
        count = 0
        for values in rows:
            if positions is None:
                row: List[Any] = list(values)
            else:
                if len(values) != len(positions):
                    raise ExecutionError(
                        f"INSERT specifies {len(positions)} columns but "
                        f"the query produces {len(values)}"
                    )
                row = [None] * len(table.schema)
                for position, value in zip(positions, values):
                    row[position] = value
            table.insert(row)
            count += 1
        return ResultSet(rowcount=count)

    def _dml_targets(
        self, table: Table, where: Optional[ast.Expression]
    ) -> List[int]:
        """Slots of the rows a WHERE clause selects (all when absent),
        collected in full before the caller mutates anything: a row an
        UPDATE moves along the index it was found through is not met
        again."""
        plan = self._make_planner().plan_dml_targets(table, where)
        return [row[1] for row in plan]

    def _execute_update(self, statement: ast.Update) -> ResultSet:
        table = self._resolve_writable_table(statement.table)
        scope = Scope([RelationBinding(statement.table, 0, table.schema)])
        compiled_assignments = [
            (
                table.schema.position_of(column),
                ExpressionCompiler(scope).compile(
                    self._materialize_subqueries(e)
                ),
            )
            for column, e in statement.assignments
        ]
        slots = self._dml_targets(table, statement.where)
        updates: List[Tuple[int, List[Any]]] = []
        for slot in slots:
            row = list(table.row_at(slot))
            for position, expression in compiled_assignments:
                row[position] = expression.fn([table.row_at(slot)])
            updates.append((slot, row))
        for slot, row in updates:
            table.update(slot, row)
        return ResultSet(rowcount=len(updates))

    def _execute_delete(self, statement: ast.Delete) -> ResultSet:
        table = self._resolve_writable_table(statement.table)
        slots = self._dml_targets(table, statement.where)
        for slot in slots:
            table.delete(slot)
        return ResultSet(rowcount=len(slots))

    def _execute_truncate(self, statement: ast.Truncate) -> ResultSet:
        table = self._resolve_writable_table(statement.table)
        return ResultSet(rowcount=table.truncate())


class PreparedQuery:
    """A SELECT planned once, executable with fresh ``?`` bindings.

    The compiled plan reads parameter values straight off the
    :class:`~repro.sql.ast.Parameter` nodes, so binding is two attribute
    writes and execution re-runs the existing operator tree.
    """

    def __init__(self, database: Database, statement: ast.Select):
        self._database = database
        self._statement = statement
        self._parameters = self._collect_parameters(statement)
        self._planned = database._plan_select(statement)

    @staticmethod
    def _collect_parameters(statement: ast.Select) -> List[ast.Parameter]:
        found: Dict[int, ast.Parameter] = {}

        def scan_expression(expression: Optional[ast.Expression]) -> None:
            if expression is None:
                return
            for node in ast.walk_expression(expression):
                if isinstance(node, ast.Parameter):
                    found[node.index] = node

        scan_expression(statement.where)
        scan_expression(statement.having)
        for item in statement.items:
            scan_expression(item.expression)
        for group in statement.group_by:
            scan_expression(group)
        for order in statement.order_by:
            scan_expression(order.expression)
        def scan_from_item(item: ast.FromItem) -> None:
            if isinstance(item, ast.Join):
                scan_from_item(item.left)
                scan_from_item(item.right)
                scan_expression(item.condition)

        for from_item in statement.from_items:
            scan_from_item(from_item)
        return [found[index] for index in sorted(found)]

    @property
    def parameter_count(self) -> int:
        return len(self._parameters)

    @property
    def column_names(self) -> List[str]:
        return list(self._planned.column_names)

    def explain(self) -> str:
        return self._planned.explain()

    def _bind(self, values) -> None:
        if len(values) != len(self._parameters):
            raise ExecutionError(
                f"prepared query takes {len(self._parameters)} parameter(s), "
                f"got {len(values)}"
            )
        for parameter, value in zip(self._parameters, values):
            parameter.value = value

    def execute(
        self,
        *values: Any,
        budget: Optional[QueryBudget] = None,
        token: Optional[CancellationToken] = None,
    ) -> ResultSet:
        self._bind(values)
        if token is None:
            token = self._database._start_token(budget)
        if token is None:
            rows = [tuple(row) for row in self._planned.operator]
        else:
            with budget_module.activate(token):
                rows = []
                for row in self._planned.operator:
                    token.tick_rows()
                    rows.append(tuple(row))
        return ResultSet(self._planned.column_names, rows)

    def stream(self, *values: Any, budget: Optional[QueryBudget] = None):
        """Bind parameters and yield rows lazily (see Database.stream).

        The parameter bindings live on the shared plan, so do not
        interleave two streams of the same PreparedQuery with different
        bindings.
        """
        self._bind(values)
        yield from _stream_rows(
            self._planned.operator, self._database._start_token(budget)
        )
