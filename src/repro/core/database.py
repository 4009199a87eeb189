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

import math
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .. import ambient
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
from ..observability import tracing as tracing_module
from ..observability.metrics import recording_registry
from ..observability.slowlog import SlowQueryLog
from ..observability.tracer import QueryTracer
from ..planner.options import PlannerOptions
from ..resilience.health import HealthMonitor
from ..planner.rewrite import (
    find_relational_aggregates,
    replace_nodes,
    rewrite_select,
)
from ..planner.select_planner import PlannedQuery, SelectPlanner
from ..sql import Parser, ast, parse_statement
from ..sql.render import render_statement
from ..storage.catalog import Catalog
from ..storage.index import HashIndex, Index, OrderedIndex
from ..storage.schema import Column, TableSchema
from ..storage.table import Table
from ..txn.transactions import TransactionManager, UndoListener
from ..types import SqlType
from .result import ResultSet
from .statement_cache import StatementCache
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
    while True:
        # the ambient token is scoped to each pull — never held across
        # a ``yield`` — so interleaved statements (or other streams)
        # govern themselves, and a generator closed early or a pull
        # that raises strands nothing
        with ambient.activate(token=token):
            row = next(iterator, _STREAM_DONE)
            if row is _STREAM_DONE:
                return
            token.tick_rows()
        yield tuple(row)


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
        self._statements = StatementCache(
            lambda statement: PreparedQuery(self, statement)
        )

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
        """Run one SQL statement.

        A statement runs from the plan cached for its shape (the text
        with its literals lifted out, see :mod:`repro.core.statement_cache`)
        when there is one; the first statement of a shape, and every
        statement the cache does not take, is parsed and planned. A
        cached plan keeps its join order and access paths until DDL,
        :meth:`analyze` or a new :attr:`planner_options` — the contract
        of :meth:`prepare`.

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
        return self.execute_parsed(self.compile(sql), sql, budget, token)

    def compile(self, sql: str) -> Union[ast.Statement, "PreparedQuery"]:
        """``sql`` ready for :meth:`execute_parsed`: the statement
        cache's plan for it, bound to its literals and checked out to
        the caller (parsed and planned first on a miss) — or, for a
        statement the cache does not take, the parsed statement.
        ``.statement`` of a :class:`PreparedQuery` is its syntax tree,
        parameters bound."""
        return self._statements.checkout(sql)

    def execute_parsed(
        self,
        statement: Union[ast.Statement, "PreparedQuery"],
        sql: str,
        budget: Optional[QueryBudget] = None,
        token: Optional[CancellationToken] = None,
    ) -> ResultSet:
        """Run one statement the caller already parsed — or a bound
        :class:`PreparedQuery` (from :meth:`compile`, or a prepared
        write) — whose source text is ``sql``.

        This is the statement lifecycle, owned in one place: the role /
        health gate and the run (:meth:`_execute_statement`) under the
        statement's token, then the metrics / span / slow-log record,
        then — for a successful write — the hand-off to the attached
        command log (append + fsync, or pending inside an explicit
        transaction), which records ``sql``. :meth:`execute`,
        :meth:`execute_script`, :meth:`apply_replicated`, prepared
        writes and the network server all arrive here.
        """
        prepared = statement if isinstance(statement, PreparedQuery) else None
        if prepared is not None:
            statement = prepared.statement
        kind = type(statement).__name__
        started = time.perf_counter()
        try:
            if token is None:
                token = self._start_token(budget)
            if token is None:
                result = self._execute_statement(statement, prepared)
            else:
                with ambient.activate(token=token):
                    result = self._execute_statement(statement, prepared, token)
        except (ResourceExhaustedError, QueryCancelledError) as exc:
            self._record_statement_abort(kind, exc)
            raise
        if prepared is not None and prepared.cache_key is not None:
            self._statements.checkin(prepared)
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
        session = ambient.current_session()
        trace = ambient.current_trace()
        if trace is not None:
            # the execution span: parse + plan + run, as measured here
            tracing_module.record_span(
                "db.execute",
                elapsed_ms,
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
            node=ambient.current_node(),
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
        tracer = ambient.current_tracer()
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
        """Plan a parameterized SELECT, INSERT, UPDATE or DELETE once;
        execute it many times.

        ``?`` placeholders bind positionally::

            reach = db.prepare(
                "SELECT PS.PathString FROM G.Paths PS "
                "WHERE PS.StartVertex.Id = ? AND PS.EndVertex.Id = ? "
                "LIMIT 1")
            reach.execute(1, 9)

        This is the VoltDB stored-procedure execution model the paper's
        measurements assume: parsing and planning are paid once, not per
        query (again only after DDL, :meth:`analyze` or a new
        :attr:`planner_options`).
        """
        prepared = PreparedQuery(self, parse_statement(sql), sql)
        prepared._current_plan()
        return prepared

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
            return _TargetedWritePlan(self, statement, targets_only=True).explain()
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
            with ambient.activate(token=token, tracer=tracer):
                for _row in planned.operator:
                    if token is not None:
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
        self.catalog.changed()
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
        prepared: Optional["PreparedQuery"] = None,
        token: Optional[CancellationToken] = None,
    ) -> ResultSet:
        """Gate, then run ``statement`` — through ``prepared``, its
        compiled form, when the caller has one."""
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
        if prepared is not None:
            return prepared._run(token)
        if isinstance(statement, _COMPILED_STATEMENTS):
            return self._run_plan(self._compile(statement), token)
        if isinstance(statement, ast.Explain):
            text = self._explain_statement(statement.statement, statement.analyze)
            return ResultSet(
                ["QUERY PLAN"], [(line,) for line in text.splitlines()]
            )
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
        if isinstance(statement, ast.Truncate):
            return self._in_transaction(
                lambda: self._execute_truncate(statement)
            )
        raise PlanningError(
            f"unsupported statement: {type(statement).__name__}"
        )

    def _in_transaction(self, run) -> ResultSet:
        """Run a write inside the active or an implicit transaction. A
        write that raises is undone on its own: back to the undo mark it
        started at, so an explicit transaction keeps only the statements
        that succeeded — what the command log holds for it."""
        transactions = self.transactions
        if transactions.in_transaction:
            mark = transactions.active.undo_depth
            try:
                return run()
            except BaseException:
                transactions.rollback_to(mark)
                raise
        transactions.begin()
        try:
            result = run()
        except BaseException:
            transactions.rollback()
            raise
        transactions.commit()
        return result

    def _compile(self, statement: ast.Statement):
        """The executable form of a SELECT (its :class:`PlannedQuery`)
        or of an INSERT / UPDATE / DELETE (a write plan): what
        :meth:`_run_plan` runs, once here or many times as a
        :class:`PreparedQuery`."""
        if isinstance(statement, ast.Select):
            return self._plan_select(statement)
        if isinstance(statement, ast.Insert):
            return _InsertPlan(self, statement)
        if isinstance(statement, (ast.Update, ast.Delete)):
            return _TargetedWritePlan(self, statement)
        raise PlanningError(
            "only SELECT, INSERT, UPDATE and DELETE statements can be "
            f"prepared (got {type(statement).__name__})"
        )

    def _run_plan(
        self, plan, token: Optional[CancellationToken] = None
    ) -> ResultSet:
        """Run a compiled statement: a write inside the active or an
        implicit transaction, a SELECT to its rows. ``token`` (active
        already, when given) counts the rows; subqueries and views run
        without one — operators still observe the ambient token for
        time / traversal caps, but ``max_rows`` only governs the
        top-level result."""
        if not isinstance(plan, PlannedQuery):
            return self._in_transaction(plan.run)
        if token is None:
            rows = [tuple(row) for row in plan.operator]
        else:
            rows = []
            for row in plan.operator:
                token.tick_rows()
                rows.append(tuple(row))
        return ResultSet(plan.column_names, rows)

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------

    def _make_planner(self) -> SelectPlanner:
        return SelectPlanner(
            self.catalog,
            self.planner_options,
            subquery_executor=lambda sub: self._run_plan(
                self._plan_select(sub)
            ).rows,
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

            def refresh():
                return self._run_plan(self._plan_select(query)).rows

            for row in refresh():
                backing.insert(row)
            view.attach_full_refresh(refresh)
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
        try:
            view.attach_attribute_source(
                statement.element, table, statement.mappings
            )
        finally:
            self.catalog.changed()
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
            self.catalog.drop_index(name)
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

    def _execute_truncate(self, statement: ast.Truncate) -> ResultSet:
        table = self._resolve_writable_table(statement.table)
        return ResultSet(rowcount=table.truncate())


class _InsertPlan:
    """An INSERT compiled once: its table, the positions of its column
    list, and each ``VALUES`` row as compiled expressions — or the
    planned SELECT it draws its rows from (``INSERT ... SELECT``, the
    workhorse of the Grail baseline's iterative frontier expansion)."""

    column_names: List[str] = []

    def __init__(self, database: Database, statement: ast.Insert):
        self._database = database
        self.table = database._resolve_writable_table(statement.table)
        schema = self.table.schema
        self.positions: Optional[List[int]] = None
        if statement.columns is not None:
            self.positions = [schema.position_of(c) for c in statement.columns]
        self.query: Optional[PlannedQuery] = None
        self.rows: List[List[Any]] = []
        if statement.query is not None:
            self.query = database._plan_select(statement.query)
        else:
            scope = Scope([RelationBinding("#none", 0, schema)])
            self.rows = [
                [ExpressionCompiler(scope).compile(e).fn for e in row]
                for row in statement.rows
            ]

    def explain(self) -> str:
        return f"Insert({self.table.name})"

    def run(self) -> ResultSet:
        table, positions = self.table, self.positions
        if self.query is not None:
            rows = self._database._run_plan(self.query).rows
            supplied = "the query produces {}"
        else:
            empty = [None]
            rows = ([fn(empty) for fn in row] for row in self.rows)
            supplied = "{} values"
        count = 0
        for values in rows:
            if positions is None:
                row = list(values)
            else:
                if len(values) != len(positions):
                    raise ExecutionError(
                        f"INSERT specifies {len(positions)} columns but "
                        + supplied.format(len(values))
                    )
                row = [None] * len(table.schema)
                for position, value in zip(positions, values):
                    row[position] = value
            table.insert(row)
            count += 1
        return ResultSet(rowcount=count)


class _TargetedWritePlan:
    """An UPDATE or DELETE compiled once: the access plan of its
    ``WHERE`` over its table (:meth:`SelectPlanner.plan_dml_targets`)
    and, for an UPDATE, its compiled ``SET`` expressions — left out
    with ``targets_only``, which plans just what ``EXPLAIN`` shows."""

    column_names: List[str] = []

    def __init__(self, database: Database, statement, targets_only=False):
        self.kind = type(statement).__name__
        self.table = table = database._resolve_writable_table(statement.table)
        self.assignments = []
        if isinstance(statement, ast.Update) and not targets_only:
            scope = Scope([RelationBinding(statement.table, 0, table.schema)])
            self.assignments = [
                (
                    table.schema.position_of(column),
                    ExpressionCompiler(scope).compile(
                        database._materialize_subqueries(expression)
                    ).fn,
                )
                for column, expression in statement.assignments
            ]
        self.targets = database._make_planner().plan_dml_targets(
            table, statement.where
        )

    def explain(self) -> str:
        return f"{self.kind}({self.table.name})\n{self.targets.explain(1)}"

    def run(self) -> ResultSet:
        # every target is collected before the first row changes: a row
        # an UPDATE moves along the index it was found through is not
        # met again
        table = self.table
        slots = [row[1] for row in self.targets]
        if self.kind == "Delete":
            for slot in slots:
                table.delete(slot)
            return ResultSet(rowcount=len(slots))
        updates: List[Tuple[int, List[Any]]] = []
        for slot in slots:
            old = table.row_at(slot)
            row = list(old)
            for position, evaluate in self.assignments:
                row[position] = evaluate([old])
            updates.append((slot, row))
        for slot, row in updates:
            table.update(slot, row)
        return ResultSet(rowcount=len(updates))


#: Statements with a compiled form (:meth:`Database._compile`).
_COMPILED_STATEMENTS = (ast.Select, ast.Insert, ast.Update, ast.Delete)


def _inline_parameters(statement: ast.Statement) -> ast.Statement:
    """A copy of a write with every ``?`` replaced by its bound value as a
    literal: the text a prepared write leaves in the command log."""

    def literal(node: ast.Expression) -> Optional[ast.Expression]:
        return ast.Literal(node.value) if isinstance(node, ast.Parameter) else None

    def inline(expression: Optional[ast.Expression]) -> Optional[ast.Expression]:
        return None if expression is None else replace_nodes(expression, literal)

    if isinstance(statement, ast.Insert):
        return ast.Insert(
            statement.table,
            statement.columns,
            [[inline(item) for item in row] for row in statement.rows],
            query=statement.query
            and rewrite_select(statement.query, literal),
        )
    if isinstance(statement, ast.Update):
        return ast.Update(
            statement.table,
            [(column, inline(e)) for column, e in statement.assignments],
            inline(statement.where),
        )
    return ast.Delete(statement.table, inline(statement.where))


def _check_literal_values(values: Sequence[Any]) -> None:
    """Refuse a bound value no SQL literal writes — the command log's
    text of a prepared write would not replay to it."""
    for number, value in enumerate(values, start=1):
        kind = type(value)
        if kind not in (type(None), bool, int, float, str) or (
            kind is float and not math.isfinite(value)
        ):
            raise ExecutionError(
                f"parameter {number} of a prepared write is {value!r}: a "
                "write binds NULL, a boolean, an integer, a finite float "
                "or a string"
            )


class PreparedQuery:
    """A SELECT, INSERT, UPDATE or DELETE planned once, executable with
    fresh ``?`` bindings — what :meth:`Database.prepare` returns and what
    the statement cache keeps.

    The compiled plan reads parameter values straight off the
    :class:`~repro.sql.ast.Parameter` nodes, so binding is attribute
    writes and execution re-runs the existing plan. A plan is valid for
    the catalog version and the planner options it was made under; run
    after DDL, :meth:`Database.analyze` or a new ``planner_options``, the
    statement is planned again first.

    A statement with a subquery is planned again for every run: the
    planner runs an uncorrelated subquery while it plans, and a run must
    see the data of its own moment — as :meth:`Database.execute` and a
    replay of the command log do.

    A prepared SELECT runs straight from :meth:`execute`; a prepared
    write goes through :meth:`Database.execute_parsed` (gate, record,
    command log — which records the statement with its bound values
    written in as literals, so a write binds only values a literal can
    write).
    """

    def __init__(self, database: Database, statement: ast.Statement,
                 sql: Optional[str] = None):
        self._database = database
        #: The syntax tree the plan is made from; its parameters hold the
        #: values bound last.
        self.statement = statement
        self._sql = sql
        self._parameters = ast.statement_parameters(statement)
        self._writes = isinstance(statement, WRITE_STATEMENT_TYPES)
        self._has_subquery = ast.has_subquery(statement)
        self._plan = None
        self._version: Optional[int] = None
        self._options: Optional[PlannerOptions] = None
        #: Where the statement cache keeps this plan between runs (None:
        #: not a cached plan).
        self.cache_key = None

    def _current_plan(self):
        """The plan, made again first if the catalog or the planner
        options moved since it was made, or if it holds a subquery's
        rows."""
        database = self._database
        version, options = database.catalog.version, database.planner_options
        if version != self._version or options is not self._options:
            self._plan = database._compile(self.statement)
            # a plan holding a subquery's rows is good for one run: it
            # stays unversioned, so the next run plans again
            self._version = None if self._has_subquery else version
            self._options = options
        return self._plan

    @property
    def parameter_count(self) -> int:
        return len(self._parameters)

    @property
    def column_names(self) -> List[str]:
        return list(self._current_plan().column_names)

    def explain(self) -> str:
        return self._current_plan().explain()

    def _bind(self, values) -> None:
        if len(values) != len(self._parameters):
            raise ExecutionError(
                f"prepared query takes {len(self._parameters)} parameter(s), "
                f"got {len(values)}"
            )
        for parameter, value in zip(self._parameters, values):
            parameter.value = value

    def _run(self, token: Optional[CancellationToken]) -> ResultSet:
        """One run under the statement funnel (the token is active)."""
        return self._database._run_plan(self._current_plan(), token)

    def execute(
        self,
        *values: Any,
        budget: Optional[QueryBudget] = None,
        token: Optional[CancellationToken] = None,
    ) -> ResultSet:
        database = self._database
        if self._writes:
            _check_literal_values(values)
            self._bind(values)
            text = self._sql
            if self._parameters:
                text = render_statement(_inline_parameters(self.statement))
            return database.execute_parsed(self, text, budget, token)
        self._bind(values)
        # a prepared read pays for nothing but the run: the staleness
        # check is inlined, no frame is added on the way to the rows
        if (
            database.catalog.version != self._version
            or database.planner_options is not self._options
        ):
            self._current_plan()
        planned = self._plan
        if token is None:
            token = database._start_token(budget)
        if token is None:
            rows = [tuple(row) for row in planned.operator]
        else:
            with ambient.activate(token=token):
                rows = []
                for row in planned.operator:
                    token.tick_rows()
                    rows.append(tuple(row))
        return ResultSet(planned.column_names, rows)

    def stream(self, *values: Any, budget: Optional[QueryBudget] = None):
        """Bind parameters and yield a SELECT's rows lazily (see
        Database.stream).

        The parameter bindings live on the shared plan, so do not
        interleave two streams of the same PreparedQuery with different
        bindings.
        """
        if self._writes:
            raise PlanningError("stream() only supports SELECT statements")
        self._bind(values)
        yield from _stream_rows(
            self._current_plan().operator, self._database._start_token(budget)
        )
