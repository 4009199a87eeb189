"""The shard router: one wire-protocol endpoint over N shard servers.

The router *is a server* — it subclasses :class:`~repro.server.server.
Server`, so sessions, budgets, prepared statements, tracing adoption,
cancellation-on-disconnect, and the metrics endpoints all work
unchanged — but instead of executing statements against a local
database only, it routes them:

**Reads** take one of three tiers (counted in ``repro_router_
statements_total{route=...}`` and in the SHARD_STATE reply, which is
how tests assert the fast path is actually taken):

* ``fast_path`` — the statement targets one table and binds its
  partition key with an equality, so exactly one shard can hold every
  qualifying row. The SQL is forwarded verbatim to that shard.
* ``scatter`` — a single-table scan or aggregate over a partitioned
  table. The router rewrites the statement per shard (``AVG`` becomes
  a ``SUM``/``COUNT`` pair; ``LIMIT`` is pushed down as ``limit +
  offset``), fans it out to every shard in parallel under a
  ``router.fanout`` span, and merges: ``COUNT`` sums, ``SUM``/``MIN``/
  ``MAX`` combine null-aware, ``AVG`` re-divides, ``ORDER BY`` re-sorts
  with the engine's own null ordering, ``DISTINCT`` de-duplicates, and
  ``OFFSET``/``LIMIT`` apply once at the router.
* ``gather`` — everything else (joins, subqueries, HAVING, set
  operations, and every graph traversal over partitioned sources) runs
  on the router's **coordinator database**: a complete local mirror
  that every write also updates. Graph views over partitioned tables
  exist *only* there, because a shard-local subgraph is not closed
  under traversal — an edge's target vertex may hash elsewhere, and
  the engine (correctly) refuses to materialize an edge whose endpoint
  is missing.

**Writes** are coordinator-first and all-or-nothing where possible:
the write is applied to the coordinator mirror inside a transaction
(this is the prepare step — primary-key and integrity violations are
caught *centrally*, before any shard sees the statement), then fanned
out to the affected shards in shard-index order through the router's
single-writer scheduler, whose execution order is the global write
sequence. If every shard acknowledges, the coordinator commits. If no
shard applied it, the coordinator rolls back and the client sees
``CROSS_SHARD_ABORT`` — nothing changed anywhere. If *some* shards
applied it, the router compensates (INSERTs are reversed with
targeted DELETEs); when compensation succeeds the outcome is again a
clean ``CROSS_SHARD_ABORT``, and only when a shard is both mutated
and unreachable does the router commit the coordinator (which stays
authoritative), report ``CROSS_SHARD_PARTIAL``, and leave re-seeding
the dead shard to the operator.

The coordinator mirror is in-memory state owned by the router
process: restarting the router requires re-seeding it (replaying the
DDL + data load), exactly like restarting a VoltDB coordinator
without command logging. ``docs/sharding.md`` spells this out.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from ..client.client import Client
from ..resilience.retry import RetryPolicy
from ..core.database import (
    Database,
    PreparedQuery,
    statement_is_write,
)
from ..core.result import ResultSet
from ..core.statement_cache import LruCache
from ..errors import (
    CatalogError,
    ClientConnectionError,
    CrossShardAbortError,
    CrossShardPartialError,
    PlanningError,
    ProtocolError,
    RemoteError,
    ShardUnavailableError,
)
from ..executor.aggregates import _NullAwareKey
from ..expr.compile import ExpressionCompiler
from ..expr.scope import RelationBinding, Scope
from .. import ambient
from ..observability import tracing as observability_tracing
from ..server import protocol
from ..server.server import Server, Session
from ..sql import ast
from ..sql.parser import parse_statement
from ..sql.render import render_expression, render_statement
from .shard_map import ShardMap, bound_partition_keys, stable_hash

#: Aggregates the scatter tier knows how to re-aggregate at the router.
_MERGEABLE_AGGREGATES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})

#: Routing-plan cache size. Plans are per SQL text and catalog version:
#: DDL moves the version, so a plan made before it is never found again.
_PLAN_CACHE_SIZE = 512


class _ReadPlan:
    """A cached routing decision for one read statement."""

    __slots__ = ("tier", "shard", "shard_sql", "merge")

    def __init__(self, tier, shard=None, shard_sql=None, merge=None):
        self.tier = tier  # "fast_path" | "scatter" | "gather"
        self.shard = shard
        self.shard_sql = shard_sql
        self.merge = merge


class _MergeSpec:
    """How to combine per-shard result sets into the client's answer.

    Shard rows arrive in a known layout: ``group_count`` leading group
    columns (grouped/aggregate mode only) followed by aggregate slots.
    ``outputs`` maps each *original* select item onto that layout:
    ``("column", i)`` passes shard column ``i`` through, ``("count" |
    "sum" | "min" | "max", i)`` re-aggregates it, ``("avg", i, j)``
    divides merged slot ``i`` by merged slot ``j``.
    """

    __slots__ = (
        "mode", "group_count", "outputs", "order",
        "limit", "offset", "distinct", "columns",
    )

    def __init__(self, mode, group_count, outputs, order,
                 limit, offset, distinct, columns):
        self.mode = mode  # "rows" | "aggregate"
        self.group_count = group_count
        self.outputs = outputs
        self.order = order  # [(output position, ascending)]
        self.limit = limit
        self.offset = offset
        self.distinct = distinct
        self.columns = columns  # final column names (aggregate mode)


class _RouterPrepared:
    """Router-side prepared statement.

    Holds the coordinator's :class:`PreparedQuery` (parameter count,
    column names, gather-tier execution), whose
    :class:`~repro.sql.ast.Parameter` nodes the router binds at EXECUTE
    time to extract the partition key — the fast path lazily prepares
    the same SQL on the owning shard's connection.
    """

    def __init__(self, sql: str, coordinator: PreparedQuery):
        self.sql = sql
        self.statement = coordinator.statement
        self.coordinator = coordinator
        self.parameters = ast.statement_parameters(self.statement)
        #: shard index -> client-side Prepared on that shard.
        self.backend: Dict[int, Any] = {}

    @property
    def parameter_count(self) -> int:
        return self.coordinator.parameter_count

    @property
    def column_names(self) -> List[str]:
        return self.coordinator.column_names


class Router(Server):
    """A wire-protocol server that fans statements out to shards.

    ::

        router = Router([("127.0.0.1", 9001), ("127.0.0.1", 9002)])
        router.start()

    Clients connect to ``router.address`` exactly as they would to a
    single server. ``shard_auth`` is the token the *shards* expect (the
    router's own ``auth_token`` gates its clients independently).
    """

    def __init__(
        self,
        shards,
        host: str = "127.0.0.1",
        port: int = 0,
        auth_token: Optional[str] = None,
        shard_auth: Optional[str] = None,
        max_queue: int = 64,
        backlog: int = 32,
        db: Optional[Database] = None,
    ):
        super().__init__(
            db or Database(), host=host, port=port,
            auth_token=auth_token, max_queue=max_queue, backlog=backlog,
        )
        self.shard_addresses: List[Tuple[str, int]] = [
            (str(h), int(p)) for h, p in shards
        ]
        if not self.shard_addresses:
            raise ValueError("a router needs at least one shard")
        self.shard_auth = shard_auth
        self.shard_map = ShardMap(len(self.shard_addresses))
        #: Routing-tier counters, mirrored into the metrics registry and
        #: the SHARD_STATE reply (tests assert on these).
        self.routing: Dict[str, int] = {
            "fast_path": 0,
            "scatter": 0,
            "gather": 0,
            "single_shard_writes": 0,
            "multi_shard_writes": 0,
            "broadcast_writes": 0,
        }
        self._routing_lock = threading.Lock()
        #: Router-assigned global write sequence: incremented once per
        #: write on the single-writer thread, so its value *is* the
        #: deterministic order every shard observes.
        self.global_sequence = 0
        #: (catalog version, SQL text) -> _ReadPlan.
        self._plan_cache = LruCache(_PLAN_CACHE_SIZE)
        #: Backoff for router->shard connections: fail fast — a dead
        #: shard should surface as SHARD_UNAVAILABLE in tens of
        #: milliseconds, not after the client-default one-second ramp.
        self._backend_retry = RetryPolicy(
            base_delay=0.02, max_delay=0.1, multiplier=2.0, jitter=0.25,
            max_attempts=2,
        )
        self._admin_lock = threading.Lock()
        self._admin: Dict[int, Client] = {}

    # ------------------------------------------------------------------
    # backend connections
    # ------------------------------------------------------------------

    def _backend(self, session: Session, shard: int) -> Client:
        """The per-session client for one shard (lazy).

        Per-session so concurrent frontend sessions never serialize on
        a shared shard connection — the fan-out of two sessions
        proceeds in parallel, which is what makes sharded point-read
        throughput scale in the benchmark.
        """
        backends = getattr(session, "shard_backends", None)
        if backends is None:
            backends = {}
            session.shard_backends = backends
        client = backends.get(shard)
        if client is None:
            host, port = self.shard_addresses[shard]
            client = Client(
                host, port,
                auth=self.shard_auth,
                session=f"router:{session.name}@{shard}",
                connect_timeout=2.0,
                retry_policy=self._backend_retry,
            )
            backends[shard] = client
        return client

    def _admin_backend(self, shard: int) -> Client:
        client = self._admin.get(shard)
        if client is None:
            host, port = self.shard_addresses[shard]
            client = Client(
                host, port,
                auth=self.shard_auth,
                session=f"router:admin@{shard}",
                connect_timeout=1.0,
                retry_policy=self._backend_retry,
            )
            self._admin[shard] = client
        return client

    def _teardown(self, session: Session) -> None:
        backends = getattr(session, "shard_backends", None)
        if backends:
            for client in backends.values():
                try:
                    client.close()
                except Exception:
                    pass
            backends.clear()
        super()._teardown(session)

    def shutdown(self, drain: bool = True, timeout: float = 10.0) -> bool:
        finished = super().shutdown(drain=drain, timeout=timeout)
        with self._admin_lock:
            for client in self._admin.values():
                try:
                    client.close()
                except Exception:
                    pass
            self._admin.clear()
        return finished

    def _node_name(self) -> Optional[str]:
        return "router"

    # ------------------------------------------------------------------
    # dispatch: SHARD_STATE
    # ------------------------------------------------------------------

    def _dispatch(self, session, request) -> bool:
        if request.get("type") == "SHARD_STATE":
            return self._send_safely(
                session.sock, self._shard_state_message(request.get("id")),
            )
        return super()._dispatch(session, request)

    def _shard_state_message(self, request_id=None) -> Dict[str, Any]:
        shards = []
        for index, (host, port) in enumerate(self.shard_addresses):
            with self._admin_lock:
                try:
                    healthy = self._admin_backend(index).ping()
                except Exception:
                    healthy = False
            shards.append({
                "index": index, "host": host, "port": port,
                "healthy": healthy,
            })
        with self._routing_lock:
            routing = dict(self.routing)
        return {
            "type": "SHARD_STATE",
            "id": request_id,
            "sharded": True,
            "map": self.shard_map.describe(),
            "shards": shards,
            "routing": routing,
            "global_sequence": self.global_sequence,
        }

    def _count_route(self, tier: str, fanout: Optional[List[int]] = None):
        with self._routing_lock:
            self.routing[tier] = self.routing.get(tier, 0) + 1
        self._inc_counter("repro_router_statements_total", route=tier)
        for shard in fanout or ():
            self._inc_counter("repro_router_fanout_total", shard=str(shard))

    # ------------------------------------------------------------------
    # statement routing
    # ------------------------------------------------------------------

    _STATEMENT_SPAN = "router.statement"

    def _execute_request(self, session: Session, request, budget, token,
                         span):
        budget_wire = protocol.budget_to_wire(budget)
        if request.get("type") == "EXECUTE":
            return self._route_execute(session, request, budget_wire, token)
        sql = request.get("sql")
        if not isinstance(sql, str):
            raise ProtocolError("QUERY requires a string 'sql' field")
        return self._route_sql(session, sql, budget_wire, token)

    def _route_sql(self, session: Session, sql: str, budget_wire, token):
        key = (self.db.catalog.version, sql)
        plan = self._plan_cache.get(key)
        if plan is None:
            statement = parse_statement(sql)
            if statement_is_write(statement):
                return self.scheduler.execute_write(
                    lambda: self._execute_write(
                        session, sql, statement, budget_wire
                    ),
                    token=token,
                )
            plan = self._plan_read(sql, statement)
            self._plan_cache.put(key, plan)
        return self._run_read_plan(session, sql, plan, budget_wire, token)

    def _partition_column_of(self, table: str) -> Optional[str]:
        return self.shard_map.partition_column(table)

    # -- read planning --------------------------------------------------

    def _plan_read(self, sql: str, statement) -> _ReadPlan:
        if not isinstance(statement, ast.Select):
            return _ReadPlan("gather")  # EXPLAIN, UNION, ...
        # a subquery evaluated on one shard would only see that shard's
        # slice of whatever tables it references
        if ast.has_subquery(statement) or ast.statement_parameters(statement):
            return _ReadPlan("gather")
        keys = bound_partition_keys(statement, self._partition_column_of)
        if keys is not None:
            shards = {self.shard_map.shard_for_key(key) for key in keys}
            if len(shards) == 1:
                return _ReadPlan("fast_path", shard=shards.pop())
        target = self._scatter_target(statement)
        if target is None:
            return _ReadPlan("gather")
        scatter = self._plan_scatter(sql, statement)
        if scatter is None:
            return _ReadPlan("gather")
        return scatter

    def _scatter_target(self, statement: ast.Select) -> Optional[str]:
        """The partitioned table this SELECT scans, if it is a plain
        single-table statement; None sends it to the gather tier."""
        if len(statement.from_items) != 1:
            return None
        item = statement.from_items[0]
        if not isinstance(item, ast.TableRef):
            return None
        if not self.shard_map.is_partitioned(item.name):
            return None
        return item.name

    def _plan_scatter(self, sql, statement: ast.Select) -> Optional[_ReadPlan]:
        if statement.having is not None:
            return None
        aggregates = [
            bool(_aggregate_calls(item.expression))
            for item in statement.items
        ]
        if any(aggregates) or statement.group_by:
            if statement.distinct:
                return None
            return self._plan_scatter_aggregate(sql, statement)
        return self._plan_scatter_rows(statement)

    def _plan_scatter_rows(self, statement: ast.Select) -> Optional[_ReadPlan]:
        order = self._order_positions(statement)
        if statement.order_by and order is None:
            return None  # cannot re-sort merged rows: keys not projected
        push_limit = None
        shard_order: List[ast.OrderItem] = []
        if statement.limit is not None:
            push_limit = statement.limit + (statement.offset or 0)
            shard_order = statement.order_by
        shard_select = ast.Select(
            items=statement.items,
            from_items=statement.from_items,
            where=statement.where,
            order_by=shard_order,
            limit=push_limit,
            distinct=statement.distinct,
        )
        merge = _MergeSpec(
            mode="rows", group_count=0, outputs=None,
            order=order or [], limit=statement.limit,
            offset=statement.offset, distinct=statement.distinct,
            columns=None,
        )
        return _ReadPlan(
            "scatter", shard_sql=render_statement(shard_select), merge=merge,
        )

    def _plan_scatter_aggregate(
        self, sql: str, statement: ast.Select
    ) -> Optional[_ReadPlan]:
        group_keys = [
            render_expression(g).lower() for g in statement.group_by
        ]
        shard_items: List[ast.SelectItem] = [
            ast.SelectItem(g) for g in statement.group_by
        ]
        outputs: List[Tuple] = []
        for item in statement.items:
            expression = item.expression
            calls = _aggregate_calls(expression)
            if not calls:
                rendered = render_expression(expression).lower()
                if rendered not in group_keys:
                    return None  # non-aggregate item outside GROUP BY
                outputs.append(("column", group_keys.index(rendered)))
                continue
            # the item must BE a single aggregate call — COUNT(*) + 1
            # style arithmetic over aggregates goes to the gather tier
            if expression is not calls[0] or len(calls) != 1:
                return None
            call = calls[0]
            if call.distinct or call.name not in _MERGEABLE_AGGREGATES:
                return None
            if call.name == "AVG":
                sum_slot = len(shard_items)
                shard_items.append(
                    ast.SelectItem(ast.FunctionCall("SUM", call.args))
                )
                count_slot = len(shard_items)
                shard_items.append(
                    ast.SelectItem(ast.FunctionCall("COUNT", call.args))
                )
                outputs.append(("avg", sum_slot, count_slot))
            else:
                slot = len(shard_items)
                shard_items.append(ast.SelectItem(call))
                outputs.append((call.name.lower(), slot))
        order = self._order_positions(statement)
        if statement.order_by and order is None:
            return None
        shard_select = ast.Select(
            items=shard_items,
            from_items=statement.from_items,
            where=statement.where,
            group_by=statement.group_by,
        )
        columns = self.scheduler.run_read(
            lambda: self.db.prepare(
                render_statement(
                    ast.Select(
                        items=statement.items,
                        from_items=statement.from_items,
                        where=statement.where,
                        group_by=statement.group_by,
                    )
                )
            ).column_names
        )
        merge = _MergeSpec(
            mode="aggregate", group_count=len(statement.group_by),
            outputs=outputs, order=order or [], limit=statement.limit,
            offset=statement.offset, distinct=False, columns=columns,
        )
        return _ReadPlan(
            "scatter", shard_sql=render_statement(shard_select), merge=merge,
        )

    def _order_positions(
        self, statement: ast.Select
    ) -> Optional[List[Tuple[int, bool]]]:
        """Map each ORDER BY key to a position in the *output* rows, or
        None when some key is not projected (the router cannot evaluate
        arbitrary expressions over merged wire rows)."""
        if not statement.order_by:
            return []
        rendered_items = [
            render_expression(item.expression).lower()
            for item in statement.items
        ]
        aliases = [
            (item.alias or "").lower() for item in statement.items
        ]
        star = (
            len(statement.items) == 1
            and isinstance(statement.items[0].expression, ast.Star)
        )
        star_columns: List[str] = []
        if star:
            target = self._scatter_target(statement)
            if target is not None and self.db.catalog.has_table(target):
                star_columns = [
                    c.lower()
                    for c in self.db.catalog.table(target).schema.column_names
                ]
        positions: List[Tuple[int, bool]] = []
        for order in statement.order_by:
            rendered = render_expression(order.expression).lower()
            name = (
                order.expression.name.lower()
                if isinstance(order.expression, ast.Identifier) else None
            )
            if rendered in rendered_items:
                positions.append(
                    (rendered_items.index(rendered), order.ascending)
                )
            elif name is not None and name in aliases:
                positions.append((aliases.index(name), order.ascending))
            elif star and name is not None and name in star_columns:
                positions.append(
                    (star_columns.index(name), order.ascending)
                )
            else:
                return None
        return positions

    # -- read execution -------------------------------------------------

    def _run_read_plan(self, session, sql, plan: _ReadPlan,
                       budget_wire, token):
        if plan.tier == "fast_path":
            self._count_route("fast_path", fanout=[plan.shard])
            return self._forward(session, plan.shard, sql, budget_wire)
        if plan.tier == "scatter":
            all_shards = list(range(len(self.shard_addresses)))
            self._count_route("scatter", fanout=all_shards)
            results = self.scheduler.run_read(
                lambda: self._fan_out_read(
                    session, plan.shard_sql, budget_wire
                )
            )
            return _merge_results(plan.merge, results)
        self._count_route("gather")
        return self.scheduler.run_read(
            lambda: self.db.execute(sql, token=token)
        )

    def _forward(self, session, shard: int, sql: str, budget_wire):
        backend = self._backend(session, shard)
        with observability_tracing.span("router.forward", shard=shard):
            try:
                return backend.execute(sql, budget=budget_wire)
            except ClientConnectionError as error:
                raise ShardUnavailableError(
                    f"shard {shard} is unreachable: {error}", shard=shard,
                )

    def _fan_out_read(self, session, shard_sql: str, budget_wire):
        """Run one rewritten statement on every shard in parallel;
        returns the per-shard ResultSets in shard order. Any
        unreachable shard fails the whole statement — a partial scan
        silently missing one shard's rows is worse than an error."""
        count = len(self.shard_addresses)
        results: List[Optional[ResultSet]] = [None] * count
        errors: List[Optional[BaseException]] = [None] * count
        with observability_tracing.span(
            "router.fanout", shards=count, mode="scatter",
        ):
            # each shard's hop joins the fan-out span, on this node
            snapshot = ambient.capture()

            def run(shard: int) -> None:
                try:
                    with ambient.adopt(snapshot):
                        results[shard] = self._backend(
                            session, shard
                        ).execute(shard_sql, budget=budget_wire)
                except BaseException as error:  # noqa: BLE001
                    errors[shard] = error
            threads = [
                threading.Thread(
                    target=run, args=(shard,),
                    name=f"repro-fanout-{shard}", daemon=True,
                )
                for shard in range(count)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        for shard, error in enumerate(errors):
            if isinstance(error, ClientConnectionError):
                raise ShardUnavailableError(
                    f"shard {shard} is unreachable: {error}", shard=shard,
                )
            if error is not None:
                raise error
        return results

    # -- prepared statements -------------------------------------------

    def _handle_prepare(self, session, request) -> bool:
        request_id = request.get("id")
        sql = request.get("sql")
        try:
            if not isinstance(sql, str):
                raise ProtocolError("PREPARE requires a string 'sql' field")
            coordinator = self.scheduler.run_read(
                lambda: self.db.prepare(sql)
            )
            if not isinstance(coordinator.statement, ast.Select):
                raise PlanningError(
                    "only SELECT statements can be prepared over the wire"
                )
            prepared = _RouterPrepared(sql, coordinator)
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

    def _route_execute(self, session, request, budget_wire, token):
        handle = request.get("statement")
        prepared = session.prepared.get(handle)
        if prepared is None:
            raise ProtocolError(f"unknown prepared statement: {handle!r}")
        params = request.get("params") or []
        if not isinstance(params, list):
            raise ProtocolError("EXECUTE 'params' must be an array")
        shard = None
        if len(params) == len(prepared.parameters):
            for parameter, value in zip(prepared.parameters, params):
                parameter.value = value
            keys = bound_partition_keys(
                prepared.statement, self._partition_column_of
            )
            if keys is not None:
                shards = {self.shard_map.shard_for_key(k) for k in keys}
                if len(shards) == 1:
                    shard = shards.pop()
        if shard is not None:
            self._count_route("fast_path", fanout=[shard])
            backend_prepared = prepared.backend.get(shard)
            with observability_tracing.span("router.forward", shard=shard):
                try:
                    if backend_prepared is None:
                        backend_prepared = self._backend(
                            session, shard
                        ).prepare(prepared.sql)
                        prepared.backend[shard] = backend_prepared
                    return backend_prepared.execute(
                        *params, budget=budget_wire
                    )
                except ClientConnectionError as error:
                    prepared.backend.pop(shard, None)
                    raise ShardUnavailableError(
                        f"shard {shard} is unreachable: {error}",
                        shard=shard,
                    )
        self._count_route("gather")
        return self.scheduler.run_read(
            lambda: prepared.coordinator.execute(*params, token=token)
        )

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def _execute_write(self, session, sql, statement, budget_wire):
        """Runs on the single-writer thread — its execution order is
        the router's global write sequence."""
        self.global_sequence += 1
        if isinstance(statement, (ast.Insert, ast.Update, ast.Delete,
                                  ast.Truncate)):
            return self._execute_dml(session, sql, statement, budget_wire)
        return self._execute_ddl(session, sql, statement, budget_wire)

    # -- DDL ------------------------------------------------------------

    def _execute_ddl(self, session, sql, statement, budget_wire):
        """DDL is broadcast: every shard holds every table's schema
        (partitioning places *rows*, not tables). The exception is a
        graph view over partitioned sources, which only the coordinator
        can materialize (see the module docstring)."""
        # validate sharding constraints before touching any state
        if isinstance(statement, ast.CreateGraphView):
            self.shard_map.register_graph_view(statement)  # may raise
        if isinstance(statement, ast.AlterGraphViewAddSource):
            if self.shard_map.graph_view_is_broadcast(statement.name) and \
                    self.shard_map.is_partitioned(statement.source):
                raise CatalogError(
                    f"graph view {statement.name} is broadcast; cannot "
                    f"add partitioned source {statement.source}"
                )
        try:
            result = self.db.execute(sql)
        except BaseException:
            if isinstance(statement, ast.CreateGraphView):
                self.shard_map.drop_graph_view(statement.name)
            raise
        # coordinator accepted: record the layout, then broadcast
        if isinstance(statement, ast.CreateTable):
            self.shard_map.register_table(statement)
        if isinstance(statement, ast.Drop):
            if statement.kind == "TABLE":
                self.shard_map.drop_table(statement.name)
            elif statement.kind == "GRAPH VIEW":
                self.shard_map.drop_graph_view(statement.name)
        # the routing plans depend on the shard map too: a read planned
        # between the coordinator's DDL and the lines above is not kept
        self.db.catalog.changed()
        if not self._ddl_reaches_shards(statement):
            return result
        targets = list(range(len(self.shard_addresses)))
        self._count_route("broadcast_writes", fanout=targets)
        failures = self._fan_out_write(
            session, [(shard, [sql]) for shard in targets], budget_wire,
        )
        if failures:
            failed = sorted(failures)
            raise CrossShardPartialError(
                f"DDL applied on the coordinator but failed on "
                f"shard(s) {failed}: {failures[failed[0]]}",
                failed_shards=failed,
            )
        return result

    def _ddl_reaches_shards(self, statement) -> bool:
        if isinstance(statement, ast.CreateGraphView):
            return self.shard_map.graph_view_is_broadcast(statement.name)
        if isinstance(statement, ast.AlterGraphViewAddSource):
            return self.shard_map.graph_view_is_broadcast(statement.name)
        if isinstance(statement, ast.Drop) and statement.kind == "GRAPH VIEW":
            # coordinator-only views never existed on the shards
            return self.shard_map.graph_view_is_broadcast(statement.name)
        return True

    # -- DML ------------------------------------------------------------

    def _execute_dml(self, session, sql, statement, budget_wire):
        if isinstance(statement, ast.Insert) and statement.query is not None:
            statement = self._materialize_insert(statement)
            sql = render_statement(statement)
        shipments, compensations = self._dml_shipments(sql, statement)
        # prepare: apply to the coordinator mirror inside a transaction.
        # Global constraints (primary keys, graph-view integrity) are
        # enforced HERE, before any shard is touched.
        fresh_transaction = not self.db.transactions.in_transaction
        if fresh_transaction:
            self.db.begin()
        try:
            result = self.db.execute(sql)
        except BaseException:
            if fresh_transaction:
                self.db.rollback()
            raise
        targets = [shard for shard, statements in shipments if statements]
        if len(targets) > 1:
            self._count_route("multi_shard_writes", fanout=targets)
        elif targets:
            self._count_route("single_shard_writes", fanout=targets)
        failures = self._fan_out_write(
            session,
            [(s, stmts) for s, stmts in shipments if stmts],
            budget_wire,
        )
        if not failures:
            if fresh_transaction:
                self.db.commit()
            return result
        applied = [s for s in targets if s not in failures]
        failed = sorted(failures)
        if not applied:
            # nothing landed anywhere: clean all-or-nothing abort
            if fresh_transaction:
                self.db.rollback()
            self._raise_shard_failure(failures[failed[0]], failed, statement)
        # partially applied: try to compensate the shards that took it
        if compensations and self._compensate(
            session, applied, compensations, budget_wire
        ):
            if fresh_transaction:
                self.db.rollback()
            raise CrossShardAbortError(
                f"write failed on shard(s) {failed} and was rolled back "
                f"everywhere: {failures[failed[0]]}"
            )
        # cannot undo what the applied shards did — keep the
        # coordinator (it is authoritative) and report the divergence
        if fresh_transaction:
            self.db.commit()
        raise CrossShardPartialError(
            f"write applied on the coordinator and shard(s) {applied} "
            f"but failed on shard(s) {failed}: {failures[failed[0]]}; "
            f"re-seed the failed shard(s) from the coordinator",
            failed_shards=failed,
        )

    def _raise_shard_failure(self, error, failed, statement):
        if isinstance(error, RemoteError):
            single = (
                len(failed) == 1
                and not isinstance(statement, ast.Truncate)
            )
            if single:
                raise error  # the shard's verdict, verbatim
            raise CrossShardAbortError(
                f"write rejected by shard(s) {failed} and rolled back "
                f"everywhere: {error}"
            )
        raise ShardUnavailableError(
            f"write failed: shard(s) {failed} unreachable ({error}); "
            f"nothing was applied",
            shard=failed[0],
        )

    def _dml_shipments(self, sql, statement):
        """``([(shard, [sql, ...])], {shard: [compensating sql, ...]})``
        — which statement text each shard must apply, and how to undo
        it if a sibling shard fails after this one succeeded."""
        all_shards = list(range(len(self.shard_addresses)))
        table = getattr(statement, "table", None)
        partition = (
            self._partition_column_of(table) if table is not None else None
        )
        if partition is None:
            # broadcast table (or unknown — the coordinator will reject
            # the statement before anything ships): full fan-out
            return [(shard, [sql]) for shard in all_shards], {}
        if isinstance(statement, ast.Insert):
            return self._split_insert(statement, table, partition)
        if isinstance(statement, ast.Update):
            for name, _expr in statement.assignments:
                if name.lower() == partition.lower():
                    raise PlanningError(
                        f"cannot update partition column {partition} of "
                        f"{table}: rows cannot move between shards"
                    )
        if isinstance(statement, ast.Truncate):
            return [(shard, [sql]) for shard in all_shards], {}
        keys = bound_partition_keys(statement, self._partition_column_of)
        if keys is not None:
            shards = sorted({self.shard_map.shard_for_key(k) for k in keys})
            return [(shard, [sql]) for shard in shards], {}
        # unbounded UPDATE/DELETE: every shard applies it to its slice
        return [(shard, [sql]) for shard in all_shards], {}

    def _split_insert(self, statement: ast.Insert, table: str,
                      partition: str):
        """Group INSERT VALUES rows by owning shard. Returns per-shard
        INSERT statements (reusing the original value expressions) plus
        per-shard compensating DELETEs keyed on the full row image."""
        if not self.db.catalog.has_table(table):
            # let the coordinator raise its canonical "unknown table"
            return [(0, [render_statement(statement)])], {}
        schema = self.db.catalog.table(table).schema
        position = schema.position_of(partition)
        if statement.columns is not None:
            names = [c.lower() for c in statement.columns]
            if partition.lower() not in names:
                raise PlanningError(
                    f"INSERT into partitioned table {table} must supply "
                    f"partition column {partition}"
                )
            value_index = names.index(partition.lower())
            column_names = list(statement.columns)
        else:
            value_index = position
            column_names = list(schema.column_names)
        scope = Scope([RelationBinding("#none", 0, schema)])
        rows_by_shard: Dict[int, List[List[ast.Expression]]] = {}
        comp_by_shard: Dict[int, List[str]] = {}
        for row in statement.rows:
            if value_index >= len(row):
                raise PlanningError(
                    f"INSERT into partitioned table {table} must supply "
                    f"partition column {partition}"
                )
            value = ExpressionCompiler(scope).compile(
                row[value_index]
            ).fn([None])
            stable_hash(value)  # validate the key type before any state
            shard = self.shard_map.shard_for_key(value)
            rows_by_shard.setdefault(shard, []).append(row)
            comp_by_shard.setdefault(shard, []).append(
                _delete_row_sql(table, column_names, row, scope)
            )
        shipments = [
            (
                shard,
                [render_statement(ast.Insert(
                    statement.table, statement.columns,
                    rows_by_shard[shard],
                ))],
            )
            for shard in sorted(rows_by_shard)
        ]
        return shipments, comp_by_shard

    def _materialize_insert(self, statement: ast.Insert) -> ast.Insert:
        """INSERT ... SELECT with the query evaluated once on the
        coordinator, so every shard receives identical literal rows."""
        result = self.db.execute(render_statement(statement.query))
        rows = [
            [ast.Literal(value) for value in row] for row in result.rows
        ]
        return ast.Insert(statement.table, statement.columns, rows)

    def _fan_out_write(self, session, shipments, budget_wire):
        """Apply per-shard statements in shard-index order (the
        deterministic fan-out the global sequence promises). Returns
        ``{shard: error}`` for the shards that did not apply them."""
        failures: Dict[int, BaseException] = {}
        ordered = sorted(shipments)
        span_shards = [shard for shard, _stmts in ordered]
        with observability_tracing.span(
            "router.fanout", shards=len(span_shards), mode="write",
        ):
            for shard, statements in ordered:
                backend = self._backend(session, shard)
                for text in statements:
                    try:
                        backend.execute(text, budget=budget_wire)
                    except (RemoteError, ClientConnectionError) as error:
                        failures[shard] = error
                        break
        return failures

    def _compensate(self, session, applied, compensations,
                    budget_wire) -> bool:
        """Undo a half-applied write on the shards that accepted it;
        True only when every compensating statement succeeded."""
        for shard in applied:
            backend = self._backend(session, shard)
            for text in compensations.get(shard, ()):
                try:
                    backend.execute(text, budget=budget_wire)
                except (RemoteError, ClientConnectionError):
                    return False
        return True

    # ------------------------------------------------------------------
    # error rendering
    # ------------------------------------------------------------------

    def _send_error(self, session, request_id, error) -> bool:
        if isinstance(error, RemoteError):
            # a shard's verdict forwarded verbatim: keep its stable code
            # (TIMEOUT stays TIMEOUT, not DATABASE_ERROR)
            self._count_error(error.code)
            frame = {
                "type": "ERROR",
                "id": request_id,
                "code": error.code,
                "message": str(error),
            }
            if error.leader_hint is not None:
                frame["leader_hint"] = error.leader_hint
            return self._send_safely(session.sock, frame)
        return super()._send_error(session, request_id, error)


# ---------------------------------------------------------------------------
# scatter merge
# ---------------------------------------------------------------------------


def _aggregate_calls(expression: ast.Expression) -> List[ast.FunctionCall]:
    return [
        node for node in ast.walk_expression(expression)
        if isinstance(node, ast.FunctionCall)
        and node.name in _MERGEABLE_AGGREGATES
    ]


def _merge_results(merge: _MergeSpec, results: List[ResultSet]) -> ResultSet:
    if merge.mode == "rows":
        rows: List[Tuple] = []
        for result in results:
            rows.extend(result.rows)
        if merge.distinct:
            seen = set()
            unique = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    unique.append(row)
            rows = unique
        columns = results[0].columns if results else []
    else:
        rows = _merge_aggregate_rows(merge, results)
        columns = merge.columns
    rows = _apply_order_and_limit(merge, rows)
    return ResultSet(columns, rows)


def _merge_aggregate_rows(merge: _MergeSpec, results) -> List[Tuple]:
    group_count = merge.group_count
    merged: "OrderedDict[Tuple, List[Any]]" = OrderedDict()
    for result in results:
        for row in result.rows:
            key = tuple(row[:group_count])
            state = merged.get(key)
            if state is None:
                merged[key] = list(row)
                continue
            for spec in merge.outputs:
                if spec[0] == "avg":
                    _combine(state, row, "sum", spec[1])
                    _combine(state, row, "count", spec[2])
                elif spec[0] != "column":
                    _combine(state, row, spec[0], spec[1])
    out: List[Tuple] = []
    for state in merged.values():
        row = []
        for spec in merge.outputs:
            if spec[0] == "column":
                row.append(state[spec[1]])
            elif spec[0] == "avg":
                total, count = state[spec[1]], state[spec[2]]
                row.append(
                    total / count if count and total is not None else None
                )
            else:
                row.append(state[spec[1]])
        out.append(tuple(row))
    return out


def _combine(state: List[Any], row, op: str, slot: int) -> None:
    current, incoming = state[slot], row[slot]
    if op == "count":
        state[slot] = (current or 0) + (incoming or 0)
    elif op == "sum":
        if incoming is None:
            return
        state[slot] = incoming if current is None else current + incoming
    elif op == "min":
        if incoming is None:
            return
        state[slot] = incoming if current is None else min(current, incoming)
    elif op == "max":
        if incoming is None:
            return
        state[slot] = incoming if current is None else max(current, incoming)


def _apply_order_and_limit(merge: _MergeSpec, rows: List[Tuple]):
    # stable right-to-left multi-key sort with the engine's own
    # null-aware key: NULLs first ascending, last descending — the
    # merged order is indistinguishable from single-node execution
    for position, ascending in reversed(merge.order):
        rows.sort(
            key=lambda row: _NullAwareKey(row[position]),
            reverse=not ascending,
        )
    if merge.offset:
        rows = rows[merge.offset:]
    if merge.limit is not None:
        rows = rows[:merge.limit]
    return rows


def _delete_row_sql(table: str, column_names: List[str], row, scope) -> str:
    """A compensating DELETE matching one inserted row by full image."""
    conjuncts: List[ast.Expression] = []
    for name, expression in zip(column_names, row):
        value = ExpressionCompiler(scope).compile(expression).fn([None])
        if value is None:
            conjuncts.append(
                ast.IsNull(ast.Identifier(name), negated=False)
            )
        else:
            conjuncts.append(ast.BinaryOp(
                "=", ast.Identifier(name), ast.Literal(value)
            ))
    where: Optional[ast.Expression] = None
    for conjunct in conjuncts:
        where = conjunct if where is None else ast.BinaryOp(
            "AND", where, conjunct
        )
    return render_statement(ast.Delete(table, where))
