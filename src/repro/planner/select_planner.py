"""The SELECT planner: from an AST to an executable operator tree.

Follows the paper's conceptual evaluation (Section 5.3):

1. relational tables / graph element scans are joined first, with
   single-alias predicates pushed to the scans (index lookups where an
   index matches) and equi-joins executed as hash joins;
2. each ``GV.PATHS`` item becomes a PathScan — correlated (probed by the
   relational result, Figure 6) when its start/end vertexes are bound to
   other aliases, standalone otherwise;
3. remaining predicates, aggregation, HAVING, ORDER BY, DISTINCT and
   LIMIT are applied on top.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import ExecutionError, PlanningError
from ..executor.aggregates import AggregateOp, AggregateSpec, SortOp
from ..executor.joins import HashJoinOp, NestedLoopJoinOp
from ..executor.operators import (
    DerivedTableOp,
    DistinctOp,
    FilterOp,
    IndexLookupOp,
    IndexRangeScanOp,
    LimitOp,
    Operator,
    ProjectOp,
    SeqScanOp,
    SingleRowOp,
)
from ..expr.compile import ExpressionCompiler
from ..expr.scope import (
    EdgeBinding,
    PathBinding,
    RelationBinding,
    Scope,
    VertexBinding,
)
from ..graph.graph_view import GraphView
from ..graph.operators import (
    EdgeLookupOp,
    EdgeScanOp,
    PathScanOp,
    VertexLookupOp,
    VertexScanOp,
)
from ..graph.traversal import TraversalSpec, choose_traversal
from ..sql import ast
from ..storage.catalog import Catalog
from ..storage.index import HashIndex, OrderedIndex
from ..storage.schema import Column, TableSchema
from ..storage.table import Table
from ..types import SqlType
from .conjuncts import (
    conjoin,
    equi_join_sides,
    extract_column_comparison,
    extract_column_equality,
    referenced_aliases,
    split_conjuncts,
)
from .length_inference import LengthBounds, infer_length_bounds
from .options import PlannerOptions
from .path_planning import (
    PathPredicatePlan,
    classify_path_conjuncts,
    compile_path_predicate,
)
from .rewrite import (
    find_outer_references,
    find_relational_aggregates,
    replace_nodes,
    rewrite_select,
)

SubqueryExecutor = Callable[[ast.Select], List[Tuple[Any, ...]]]


class PlannedQuery:
    """An executable plan plus its output column names."""

    def __init__(self, operator: Operator, column_names: List[str]):
        self.operator = operator
        self.column_names = column_names

    def explain(self) -> str:
        return self.operator.explain()


class _FromEntry:
    """One flattened from-clause item with its join kind / condition."""

    __slots__ = ("item", "kind", "on_condition", "binding")

    def __init__(self, item: ast.FromItem, kind: str, on_condition):
        self.item = item
        self.kind = kind  # 'INNER' | 'CROSS' | 'LEFT'
        self.on_condition = on_condition
        self.binding = None


class _Bound:
    """``column OP <constant or parameterized expression>``: one side of
    an index probe, evaluated per execution."""

    __slots__ = ("conjunct", "value", "inclusive")

    def __init__(self, conjunct, value: Callable[[], Any], inclusive: bool):
        self.conjunct = conjunct
        self.value = value
        self.inclusive = inclusive


class SelectPlanner:
    def __init__(
        self,
        catalog: Catalog,
        options: Optional[PlannerOptions] = None,
        subquery_executor: Optional[SubqueryExecutor] = None,
    ):
        self.catalog = catalog
        self.options = options or PlannerOptions()
        self.subquery_executor = subquery_executor

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def plan(self, select: ast.Select) -> PlannedQuery:
        entries = self._flatten_from(select.from_items)
        scope = self._build_scope(entries)
        width = scope.width

        where = self._materialize_subqueries(select.where, scope)
        conjuncts = split_conjuncts(where)
        for entry in entries:
            if entry.kind == "INNER" and entry.on_condition is not None:
                conjuncts.extend(
                    self._materialize_subqueries_list(
                        split_conjuncts(entry.on_condition), scope
                    )
                )
                entry.on_condition = None

        path_entries = [e for e in entries if self._is_path_entry(e)]
        other_entries = [e for e in entries if not self._is_path_entry(e)]

        path_conjuncts, pool = self._assign_path_conjuncts(
            conjuncts, path_entries, scope
        )

        current, pool = self._plan_relational(other_entries, pool, scope, width)

        for entry in path_entries:
            current = self._plan_path_entry(
                entry, path_conjuncts[entry.binding.alias.lower()], current,
                scope, width, select,
            )

        if pool:
            current = FilterOp(
                current, ExpressionCompiler(scope).compile(conjoin(pool))
            )
        if current is None:
            current = SingleRowOp(width)

        return self._plan_projection(select, current, scope)

    # ------------------------------------------------------------------
    # FROM handling
    # ------------------------------------------------------------------

    def _flatten_from(self, items: Sequence[ast.FromItem]) -> List[_FromEntry]:
        entries: List[_FromEntry] = []

        def flatten(item: ast.FromItem, kind: str, condition) -> None:
            if isinstance(item, ast.Join):
                flatten(item.left, kind, condition)
                if item.kind == "LEFT":
                    flatten(item.right, "LEFT", item.condition)
                elif item.kind == "CROSS":
                    flatten(item.right, "CROSS", None)
                else:
                    flatten(item.right, "INNER", item.condition)
            else:
                entries.append(_FromEntry(item, kind, condition))

        for item in items:
            flatten(item, "INNER", None)
        if not entries:
            raise PlanningError("FROM clause is empty")
        return entries

    def _build_scope(self, entries: List[_FromEntry]) -> Scope:
        bindings = []
        for slot, entry in enumerate(entries):
            item = entry.item
            if isinstance(item, ast.TableRef):
                table = self._resolve_table(item.name)
                binding = RelationBinding(item.alias, slot, table.schema)
                binding.table = table  # stored for scan construction
                binding.derived_plan = None
            elif isinstance(item, ast.SubquerySource):
                subplan = SelectPlanner(
                    self.catalog, self.options, self.subquery_executor
                ).plan(item.query)
                schema = TableSchema(
                    [
                        Column(name, SqlType.ANY)
                        for name in self._dedupe_column_names(
                            subplan.column_names
                        )
                    ]
                )
                binding = RelationBinding(item.alias, slot, schema)
                binding.table = None
                binding.derived_plan = subplan
            elif isinstance(item, ast.GraphRef):
                view = self.catalog.graph_view(item.graph_name)
                if item.element == ast.GraphRef.VERTEXES:
                    binding = VertexBinding(item.alias, slot, view)
                elif item.element == ast.GraphRef.EDGES:
                    binding = EdgeBinding(item.alias, slot, view)
                else:
                    binding = PathBinding(item.alias, slot, view)
                    if entry.kind == "LEFT":
                        raise PlanningError(
                            "LEFT JOIN onto GV.PATHS is not supported"
                        )
            else:
                raise PlanningError(
                    f"unsupported FROM item {type(item).__name__}"
                )
            entry.binding = binding
            bindings.append(binding)
        return Scope(bindings)

    @staticmethod
    def _dedupe_column_names(names: List[str]) -> List[str]:
        seen: Dict[str, int] = {}
        out: List[str] = []
        for name in names:
            key = name.lower()
            if key in seen:
                seen[key] += 1
                out.append(f"{name}_{seen[key]}")
            else:
                seen[key] = 1
                out.append(name)
        return out

    def _resolve_table(self, name: str) -> Table:
        if self.catalog.has_table(name):
            return self.catalog.table(name)
        if self.catalog.has_view(name):
            return self.catalog.view(name).table
        raise PlanningError(f"unknown table or view: {name}")

    @staticmethod
    def _is_path_entry(entry: _FromEntry) -> bool:
        return isinstance(entry.binding, PathBinding)

    # ------------------------------------------------------------------
    # subqueries (uncorrelated only)
    # ------------------------------------------------------------------

    def _materialize_subqueries(
        self,
        expression: Optional[ast.Expression],
        outer_scope: Optional[Scope] = None,
    ) -> Optional[ast.Expression]:
        """Evaluate uncorrelated subqueries now; rewrite correlated ones
        (when an ``outer_scope`` is supplied) into
        :class:`~repro.sql.ast.CorrelatedSubquery` IR nodes, planned once
        and re-executed per outer row."""
        if expression is None:
            return None

        def replacer(node: ast.Expression) -> Optional[ast.Expression]:
            if isinstance(node, ast.InSubquery):
                correlated = self._maybe_correlate(
                    node.subquery, outer_scope, "in", node.operand, node.negated
                )
                if correlated is not None:
                    return correlated
                rows = self._run_subquery(node.subquery)
                return ast.InList(
                    node.operand,
                    [ast.Literal(row[0]) for row in rows],
                    node.negated,
                )
            if isinstance(node, ast.ScalarSubquery):
                correlated = self._maybe_correlate(
                    node.subquery, outer_scope, "scalar", None, False
                )
                if correlated is not None:
                    return correlated
                rows = self._run_subquery(node.subquery)
                if len(rows) > 1:
                    raise ExecutionError(
                        "scalar subquery returned more than one row"
                    )
                value = rows[0][0] if rows else None
                return ast.Literal(value)
            if isinstance(node, ast.ExistsSubquery):
                correlated = self._maybe_correlate(
                    node.subquery, outer_scope, "exists", None, node.negated
                )
                if correlated is not None:
                    return correlated
                rows = self._run_subquery(node.subquery)
                return ast.Literal(bool(rows) != node.negated)
            return None

        return replace_nodes(expression, replacer)

    def _maybe_correlate(
        self,
        subquery: ast.Select,
        outer_scope: Optional[Scope],
        kind: str,
        operand: Optional[ast.Expression],
        negated: bool,
    ) -> Optional[ast.CorrelatedSubquery]:
        """If the subquery references outer aliases, rewrite those
        references to live-value nodes and plan it once."""
        if outer_scope is None:
            return None
        outer_nodes = find_outer_references(subquery, outer_scope)
        if not outer_nodes:
            return None
        outer_ids = {id(n) for n in outer_nodes}
        bindings: List[Tuple[ast.Expression, ast.Parameter]] = []
        replaced = [0]

        def replacer(node: ast.Expression) -> Optional[ast.Expression]:
            if isinstance(node, ast.FieldAccess) and id(node) in outer_ids:
                live = ast.Parameter(-(len(bindings) + 1))
                bindings.append((node, live))
                replaced[0] += 1
                return live
            return None

        rewritten = rewrite_select(subquery, replacer)
        if replaced[0] != len(outer_nodes):
            raise PlanningError(
                "correlated references are only supported one subquery "
                "level deep"
            )
        inner_plan = SelectPlanner(
            self.catalog, self.options, self.subquery_executor
        ).plan(rewritten)
        return ast.CorrelatedSubquery(
            kind, inner_plan, bindings, operand=operand, negated=negated
        )

    def _materialize_subqueries_list(
        self,
        conjuncts: List[ast.Expression],
        outer_scope: Optional[Scope] = None,
    ) -> List[ast.Expression]:
        return [
            self._materialize_subqueries(c, outer_scope) for c in conjuncts
        ]

    def _run_subquery(self, subquery: ast.Select) -> List[Tuple[Any, ...]]:
        if self.subquery_executor is None:
            raise PlanningError("subqueries are not enabled in this context")
        try:
            return self.subquery_executor(subquery)
        except PlanningError as error:
            raise PlanningError(
                f"failed to evaluate subquery (note: correlated subqueries "
                f"are not supported): {error}"
            ) from error

    # ------------------------------------------------------------------
    # conjunct assignment
    # ------------------------------------------------------------------

    def _assign_path_conjuncts(
        self,
        conjuncts: List[ast.Expression],
        path_entries: List[_FromEntry],
        scope: Scope,
    ) -> Tuple[Dict[str, List[ast.Expression]], List[ast.Expression]]:
        """Give every conjunct mentioning a path alias to the *last*
        (in from-order) mentioned path — by then all other inputs it
        needs are available in the pipeline."""
        path_order = [e.binding.alias.lower() for e in path_entries]
        assigned: Dict[str, List[ast.Expression]] = {a: [] for a in path_order}
        pool: List[ast.Expression] = []
        for conjunct in conjuncts:
            aliases = referenced_aliases(conjunct, scope)
            mentioned = [a for a in path_order if a in aliases]
            if mentioned:
                assigned[mentioned[-1]].append(conjunct)
            else:
                pool.append(conjunct)
        return assigned, pool

    # ------------------------------------------------------------------
    # relational planning
    # ------------------------------------------------------------------

    def _plan_relational(
        self,
        entries: List[_FromEntry],
        pool: List[ast.Expression],
        scope: Scope,
        width: int,
    ) -> Tuple[Optional[Operator], List[ast.Expression]]:
        current: Optional[Operator] = None
        planned: Set[str] = set()
        remaining = list(pool)
        entries = self._order_entries(entries, pool, scope)
        for entry in entries:
            alias = entry.binding.alias.lower()
            singles = [
                c
                for c in remaining
                if referenced_aliases(c, scope) == {alias}
            ]
            remaining = [c for c in remaining if c not in singles]
            scan = self._plan_source(entry, singles, scope, width)
            if current is None:
                current = scan
                planned.add(alias)
                continue
            if entry.kind == "LEFT":
                predicate = (
                    ExpressionCompiler(scope).compile(entry.on_condition)
                    if entry.on_condition is not None
                    else None
                )
                current = NestedLoopJoinOp(
                    current, scan, predicate, left_outer=True
                )
                planned.add(alias)
                continue
            applicable = []
            for conjunct in remaining:
                aliases = referenced_aliases(conjunct, scope)
                if aliases and aliases <= planned | {alias} and not (
                    aliases <= planned
                ):
                    applicable.append(conjunct)
            remaining = [c for c in remaining if c not in applicable]
            equi_pairs = []
            residual = []
            for conjunct in applicable:
                pair = equi_join_sides(conjunct, scope, planned, {alias})
                if pair is not None:
                    equi_pairs.append(pair)
                else:
                    residual.append(conjunct)
            if equi_pairs:
                compiler = ExpressionCompiler(scope)
                left_keys = [compiler.compile(p[0]) for p in equi_pairs]
                right_keys = [compiler.compile(p[1]) for p in equi_pairs]
                residual_expr = (
                    ExpressionCompiler(scope).compile(conjoin(residual))
                    if residual
                    else None
                )
                current = HashJoinOp(
                    current, scan, left_keys, right_keys, residual_expr
                )
            elif residual:
                current = NestedLoopJoinOp(
                    current,
                    scan,
                    ExpressionCompiler(scope).compile(conjoin(residual)),
                )
            else:
                current = NestedLoopJoinOp(current, scan, None)
            planned.add(alias)
        return current, remaining

    def _order_entries(
        self,
        entries: List[_FromEntry],
        pool: List[ast.Expression],
        scope: Scope,
    ) -> List[_FromEntry]:
        """Greedy cardinality-based join ordering.

        Starts from the smallest estimated (filtered) input, then
        repeatedly appends the cheapest entry that an equi-join predicate
        connects to the already-planned set — cross products are deferred
        to the end. Disabled (FROM order kept) when the query has LEFT
        joins (whose semantics depend on order) or by planner options.
        """
        if not self.options.reorder_joins or len(entries) < 2:
            return list(entries)
        if any(e.kind == "LEFT" for e in entries):
            return list(entries)

        estimates: Dict[int, float] = {}
        for entry in entries:
            alias = entry.binding.alias.lower()
            singles = 0
            equalities = 0
            for conjunct in pool:
                try:
                    aliases = referenced_aliases(conjunct, scope)
                except PlanningError:
                    continue
                if aliases == {alias}:
                    singles += 1
                    if extract_column_equality(conjunct, alias, scope) is not None:
                        equalities += 1
            base = self._base_cardinality(entry)
            estimate = float(max(base, 1))
            estimate *= 0.1 ** equalities
            estimate *= 0.5 ** max(singles - equalities, 0)
            estimates[id(entry)] = max(estimate, 0.001)

        def connected(candidate: _FromEntry, chosen_aliases: Set[str]) -> bool:
            candidate_alias = candidate.binding.alias.lower()
            for conjunct in pool:
                try:
                    aliases = referenced_aliases(conjunct, scope)
                except PlanningError:
                    continue
                if candidate_alias in aliases and aliases - {candidate_alias} and (
                    aliases - {candidate_alias} <= chosen_aliases
                ):
                    return True
            return False

        def has_join_edge(candidate: _FromEntry) -> bool:
            candidate_alias = candidate.binding.alias.lower()
            for conjunct in pool:
                try:
                    aliases = referenced_aliases(conjunct, scope)
                except PlanningError:
                    continue
                if candidate_alias in aliases and len(aliases) > 1:
                    return True
            return False

        ordered: List[_FromEntry] = []
        pending = list(entries)
        pending.sort(key=lambda e: estimates[id(e)])
        # start from the cheapest *joinable* entry so an unconnected
        # table does not force an up-front cross product
        joinable = [e for e in pending if has_join_edge(e)]
        start = joinable[0] if joinable else pending[0]
        pending.remove(start)
        ordered.append(start)
        chosen_aliases = {start.binding.alias.lower()}
        while pending:
            linked = [e for e in pending if connected(e, chosen_aliases)]
            pick_from = linked if linked else pending
            best = min(pick_from, key=lambda e: estimates[id(e)])
            pending.remove(best)
            ordered.append(best)
            chosen_aliases.add(best.binding.alias.lower())
        return ordered

    @staticmethod
    def _base_cardinality(entry: _FromEntry) -> int:
        binding = entry.binding
        if isinstance(binding, RelationBinding):
            if getattr(binding, "derived_plan", None) is not None:
                return 100  # unknown; assume moderate
            return binding.table.row_count
        if isinstance(binding, VertexBinding):
            return binding.view.topology.vertex_count
        if isinstance(binding, EdgeBinding):
            return binding.view.topology.edge_count
        return 1_000_000  # paths are never reordered through here

    def _plan_source(
        self,
        entry: _FromEntry,
        singles: List[ast.Expression],
        scope: Scope,
        width: int,
    ) -> Operator:
        binding = entry.binding
        slot = binding.slot
        if isinstance(binding, RelationBinding):
            if getattr(binding, "derived_plan", None) is not None:
                scan = DerivedTableOp(
                    binding.derived_plan.operator, slot, width, binding.alias
                )
                if singles:
                    scan = FilterOp(
                        scan,
                        ExpressionCompiler(scope).compile(conjoin(singles)),
                    )
                return scan
            return self._plan_table_access(
                binding.table, binding.alias, singles, scope, slot, width
            )
        if isinstance(binding, (VertexBinding, EdgeBinding)):
            # O(1) identifier lookup through the topology hash maps
            # (Section 3.2) instead of scanning all elements
            scan = None
            leftover = list(singles)
            for conjunct in singles:
                match = extract_column_equality(conjunct, binding.alias)
                if match is None or match[0].lower() != "id":
                    continue
                compiled = ExpressionCompiler(scope).compile(match[1])
                if compiled.aliases:
                    continue
                key_fn = functools.partial(compiled.fn, [None] * width)
                if isinstance(binding, VertexBinding):
                    scan = VertexLookupOp(binding.view, key_fn, slot, width)
                else:
                    scan = EdgeLookupOp(binding.view, key_fn, slot, width)
                leftover = [c for c in singles if c is not conjunct]
                break
            if scan is None:
                if isinstance(binding, VertexBinding):
                    scan = VertexScanOp(binding.view, slot, width)
                else:
                    scan = EdgeScanOp(binding.view, slot, width)
            if leftover:
                scan = FilterOp(
                    scan, ExpressionCompiler(scope).compile(conjoin(leftover))
                )
            return scan
        raise PlanningError("internal: path entries use _plan_path_entry")

    def plan_dml_targets(
        self, table: Table, where: Optional[ast.Expression]
    ) -> Operator:
        """The rows of ``table`` an ``UPDATE`` / ``DELETE`` with this
        ``WHERE`` selects, reached as a single-table ``SELECT`` reaches
        them. Each combined row holds the stored row at position 0 and
        its slot number at position 1."""
        scope = Scope([RelationBinding(table.name, 0, table.schema)])
        singles = split_conjuncts(self._materialize_subqueries(where))
        return self._plan_table_access(
            table, table.name, singles, scope, 0, 2, number_slot=1
        )

    def _plan_table_access(
        self,
        table: Table,
        alias: str,
        singles: List[ast.Expression],
        scope: Scope,
        slot: int,
        width: int,
        number_slot: Optional[int] = None,
    ) -> Operator:
        """Access path for a base table under its single-alias conjuncts:
        an index lookup, else an ordered range scan, else a scan; what
        the access path does not answer stays as a ``Filter`` above it."""
        place = (slot, width, number_slot)
        scan, leftover = self._pick_index_access(
            table, alias, singles, scope, place
        )
        if scan is None:
            scan = SeqScanOp(table, *place)
        if leftover:
            scan = FilterOp(
                scan, ExpressionCompiler(scope).compile(conjoin(leftover))
            )
        return scan

    def _pick_index_access(
        self,
        table: Table,
        alias: str,
        singles: List[ast.Expression],
        scope: Scope,
        place: Tuple[int, int, Optional[int]],
    ) -> Tuple[Optional[Operator], List[ast.Expression]]:
        """Choose an index access path for a base-table scan.

        Among the indexes whose every key column is bound by an equality:
        the one with the most key columns, then one that finds at most
        one row (unique, or keyed on a unique key's columns) over one
        that may find many, then hash over ordered, then by name — a
        deterministic choice whatever order the indexes were created in.
        Only when none applies, a range scan over the leading column of
        an ordered index (two bounds over one, then by name). Bound
        expressions must be constant or parameterized (no alias
        references); they evaluate lazily so prepared statements re-bind
        correctly. A probe is handed to the index as it evaluates, with
        no coercion: the access operators answer what the comparison
        operators would (``k = '5'`` finds no integer key; ``k >= '5'``,
        which ``>=`` coerces, is left to it), so an index never changes
        a statement's result.
        """
        empty_row = [None] * place[1]
        # column -> the first usable bound of each kind
        equalities: Dict[str, _Bound] = {}
        lows: Dict[str, _Bound] = {}
        highs: Dict[str, _Bound] = {}
        for conjunct in singles:
            match = extract_column_equality(conjunct, alias, scope)
            op = "="
            if match is None:
                match = extract_column_comparison(conjunct, alias, scope)
                if match is None:
                    continue
                op = match[1]
            column, other = match[0], match[-1]
            compiled = ExpressionCompiler(scope).compile(other)
            if compiled.aliases:
                continue  # the bound depends on a row
            bounds = (
                equalities if op == "=" else lows if op in (">", ">=") else highs
            )
            bounds.setdefault(
                column.lower(),
                _Bound(
                    conjunct,
                    functools.partial(compiled.fn, empty_row),
                    inclusive=op in ("=", ">=", "<="),
                ),
            )

        def without(used: Sequence[_Bound]) -> List[ast.Expression]:
            return [
                c for c in singles if all(c is not bound.conjunct for bound in used)
            ]

        covered = [
            index
            for index in table.indexes.values()
            if all(c.lower() in equalities for c in index.key_columns)
        ]
        if covered:
            unique_keys = [
                {c.lower() for c in index.key_columns}
                for index in covered
                if index.unique
            ]

            def finds_one_row(index) -> bool:
                """Unique itself, or keyed on (at least) a unique key: a
                hash index on the primary-key column finds one row too."""
                columns = {c.lower() for c in index.key_columns}
                return any(key <= columns for key in unique_keys)

            best = min(
                covered,
                key=lambda index: (
                    -len(index.key_columns),
                    not finds_one_row(index),
                    not isinstance(index, HashIndex),
                    index.name,
                ),
            )
            used = [equalities[c.lower()] for c in best.key_columns]
            values = [bound.value for bound in used]
            if len(values) == 1:
                # the common case without the generator's frame: a
                # prepared point read runs cache-cold between traversals
                (value,) = values

                def key():
                    return (value(),)
            else:
                def key():
                    return tuple(v() for v in values)

            return IndexLookupOp(table, best, key, *place), without(used)

        def bounds_of(index):
            leading = index.key_columns[0].lower()
            return [b for b in (lows.get(leading), highs.get(leading)) if b]

        ranged = [
            index
            for index in table.indexes.values()
            if isinstance(index, OrderedIndex) and bounds_of(index)
        ]
        if ranged:
            best = min(
                ranged, key=lambda index: (-len(bounds_of(index)), index.name)
            )
            leading = best.key_columns[0].lower()
            low, high = lows.get(leading), highs.get(leading)
            used = bounds_of(best)
            scan = IndexRangeScanOp(
                table,
                best,
                low and low.value,
                high and high.value,
                low is None or low.inclusive,
                high is None or high.inclusive,
                ExpressionCompiler(scope).compile(
                    conjoin([bound.conjunct for bound in used])
                ),
                *place,
            )
            return scan, without(used)
        return None, list(singles)

    # ------------------------------------------------------------------
    # path planning
    # ------------------------------------------------------------------

    def _plan_path_entry(
        self,
        entry: _FromEntry,
        conjuncts: List[ast.Expression],
        current: Optional[Operator],
        scope: Scope,
        width: int,
        select: ast.Select,
    ) -> Operator:
        binding: PathBinding = entry.binding
        view: GraphView = binding.view
        alias = binding.alias
        hint = entry.item.hint if isinstance(entry.item, ast.GraphRef) else None

        # ---- length inference (Section 6.1) ---------------------------
        if self.options.infer_path_length:
            bounds, consumed = infer_length_bounds(conjuncts, alias)
            conjuncts = [c for c in conjuncts if c not in consumed]
        else:
            bounds = LengthBounds()
        if bounds.maximum is None:
            bounds.maximum = self.options.default_max_path_length
        if bounds.is_empty:
            # contradictory length predicates: the scan yields nothing
            return _EmptyPathOp(current, width)

        # ---- predicate classification (Section 6.2) -------------------
        plan = classify_path_conjuncts(
            conjuncts, alias, view, scope,
            push_filters=self.options.push_path_filters,
        )
        residual_predicate = compile_path_predicate(
            plan.residual_path_conjuncts, alias, view
        )

        # ---- bindings --------------------------------------------------
        # An endpoint binding is correlated when it references another
        # alias: the relational plan built so far feeds it (Figure 6).
        # Literals and ``?`` parameters are evaluated per iteration.
        start = (
            ExpressionCompiler(scope).compile(plan.start_expr)
            if plan.start_expr is not None
            else None
        )
        target = (
            ExpressionCompiler(scope).compile(plan.target_expr)
            if plan.target_expr is not None
            else None
        )
        correlated = any(
            bound is not None and bound.aliases for bound in (start, target)
        )

        # ---- physical operator selection (Section 6.3) ----------------
        mode, unique, weight_of, per_vertex = self._choose_physical(
            hint, view, bounds, plan, residual_predicate, select,
            has_target=plan.target_expr is not None,
        )

        def build_spec(target_value) -> TraversalSpec:
            return TraversalSpec(
                min_length=bounds.minimum,
                max_length=bounds.maximum,
                edge_filters=plan.edge_filters,
                vertex_filters=plan.vertex_filters,
                sum_bounds=plan.sum_bounds,
                path_predicate=residual_predicate,
                target_vertex_id=target_value,
                unique_vertices=unique,
                target_is_start=plan.cycle_constraint,
            )

        scan = PathScanOp(
            view,
            binding.slot,
            width,
            mode,
            build_spec,
            start,
            target,
            weight_of=weight_of,
            max_paths_per_vertex=per_vertex,
            outer=current if correlated else None,
        )
        if correlated or current is None:
            current = scan
        else:
            current = NestedLoopJoinOp(current, scan, None)

        if plan.join_residual_conjuncts:
            current = FilterOp(
                current,
                ExpressionCompiler(scope).compile(
                    conjoin(plan.join_residual_conjuncts)
                ),
            )
        return current

    def _choose_physical(
        self,
        hint: Optional[ast.TraversalHint],
        view: GraphView,
        bounds: LengthBounds,
        plan: PathPredicatePlan,
        residual_predicate,
        select: ast.Select,
        has_target: bool,
    ) -> Tuple[str, bool, Optional[Callable], int]:
        """Returns (mode, unique_vertices, weight_of, max_paths_per_vertex)."""
        if hint is not None and hint.kind == "SHORTESTPATH":
            attribute = hint.weight_attribute
            if not view.has_edge_attribute(attribute):
                raise PlanningError(
                    f"graph view {view.name} has no edge attribute "
                    f"{attribute!r} for SHORTESTPATH"
                )
            weight_of = view.edge_attribute_reader(attribute)
            if select.limit is not None:
                per_vertex = select.limit
                if plan.join_residual_conjuncts or residual_predicate:
                    per_vertex = min(select.limit * 4, 256)
            else:
                per_vertex = 64 if has_target else 1
            return "SP", False, weight_of, per_vertex

        # reachability shortcut: existence query over a filtered subgraph,
        # answered by the visited-once BFS (HINT(DFS) opts out)
        shortcut_allowed = (
            select.limit == 1
            and has_target
            and plan.filters_position_independent
            and not plan.sum_bounds
            and not plan.cycle_constraint
            and residual_predicate is None
            and not plan.join_residual_conjuncts
            and bounds.minimum <= 1
            and (hint is None or hint.kind == "BFS")
        )
        if shortcut_allowed:
            return "BFS", True, None, 1

        if hint is not None:
            return hint.kind, False, None, 1

        mode = choose_traversal(view.average_fan_out(), bounds.maximum)
        return mode, False, None, 1

    # ------------------------------------------------------------------
    # projection / aggregation / ordering
    # ------------------------------------------------------------------

    def _plan_projection(
        self, select: ast.Select, current: Operator, scope: Scope
    ) -> PlannedQuery:
        items = self._expand_stars(select.items, scope)
        alias_map = {
            item.alias.lower(): item.expression
            for item in items
            if item.alias is not None
        }

        def resolve_output_alias(expression: ast.Expression) -> ast.Expression:
            # ORDER BY <select alias>
            if (
                isinstance(expression, ast.Identifier)
                and expression.name.lower() in alias_map
            ):
                return alias_map[expression.name.lower()]
            # ORDER BY <ordinal>, 1-based (SQL-92)
            if isinstance(expression, ast.Literal) and isinstance(
                expression.value, int
            ):
                ordinal = expression.value
                if not 1 <= ordinal <= len(items):
                    raise PlanningError(
                        f"ORDER BY position {ordinal} is out of range "
                        f"(select list has {len(items)} item(s))"
                    )
                return items[ordinal - 1].expression
            return expression

        order_items = [
            ast.OrderItem(resolve_output_alias(o.expression), o.ascending)
            for o in select.order_by
        ]
        having = self._materialize_subqueries(select.having, scope)

        select_expressions = [
            self._materialize_subqueries(item.expression, scope)
            for item in items
        ]
        aggregates: List[ast.FunctionCall] = []
        for expression in select_expressions:
            aggregates.extend(find_relational_aggregates(expression, scope))
        if having is not None:
            aggregates.extend(find_relational_aggregates(having, scope))
        for order_item in order_items:
            aggregates.extend(
                find_relational_aggregates(order_item.expression, scope)
            )
        unique_aggregates: List[ast.FunctionCall] = []
        for aggregate in aggregates:
            if not any(aggregate == seen for seen in unique_aggregates):
                unique_aggregates.append(aggregate)

        if select.group_by or unique_aggregates:
            current, scope = self._plan_aggregation(
                current, scope, select.group_by, unique_aggregates
            )
            rewriter = self._aggregate_rewriter(
                select.group_by, unique_aggregates
            )
            select_expressions = [rewriter(e) for e in select_expressions]
            if having is not None:
                having = rewriter(having)
            order_items = [
                ast.OrderItem(rewriter(o.expression), o.ascending)
                for o in order_items
            ]
        elif having is not None:
            raise PlanningError("HAVING requires GROUP BY or aggregates")

        if having is not None:
            current = FilterOp(
                current, ExpressionCompiler(scope).compile(having)
            )
        if order_items:
            keys = [
                (ExpressionCompiler(scope).compile(o.expression), o.ascending)
                for o in order_items
            ]
            current = SortOp(current, keys)

        compiled_items = [
            ExpressionCompiler(scope).compile(e) for e in select_expressions
        ]
        current = ProjectOp(current, compiled_items)
        if select.distinct:
            current = DistinctOp(current)
        if select.limit is not None or select.offset is not None:
            current = LimitOp(current, select.limit, select.offset)

        names = [
            self._column_name(item, expression)
            for item, expression in zip(items, select_expressions)
        ]
        return PlannedQuery(current, names)

    def _plan_aggregation(
        self,
        current: Operator,
        scope: Scope,
        group_by: List[ast.Expression],
        aggregates: List[ast.FunctionCall],
    ) -> Tuple[Operator, Scope]:
        compiler = ExpressionCompiler(scope)
        group_compiled = [compiler.compile(g) for g in group_by]
        specs = []
        for aggregate in aggregates:
            if len(aggregate.args) == 1 and isinstance(aggregate.args[0], ast.Star):
                specs.append(AggregateSpec(aggregate.name, None, False))
            elif len(aggregate.args) == 1:
                specs.append(
                    AggregateSpec(
                        aggregate.name,
                        ExpressionCompiler(scope).compile(aggregate.args[0]),
                        aggregate.distinct,
                    )
                )
            else:
                raise PlanningError(
                    f"aggregate {aggregate.name} takes exactly one argument"
                )
        current = AggregateOp(current, group_compiled, specs)
        columns = [
            Column(f"__g{i}", SqlType.VARCHAR) for i in range(len(group_by))
        ] + [Column(f"__a{j}", SqlType.VARCHAR) for j in range(len(aggregates))]
        synthetic = Scope(
            [RelationBinding("#aggregated", 0, TableSchema(columns))]
        )
        return current, synthetic

    def _aggregate_rewriter(
        self,
        group_by: List[ast.Expression],
        aggregates: List[ast.FunctionCall],
    ) -> Callable[[ast.Expression], ast.Expression]:
        def replacer(node: ast.Expression) -> Optional[ast.Expression]:
            for i, group_expression in enumerate(group_by):
                if node == group_expression:
                    return ast.FieldAccess(
                        "#aggregated", [ast.NameAccessor(f"__g{i}")]
                    )
            for j, aggregate in enumerate(aggregates):
                if node == aggregate:
                    return ast.FieldAccess(
                        "#aggregated", [ast.NameAccessor(f"__a{j}")]
                    )
            return None

        def rewrite(expression: ast.Expression) -> ast.Expression:
            rewritten = replace_nodes(expression, replacer)
            for sub in ast.walk_expression(rewritten):
                if isinstance(sub, ast.Identifier):
                    raise PlanningError(
                        f"column {sub.name!r} must appear in GROUP BY or "
                        "inside an aggregate"
                    )
                if (
                    isinstance(sub, ast.FieldAccess)
                    and sub.base != "#aggregated"
                ):
                    raise PlanningError(
                        f"reference to {sub.base!r} must appear in GROUP BY "
                        "or inside an aggregate"
                    )
            return rewritten

        return rewrite

    # ------------------------------------------------------------------

    def _expand_stars(
        self, items: List[ast.SelectItem], scope: Scope
    ) -> List[ast.SelectItem]:
        expanded: List[ast.SelectItem] = []
        for item in items:
            if not isinstance(item.expression, ast.Star):
                expanded.append(item)
                continue
            qualifier = item.expression.qualifier
            bindings = (
                [b for b in scope.bindings]
                if qualifier is None
                else [scope.binding(qualifier)]
            )
            if any(b is None for b in bindings):
                raise PlanningError(f"unknown alias in {qualifier}.*")
            for binding in bindings:
                expanded.extend(self._star_items_for(binding))
        return expanded

    @staticmethod
    def _star_items_for(binding) -> List[ast.SelectItem]:
        alias = binding.alias
        if isinstance(binding, RelationBinding):
            return [
                ast.SelectItem(
                    ast.FieldAccess(alias, [ast.NameAccessor(column.name)]),
                    column.name,
                )
                for column in binding.schema.columns
            ]
        if isinstance(binding, VertexBinding):
            names = (
                ["Id"]
                + binding.view.all_vertex_attribute_names()
                + ["FanOut", "FanIn"]
            )
        elif isinstance(binding, EdgeBinding):
            names = ["Id", "From", "To"] + binding.view.all_edge_attribute_names()
        else:  # PathBinding
            names = [
                "PathString",
                "Length",
                "StartVertexId",
                "EndVertexId",
                "Cost",
            ]
        return [
            ast.SelectItem(
                ast.FieldAccess(alias, [ast.NameAccessor(name)]), name
            )
            for name in names
        ]

    @staticmethod
    def _column_name(item: ast.SelectItem, expression: ast.Expression) -> str:
        if item.alias:
            return item.alias
        source = item.expression
        if isinstance(source, ast.FieldAccess):
            last = source.accessors[-1]
            if isinstance(last, ast.NameAccessor):
                return last.name
        if isinstance(source, ast.Identifier):
            return source.name
        if isinstance(source, ast.FunctionCall):
            return source.name
        return "expr"


class _EmptyPathOp(Operator):
    """Produced when length predicates are contradictory: no rows."""

    def __init__(self, child: Optional[Operator], width: int):
        self.child = child
        self.width = width

    def _rows(self):
        return iter(())

    def describe(self) -> str:
        return "EmptyPathScan"
