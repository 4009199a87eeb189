"""Abstract syntax tree for the SQL dialect.

Nodes are small immutable-by-convention classes with structural equality,
which keeps parser tests straightforward. Expression resolution against
from-clause aliases happens later, in the planner — the parser produces
*generic* dotted/indexed access chains (:class:`FieldAccess`) that the
planner interprets as column references or the paper's path expressions.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple


class Node:
    """Base AST node with structural equality over ``__dict__``."""

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self) -> int:  # pragma: no cover - nodes rarely hashed
        return hash(repr(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{type(self).__name__}({fields})"


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


class Expression(Node):
    """Marker base for expression nodes."""


class Literal(Expression):
    def __init__(self, value: Any):
        self.value = value


class Parameter(Expression):
    """A ``?`` placeholder in a prepared statement.

    The compiled plan reads ``value`` *live*, so a
    :class:`~repro.core.database.PreparedQuery` binds parameters by
    assigning to the node and re-running the plan — the VoltDB
    stored-procedure execution model (plan once, execute many).
    """

    def __init__(self, index: int):
        self.index = index
        self.value: Any = None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Parameter) and self.index == other.index

    def __hash__(self) -> int:  # pragma: no cover
        return hash(("Parameter", self.index))


class Identifier(Expression):
    """A bare name: column in scope, or alias."""

    def __init__(self, name: str):
        self.name = name


class NameAccessor(Node):
    """``.name`` step in a dotted chain."""

    def __init__(self, name: str):
        self.name = name


class IndexAccessor(Node):
    """``[i]`` step — a single element of a path collection."""

    def __init__(self, index: int):
        self.index = index


class RangeAccessor(Node):
    """``[i..j]`` or ``[i..*]`` step; ``end is None`` means ``*``."""

    def __init__(self, start: int, end: Optional[int]):
        self.start = start
        self.end = end


class FieldAccess(Expression):
    """A dotted / indexed chain rooted at a name.

    Examples::

        U.uId                 -> FieldAccess('U', [NameAccessor('uId')])
        PS.Length             -> FieldAccess('PS', [NameAccessor('Length')])
        PS.Edges[0..*].Cost   -> FieldAccess('PS', [NameAccessor('Edges'),
                                  RangeAccessor(0, None), NameAccessor('Cost')])
        PS.StartVertex.Id     -> FieldAccess('PS', [NameAccessor('StartVertex'),
                                  NameAccessor('Id')])
    """

    def __init__(self, base: str, accessors: Sequence[Node]):
        self.base = base
        self.accessors = list(accessors)


class Star(Expression):
    """``*`` or ``alias.*`` in a select list / COUNT(*)."""

    def __init__(self, qualifier: Optional[str] = None):
        self.qualifier = qualifier


class UnaryOp(Expression):
    def __init__(self, op: str, operand: Expression):
        self.op = op  # '-', '+', 'NOT'
        self.operand = operand


class BinaryOp(Expression):
    def __init__(self, op: str, left: Expression, right: Expression):
        self.op = op
        self.left = left
        self.right = right


class InList(Expression):
    def __init__(self, operand: Expression, items: Sequence[Expression], negated: bool):
        self.operand = operand
        self.items = list(items)
        self.negated = negated


class InSubquery(Expression):
    def __init__(self, operand: Expression, subquery: "Select", negated: bool):
        self.operand = operand
        self.subquery = subquery
        self.negated = negated

class ScalarSubquery(Expression):
    def __init__(self, subquery: "Select"):
        self.subquery = subquery


class ExistsSubquery(Expression):
    def __init__(self, subquery: "Select", negated: bool = False):
        self.subquery = subquery
        self.negated = negated


class CorrelatedSubquery(Expression):
    """Planner-produced IR node for a correlated subquery.

    The planner rewrites outer-alias references inside the subquery to
    live-value nodes, plans the subquery *once*, and wraps everything
    here; the expression compiler evaluates it per outer row by binding
    the live nodes and re-running the inner plan.

    ``kind`` is ``'scalar'`` / ``'in'`` / ``'exists'``; ``operand`` is
    the left-hand expression for the IN form (else None).
    """

    def __init__(self, kind, plan, bindings, operand=None, negated=False):
        self.kind = kind
        self.plan = plan  # PlannedQuery of the rewritten subquery
        self.bindings = bindings  # list of (outer_expr_ast, live_node)
        self.operand = operand
        self.negated = negated

    def __eq__(self, other: object) -> bool:  # identity: plans differ
        return self is other

    def __hash__(self) -> int:  # pragma: no cover
        return id(self)


class Between(Expression):
    def __init__(
        self,
        operand: Expression,
        low: Expression,
        high: Expression,
        negated: bool,
    ):
        self.operand = operand
        self.low = low
        self.high = high
        self.negated = negated


class IsNull(Expression):
    def __init__(self, operand: Expression, negated: bool):
        self.operand = operand
        self.negated = negated


class Like(Expression):
    def __init__(self, operand: Expression, pattern: Expression, negated: bool):
        self.operand = operand
        self.pattern = pattern
        self.negated = negated


class FunctionCall(Expression):
    """Scalar or aggregate function call; aggregates resolved in planner."""

    def __init__(
        self,
        name: str,
        args: Sequence[Expression],
        distinct: bool = False,
    ):
        self.name = name.upper()
        self.args = list(args)
        self.distinct = distinct


class CaseWhen(Expression):
    def __init__(
        self,
        branches: Sequence[Tuple[Expression, Expression]],
        otherwise: Optional[Expression],
    ):
        self.branches = list(branches)
        self.otherwise = otherwise


class Cast(Expression):
    def __init__(self, operand: Expression, type_name: str):
        self.operand = operand
        self.type_name = type_name


# ---------------------------------------------------------------------------
# FROM-clause items
# ---------------------------------------------------------------------------


class FromItem(Node):
    """Base for from-clause items; every item carries an alias."""


class TableRef(FromItem):
    def __init__(self, name: str, alias: Optional[str] = None):
        self.name = name
        self.alias = alias or name


class SubquerySource(FromItem):
    """``FROM (SELECT ...) alias`` — a derived table. The subquery is
    planned independently (no correlation with sibling from-items) and
    its rows stream into the outer plan."""

    def __init__(self, query: "Select", alias: str):
        self.query = query
        self.alias = alias


class TraversalHint(Node):
    """``HINT(SHORTESTPATH(attr))`` / ``HINT(DFS)`` / ``HINT(BFS)``."""

    def __init__(self, kind: str, weight_attribute: Optional[str] = None):
        self.kind = kind.upper()  # 'SHORTESTPATH' | 'DFS' | 'BFS'
        self.weight_attribute = weight_attribute


class GraphRef(FromItem):
    """``GV.PATHS PS``, ``GV.VERTEXES VS`` or ``GV.EDGES ES``."""

    PATHS = "PATHS"
    VERTEXES = "VERTEXES"
    EDGES = "EDGES"

    def __init__(
        self,
        graph_name: str,
        element: str,
        alias: Optional[str] = None,
        hint: Optional[TraversalHint] = None,
    ):
        self.graph_name = graph_name
        self.element = element.upper()
        self.alias = alias or f"{graph_name}_{element}"
        self.hint = hint


class Join(FromItem):
    """Explicit ``JOIN ... ON`` between two from-items."""

    def __init__(
        self,
        left: FromItem,
        right: FromItem,
        condition: Optional[Expression],
        kind: str = "INNER",
    ):
        self.left = left
        self.right = right
        self.condition = condition
        self.kind = kind.upper()
        self.alias = None  # joins are transparent for name resolution


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


class Statement(Node):
    """Base for all statements."""


class SelectItem(Node):
    def __init__(self, expression: Expression, alias: Optional[str] = None):
        self.expression = expression
        self.alias = alias


class OrderItem(Node):
    def __init__(self, expression: Expression, ascending: bool = True):
        self.expression = expression
        self.ascending = ascending


class Select(Statement):
    def __init__(
        self,
        items: Sequence[SelectItem],
        from_items: Sequence[FromItem],
        where: Optional[Expression] = None,
        group_by: Optional[Sequence[Expression]] = None,
        having: Optional[Expression] = None,
        order_by: Optional[Sequence[OrderItem]] = None,
        limit: Optional[int] = None,
        offset: Optional[int] = None,
        distinct: bool = False,
    ):
        self.items = list(items)
        self.from_items = list(from_items)
        self.where = where
        self.group_by = list(group_by) if group_by else []
        self.having = having
        self.order_by = list(order_by) if order_by else []
        self.limit = limit
        self.offset = offset
        self.distinct = distinct


class SetOperation(Statement):
    """``left UNION [ALL] right`` — evaluated as concatenation with
    optional duplicate elimination. Chains left-associatively."""

    def __init__(self, left, right, all_rows: bool = False):
        self.left = left
        self.right = right
        self.all_rows = all_rows


class Explain(Statement):
    """``EXPLAIN [ANALYZE] statement``.

    Plain ``EXPLAIN`` renders the physical plan; ``EXPLAIN ANALYZE``
    additionally executes the statement under a
    :class:`~repro.observability.tracer.QueryTracer` and annotates every
    plan node with its actual row counts, timing and traversal stats.
    Any statement parses here; planning rejects non-SELECTs with an
    error naming the offending statement kind.
    """

    def __init__(self, statement: "Statement", analyze: bool = False):
        self.statement = statement
        self.analyze = analyze


class ColumnDef(Node):
    def __init__(
        self,
        name: str,
        type_name: str,
        primary_key: bool = False,
        not_null: bool = False,
    ):
        self.name = name
        self.type_name = type_name
        self.primary_key = primary_key
        self.not_null = not_null


class CreateTable(Statement):
    """``CREATE TABLE name (cols...) [PARTITION BY column]``.

    ``partition_by`` names the hash-partition column for a sharded
    deployment (:mod:`repro.sharding`); ``None`` declares a broadcast
    (replicated-everywhere) table. A single-node engine records the
    column and otherwise ignores it.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[ColumnDef],
        partition_by: Optional[str] = None,
    ):
        self.name = name
        self.columns = list(columns)
        self.partition_by = partition_by


class CreateIndex(Statement):
    def __init__(
        self,
        name: str,
        table: str,
        columns: Sequence[str],
        unique: bool = False,
    ):
        self.name = name
        self.table = table
        self.columns = list(columns)
        self.unique = unique


class CreateView(Statement):
    """``CREATE [MATERIALIZED] VIEW name AS SELECT ...`` (materialized)."""

    def __init__(self, name: str, query: Select):
        self.name = name
        self.query = query


class CreateGraphView(Statement):
    """The paper's Listing-1 DDL.

    ``vertex_mappings`` / ``edge_mappings`` map *graph attribute name* to
    the source column expression name, in declaration order. The reserved
    attributes are ``ID`` for vertexes and ``ID``/``FROM``/``TO`` for edges.
    """

    def __init__(
        self,
        name: str,
        directed: bool,
        vertex_mappings: Sequence[Tuple[str, str]],
        vertex_source: str,
        edge_mappings: Sequence[Tuple[str, str]],
        edge_source: str,
    ):
        self.name = name
        self.directed = directed
        self.vertex_mappings = list(vertex_mappings)
        self.vertex_source = vertex_source
        self.edge_mappings = list(edge_mappings)
        self.edge_source = edge_source


class AlterGraphViewAddSource(Statement):
    """``ALTER GRAPH VIEW name ADD VERTEXES(ID = col, attr = col, ...)
    FROM source`` (or ``ADD EDGES``).

    Attaches an additional *attribute source* to an existing graph view:
    the paper's vertical-partitioning extension (Section 3.2), where a
    vertex/edge may hold multiple tuple pointers so semistructured (RDF)
    attributes live in separate relations.
    """

    def __init__(
        self,
        name: str,
        element: str,  # 'VERTEXES' | 'EDGES'
        mappings: Sequence[Tuple[str, str]],
        source: str,
    ):
        self.name = name
        self.element = element.upper()
        self.mappings = list(mappings)
        self.source = source


class Drop(Statement):
    def __init__(self, kind: str, name: str, if_exists: bool = False):
        self.kind = kind.upper()  # TABLE | VIEW | INDEX | GRAPH VIEW
        self.name = name
        self.if_exists = if_exists


class Insert(Statement):
    """``INSERT INTO t [cols] VALUES ...`` or ``INSERT INTO t [cols]
    SELECT ...`` (``query`` set, ``rows`` empty)."""

    def __init__(
        self,
        table: str,
        columns: Optional[Sequence[str]],
        rows: Sequence[Sequence[Expression]],
        query: Optional["Select"] = None,
    ):
        self.table = table
        self.columns = list(columns) if columns else None
        self.rows = [list(r) for r in rows]
        self.query = query


class Update(Statement):
    def __init__(
        self,
        table: str,
        assignments: Sequence[Tuple[str, Expression]],
        where: Optional[Expression] = None,
    ):
        self.table = table
        self.assignments = list(assignments)
        self.where = where


class Delete(Statement):
    def __init__(self, table: str, where: Optional[Expression] = None):
        self.table = table
        self.where = where


class Truncate(Statement):
    def __init__(self, table: str):
        self.table = table


def walk_expression(expression: Optional[Expression]):
    """Depth-first pre-order generator over an expression tree."""
    if expression is None:
        return
    stack: List[Expression] = [expression]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, UnaryOp):
            stack.append(node.operand)
        elif isinstance(node, BinaryOp):
            stack.extend((node.left, node.right))
        elif isinstance(node, InList):
            stack.append(node.operand)
            stack.extend(node.items)
        elif isinstance(node, InSubquery):
            stack.append(node.operand)
        elif isinstance(node, CorrelatedSubquery):
            if node.operand is not None:
                stack.append(node.operand)
            stack.extend(outer for outer, _live in node.bindings)
        elif isinstance(node, Between):
            stack.extend((node.operand, node.low, node.high))
        elif isinstance(node, IsNull):
            stack.append(node.operand)
        elif isinstance(node, Like):
            stack.extend((node.operand, node.pattern))
        elif isinstance(node, FunctionCall):
            stack.extend(node.args)
        elif isinstance(node, Cast):
            stack.append(node.operand)
        elif isinstance(node, CaseWhen):
            for condition, result in node.branches:
                stack.extend((condition, result))
            if node.otherwise is not None:
                stack.append(node.otherwise)


def statement_expressions(statement: Statement):
    """Every top-level expression of a SELECT / INSERT / UPDATE / DELETE
    (select items, join conditions, WHERE, GROUP BY, HAVING, ORDER BY;
    VALUES items and an INSERT's query; SET right-hand sides). Derived
    tables and subqueries are not entered."""
    if isinstance(statement, Select):
        for item in statement.items:
            yield item.expression
        joins = [item for item in statement.from_items if isinstance(item, Join)]
        while joins:
            join = joins.pop()
            if join.condition is not None:
                yield join.condition
            joins.extend(
                side for side in (join.left, join.right) if isinstance(side, Join)
            )
        if statement.where is not None:
            yield statement.where
        yield from statement.group_by
        if statement.having is not None:
            yield statement.having
        for order in statement.order_by:
            yield order.expression
    elif isinstance(statement, Insert):
        for row in statement.rows:
            yield from row
        if statement.query is not None:
            yield from statement_expressions(statement.query)
    elif isinstance(statement, Update):
        for _column, expression in statement.assignments:
            yield expression
        if statement.where is not None:
            yield statement.where
    elif isinstance(statement, Delete) and statement.where is not None:
        yield statement.where


#: Subquery expressions as the parser writes them.
SUBQUERY_NODES = (InSubquery, ScalarSubquery, ExistsSubquery)


def has_subquery(statement: Statement) -> bool:
    """Whether a SELECT / INSERT / UPDATE / DELETE holds a subquery
    expression, derived tables included. The planner runs an
    uncorrelated subquery once, while it plans, so a plan holding one
    answers for the data of that moment."""
    for expression in statement_expressions(statement):
        for node in walk_expression(expression):
            if isinstance(node, SUBQUERY_NODES):
                return True
    query = statement.query if isinstance(statement, Insert) else statement
    items = list(query.from_items) if isinstance(query, Select) else []
    while items:
        item = items.pop()
        if isinstance(item, Join):
            items += [item.left, item.right]
        elif isinstance(item, SubquerySource) and has_subquery(item.query):
            return True
    return False


def statement_parameters(statement: Statement) -> List[Parameter]:
    """The statement's ``?`` placeholders, in index order."""
    found = {}
    for expression in statement_expressions(statement):
        for node in walk_expression(expression):
            if isinstance(node, Parameter):
                found[node.index] = node
    return [found[index] for index in sorted(found)]
