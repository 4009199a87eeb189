"""AST rewriting utilities used by the planner.

The main customer is aggregation planning: relational aggregate calls
and GROUP BY expressions inside the select list are substituted with
references to the synthetic output row of the Aggregate operator.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..expr.functions import is_aggregate_name
from ..expr.scope import PathCollectionRef, Scope
from ..errors import PlanningError
from ..sql import ast

Replacer = Callable[[ast.Expression], Optional[ast.Expression]]


def replace_nodes(node: ast.Expression, replacer: Replacer) -> ast.Expression:
    """Rebuild an expression tree, substituting wherever ``replacer``
    returns a non-None replacement (checked top-down, pre-order)."""
    replacement = replacer(node)
    if replacement is not None:
        return replacement
    if isinstance(node, ast.UnaryOp):
        return ast.UnaryOp(node.op, replace_nodes(node.operand, replacer))
    if isinstance(node, ast.BinaryOp):
        return ast.BinaryOp(
            node.op,
            replace_nodes(node.left, replacer),
            replace_nodes(node.right, replacer),
        )
    if isinstance(node, ast.InList):
        return ast.InList(
            replace_nodes(node.operand, replacer),
            [replace_nodes(item, replacer) for item in node.items],
            node.negated,
        )
    if isinstance(node, ast.Between):
        return ast.Between(
            replace_nodes(node.operand, replacer),
            replace_nodes(node.low, replacer),
            replace_nodes(node.high, replacer),
            node.negated,
        )
    if isinstance(node, ast.IsNull):
        return ast.IsNull(replace_nodes(node.operand, replacer), node.negated)
    if isinstance(node, ast.Like):
        return ast.Like(
            replace_nodes(node.operand, replacer),
            replace_nodes(node.pattern, replacer),
            node.negated,
        )
    if isinstance(node, ast.FunctionCall):
        return ast.FunctionCall(
            node.name,
            [replace_nodes(arg, replacer) for arg in node.args],
            node.distinct,
        )
    if isinstance(node, ast.Cast):
        return ast.Cast(replace_nodes(node.operand, replacer), node.type_name)
    if isinstance(node, ast.CaseWhen):
        return ast.CaseWhen(
            [
                (replace_nodes(c, replacer), replace_nodes(r, replacer))
                for c, r in node.branches
            ],
            replace_nodes(node.otherwise, replacer)
            if node.otherwise is not None
            else None,
        )
    return node  # literals, identifiers, field accesses, stars


def is_path_aggregate(node: ast.FunctionCall, scope: Scope) -> bool:
    """True for ``SUM(PS.Edges.w)``-style calls, which are scalar
    per-row expressions rather than relational aggregates."""
    if len(node.args) != 1 or not isinstance(node.args[0], ast.FieldAccess):
        return False
    try:
        reference = scope.resolve_field_access(node.args[0])
    except PlanningError:
        return False
    return isinstance(reference, PathCollectionRef)


def find_relational_aggregates(
    node: Optional[ast.Expression], scope: Scope
) -> List[ast.FunctionCall]:
    """Collect relational aggregate calls (COUNT/SUM/... over rows).

    Nested aggregates are rejected, matching SQL.
    """
    if node is None:
        return []
    found: List[ast.FunctionCall] = []

    def visit(current: ast.Expression, inside_aggregate: bool) -> None:
        if isinstance(current, ast.FunctionCall) and is_aggregate_name(current.name):
            if not is_path_aggregate(current, scope):
                if inside_aggregate:
                    raise PlanningError("aggregate calls cannot be nested")
                found.append(current)
                for arg in current.args:
                    visit(arg, True)
                return
        for child in _children_of(current):
            visit(child, inside_aggregate)

    visit(node, False)
    return found


def _children_of(node: ast.Expression) -> List[ast.Expression]:
    if isinstance(node, ast.UnaryOp):
        return [node.operand]
    if isinstance(node, ast.BinaryOp):
        return [node.left, node.right]
    if isinstance(node, ast.InList):
        return [node.operand] + node.items
    if isinstance(node, ast.Between):
        return [node.operand, node.low, node.high]
    if isinstance(node, ast.IsNull):
        return [node.operand]
    if isinstance(node, ast.Like):
        return [node.operand, node.pattern]
    if isinstance(node, ast.FunctionCall):
        return list(node.args)
    if isinstance(node, ast.Cast):
        return [node.operand]
    if isinstance(node, ast.CaseWhen):
        children: List[ast.Expression] = []
        for condition, result in node.branches:
            children.extend((condition, result))
        if node.otherwise is not None:
            children.append(node.otherwise)
        return children
    return []


def rewrite_select(select: ast.Select, replacer: Replacer) -> ast.Select:
    """Rebuild a SELECT applying ``replacer`` to every *top-level*
    expression position (select items, WHERE, GROUP BY, HAVING, ORDER
    BY, join conditions, and recursively inside derived tables).

    Subqueries nested inside expressions are not entered — callers that
    need deeper rewriting must handle them explicitly.
    """

    def rewrite_from(item: ast.FromItem) -> ast.FromItem:
        if isinstance(item, ast.Join):
            return ast.Join(
                rewrite_from(item.left),
                rewrite_from(item.right),
                replace_nodes(item.condition, replacer)
                if item.condition is not None
                else None,
                item.kind,
            )
        if isinstance(item, ast.SubquerySource):
            return ast.SubquerySource(
                rewrite_select(item.query, replacer), item.alias
            )
        return item

    return ast.Select(
        [
            ast.SelectItem(replace_nodes(i.expression, replacer), i.alias)
            for i in select.items
        ],
        [rewrite_from(i) for i in select.from_items],
        where=replace_nodes(select.where, replacer)
        if select.where is not None
        else None,
        group_by=[replace_nodes(g, replacer) for g in select.group_by],
        having=replace_nodes(select.having, replacer)
        if select.having is not None
        else None,
        order_by=[
            ast.OrderItem(replace_nodes(o.expression, replacer), o.ascending)
            for o in select.order_by
        ],
        limit=select.limit,
        offset=select.offset,
        distinct=select.distinct,
    )


def local_aliases_of(select: ast.Select) -> set:
    """Every alias defined anywhere inside a SELECT (all nesting levels)."""
    aliases = set()

    def visit_from(item: ast.FromItem) -> None:
        if isinstance(item, ast.Join):
            visit_from(item.left)
            visit_from(item.right)
            return
        if isinstance(item, ast.SubquerySource):
            aliases.add(item.alias.lower())
            aliases.update(local_aliases_of(item.query))
            return
        alias = getattr(item, "alias", None)
        if alias:
            aliases.add(alias.lower())

    def visit_expression(expression) -> None:
        if expression is None:
            return
        for node in ast.walk_expression(expression):
            if isinstance(node, (ast.InSubquery,)):
                aliases.update(local_aliases_of(node.subquery))
            elif isinstance(node, ast.ScalarSubquery):
                aliases.update(local_aliases_of(node.subquery))
            elif isinstance(node, ast.ExistsSubquery):
                aliases.update(local_aliases_of(node.subquery))

    for item in select.from_items:
        visit_from(item)
    for select_item in select.items:
        visit_expression(select_item.expression)
    visit_expression(select.where)
    for group in select.group_by:
        visit_expression(group)
    visit_expression(select.having)
    for order in select.order_by:
        visit_expression(order.expression)
    return aliases


def find_outer_references(select: ast.Select, outer_scope: Scope) -> list:
    """FieldAccess nodes inside ``select`` whose base alias is not
    defined anywhere in the subquery but *is* an alias of the outer
    scope — i.e. the correlation points."""
    locals_ = local_aliases_of(select)
    found = []

    def scan_expression(expression) -> None:
        if expression is None:
            return
        for node in ast.walk_expression(expression):
            if isinstance(node, ast.FieldAccess):
                base = node.base.lower()
                if base not in locals_ and outer_scope.binding(base) is not None:
                    found.append(node)
            elif isinstance(node, ast.InSubquery):
                scan_select(node.subquery)
            elif isinstance(node, ast.ScalarSubquery):
                scan_select(node.subquery)
            elif isinstance(node, ast.ExistsSubquery):
                scan_select(node.subquery)

    def scan_from(item: ast.FromItem) -> None:
        if isinstance(item, ast.Join):
            scan_from(item.left)
            scan_from(item.right)
            if item.condition is not None:
                scan_expression(item.condition)
            return
        if isinstance(item, ast.SubquerySource):
            scan_select(item.query)

    def scan_select(sub: ast.Select) -> None:
        for item in sub.from_items:
            scan_from(item)
        for select_item in sub.items:
            scan_expression(select_item.expression)
        scan_expression(sub.where)
        for group in sub.group_by:
            scan_expression(group)
        scan_expression(sub.having)
        for order in sub.order_by:
            scan_expression(order.expression)

    scan_select(select)
    return found
