"""Conjunct analysis: splitting WHERE clauses and classifying predicates.

The planner reasons about the query one *conjunct* (top-level AND term)
at a time: which aliases it touches, whether it is an equi-join between
two alias sets, whether it binds a path's start/end vertex, and so on.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..errors import PlanningError
from ..expr.compile import MIRRORED, ExpressionCompiler
from ..expr.scope import ColumnRef, Scope
from ..sql import ast


def split_conjuncts(expression: Optional[ast.Expression]) -> List[ast.Expression]:
    """Flatten a WHERE tree into its top-level AND terms."""
    if expression is None:
        return []
    if isinstance(expression, ast.BinaryOp) and expression.op == "AND":
        return split_conjuncts(expression.left) + split_conjuncts(expression.right)
    return [expression]


def conjoin(conjuncts: List[ast.Expression]) -> Optional[ast.Expression]:
    """Rebuild an AND tree (inverse of :func:`split_conjuncts`)."""
    if not conjuncts:
        return None
    result = conjuncts[0]
    for term in conjuncts[1:]:
        result = ast.BinaryOp("AND", result, term)
    return result


def referenced_aliases(expression: ast.Expression, scope: Scope) -> Set[str]:
    """Lower-cased aliases an expression touches.

    Resolution errors are deliberately *not* swallowed: an unresolvable
    name in a WHERE clause is a user error and should surface.
    """
    compiler = ExpressionCompiler(scope)
    compiled = compiler.compile(expression)
    return compiled.aliases


def equi_join_sides(
    conjunct: ast.Expression,
    scope: Scope,
    left_aliases: Set[str],
    right_aliases: Set[str],
) -> Optional[Tuple[ast.Expression, ast.Expression]]:
    """If ``conjunct`` is ``expr_L = expr_R`` with each side confined to
    one of the two alias sets, return the (left-side, right-side) pair,
    swapping as needed. Otherwise ``None``."""
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
        return None
    try:
        a_aliases = referenced_aliases(conjunct.left, scope)
        b_aliases = referenced_aliases(conjunct.right, scope)
    except PlanningError:
        return None
    if not a_aliases or not b_aliases:
        return None  # one side constant: a filter, not a join
    if a_aliases <= left_aliases and b_aliases <= right_aliases:
        return conjunct.left, conjunct.right
    if a_aliases <= right_aliases and b_aliases <= left_aliases:
        return conjunct.right, conjunct.left
    return None


def _column_of(
    node: ast.Expression, alias: str, scope: Optional[Scope]
) -> Optional[str]:
    """The column ``node`` names on ``alias``: ``alias.column``, or a bare
    ``column`` that ``scope`` resolves to that alias alone. A bare name
    that is ambiguous, unknown or an alias itself names no column here —
    compiling the expression reports those, not index selection."""
    if isinstance(node, ast.FieldAccess):
        if (
            node.base.lower() == alias.lower()
            and len(node.accessors) == 1
            and isinstance(node.accessors[0], ast.NameAccessor)
        ):
            return node.accessors[0].name
    elif isinstance(node, ast.Identifier) and scope is not None:
        try:
            reference = scope.resolve_identifier(node.name)
        except PlanningError:
            return None
        if (
            isinstance(reference, ColumnRef)
            and reference.binding.alias.lower() == alias.lower()
        ):
            return reference.name
    return None


def extract_column_equality(
    conjunct: ast.Expression, alias: str, scope: Optional[Scope] = None
) -> Optional[Tuple[str, ast.Expression]]:
    """Match ``alias.column = <expr>`` (either orientation; with a
    ``scope``, also an unqualified ``column`` only ``alias`` owns).

    Returns ``(column_name, other_side)`` — used for index selection.
    """
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
        return None
    left_column = _column_of(conjunct.left, alias, scope)
    if left_column is not None:
        return left_column, conjunct.right
    right_column = _column_of(conjunct.right, alias, scope)
    if right_column is not None:
        return right_column, conjunct.left
    return None


def is_constant(expression: ast.Expression, scope: Scope) -> bool:
    """True when the expression references no alias at all."""
    try:
        return not referenced_aliases(expression, scope)
    except PlanningError:
        return False


def extract_column_comparison(
    conjunct: ast.Expression, alias: str, scope: Optional[Scope] = None
) -> Optional[Tuple[str, str, ast.Expression]]:
    """Match ``alias.column OP <expr>`` for OP in < <= > >= (either
    orientation; the operator is normalized to the column-on-the-left
    form; unqualified columns as in :func:`extract_column_equality`).
    Returns ``(column, op, other_side)``."""
    if not isinstance(conjunct, ast.BinaryOp):
        return None
    if conjunct.op not in ("<", "<=", ">", ">="):
        return None
    left_column = _column_of(conjunct.left, alias, scope)
    if left_column is not None:
        return left_column, conjunct.op, conjunct.right
    right_column = _column_of(conjunct.right, alias, scope)
    if right_column is not None:
        return right_column, MIRRORED[conjunct.op], conjunct.left
    return None
