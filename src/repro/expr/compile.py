"""Compilation of AST expressions into row-evaluating closures.

``compile_expression(node, scope)`` returns a :class:`CompiledExpression`
whose ``fn(combined_row)`` evaluates the expression under SQL
three-valued logic (NULL = ``None``).

Quantified path predicates
--------------------------
A comparison containing a range reference like ``PS.Edges[0..*].Cost``
holds iff *every* element in the range satisfies it (Section 4 of the
paper). The compiler detects the (single) range reference inside an
atomic predicate and lowers the predicate to a loop over the designated
path elements.

Comparisons against a constant
------------------------------
A comparison with a ``Literal`` or a ``Parameter`` on either side
compiles to one short closure for every caller (relational ``WHERE``,
join and path residuals, filters pushed into a traversal): read the
value, answer ``None`` on NULL, apply the :data:`COMPARATORS` test —
through the :data:`MIRRORED` operator when the constant is on the left —
and fall back to :func:`compare` on ``TypeError``. A ``Parameter`` is
read when the closure runs, so a prepared or cached plan answers for its
current binding. An ``IN`` list of literals tests set membership; a
miss answers ``None`` when the list holds a NULL, so
``x NOT IN (7, NULL)`` is never true.

Relational aggregates are **not** handled here — the planner rewrites
them to placeholder columns before compilation. Path aggregates such as
``SUM(PS.Edges.Weight)`` *are* scalar with respect to a row and are
compiled directly.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import ExecutionError, PlanningError
from ..sql import ast
from ..types import SqlType, coerce
from .functions import SCALAR_FUNCTIONS, aggregate_over, is_aggregate_name
from .scope import (
    ColumnRef,
    EdgeAttrRef,
    PathCollectionRef,
    PathElementRef,
    PathEndpointRef,
    PathRangeRef,
    PathScalarRef,
    Scope,
    VertexAttrRef,
    WholeBindingRef,
)

Row = Sequence[Any]
Evaluator = Callable[[Row], Any]


class CompiledExpression:
    """An executable expression plus resolution metadata."""

    __slots__ = ("fn", "slots", "aliases")

    def __init__(self, fn: Evaluator, slots: Set[int], aliases: Set[str]):
        self.fn = fn
        self.slots = slots
        self.aliases = aliases

    def __call__(self, row: Row) -> Any:
        return self.fn(row)


# ---------------------------------------------------------------------------
# three-valued logic helpers
# ---------------------------------------------------------------------------


def _and3(left: Any, right: Any) -> Any:
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def _or3(left: Any, right: Any) -> Any:
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def _not3(value: Any) -> Any:
    if value is None:
        return None
    return not value


#: The Python test behind each SQL comparison operator.
COMPARATORS: Dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

#: The operator that answers the same with its operands swapped:
#: ``a < b`` is ``b > a``.
MIRRORED: Dict[str, str] = {
    "=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<=",
}


def _coerce_comparable(left: Any, right: Any):
    """Align mixed numeric/string operand types before comparison.

    Timestamps are stored as integers, so a date literal like
    ``'1/1/2000'`` must be coerced when compared against one — the same
    affinity behaviour the engine's DML layer applies on writes.
    """
    if isinstance(left, str) and isinstance(right, (int, float)) and not isinstance(
        right, bool
    ):
        return _string_as_number(left), right
    if isinstance(right, str) and isinstance(left, (int, float)) and not isinstance(
        left, bool
    ):
        return left, _string_as_number(right)
    return left, right


def _string_as_number(text: str) -> Any:
    try:
        return float(text) if "." in text or "e" in text.lower() else int(text)
    except ValueError:
        pass
    from ..types import timestamp_from_string

    try:
        return timestamp_from_string(text)
    except Exception:
        raise ExecutionError(
            f"cannot compare string {text!r} with a numeric value"
        ) from None


def compare(op: str, left: Any, right: Any) -> Any:
    """NULL-aware comparison with numeric/timestamp string affinity."""
    if left is None or right is None:
        return None
    try:
        return COMPARATORS[op](left, right)
    except TypeError:
        pass
    left, right = _coerce_comparable(left, right)
    try:
        return COMPARATORS[op](left, right)
    except TypeError:
        raise ExecutionError(
            f"cannot compare {type(left).__name__} {op} {type(right).__name__}"
        ) from None


def _like_to_regex(pattern: str) -> "re.Pattern":
    out = ["^"]
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    out.append("$")
    return re.compile("".join(out), re.DOTALL)


# ---------------------------------------------------------------------------
# the compiler
# ---------------------------------------------------------------------------


class ExpressionCompiler:
    def __init__(
        self,
        scope: Scope,
        overrides: Optional[Dict[int, Evaluator]] = None,
    ):
        self.scope = scope
        self._slots: Set[int] = set()
        self._aliases: Set[str] = set()
        # node-identity -> replacement closure. Pre-seeded overrides let
        # the planner substitute path-element references when compiling
        # pushed-down traversal filters; the compiler also adds its own
        # entries transiently while expanding quantified range predicates.
        self._overrides: Dict[int, Evaluator] = dict(overrides or {})

    # ------------------------------ api -------------------------------

    def compile(self, node: ast.Expression) -> CompiledExpression:
        fn = self._compile(node)
        return CompiledExpression(fn, set(self._slots), set(self._aliases))

    # --------------------------- dispatch -----------------------------

    def _compile(self, node: ast.Expression) -> Evaluator:
        if isinstance(node, ast.Literal):
            value = node.value
            return lambda row: value
        if isinstance(node, ast.Parameter):
            return lambda row: node.value
        if isinstance(node, ast.Identifier):
            return self._lower_reference(self.scope.resolve_identifier(node.name))
        if isinstance(node, ast.FieldAccess):
            override = self._overrides.get(id(node))
            if override is not None:
                return override
            return self._lower_reference(self.scope.resolve_field_access(node))
        if isinstance(node, ast.UnaryOp):
            return self._compile_unary(node)
        if isinstance(node, ast.BinaryOp):
            return self._compile_binary(node)
        if isinstance(node, ast.InList):
            return self._compile_predicate_node(node)
        if isinstance(node, ast.Between):
            return self._compile_predicate_node(node)
        if isinstance(node, ast.IsNull):
            return self._compile_predicate_node(node)
        if isinstance(node, ast.Like):
            return self._compile_predicate_node(node)
        if isinstance(node, ast.FunctionCall):
            return self._compile_function(node)
        if isinstance(node, ast.CaseWhen):
            return self._compile_case(node)
        if isinstance(node, ast.Cast):
            return self._compile_cast(node)
        if isinstance(node, ast.CorrelatedSubquery):
            return self._compile_correlated_subquery(node)
        if isinstance(node, (ast.InSubquery, ast.ScalarSubquery, ast.ExistsSubquery)):
            raise PlanningError(
                "internal: subqueries must be materialized before compilation"
            )
        if isinstance(node, ast.Star):
            raise PlanningError("'*' is only valid in a select list or COUNT(*)")
        raise PlanningError(f"cannot compile expression node {type(node).__name__}")

    # --------------------------- operators ----------------------------

    def _compile_unary(self, node: ast.UnaryOp) -> Evaluator:
        operand = self._compile(node.operand)
        if node.op == "NOT":
            return lambda row: _not3(operand(row))
        if node.op == "-":
            def negate(row):
                value = operand(row)
                return None if value is None else -value

            return negate
        raise PlanningError(f"unknown unary operator {node.op}")

    def _compile_binary(self, node: ast.BinaryOp) -> Evaluator:
        op = node.op
        if op == "AND":
            left, right = self._compile(node.left), self._compile(node.right)
            return lambda row: _and3(left(row), right(row))
        if op == "OR":
            left, right = self._compile(node.left), self._compile(node.right)
            return lambda row: _or3(left(row), right(row))
        if op in COMPARATORS:
            return self._compile_predicate_node(node)
        left, right = self._compile(node.left), self._compile(node.right)
        if op == "+":
            return _null_arith(left, right, lambda a, b: a + b)
        if op == "-":
            return _null_arith(left, right, lambda a, b: a - b)
        if op == "*":
            return _null_arith(left, right, lambda a, b: a * b)
        if op == "/":
            return _null_arith(left, right, _sql_divide)
        if op == "%":
            return _null_arith(left, right, _sql_modulo)
        if op == "||":
            return _null_arith(left, right, lambda a, b: str(a) + str(b))
        raise PlanningError(f"unknown binary operator {op}")

    # ---------------------- quantified predicates ---------------------

    def _find_range_refs(
        self, node: ast.Expression
    ) -> List[Tuple[ast.FieldAccess, PathRangeRef]]:
        found = []
        for sub in ast.walk_expression(node):
            if isinstance(sub, ast.FieldAccess) and id(sub) not in self._overrides:
                try:
                    reference = self.scope.resolve_field_access(sub)
                except PlanningError:
                    continue
                if isinstance(reference, PathRangeRef):
                    found.append((sub, reference))
        return found

    def _compile_predicate_node(self, node: ast.Expression) -> Evaluator:
        """Compile a comparison/LIKE/IN/BETWEEN/IS NULL, expanding one
        quantified path-range reference if present."""
        range_refs = self._find_range_refs(node)
        if not range_refs:
            return self._compile_atomic_predicate(node)
        if len(range_refs) > 1:
            raise PlanningError(
                "at most one Edges[i..j] / Vertexes[i..j] range reference "
                "is allowed per predicate"
            )
        access_node, reference = range_refs[0]
        self._note_reference(reference)
        cell: List[Any] = [None]
        self._overrides[id(access_node)] = lambda row: cell[0]
        inner = self._compile_atomic_predicate(node)
        del self._overrides[id(access_node)]
        binding = reference.binding
        slot = binding.slot
        view = binding.view
        start, end = reference.start, reference.end
        use_edges = reference.collection == "edges"
        read = (
            view.edge_attribute_reader(reference.attribute)
            if use_edges
            else view.vertex_attribute_reader(reference.attribute)
        )

        def quantified(row: Row) -> Any:
            path = row[slot]
            if path is None:
                return None
            elements = path.edges if use_edges else path.vertices
            stop = len(elements) - 1 if end is None else min(end, len(elements) - 1)
            result: Any = True
            for position in range(start, stop + 1):
                cell[0] = read(elements[position])
                verdict = inner(row)
                if verdict is False:
                    return False
                if verdict is None:
                    result = None
            return result

        return quantified

    def _compile_atomic_predicate(self, node: ast.Expression) -> Evaluator:
        if isinstance(node, ast.BinaryOp):
            op = node.op
            if _is_constant(node.right):
                return _compare_with_constant(
                    op, self._compile(node.left), node.right, False
                )
            if _is_constant(node.left):
                return _compare_with_constant(
                    op, self._compile(node.right), node.left, True
                )
            left, right = self._compile(node.left), self._compile(node.right)
            return lambda row: compare(op, left(row), right(row))
        if isinstance(node, ast.InList):
            operand = self._compile(node.operand)
            negated = node.negated
            if all(isinstance(item, ast.Literal) for item in node.items):
                return _in_literals(
                    operand, [item.value for item in node.items], negated
                )
            items = [self._compile(item) for item in node.items]

            def in_list(row: Row) -> Any:
                value = operand(row)
                if value is None:
                    return None
                saw_null = False
                for item in items:
                    candidate = item(row)
                    if candidate is None:
                        saw_null = True
                    elif candidate == value:
                        return not negated
                if saw_null:
                    return None
                return negated

            return in_list
        if isinstance(node, ast.Between):
            operand = self._compile(node.operand)
            low = self._compile(node.low)
            high = self._compile(node.high)
            negated = node.negated

            def between(row: Row) -> Any:
                value = operand(row)
                lo, hi = low(row), high(row)
                verdict = _and3(compare("<=", lo, value), compare("<=", value, hi))
                return _not3(verdict) if negated else verdict

            return between
        if isinstance(node, ast.IsNull):
            operand = self._compile(node.operand)
            negated = node.negated
            return lambda row: (operand(row) is not None) == negated
        if isinstance(node, ast.Like):
            operand = self._compile(node.operand)
            pattern_fn = self._compile(node.pattern)
            negated = node.negated
            cache: Dict[str, "re.Pattern"] = {}

            def like(row: Row) -> Any:
                value = operand(row)
                pattern = pattern_fn(row)
                if value is None or pattern is None:
                    return None
                compiled = cache.get(pattern)
                if compiled is None:
                    compiled = _like_to_regex(pattern)
                    cache[pattern] = compiled
                matched = compiled.match(str(value)) is not None
                return matched != negated

            return like
        raise PlanningError(
            f"internal: {type(node).__name__} is not an atomic predicate"
        )

    # --------------------------- functions ----------------------------

    def _compile_function(self, node: ast.FunctionCall) -> Evaluator:
        name = node.name
        if is_aggregate_name(name):
            path_aggregate = self._try_compile_path_aggregate(node)
            if path_aggregate is not None:
                return path_aggregate
            raise PlanningError(
                f"aggregate {name} is not allowed in this context "
                "(should have been rewritten by the planner)"
            )
        fn = SCALAR_FUNCTIONS.get(name)
        if fn is None:
            raise PlanningError(f"unknown function: {name}")
        args = [self._compile(arg) for arg in node.args]

        def call(row: Row) -> Any:
            return fn(*[arg(row) for arg in args])

        return call

    def _try_compile_path_aggregate(
        self, node: ast.FunctionCall
    ) -> Optional[Evaluator]:
        """``SUM(PS.Edges.Weight)`` and friends (Section 4)."""
        if len(node.args) != 1 or not isinstance(node.args[0], ast.FieldAccess):
            return None
        try:
            reference = self.scope.resolve_field_access(node.args[0])
        except PlanningError:
            return None
        if not isinstance(reference, PathCollectionRef):
            return None
        self._note_reference(reference)
        slot = reference.binding.slot
        view = reference.binding.view
        use_edges = reference.collection == "edges"
        read = (
            view.edge_attribute_reader(reference.attribute)
            if use_edges
            else view.vertex_attribute_reader(reference.attribute)
        )
        name = node.name
        distinct = node.distinct

        def path_aggregate(row: Row) -> Any:
            path = row[slot]
            if path is None:
                return None
            elements = path.edges if use_edges else path.vertices
            return aggregate_over(name, [read(e) for e in elements], distinct)

        return path_aggregate

    def _compile_correlated_subquery(
        self, node: ast.CorrelatedSubquery
    ) -> Evaluator:
        """Per-row evaluation: bind the live nodes from the outer row,
        re-run the (once-planned) inner operator tree, apply the
        IN / scalar / EXISTS semantics."""
        binding_fns = [self._compile(outer) for outer, _live in node.bindings]
        live_nodes = [live for _outer, live in node.bindings]
        operand = (
            self._compile(node.operand) if node.operand is not None else None
        )
        inner = node.plan.operator
        kind = node.kind
        negated = node.negated

        def run_inner(row: Row):
            for fn, live in zip(binding_fns, live_nodes):
                live.value = fn(row)
            return [tuple(r) for r in inner]

        if kind == "exists":

            def exists(row: Row) -> Any:
                return bool(run_inner(row)) != negated

            return exists
        if kind == "scalar":

            def scalar(row: Row) -> Any:
                rows = run_inner(row)
                if len(rows) > 1:
                    raise ExecutionError(
                        "scalar subquery returned more than one row"
                    )
                return rows[0][0] if rows else None

            return scalar

        def in_subquery(row: Row) -> Any:
            value = operand(row)
            if value is None:
                return None
            saw_null = False
            for inner_row in run_inner(row):
                candidate = inner_row[0]
                if candidate is None:
                    saw_null = True
                elif candidate == value:
                    return not negated
            if saw_null:
                return None
            return negated

        return in_subquery

    def _compile_case(self, node: ast.CaseWhen) -> Evaluator:
        branches = [
            (self._compile(condition), self._compile(result))
            for condition, result in node.branches
        ]
        otherwise = (
            self._compile(node.otherwise) if node.otherwise is not None else None
        )

        def case(row: Row) -> Any:
            for condition, result in branches:
                if condition(row) is True:
                    return result(row)
            return otherwise(row) if otherwise is not None else None

        return case

    def _compile_cast(self, node: ast.Cast) -> Evaluator:
        operand = self._compile(node.operand)
        target = SqlType.from_name(node.type_name)
        return lambda row: coerce(operand(row), target, "CAST")

    # -------------------------- references ----------------------------

    def _note_reference(self, reference) -> None:
        binding = reference.binding
        self._slots.add(binding.slot)
        self._aliases.add(binding.alias.lower())

    def _lower_reference(self, reference) -> Evaluator:
        self._note_reference(reference)
        if isinstance(reference, ColumnRef):
            slot, position = reference.binding.slot, reference.position

            def column(row: Row) -> Any:
                tuple_value = row[slot]
                return None if tuple_value is None else tuple_value[position]

            return column
        if isinstance(reference, VertexAttrRef):
            slot = reference.binding.slot
            read = reference.binding.view.vertex_attribute_reader(
                reference.attribute
            )

            def vertex_attr(row: Row) -> Any:
                vertex = row[slot]
                return None if vertex is None else read(vertex)

            return vertex_attr
        if isinstance(reference, EdgeAttrRef):
            slot = reference.binding.slot
            read = reference.binding.view.edge_attribute_reader(
                reference.attribute
            )

            def edge_attr(row: Row) -> Any:
                edge = row[slot]
                return None if edge is None else read(edge)

            return edge_attr
        if isinstance(reference, PathScalarRef):
            slot = reference.binding.slot
            prop = reference.property_name

            def path_scalar(row: Row) -> Any:
                path = row[slot]
                if path is None:
                    return None
                if prop == "length":
                    return path.length
                if prop == "pathstring":
                    return path.path_string
                if prop == "startvertexid":
                    return path.start_vertex_id
                if prop == "endvertexid":
                    return path.end_vertex_id
                return path.cost  # 'cost'

            return path_scalar
        if isinstance(reference, PathEndpointRef):
            slot = reference.binding.slot
            which = reference.which
            read = reference.binding.view.vertex_attribute_reader(
                reference.attribute
            )

            def endpoint_attr(row: Row) -> Any:
                path = row[slot]
                if path is None:
                    return None
                vertex = path.start_vertex if which == "start" else path.end_vertex
                return read(vertex)

            return endpoint_attr
        if isinstance(reference, PathElementRef):
            slot = reference.binding.slot
            index = reference.index
            use_edges = reference.collection == "edges"
            view = reference.binding.view
            read = (
                view.edge_attribute_reader(reference.attribute)
                if use_edges
                else view.vertex_attribute_reader(reference.attribute)
            )

            def element_attr(row: Row) -> Any:
                path = row[slot]
                if path is None:
                    return None
                elements = path.edges if use_edges else path.vertices
                if index >= len(elements):
                    return None
                return read(elements[index])

            return element_attr
        if isinstance(reference, PathRangeRef):
            raise PlanningError(
                "a path range reference is only valid inside a predicate"
            )
        if isinstance(reference, PathCollectionRef):
            raise PlanningError(
                "an unindexed path collection reference is only valid inside "
                "an aggregate, e.g. SUM(PS.Edges.Weight)"
            )
        if isinstance(reference, WholeBindingRef):
            slot = reference.binding.slot
            return lambda row: row[slot]
        raise PlanningError(f"unhandled reference type {type(reference).__name__}")


def compile_expression(node: ast.Expression, scope: Scope) -> CompiledExpression:
    """Convenience wrapper: compile ``node`` against ``scope``."""
    return ExpressionCompiler(scope).compile(node)


# ---------------------------------------------------------------------------
# comparisons against a constant
# ---------------------------------------------------------------------------


def _is_constant(node: ast.Expression) -> bool:
    """A ``Parameter``, or a ``Literal`` other than NULL (a NULL literal
    takes the general path, which still evaluates the other side)."""
    return isinstance(node, ast.Parameter) or (
        isinstance(node, ast.Literal) and node.value is not None
    )


def _compare_with_constant(
    op: str, operand: Evaluator, constant: ast.Expression, constant_first: bool
) -> Evaluator:
    """``operand OP constant`` — or ``constant OP operand`` when
    ``constant_first`` — with :func:`compare`'s answer."""
    if constant_first:
        test = COMPARATORS[MIRRORED[op]]

        def fallback(value: Any, bound: Any) -> Any:
            return compare(op, bound, value)

    else:
        test = COMPARATORS[op]

        def fallback(value: Any, bound: Any) -> Any:
            return compare(op, value, bound)

    if isinstance(constant, ast.Literal):
        bound = constant.value

        def compare_literal(row: Row) -> Any:
            value = operand(row)
            if value is None:
                return None
            try:
                return test(value, bound)
            except TypeError:
                return fallback(value, bound)

        return compare_literal
    parameter = constant

    def compare_parameter(row: Row) -> Any:
        value = operand(row)
        bound = parameter.value
        if value is None or bound is None:
            return None
        try:
            return test(value, bound)
        except TypeError:
            return fallback(value, bound)

    return compare_parameter


def _in_literals(operand: Evaluator, values: List[Any], negated: bool) -> Evaluator:
    """``operand [NOT] IN (literal, ...)`` by set membership."""
    members = frozenset(value for value in values if value is not None)
    hit = not negated
    miss = None if None in values else negated

    def in_literals(row: Row) -> Any:
        value = operand(row)
        if value is None:
            return None
        return hit if value in members else miss

    return in_literals


# ---------------------------------------------------------------------------
# small arithmetic helpers
# ---------------------------------------------------------------------------


def _null_arith(left: Evaluator, right: Evaluator, fn) -> Evaluator:
    def arith(row: Row) -> Any:
        a, b = left(row), right(row)
        if a is None or b is None:
            return None
        return fn(a, b)

    return arith


def _sql_divide(a: Any, b: Any) -> Any:
    if b == 0:
        raise ExecutionError("division by zero")
    if isinstance(a, int) and isinstance(b, int):
        quotient = abs(a) // abs(b)
        return quotient if (a >= 0) == (b >= 0) else -quotient
    return a / b


def _sql_modulo(a: Any, b: Any) -> Any:
    if b == 0:
        raise ExecutionError("modulo by zero")
    return a - b * int(a / b) if isinstance(a, int) and isinstance(b, int) else a % b
