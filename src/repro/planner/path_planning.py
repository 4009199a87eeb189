"""Planning the PATHS construct: classifying predicates and building
traversal specifications (Sections 5.1.2, 6.2 and 6.3 of the paper).

For one path alias, the planner sorts the conjuncts that mention it into:

* a **start binding** — ``PS.StartVertex.Id = <expr>`` becomes the
  traversal's start-vertex set (probed per outer row when the expression
  references other aliases, Figure 6);
* a **target binding** — ``PS.EndVertex.Id = <expr>`` becomes the
  traversal target (enables early termination);
* **positional filters** — predicates over ``PS.Edges[i..j].attr`` /
  ``PS.Vertexes[i].attr`` / ``PS.StartVertex.attr`` are evaluated while
  extending partial paths;
* **aggregate bounds** — ``SUM(PS.Edges.w) < c`` pruned monotonically;
* **residual path predicates** — anything touching only this path,
  evaluated per candidate path inside the scan;
* **join residuals** — predicates touching the path and other aliases,
  left for the join/filter operators above the scan.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from ..expr.compile import COMPARATORS, MIRRORED, ExpressionCompiler
from ..expr.scope import (
    PathBinding,
    PathCollectionRef,
    PathElementRef,
    PathEndpointRef,
    PathRangeRef,
    PathScalarRef,
    Scope,
)
from ..errors import PlanningError
from ..graph.graph_view import GraphView
from ..graph.traversal import PositionalFilter, SumBound
from ..sql import ast


class PathPredicatePlan:
    """The outcome of classifying one path alias's conjuncts."""

    def __init__(self):
        self.start_expr: Optional[ast.Expression] = None
        self.target_expr: Optional[ast.Expression] = None
        self.edge_filters: List[PositionalFilter] = []
        self.vertex_filters: List[PositionalFilter] = []
        self.sum_bounds: List[SumBound] = []
        self.residual_path_conjuncts: List[ast.Expression] = []
        self.join_residual_conjuncts: List[ast.Expression] = []
        # ``PS.StartVertexId = PS.EndVertexId`` — only cycles qualify;
        # pushed into the scan so non-closing paths are never built.
        self.cycle_constraint = False
        # True when every pushed edge/vertex filter covers all positions
        # (needed for the reachability global-visited shortcut).
        self.filters_position_independent = True


def _is_atomic_predicate(node: ast.Expression) -> bool:
    if isinstance(node, ast.BinaryOp):
        return node.op in COMPARATORS
    return isinstance(node, (ast.InList, ast.Between, ast.IsNull, ast.Like))


def _classify_path_refs(
    conjunct: ast.Expression, alias: str, scope: Scope
) -> Optional[List[Tuple[ast.FieldAccess, Any]]]:
    """Resolve every reference to ``alias`` inside ``conjunct``.

    Returns ``None`` when some reference fails to resolve (the caller
    treats the conjunct as a residual so the error surfaces at compile
    time with full context).
    """
    lowered = alias.lower()
    refs: List[Tuple[ast.FieldAccess, Any]] = []
    for node in ast.walk_expression(conjunct):
        if isinstance(node, ast.FieldAccess) and node.base.lower() == lowered:
            try:
                refs.append((node, scope.resolve_field_access(node)))
            except PlanningError:
                return None
        elif isinstance(node, ast.Identifier) and node.name.lower() == lowered:
            return None  # whole-path reference: not pushable
    return refs


def _is_endpoint_id_ref(
    node: ast.Expression, alias: str, scope: Scope, which: str
) -> bool:
    if not isinstance(node, ast.FieldAccess):
        return False
    if node.base.lower() != alias.lower():
        return False
    try:
        reference = scope.resolve_field_access(node)
    except PlanningError:
        return False
    if isinstance(reference, PathEndpointRef):
        return reference.which == which and reference.attribute.lower() == "id"
    if isinstance(reference, PathScalarRef):
        return reference.property_name == f"{which}vertexid"
    return False


def _is_cycle_constraint(
    conjunct: ast.Expression, alias: str, scope: Scope
) -> bool:
    """Match ``alias.StartVertexId = alias.EndVertexId`` (either order,
    either spelling)."""
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
        return False
    left, right = conjunct.left, conjunct.right
    return (
        _is_endpoint_id_ref(left, alias, scope, "start")
        and _is_endpoint_id_ref(right, alias, scope, "end")
    ) or (
        _is_endpoint_id_ref(left, alias, scope, "end")
        and _is_endpoint_id_ref(right, alias, scope, "start")
    )


def _endpoint_id_binding(
    conjunct: ast.Expression, alias: str, scope: Scope, which: str
) -> Optional[ast.Expression]:
    """Match ``alias.StartVertex.Id = <expr>`` (or EndVertex / the
    StartVertexId shorthand) and return the other side."""
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
        return None

    lowered = alias.lower()
    for side, other in ((conjunct.left, conjunct.right), (conjunct.right, conjunct.left)):
        if _is_endpoint_id_ref(side, alias, scope, which):
            other_refs = [
                n
                for n in ast.walk_expression(other)
                if (isinstance(n, ast.FieldAccess) and n.base.lower() == lowered)
                or (isinstance(n, ast.Identifier) and n.name.lower() == lowered)
            ]
            if not other_refs:
                return other
    return None


def _try_sum_bound(
    conjunct: ast.Expression, alias: str, scope: Scope, view: GraphView
) -> Optional[SumBound]:
    """Match ``SUM(alias.Edges.attr) OP numeric-literal`` either way."""
    if not isinstance(conjunct, ast.BinaryOp):
        return None
    op = conjunct.op
    if op not in COMPARATORS:
        return None

    def match_sum(node: ast.Expression) -> Optional[str]:
        if not (
            isinstance(node, ast.FunctionCall)
            and node.name == "SUM"
            and len(node.args) == 1
            and isinstance(node.args[0], ast.FieldAccess)
            and node.args[0].base.lower() == alias.lower()
        ):
            return None
        try:
            reference = scope.resolve_field_access(node.args[0])
        except PlanningError:
            return None
        if isinstance(reference, PathCollectionRef) and reference.collection == "edges":
            return reference.attribute
        return None

    attribute = match_sum(conjunct.left)
    bound = ast.literal_value(conjunct.right)
    if attribute is None:
        attribute = match_sum(conjunct.right)
        bound = ast.literal_value(conjunct.left)
        op = MIRRORED[op]
    if attribute is None or not isinstance(bound, (int, float)):
        return None
    return SumBound(view.edge_attribute_reader(attribute), op, float(bound))


def _element_filter(
    conjunct: ast.Expression,
    alias: str,
    view: GraphView,
    readers: List[Tuple[ast.FieldAccess, Callable[[Any], Any]]],
    start: int,
    end: Optional[int],
) -> PositionalFilter:
    """Lower a conjunct whose path references all read one element — the
    edge or vertex at positions ``[start..end]``, or the start vertex —
    into a filter on that element.

    Each reference node is overridden by its attribute reader and the
    element itself is the compiled expression's row, so the filter is the
    compiler's closure. An atomic predicate answers True, False or None,
    and the scans test its truth; anything else must be exactly True.
    """
    overrides = {id(node): read for node, read in readers}
    mini_scope = Scope([PathBinding(alias, 0, view)])
    fn = ExpressionCompiler(mini_scope, overrides).compile(conjunct).fn
    if _is_atomic_predicate(conjunct):
        return PositionalFilter(start, end, fn)
    return PositionalFilter(start, end, lambda element: fn(element) is True)


def classify_path_conjuncts(
    conjuncts: List[ast.Expression],
    alias: str,
    view: GraphView,
    scope: Scope,
    push_filters: bool = True,
) -> PathPredicatePlan:
    """Sort a path alias's conjuncts into the traversal-spec buckets.

    ``conjuncts`` must each reference the alias; conjuncts referencing
    additional aliases (beyond the start/target bindings) become join
    residuals.
    """
    plan = PathPredicatePlan()
    lowered = alias.lower()
    for conjunct in conjuncts:
        try:
            aliases = ExpressionCompiler(scope).compile(conjunct).aliases
        except PlanningError:
            aliases = None
        if not plan.cycle_constraint and _is_cycle_constraint(
            conjunct, alias, scope
        ):
            plan.cycle_constraint = True
            continue
        # ---- endpoint bindings are recognized in any alias mix --------
        if plan.start_expr is None:
            other = _endpoint_id_binding(conjunct, alias, scope, "start")
            if other is not None:
                plan.start_expr = other
                continue
        if plan.target_expr is None:
            other = _endpoint_id_binding(conjunct, alias, scope, "end")
            if other is not None:
                plan.target_expr = other
                continue
        if aliases is None or aliases != {lowered}:
            plan.join_residual_conjuncts.append(conjunct)
            continue
        if not push_filters:
            plan.residual_path_conjuncts.append(conjunct)
            continue
        # ---- aggregate bound ------------------------------------------
        sum_bound = _try_sum_bound(conjunct, alias, scope, view)
        if sum_bound is not None:
            plan.sum_bounds.append(sum_bound)
            continue
        # ---- positional / start-vertex filters -------------------------
        refs = _classify_path_refs(conjunct, alias, scope)
        if refs is None:
            plan.residual_path_conjuncts.append(conjunct)
            continue
        element_refs = [
            (node, ref)
            for node, ref in refs
            if isinstance(ref, (PathElementRef, PathRangeRef))
        ]
        # Per-element pushdown is only sound for a *top-level atomic*
        # predicate: wrapping (NOT ...) or disjunction would change the
        # quantifier scope — e.g. NOT (Edges[0..*].t = 'a') means "some
        # edge differs", not "every edge differs". Non-atomic conjuncts
        # stay residual, where the compiler's quantified expansion
        # applies the correct semantics.
        if element_refs and not _is_atomic_predicate(conjunct):
            plan.residual_path_conjuncts.append(conjunct)
            continue
        endpoint_refs = [
            (node, ref)
            for node, ref in refs
            if isinstance(ref, PathEndpointRef)
        ]
        other_refs = [
            ref
            for _node, ref in refs
            if not isinstance(ref, (PathElementRef, PathRangeRef, PathEndpointRef))
        ]
        if len(element_refs) == 1 and not endpoint_refs and not other_refs:
            node, reference = element_refs[0]
            if isinstance(reference, PathElementRef):
                start = end = reference.index
            else:
                start, end = reference.start, reference.end
            if reference.collection == "edges":
                read = view.edge_attribute_reader(reference.attribute)
                filters = plan.edge_filters
            else:
                read = view.vertex_attribute_reader(reference.attribute)
                filters = plan.vertex_filters
            filt = _element_filter(
                conjunct, alias, view, [(node, read)], start, end
            )
            filters.append(filt)
            if not (filt.start == 0 and filt.end is None):
                plan.filters_position_independent = False
            continue
        if (
            endpoint_refs
            and not element_refs
            and not other_refs
            and all(ref.which == "start" for _n, ref in endpoint_refs)
        ):
            readers = [
                (node, view.vertex_attribute_reader(ref.attribute))
                for node, ref in endpoint_refs
            ]
            plan.vertex_filters.append(
                _element_filter(conjunct, alias, view, readers, 0, 0)
            )
            continue
        plan.residual_path_conjuncts.append(conjunct)
    return plan


def compile_path_predicate(
    conjuncts: List[ast.Expression], alias: str, view: GraphView
) -> Optional[Callable]:
    """Compile residual path-only conjuncts into one ``Path -> bool``."""
    if not conjuncts:
        return None
    mini_scope = Scope([PathBinding(alias, 0, view)])
    compiled = [ExpressionCompiler(mini_scope).compile(c) for c in conjuncts]

    def predicate(path) -> bool:
        row = [path]
        return all(c.fn(row) is True for c in compiled)

    return predicate
