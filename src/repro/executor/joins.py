"""Join operators.

Combined rows are slot-disjoint between the two sides of a join, so
merging is a per-slot coalesce. :class:`ProbeJoinOp` is the engine's
index-nested-loop shape: the inner side is a *factory* re-instantiated
per outer row — this is also how a relational outer feeds start vertexes
into a PathScan (Figure 6 of the paper).
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence

from ..ambient import current_token
from ..expr.compile import CompiledExpression
from .operators import Operator, Row


def merge_rows(left: Row, right: Row) -> Row:
    """Coalesce two slot-disjoint combined rows into a fresh row."""
    return [a if a is not None else b for a, b in zip(left, right)]


class NestedLoopJoinOp(Operator):
    """Plain nested-loop join with an optional residual predicate.

    The right side is materialized once (it is re-iterated per outer
    row); with ``left_outer`` unmatched outer rows survive with the inner
    slots left as NULL.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        predicate: Optional[CompiledExpression] = None,
        left_outer: bool = False,
    ):
        self.left = left
        self.right = right
        self.predicate = predicate
        self.left_outer = left_outer

    def _rows(self) -> Iterator[Row]:
        inner_rows = list(self.right)
        predicate = self.predicate.fn if self.predicate is not None else None
        token = current_token()
        for outer in self.left:
            matched = False
            for inner in inner_rows:
                if token is not None:
                    token.tick()  # joins multiply cardinality
                merged = merge_rows(outer, inner)
                if predicate is None or predicate(merged) is True:
                    matched = True
                    yield merged
            if self.left_outer and not matched:
                yield list(outer)

    def describe(self) -> str:
        kind = "LeftOuterNestedLoopJoin" if self.left_outer else "NestedLoopJoin"
        return kind

    def children(self) -> Sequence[Operator]:
        return (self.left, self.right)


class HashJoinOp(Operator):
    """Equi-join: build a hash table on the right side, probe with left.

    Key expressions evaluate against the *combined* row of their own
    side. NULL keys never match (SQL semantics). A residual predicate
    filters merged rows.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_keys: Sequence[CompiledExpression],
        right_keys: Sequence[CompiledExpression],
        residual: Optional[CompiledExpression] = None,
        left_outer: bool = False,
    ):
        self.left = left
        self.right = right
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.residual = residual
        self.left_outer = left_outer

    def _rows(self) -> Iterator[Row]:
        buckets: dict = {}
        right_fns = [k.fn for k in self.right_keys]
        token = current_token()
        for inner in self.right:
            key = tuple(fn(inner) for fn in right_fns)
            if any(part is None for part in key):
                continue
            buckets.setdefault(key, []).append(inner)
        left_fns = [k.fn for k in self.left_keys]
        residual = self.residual.fn if self.residual is not None else None
        for outer in self.left:
            key = tuple(fn(outer) for fn in left_fns)
            matched = False
            if not any(part is None for part in key):
                for inner in buckets.get(key, ()):
                    if token is not None:
                        token.tick()
                    merged = merge_rows(outer, inner)
                    if residual is None or residual(merged) is True:
                        matched = True
                        yield merged
            if self.left_outer and not matched:
                yield list(outer)

    def describe(self) -> str:
        return f"HashJoin({len(self.left_keys)} keys)"

    def children(self) -> Sequence[Operator]:
        return (self.left, self.right)


class ProbeJoinOp(Operator):
    """Correlated join: re-instantiate the inner side per outer row.

    ``inner_factory(outer_row)`` returns an iterator of inner combined
    rows already merged-ready (slot-disjoint from the outer). This is
    the shape used for index-nested-loop joins and for probing
    PathScan with start vertexes produced by relational operators
    (Section 5.1.2 / Figure 6 of the paper).
    """

    def __init__(
        self,
        outer: Operator,
        inner_factory: Callable[[Row], Iterator[Row]],
        label: str = "ProbeJoin",
        residual: Optional[CompiledExpression] = None,
    ):
        self.outer = outer
        self.inner_factory = inner_factory
        self.label = label
        self.residual = residual

    def _rows(self) -> Iterator[Row]:
        residual = self.residual.fn if self.residual is not None else None
        token = current_token()
        for outer in self.outer:
            for inner in self.inner_factory(outer):
                if token is not None:
                    token.tick()
                merged = merge_rows(outer, inner)
                if residual is None or residual(merged) is True:
                    yield merged

    def describe(self) -> str:
        return self.label

    def children(self) -> Sequence[Operator]:
        return (self.outer,)
