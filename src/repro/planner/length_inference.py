"""Path-length inference (Section 6.1 of the paper).

From the top-level conjuncts of a query, derive the allowed ``[min,
max]`` length interval of a path alias:

* explicit predicates — ``PS.Length = 2``, ``PS.Length <= 5``,
  ``PS.Length BETWEEN 2 AND 4``;
* implicit positional references — ``PS.Edges[5..*].a = v`` implies a
  minimum length of 6 (the range must be non-empty), ``PS.Edges[7..9].b``
  implies a minimum of 10, ``PS.Vertexes[3].c`` a minimum of 3.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..expr.compile import MIRRORED
from ..sql import ast


class LengthBounds:
    """A closed interval of allowed path lengths (max may be open)."""

    def __init__(self, minimum: int = 1, maximum: Optional[int] = None):
        self.minimum = minimum
        self.maximum = maximum

    def require_min(self, value: int) -> None:
        if value > self.minimum:
            self.minimum = value

    def require_max(self, value: int) -> None:
        if self.maximum is None or value < self.maximum:
            self.maximum = value

    @property
    def is_empty(self) -> bool:
        return self.maximum is not None and self.maximum < self.minimum

    def __repr__(self) -> str:
        return f"LengthBounds([{self.minimum}, {self.maximum}])"


def _is_length_ref(node: ast.Expression, alias: str) -> bool:
    return (
        isinstance(node, ast.FieldAccess)
        and node.base.lower() == alias.lower()
        and len(node.accessors) == 1
        and isinstance(node.accessors[0], ast.NameAccessor)
        and node.accessors[0].name.lower() == "length"
    )


def apply_explicit_length_predicate(
    conjunct: ast.Expression, alias: str, bounds: LengthBounds
) -> bool:
    """If ``conjunct`` constrains ``alias.Length`` against an integer
    literal, fold it into ``bounds`` and return True."""
    if isinstance(conjunct, ast.Between) and not conjunct.negated:
        if _is_length_ref(conjunct.operand, alias):
            low = ast.literal_value(conjunct.low)
            high = ast.literal_value(conjunct.high)
            if isinstance(low, int) and isinstance(high, int):
                bounds.require_min(low)
                bounds.require_max(high)
                return True
        return False
    if not isinstance(conjunct, ast.BinaryOp):
        return False
    op = conjunct.op
    if op not in MIRRORED:
        return False
    if _is_length_ref(conjunct.left, alias):
        value = ast.literal_value(conjunct.right)
    elif _is_length_ref(conjunct.right, alias):
        value = ast.literal_value(conjunct.left)
        op = MIRRORED[op]
    else:
        return False
    if not isinstance(value, int):
        return False
    if op == "=":
        bounds.require_min(value)
        bounds.require_max(value)
    elif op == "<":
        bounds.require_max(value - 1)
    elif op == "<=":
        bounds.require_max(value)
    elif op == ">":
        bounds.require_min(value + 1)
    elif op == ">=":
        bounds.require_min(value)
    else:
        return False  # '<>' gives no usable interval
    return True


def apply_positional_inference(
    conjunct: ast.Expression, alias: str, bounds: LengthBounds
) -> None:
    """Derive minimum lengths from positional element references."""
    lowered = alias.lower()
    for node in ast.walk_expression(conjunct):
        if not isinstance(node, ast.FieldAccess) or node.base.lower() != lowered:
            continue
        if len(node.accessors) < 2 or not isinstance(
            node.accessors[0], ast.NameAccessor
        ):
            continue
        collection = node.accessors[0].name.lower()
        if collection not in ("edges", "vertexes", "vertices"):
            continue
        selector = node.accessors[1]
        if isinstance(selector, ast.IndexAccessor):
            position = selector.index
        elif isinstance(selector, ast.RangeAccessor):
            position = selector.start if selector.end is None else selector.end
        else:
            continue
        if collection == "edges":
            bounds.require_min(position + 1)
        else:
            bounds.require_min(position)


def infer_length_bounds(
    conjuncts: List[ast.Expression], alias: str
) -> Tuple[LengthBounds, List[ast.Expression]]:
    """Fold all length information for ``alias`` out of ``conjuncts``.

    Returns the bounds and the conjuncts that were *fully consumed* by
    explicit length predicates (they need no further evaluation).
    """
    bounds = LengthBounds()
    consumed: List[ast.Expression] = []
    for conjunct in conjuncts:
        if apply_explicit_length_predicate(conjunct, alias, bounds):
            consumed.append(conjunct)
        else:
            apply_positional_inference(conjunct, alias, bounds)
    return bounds, consumed
