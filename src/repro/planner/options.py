"""Planner configuration knobs (also used by the ablation benchmarks)."""

from __future__ import annotations

from typing import Optional

from ..budget import QueryBudget


class PlannerOptions:
    """Tunables for query optimization.

    Attributes:
        push_path_filters: apply Section 6.2 (filters evaluated inside
            the traversal). Off, every path predicate is evaluated by a
            Filter operator above the PathScan.
        infer_path_length: apply Section 6.1 (derive min/max path length
            from predicates and positional references).
        default_max_path_length: safety cap applied when a PATHS query
            has no inferable maximum length (``None`` = unbounded, as in
            the paper).
        reorder_joins: greedily reorder the relational from-items by
            estimated cardinality (smallest filtered input first,
            connected equi-joins before cross products). Off, joins run
            in FROM order.
        budget: a :class:`~repro.budget.QueryBudget` applied to every
            statement planned with these options. Combined (tightest
            knob wins) with the per-``Database`` budget and any
            per-statement budget passed to ``db.execute(sql, budget=...)``.
    """

    def __init__(
        self,
        push_path_filters: bool = True,
        infer_path_length: bool = True,
        default_max_path_length: Optional[int] = None,
        reorder_joins: bool = True,
        budget: Optional[QueryBudget] = None,
    ):
        self.push_path_filters = push_path_filters
        self.infer_path_length = infer_path_length
        self.default_max_path_length = default_max_path_length
        self.reorder_joins = reorder_joins
        self.budget = budget

    def copy(self, **overrides) -> "PlannerOptions":
        values = {
            "push_path_filters": self.push_path_filters,
            "infer_path_length": self.infer_path_length,
            "default_max_path_length": self.default_max_path_length,
            "reorder_joins": self.reorder_joins,
            "budget": self.budget,
        }
        values.update(overrides)
        return PlannerOptions(**values)

    def __repr__(self) -> str:
        return (
            f"PlannerOptions(push={self.push_path_filters}, "
            f"infer={self.infer_path_length}, "
            f"max_len={self.default_max_path_length}, "
            f"budget={self.budget!r})"
        )
