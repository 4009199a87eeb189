"""Iterator-model (Volcano) executor (system S5).

Operators are lazily-iterated producers of *combined rows*: lists with
one slot per from-clause item. Relational slots hold stored tuples;
graph slots hold Vertex / Edge / Path objects — the unified interface
that lets relational and graph operators co-exist in one QEP
(Section 5.2 of the paper).
"""

from .operators import (
    Operator,
    SeqScanOp,
    IndexLookupOp,
    FilterOp,
    ProjectOp,
    LimitOp,
    DistinctOp,
    SingleRowOp,
)
from .joins import NestedLoopJoinOp, HashJoinOp
from .aggregates import AggregateOp, SortOp

__all__ = [
    "Operator",
    "SeqScanOp",
    "IndexLookupOp",
    "FilterOp",
    "ProjectOp",
    "LimitOp",
    "DistinctOp",
    "SingleRowOp",
    "NestedLoopJoinOp",
    "HashJoinOp",
    "AggregateOp",
    "SortOp",
]
