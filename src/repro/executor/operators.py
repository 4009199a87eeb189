"""Core relational operators: scans, filter, project, limit, distinct.

Every source operator (and each join, which can multiply cardinality)
captures the ambient :class:`~repro.budget.CancellationToken` at
iteration start and ticks it per row — the cooperative check points of
the resource governor. Without a budget this costs one ``None`` check
per row.

Tracing follows the same ambient pattern one level up: the shared
``Operator.__iter__`` checks for an active
:class:`~repro.observability.tracer.QueryTracer` once per iteration
start and, when none is installed (the normal case), returns the
subclass's raw ``_rows()`` generator untouched — EXPLAIN ANALYZE pays
for per-operator metering only while it runs.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Sequence

from ..ambient import current_token, current_tracer
from ..expr.compile import CompiledExpression
from ..storage.index import Index, OrderedIndex
from ..storage.table import Table

Row = List[Any]


class Operator:
    """Base class: an operator is a restartable iterable of combined rows.

    Subclasses implement :meth:`_rows`; it may be called more than once
    (e.g. as the inner side of a nested-loop join) and must build a
    fresh iterator per call. ``__iter__`` is shared: it is the tracing
    hook — one ambient check when tracing is off, a metering wrapper
    (rows, ``next()`` calls, loops, inclusive time) when a tracer is
    active.
    """

    def __iter__(self) -> Iterator[Row]:
        tracer = current_tracer()
        if tracer is None:
            return self._rows()
        return tracer.wrap(self, self._rows())

    def _rows(self) -> Iterator[Row]:
        raise NotImplementedError

    def explain(self, indent: int = 0) -> str:
        """One-line-per-operator plan rendering (for EXPLAIN-style output)."""
        pad = "  " * indent
        lines = [f"{pad}{self.describe()}"]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def describe(self) -> str:
        return type(self).__name__

    def children(self) -> Sequence["Operator"]:
        return ()


class TableAccessOp(Operator):
    """A base-table leaf: the live rows at its :meth:`slot_numbers`, each
    into one slot of a fresh combined row. A slot vacated since the leaf
    learnt its number — a streamed plan can be suspended across a
    ``DELETE`` — is passed over, whichever leaf it is.

    ``number_slot`` names a second combined-row position that receives
    the row's slot number — ``UPDATE`` / ``DELETE`` collect their targets
    from there, so DML runs the same access plans as ``SELECT``.
    """

    def __init__(
        self,
        table: Table,
        slot: int,
        width: int,
        number_slot: Optional[int] = None,
    ):
        self.table = table
        self.slot = slot
        self.width = width
        self.number_slot = number_slot

    def slot_numbers(self) -> Iterable[int]:
        raise NotImplementedError

    def _rows(self) -> Iterator[Row]:
        slot, width, number_slot = self.slot, self.width, self.number_slot
        stored_rows = self.table.slots
        for slot_number in self.slot_numbers():
            stored = stored_rows[slot_number]
            if stored is None:
                continue
            row: Row = [None] * width
            row[slot] = stored
            if number_slot is not None:
                row[number_slot] = slot_number
            yield row


def _budgeted(slot_numbers: Iterable[int]) -> Iterable[int]:
    """``slot_numbers`` under the ambient budget, if there is one: a tick
    for each slot handed out."""
    token = current_token()
    return slot_numbers if token is None else _ticking(slot_numbers, token)


def _ticking(slot_numbers: Iterable[int], token) -> Iterator[int]:
    for slot_number in slot_numbers:
        token.tick()
        yield slot_number


class SeqScanOp(TableAccessOp):
    """Full scan of a table: every slot it has when the scan starts."""

    def slot_numbers(self) -> Iterable[int]:
        return _budgeted(range(len(self.table.slots)))

    def describe(self) -> str:
        return f"SeqScan({self.table.name})"


class IndexLookupOp(TableAccessOp):
    """Point lookup through an index: the rows whose key *equals* the
    probed one, as ``=`` has it — a key of another type finds none.

    ``key`` is either a constant tuple or a zero-argument callable
    producing the key tuple — the latter defers evaluation to execution
    time, which is what prepared statements with ``?`` parameters need.
    """

    def __init__(
        self,
        table: Table,
        index: Index,
        key: Any,
        slot: int,
        width: int,
        number_slot: Optional[int] = None,
    ):
        super().__init__(table, slot, width, number_slot)
        self.index = index
        self.key = key if callable(key) else tuple(key)

    def slot_numbers(self) -> Iterable[int]:
        return self.index.lookup(self.key() if callable(self.key) else self.key)

    def describe(self) -> str:
        return f"IndexLookup({self.table.name}.{self.index.name})"


class IndexRangeScanOp(TableAccessOp):
    """Range scan over an ordered index's leading column.

    ``low`` / ``high`` are constant values or zero-argument callables
    (evaluated per execution for prepared statements); either bound may
    be ``None`` (open). ``comparisons`` is the predicate the range stands
    for, over a combined row: bounds the index cannot order against its
    keys (a string against numbers, which the comparison operators
    coerce row by row) are answered by it over a scan, so that the range
    finds what the comparisons would have kept.
    """

    def __init__(
        self,
        table: Table,
        index: OrderedIndex,
        low: Any,
        high: Any,
        low_inclusive: bool,
        high_inclusive: bool,
        comparisons: CompiledExpression,
        slot: int,
        width: int,
        number_slot: Optional[int] = None,
    ):
        super().__init__(table, slot, width, number_slot)
        self.index = index
        self.low = low
        self.high = high
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive
        self.comparisons = comparisons

    def slot_numbers(self) -> Iterable[int]:
        low = self.low() if callable(self.low) else self.low
        high = self.high() if callable(self.high) else self.high
        try:
            slot_numbers = self.index.range_scan(
                (low,) if low is not None else None,
                (high,) if high is not None else None,
                self.low_inclusive,
                self.high_inclusive,
            )
        except TypeError:
            return self._compared(_budgeted(range(len(self.table.slots))))
        if (self.low is not None and low is None) or (
            self.high is not None and high is None
        ):
            return ()  # a bound evaluated to NULL: the predicate is UNKNOWN
        return _budgeted(slot_numbers)

    def _compared(self, slot_numbers: Iterable[int]) -> Iterator[int]:
        """Those of ``slot_numbers`` whose rows ``comparisons`` keeps."""
        keeps, slot = self.comparisons.fn, self.slot
        stored_rows = self.table.slots
        row: Row = [None] * self.width
        for slot_number in slot_numbers:
            stored = stored_rows[slot_number]
            if stored is not None:
                row[slot] = stored
                if keeps(row) is True:
                    yield slot_number

    def describe(self) -> str:
        left = "[" if self.low_inclusive else "("
        right = "]" if self.high_inclusive else ")"
        return (
            f"IndexRangeScan({self.table.name}.{self.index.name} "
            f"{left}low..high{right})"
        )


class SingleRowOp(Operator):
    """Produces exactly one empty combined row (constant-only queries)."""

    def __init__(self, width: int):
        self.width = width

    def _rows(self) -> Iterator[Row]:
        yield [None] * self.width

    def describe(self) -> str:
        return "SingleRow"


class FilterOp(Operator):
    """Keeps rows whose predicate evaluates to SQL TRUE."""

    def __init__(self, child: Operator, predicate: CompiledExpression):
        self.child = child
        self.predicate = predicate

    def _rows(self) -> Iterator[Row]:
        predicate = self.predicate.fn
        for row in self.child:
            if predicate(row) is True:
                yield row

    def describe(self) -> str:
        return "Filter"

    def children(self) -> Sequence[Operator]:
        return (self.child,)


class ProjectOp(Operator):
    """Terminal projection: evaluates the select list into output tuples."""

    def __init__(
        self, child: Operator, expressions: Sequence[CompiledExpression]
    ):
        self.child = child
        self.expressions = list(expressions)

    def _rows(self) -> Iterator[Row]:
        fns = [e.fn for e in self.expressions]
        for row in self.child:
            yield [fn(row) for fn in fns]

    def describe(self) -> str:
        return f"Project({len(self.expressions)} exprs)"

    def children(self) -> Sequence[Operator]:
        return (self.child,)


class LimitOp(Operator):
    """LIMIT / OFFSET; pulls no more than needed from its child."""

    def __init__(
        self,
        child: Operator,
        limit: Optional[int],
        offset: Optional[int] = None,
    ):
        self.child = child
        self.limit = limit
        self.offset = offset or 0

    def _rows(self) -> Iterator[Row]:
        if self.limit is not None and self.limit <= 0:
            return
        produced = 0
        skipped = 0
        for row in self.child:
            if skipped < self.offset:
                skipped += 1
                continue
            produced += 1
            yield row
            if self.limit is not None and produced >= self.limit:
                return  # stop before pulling a row we would discard

    def describe(self) -> str:
        return f"Limit({self.limit}, offset={self.offset})"

    def children(self) -> Sequence[Operator]:
        return (self.child,)


def _hashable(value: Any) -> Any:
    """Make a projected value usable as a dict key."""
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    return value


class DistinctOp(Operator):
    """Duplicate elimination over fully-projected rows."""

    def __init__(self, child: Operator):
        self.child = child

    def _rows(self) -> Iterator[Row]:
        seen = set()
        for row in self.child:
            key = tuple(_hashable(v) for v in row)
            if key not in seen:
                seen.add(key)
                yield row

    def describe(self) -> str:
        return "Distinct"

    def children(self) -> Sequence[Operator]:
        return (self.child,)


class DerivedTableOp(Operator):
    """Streams a planned subquery's output rows into one slot.

    The subquery's projected rows (value lists) become stored-tuple-like
    tuples, so the outer plan treats a derived table exactly like a base
    relation.
    """

    def __init__(self, subplan: Operator, slot: int, width: int, label: str):
        self.subplan = subplan
        self.slot = slot
        self.width = width
        self.label = label

    def _rows(self) -> Iterator[Row]:
        slot, width = self.slot, self.width
        token = current_token()
        for values in self.subplan:
            if token is not None:
                token.tick()
            row: Row = [None] * width
            row[slot] = tuple(values)
            yield row

    def describe(self) -> str:
        return f"DerivedTable({self.label})"

    def children(self) -> Sequence["Operator"]:
        return (self.subplan,)
