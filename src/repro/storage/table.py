"""In-memory row store with stable tuple pointers.

A :class:`Table` stores rows in slots. A slot number is stable for the
lifetime of the row, which is what makes the paper's design work: the
materialized graph topology keeps :class:`TuplePointer` handles into the
vertex/edge relational sources and dereferences them in O(1) (Section 3.2).

Tables publish change events (insert / delete / update) to registered
listeners; graph-view maintenance (Section 3.3) and index maintenance are
implemented as listeners so they run inside the mutating transaction.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import CatalogError, ConstraintViolation, ExecutionError
from .index import Index, OrderedIndex
from .schema import TableSchema


class TuplePointer:
    """A stable handle to one stored row: ``(table, slot, generation)``.

    The generation guards against slot reuse: dereferencing a pointer
    whose slot has been freed and re-filled raises instead of silently
    returning an unrelated row.
    """

    __slots__ = ("table", "slot", "generation")

    def __init__(self, table: "Table", slot: int, generation: int):
        self.table = table
        self.slot = slot
        self.generation = generation

    def dereference(self) -> Tuple[Any, ...]:
        """Fetch the row this pointer designates (O(1)).

        Inlined for speed — this sits on the per-edge hot path of every
        attribute-filtered graph traversal.
        """
        table = self.table
        slot = self.slot
        row = table._rows[slot] if slot < len(table._rows) else None
        if row is None or table._generations[slot] != self.generation:
            raise ExecutionError(
                f"{table.name}: stale tuple pointer for slot {slot}"
            )
        return row

    @property
    def is_live(self) -> bool:
        return self.table.is_live(self.slot, self.generation)

    def __repr__(self) -> str:
        return f"TuplePointer({self.table.name}[{self.slot}]@{self.generation})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TuplePointer)
            and self.table is other.table
            and self.slot == other.slot
            and self.generation == other.generation
        )

    def __hash__(self) -> int:
        return hash((id(self.table), self.slot, self.generation))


class TableListener:
    """Interface for observers of table mutations.

    All callbacks run synchronously inside the mutating statement, i.e.
    inside its transaction, matching the paper's requirement that graph
    views are maintained "as part of the transaction" (Section 3.3).
    """

    def on_insert(self, table: "Table", pointer: TuplePointer, row: Tuple) -> None:
        """Called after a row is inserted."""

    def on_delete(self, table: "Table", pointer: TuplePointer, row: Tuple) -> None:
        """Called after a row is deleted (``row`` is the old image)."""

    def on_update(
        self,
        table: "Table",
        pointer: TuplePointer,
        old_row: Tuple,
        new_row: Tuple,
    ) -> None:
        """Called after a row is updated in place."""


class Table:
    """One in-memory table: schema + slotted rows + indexes + listeners."""

    def __init__(self, name: str, schema: TableSchema):
        self.name = name
        self.schema = schema
        self._rows: List[Optional[Tuple[Any, ...]]] = []
        self._generations: List[int] = []
        self._free_slots: List[int] = []
        self._row_count = 0
        self.indexes: Dict[str, Index] = {}
        #: ``PRIMARY KEY`` is a unique ordered index like any other the
        #: planner can pick; only its reserved name (``<table>_pkey``) and
        #: the refusal to drop it set it apart.
        self.primary_key_index: Optional[OrderedIndex] = None
        if schema.primary_key_positions:
            self.primary_key_index = OrderedIndex(
                f"{name}_pkey",
                schema,
                [schema.columns[i].name for i in schema.primary_key_positions],
                unique=True,
            )
            self.indexes[self.primary_key_index.name] = self.primary_key_index
        self._listeners: List[TableListener] = []
        #: Declared hash-partition column (``CREATE TABLE ... PARTITION
        #: BY col``); ``None`` for broadcast tables. Only the sharding
        #: layer reads this — a single node stores and ignores it.
        self.partition_by: Optional[str] = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._row_count

    @property
    def row_count(self) -> int:
        return self._row_count

    def is_live(self, slot: int, generation: Optional[int] = None) -> bool:
        if slot < 0 or slot >= len(self._rows) or self._rows[slot] is None:
            return False
        return generation is None or self._generations[slot] == generation

    def row_at(
        self, slot: int, expected_generation: Optional[int] = None
    ) -> Tuple[Any, ...]:
        """Return the row stored in ``slot``; raise if dead or recycled."""
        if slot < 0 or slot >= len(self._rows):
            raise ExecutionError(f"{self.name}: slot {slot} out of range")
        row = self._rows[slot]
        if row is None:
            raise ExecutionError(f"{self.name}: slot {slot} holds no row")
        if (
            expected_generation is not None
            and self._generations[slot] != expected_generation
        ):
            raise ExecutionError(
                f"{self.name}: stale tuple pointer for slot {slot}"
            )
        return row

    @property
    def slots(self) -> Sequence[Optional[Tuple[Any, ...]]]:
        """The slot array, read-only: the row (or ``None``) at each slot
        number. For the access operators, which fetch every row they emit
        by its slot number: indexing it costs a fraction of a
        :meth:`row_at` call or of a pairing iterator, and the reference
        benchmark's cache-cold point reads show the difference."""
        return self._rows

    def pointer_to(self, slot: int) -> TuplePointer:
        self.row_at(slot)
        return TuplePointer(self, slot, self._generations[slot])

    def scan(self) -> Iterator[Tuple[int, Tuple[Any, ...]]]:
        """Yield ``(slot, row)`` for every live row."""
        for slot, row in enumerate(self._rows):
            if row is not None:
                yield slot, row

    def rows(self) -> Iterator[Tuple[Any, ...]]:
        for _slot, row in self.scan():
            yield row

    # ------------------------------------------------------------------
    # listeners and indexes
    # ------------------------------------------------------------------

    def add_listener(self, listener: TableListener) -> None:
        self._listeners.append(listener)

    def remove_listener(self, listener: TableListener) -> None:
        self._listeners = [
            entry for entry in self._listeners if entry is not listener
        ]

    def attach_index(self, index: Index) -> None:
        if index.name in self.indexes:
            raise CatalogError(f"duplicate index name: {index.name}")
        for slot, row in self.scan():
            index.insert(row, slot)
        self.indexes[index.name] = index

    def drop_index(self, name: str) -> None:
        if name not in self.indexes:
            raise CatalogError(f"unknown index: {name}")
        if self.indexes[name] is self.primary_key_index:
            raise CatalogError(
                f"{name} is the primary-key index of {self.name}; "
                "it lives as long as the table"
            )
        del self.indexes[name]

    def find_index_on(self, column: str) -> Optional[Index]:
        """Return an index whose leading key column is ``column``."""
        wanted = column.lower()
        for index in self.indexes.values():
            if index.key_columns[0].lower() == wanted:
                return index
        return None

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------

    def insert(self, values: Sequence[Any]) -> TuplePointer:
        """Insert a row; returns its tuple pointer.

        Enforces type coercion, NOT NULL, and unique indexes (the primary
        key among them) before the row becomes visible.
        """
        row = self.schema.coerce_row(values, self.name)
        slot = self._free_slots[-1] if self._free_slots else len(self._rows)
        self._index_row(self.indexes.values(), row, slot)
        if self._free_slots:
            self._free_slots.pop()
            self._rows[slot] = row
            self._generations[slot] += 1
        else:
            self._rows.append(row)
            self._generations.append(0)
        self._row_count += 1
        pointer = TuplePointer(self, slot, self._generations[slot])
        for listener in self._listeners:
            listener.on_insert(self, pointer, row)
        return pointer

    @staticmethod
    def _index_row(indexes, row: Tuple[Any, ...], slot: int) -> None:
        """Enter ``row`` into ``indexes``, all or (on a unique-key
        collision) none of them."""
        for index in indexes:
            try:
                index.insert(row, slot)
            except ConstraintViolation:
                for entered in indexes:
                    if entered is index:
                        break
                    entered.delete(row, slot)
                raise

    def delete(self, slot: int) -> Tuple[Any, ...]:
        """Delete the row in ``slot``; returns the old image."""
        row = self.row_at(slot)
        pointer = TuplePointer(self, slot, self._generations[slot])
        for index in self.indexes.values():
            index.delete(row, slot)
        self._rows[slot] = None
        self._free_slots.append(slot)
        self._row_count -= 1
        for listener in self._listeners:
            listener.on_delete(self, pointer, row)
        return row

    def update(self, slot: int, values: Sequence[Any]) -> Tuple[Any, ...]:
        """Replace the row in ``slot`` in place (pointer stays valid).

        Only indexes whose key columns changed are touched.
        """
        old_row = self.row_at(slot)
        new_row = self.schema.coerce_row(values, self.name)
        moved = [
            index
            for index in self.indexes.values()
            if index.key_of(old_row) != index.key_of(new_row)
        ]
        self._index_row(moved, new_row, slot)
        for index in moved:
            index.delete(old_row, slot)
        self._rows[slot] = new_row
        pointer = TuplePointer(self, slot, self._generations[slot])
        for listener in self._listeners:
            listener.on_update(self, pointer, old_row, new_row)
        return old_row

    def lookup_primary_key(self, key: Sequence[Any]) -> Optional[int]:
        """Return the slot holding primary key ``key``, or None."""
        if self.primary_key_index is None:
            raise ExecutionError(f"{self.name} has no primary key")
        slots = self.primary_key_index.lookup(key)
        return slots[0] if slots else None

    def truncate(self) -> int:
        """Delete all rows (through the listener machinery); return count."""
        slots = [slot for slot, _row in self.scan()]
        for slot in slots:
            self.delete(slot)
        return len(slots)

    def __repr__(self) -> str:
        return f"Table({self.name}, rows={self._row_count})"

