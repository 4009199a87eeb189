"""Secondary indexes: hash (equality) and ordered (range).

Indexes map key tuples extracted from rows to slot numbers. They are
maintained eagerly by :class:`~repro.storage.table.Table` on every
mutation. The ordered index is a sorted list with binary search — the
in-memory analogue of VoltDB's tree index — and is what ``PRIMARY KEY``
declares.
"""

from __future__ import annotations

import bisect
import operator
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConstraintViolation
from .schema import TableSchema


class Index:
    """Base class: key extraction shared by both index kinds."""

    def __init__(
        self,
        name: str,
        schema: TableSchema,
        key_columns: Sequence[str],
        unique: bool = False,
    ):
        self.name = name
        self.key_columns: Tuple[str, ...] = tuple(key_columns)
        self.key_positions: Tuple[int, ...] = tuple(
            schema.position_of(c) for c in key_columns
        )
        self.unique = unique
        #: ``key_of(row)``: the row's key tuple. Built once per index —
        #: every insert, delete and update of the table calls it.
        self.key_of: Callable[[Sequence[Any]], Tuple[Any, ...]]
        if len(self.key_positions) == 1:
            (position,) = self.key_positions
            self.key_of = lambda row: (row[position],)
        else:
            self.key_of = operator.itemgetter(*self.key_positions)

    # interface ---------------------------------------------------------

    def insert(self, row: Sequence[Any], slot: int) -> None:
        raise NotImplementedError

    def delete(self, row: Sequence[Any], slot: int) -> None:
        raise NotImplementedError

    def lookup(self, key: Sequence[Any]) -> List[int]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class HashIndex(Index):
    """Equality index: key tuple -> list of slots.

    Rows with a NULL key part are left out, as in :class:`OrderedIndex`:
    ``column = NULL`` is never true, so no probe may find them (and a
    unique index admits any number of them, as SQL has it).
    """

    def __init__(self, name, schema, key_columns, unique=False):
        super().__init__(name, schema, key_columns, unique)
        self._buckets: Dict[Tuple[Any, ...], List[int]] = {}
        self._size = 0

    def insert(self, row: Sequence[Any], slot: int) -> None:
        key = self.key_of(row)
        if None in key:
            return
        bucket = self._buckets.setdefault(key, [])
        if self.unique and bucket:
            raise ConstraintViolation(
                f"index {self.name}: duplicate key {key}"
            )
        bucket.append(slot)
        self._size += 1

    def delete(self, row: Sequence[Any], slot: int) -> None:
        key = self.key_of(row)
        bucket = self._buckets.get(key)
        if bucket and slot in bucket:
            bucket.remove(slot)
            self._size -= 1
            if not bucket:
                del self._buckets[key]

    def lookup(self, key: Sequence[Any]) -> List[int]:
        return list(self._buckets.get(tuple(key), ()))

    def __len__(self) -> int:
        return self._size


class _AfterPrefix:
    """Sorts after every key part: ``prefix + (AFTER_PREFIX,)`` is greater
    than every key that starts with ``prefix`` and smaller than every key
    with a greater prefix, so one bisect bounds a leading-column range of
    a multi-column index."""

    __slots__ = ()

    def __gt__(self, other: object) -> bool:
        return True

    def __lt__(self, other: object) -> bool:
        return False


AFTER_PREFIX = _AfterPrefix()


class OrderedIndex(Index):
    """Range index: parallel sorted lists of key tuples and their slots,
    so ``bisect`` compares keys only. The in-memory analogue of VoltDB's
    tree index; ``PRIMARY KEY`` is a unique one (see ``Table``).

    NULLs are excluded from the index (SQL range predicates never match
    NULL anyway), which keeps keys totally ordered.
    """

    def __init__(self, name, schema, key_columns, unique=False):
        super().__init__(name, schema, key_columns, unique)
        self._keys: List[Tuple[Any, ...]] = []
        self._slots: List[int] = []

    def insert(self, row: Sequence[Any], slot: int) -> None:
        key = self.key_of(row)
        if None in key:
            return
        keys = self._keys
        if self.unique:
            position = bisect.bisect_left(keys, key)
            if position < len(keys) and keys[position] == key:
                raise ConstraintViolation(
                    f"index {self.name}: duplicate key {key}"
                )
        else:
            position = bisect.bisect_right(keys, key)
        keys.insert(position, key)
        self._slots.insert(position, slot)

    def delete(self, row: Sequence[Any], slot: int) -> None:
        key = self.key_of(row)
        if None in key:
            return
        keys, slots = self._keys, self._slots
        position = bisect.bisect_left(keys, key)
        while position < len(keys) and keys[position] == key:
            if slots[position] == slot:
                del keys[position]
                del slots[position]
                return
            position += 1

    def lookup(self, key: Sequence[Any]) -> List[int]:
        key = tuple(key)
        keys = self._keys
        try:
            start = bisect.bisect_left(keys, key)
        except TypeError:
            # a key these keys cannot be ordered against (a string among
            # numbers, a NULL) equals none of them
            return []
        if self.unique:
            if start < len(keys) and keys[start] == key:
                return [self._slots[start]]
            return []
        return self._slots[start : bisect.bisect_right(keys, key, start)]

    def range_scan(
        self,
        low: Optional[Sequence[Any]] = None,
        high: Optional[Sequence[Any]] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> List[int]:
        """Slots whose keys fall in ``[low, high]`` (bounds optional), in
        key order.

        A bound may be a prefix of the key (the leading columns): every
        key starting with an inclusive bound is inside the range, every
        key starting with an exclusive one outside it. Raises
        ``TypeError`` for a bound the keys cannot be ordered against (a
        string among numbers): each bound is compared with at least one
        key whenever there is one.
        """
        keys = self._keys
        if low is None:
            start = 0
        elif low_inclusive:
            start = bisect.bisect_left(keys, tuple(low))
        else:
            start = bisect.bisect_left(keys, tuple(low) + (AFTER_PREFIX,))
        if high is None:
            end = len(keys)
        elif high_inclusive:
            end = bisect.bisect_left(keys, tuple(high) + (AFTER_PREFIX,))
        else:
            end = bisect.bisect_left(keys, tuple(high))
        return self._slots[start:end]

    def __len__(self) -> int:
        return len(self._keys)
