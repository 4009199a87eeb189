"""Undo-log based transactions with serial (single-partition) execution.

The :class:`UndoListener` must be the *first* listener registered on
every table: it records the inverse operation before any downstream
listener (index or graph-view maintenance) can fail, so a failing
statement can always be rolled back to a consistent state.

Rolling back replays inverse operations in reverse order *through the
normal table API*, which re-fires maintenance listeners — the graph
topology therefore tracks the relational state through aborts too.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..ambient import current_token
from ..errors import TransactionError
from ..storage.table import Table, TableListener, TuplePointer


class Transaction:
    """One unit of work: a stack of undo actions."""

    __slots__ = ("_undo_actions", "state")

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"

    def __init__(self):
        self._undo_actions: List[Callable[[], None]] = []
        self.state = Transaction.ACTIVE

    def record_undo(self, action: Callable[[], None]) -> None:
        if self.state != Transaction.ACTIVE:
            raise TransactionError(f"transaction is {self.state}")
        self._undo_actions.append(action)

    @property
    def undo_depth(self) -> int:
        return len(self._undo_actions)


class TransactionManager:
    """Serial transaction coordinator (one active transaction at most)."""

    def __init__(self):
        self._current: Optional[Transaction] = None
        self._in_rollback = False
        self._undo_suspended = 0

    @property
    def active(self) -> Optional[Transaction]:
        return self._current

    @property
    def in_transaction(self) -> bool:
        return self._current is not None

    def begin(self) -> Transaction:
        if self._current is not None:
            raise TransactionError("a transaction is already active")
        self._current = Transaction()
        return self._current

    def commit(self) -> None:
        if self._current is None:
            raise TransactionError("no active transaction")
        self._current.state = Transaction.COMMITTED
        self._current = None

    def rollback(self) -> None:
        transaction = self._current
        try:
            self.rollback_to(0)
        finally:
            if transaction is not None:
                transaction.state = Transaction.ABORTED
                self._current = None

    def rollback_to(self, mark: int) -> None:
        """Undo the active transaction's writes recorded after ``mark``
        (an earlier :attr:`Transaction.undo_depth`), newest first; the
        transaction stays open. A statement that fails inside an
        explicit transaction is undone this way, on its own."""
        if self._current is None:
            raise TransactionError("no active transaction")
        actions = self._current._undo_actions
        self._in_rollback = True
        try:
            while len(actions) > mark:
                actions.pop()()
        finally:
            self._in_rollback = False

    def record_undo(self, action: Callable[[], None]) -> None:
        """Register an inverse operation with the active transaction.

        No-ops outside a transaction (raw-table usage), during rollback
        replay (the replay must not re-log itself), and inside a
        :meth:`suspend_undo` window.

        Doubles as the write-side budget check point: the active
        :class:`~repro.budget.CancellationToken` observes the undo-log
        depth (a memory proxy for how much a statement has written) and
        aborts the statement when ``max_undo_depth`` is exceeded — the
        inverse operation is recorded *first*, so the rollback that
        follows undoes this write too.
        """
        if self._in_rollback or self._undo_suspended or self._current is None:
            return
        self._current.record_undo(action)
        token = current_token()
        if token is not None:
            token.note_undo_depth(self._current.undo_depth)

    def suspend_undo(self) -> "_UndoSuspension":
        """Context manager: skip undo recording for *derived* writes.

        Used by graph-view maintenance when a vertex-identifier update
        cascades into the edge relational source: the cascade is a pure
        function of the vertex row, so rolling the vertex row back
        regenerates it — logging the cascade separately would replay it
        in an order that violates referential integrity.
        """
        return _UndoSuspension(self)


class _UndoSuspension:
    def __init__(self, manager: "TransactionManager"):
        self._manager = manager

    def __enter__(self):
        self._manager._undo_suspended += 1
        return self

    def __exit__(self, exc_type, exc, tb):
        self._manager._undo_suspended -= 1
        return False


class UndoListener(TableListener):
    """Records inverse table operations into the active transaction."""

    def __init__(self, manager: TransactionManager):
        self.manager = manager

    def on_insert(self, table: Table, pointer: TuplePointer, row) -> None:
        slot = pointer.slot
        self.manager.record_undo(lambda: table.delete(slot))

    def on_delete(self, table: Table, pointer: TuplePointer, row) -> None:
        old_row = row
        self.manager.record_undo(lambda: table.insert(old_row))

    def on_update(self, table: Table, pointer: TuplePointer, old_row, new_row) -> None:
        slot = pointer.slot
        self.manager.record_undo(lambda: table.update(slot, old_row))
