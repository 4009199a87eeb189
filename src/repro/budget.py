"""Resource governor: per-query budgets and cooperative cancellation.

The ``PATHS`` construct is lazy precisely because path enumeration is
combinatorial (Section 4 of the paper): over a cyclic graph an
unbounded ``SELECT ... FROM GV.Paths`` can explore an unbounded
frontier. This module provides the guardrails that keep one hostile or
mistaken query from taking the engine down:

* :class:`QueryBudget` — declarative limits (wall-clock timeout,
  output-row cap, traversal exploration caps, undo-log depth as a
  memory proxy for writes). Budgets can be attached per ``Database``
  (``db.set_budget(...)``), per :class:`~repro.planner.options.PlannerOptions`,
  and per statement (``db.execute(sql, budget=...)``); the effective
  budget is the element-wise **tightest** of all configured levels, so
  an admin-set ceiling cannot be loosened by a statement.
* :class:`CancellationToken` — the runtime counterpart, checked
  cooperatively at operator boundaries and inside traversal frontier
  loops. An exhausted budget raises
  :class:`~repro.errors.ResourceExhaustedError` (or
  :class:`~repro.errors.QueryTimeoutError` for the deadline);
  ``token.cancel()`` aborts from outside with
  :class:`~repro.errors.QueryCancelledError`.

Statement execution is serial *per thread* (single-partition, like the
VoltDB substrate), but the network server runs one session per thread
with reads executing concurrently, so the active token lives in the
thread's ambient statement context (:mod:`repro.ambient`): operators
look it up once per iteration start via
:func:`~repro.ambient.current_token` and pay one branch per row when no
budget is configured. Tokens never leak across threads — two sessions
running budgeted queries concurrently each observe only their own token.

Checks are amortized: resource counters compare on every tick (cheap
integer compares, deterministic), the clock is read every
``_CHECK_MASK + 1`` ticks so a tight frontier loop does not pay a
syscall per edge.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

from .errors import (
    QueryCancelledError,
    QueryTimeoutError,
    ResourceExhaustedError,
)

_KNOBS = (
    "timeout_ms",
    "max_rows",
    "max_paths",
    "max_vertices",
    "max_edges",
    "max_undo_depth",
)


class QueryBudget:
    """Declarative resource limits for a statement, session or database.

    Every knob defaults to ``None`` (unlimited — the paper's semantics):

    ``timeout_ms``
        wall-clock limit for the whole statement, in milliseconds;
    ``max_rows``
        cap on rows returned by the top-level statement;
    ``max_paths``
        cap on paths emitted by the statement's path scans;
    ``max_vertices``
        cap on vertex expansions across all traversals;
    ``max_edges``
        cap on edges examined across all traversals (the traversal's
        deterministic unit of work);
    ``max_undo_depth``
        cap on undo-log entries recorded by a DML statement — a memory
        proxy bounding how much a single write statement may touch.
    """

    __slots__ = _KNOBS

    def __init__(
        self,
        timeout_ms: Optional[float] = None,
        max_rows: Optional[int] = None,
        max_paths: Optional[int] = None,
        max_vertices: Optional[int] = None,
        max_edges: Optional[int] = None,
        max_undo_depth: Optional[int] = None,
    ):
        for name, value in (
            ("timeout_ms", timeout_ms),
            ("max_rows", max_rows),
            ("max_paths", max_paths),
            ("max_vertices", max_vertices),
            ("max_edges", max_edges),
            ("max_undo_depth", max_undo_depth),
        ):
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(
                    f"{name} must be a number or None, got {value!r}"
                )
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        self.timeout_ms = timeout_ms
        self.max_rows = max_rows
        self.max_paths = max_paths
        self.max_vertices = max_vertices
        self.max_edges = max_edges
        self.max_undo_depth = max_undo_depth

    # ------------------------------------------------------------------

    def is_unlimited(self) -> bool:
        return all(getattr(self, knob) is None for knob in _KNOBS)

    def tightened(self, other: Optional["QueryBudget"]) -> "QueryBudget":
        """Element-wise minimum with ``other`` (``None`` = unlimited)."""
        if other is None:
            return self
        values = {}
        for knob in _KNOBS:
            mine, theirs = getattr(self, knob), getattr(other, knob)
            if mine is None:
                values[knob] = theirs
            elif theirs is None:
                values[knob] = mine
            else:
                values[knob] = min(mine, theirs)
        return QueryBudget(**values)

    @staticmethod
    def tightest(*budgets: Optional["QueryBudget"]) -> Optional["QueryBudget"]:
        """Combine the configured budget levels; ``None`` if none set."""
        effective: Optional[QueryBudget] = None
        for budget in budgets:
            if budget is None:
                continue
            effective = budget if effective is None else effective.tightened(budget)
        return effective

    def copy(self, **overrides: Any) -> "QueryBudget":
        values = {knob: getattr(self, knob) for knob in _KNOBS}
        values.update(overrides)
        return QueryBudget(**values)

    def start(
        self, clock: Callable[[], float] = time.monotonic
    ) -> "CancellationToken":
        """Begin enforcement: the deadline countdown starts now."""
        return CancellationToken(self, clock=clock)

    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryBudget):
            return NotImplemented
        return all(
            getattr(self, knob) == getattr(other, knob) for knob in _KNOBS
        )

    def __repr__(self) -> str:
        parts = [
            f"{knob}={getattr(self, knob)!r}"
            for knob in _KNOBS
            if getattr(self, knob) is not None
        ]
        return f"QueryBudget({', '.join(parts) or 'unlimited'})"


# How many ticks between wall-clock reads (power of two minus one).
_CHECK_MASK = 63


class CancellationToken:
    """Runtime enforcement state for one statement execution.

    Operators call the ``tick_*`` methods as they make progress; each
    call is an integer compare against the relevant cap plus an
    amortized deadline/cancellation check. All counters are exposed so
    callers (and tests) can observe how much work a statement did.
    """

    __slots__ = (
        "budget",
        "started_at",
        "deadline",
        "rows_emitted",
        "paths_emitted",
        "vertices_explored",
        "edges_explored",
        "peak_undo_depth",
        "cancelled",
        "cancel_reason",
        "probe",
        "_clock",
        "_ticks",
    )

    def __init__(
        self,
        budget: Optional[QueryBudget] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.budget = budget or QueryBudget()
        self._clock = clock
        self.started_at = clock()
        timeout_ms = self.budget.timeout_ms
        self.deadline = (
            self.started_at + timeout_ms / 1000.0
            if timeout_ms is not None
            else None
        )
        self.rows_emitted = 0
        self.paths_emitted = 0
        self.vertices_explored = 0
        self.edges_explored = 0
        self.peak_undo_depth = 0
        self.cancelled = False
        self.cancel_reason: Optional[str] = None
        #: Called at every full check: a hook that may ``cancel()`` this
        #: token (the network server looks for a vanished client there).
        self.probe: Optional[Callable[[], None]] = None
        self._ticks = 0

    # ------------------------------------------------------------------

    def elapsed_ms(self) -> float:
        return (self._clock() - self.started_at) * 1000.0

    def cancel(self, reason: str = "query cancelled") -> None:
        """Request cooperative cancellation; the running statement
        raises :class:`QueryCancelledError` at its next check point."""
        self.cancelled = True
        self.cancel_reason = reason

    def check(self) -> None:
        """Full check: the probe, externally cancelled, then past the
        deadline."""
        if self.probe is not None and not self.cancelled:
            self.probe()
        if self.cancelled:
            raise QueryCancelledError(
                self.cancel_reason or "query cancelled"
            )
        if self.deadline is not None and self._clock() >= self.deadline:
            raise QueryTimeoutError(
                f"query exceeded timeout_ms={self.budget.timeout_ms:g} "
                f"(elapsed: {self.elapsed_ms():.1f} ms)"
            )

    def tick(self, weight: int = 1) -> None:
        """Generic progress tick with an amortized deadline check.

        External cancellation (``token.cancel()`` — e.g. a server
        shutting down) is honoured on the *very next* tick: the
        cancelled flag is one attribute test, so only the clock read and
        the probe are amortized.
        """
        self._ticks += weight
        if self.cancelled or (self._ticks & _CHECK_MASK) == 0:
            self.check()

    # ---- counted resources -------------------------------------------

    def tick_rows(self, count: int = 1) -> None:
        self.rows_emitted += count
        cap = self.budget.max_rows
        if cap is not None and self.rows_emitted > cap:
            raise ResourceExhaustedError(
                f"query exceeded max_rows={cap} "
                f"(rows emitted: {self.rows_emitted})"
            )
        self.tick(count)

    def tick_path(self) -> None:
        self.paths_emitted += 1
        cap = self.budget.max_paths
        if cap is not None and self.paths_emitted > cap:
            raise ResourceExhaustedError(
                f"traversal exceeded max_paths={cap} "
                f"(paths emitted: {self.paths_emitted})"
            )
        self.tick()

    def tick_vertex(self) -> None:
        self.vertices_explored += 1
        cap = self.budget.max_vertices
        if cap is not None and self.vertices_explored > cap:
            raise ResourceExhaustedError(
                f"traversal exceeded max_vertices={cap} "
                f"(vertices explored: {self.vertices_explored})"
            )
        self.tick()

    def tick_edge(self) -> None:
        self.edges_explored += 1
        cap = self.budget.max_edges
        if cap is not None and self.edges_explored > cap:
            raise ResourceExhaustedError(
                f"traversal exceeded max_edges={cap} "
                f"(edges examined: {self.edges_explored})"
            )
        self.tick()

    def note_undo_depth(self, depth: int) -> None:
        if depth > self.peak_undo_depth:
            self.peak_undo_depth = depth
        cap = self.budget.max_undo_depth
        if cap is not None and depth > cap:
            raise ResourceExhaustedError(
                f"statement exceeded max_undo_depth={cap} "
                f"(undo entries: {depth}); the transaction rolls back"
            )
        self.tick()

    def __repr__(self) -> str:
        return (
            f"CancellationToken(rows={self.rows_emitted}, "
            f"paths={self.paths_emitted}, "
            f"vertices={self.vertices_explored}, "
            f"edges={self.edges_explored}, "
            f"undo={self.peak_undo_depth}, "
            f"elapsed={self.elapsed_ms():.1f}ms)"
        )
