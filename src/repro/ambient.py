"""The ambient statement context: what governs and observes this thread.

Engine seams deep in the operator pipeline — an operator opening, a
traversal frontier loop, the undo log, the command log's fsync, the
slow-query log — need to know which statement they serve without an
argument threaded down to them. That state lives here, in one
``threading.local`` per executing thread:

* three stacks — the :class:`~repro.budget.CancellationToken` enforcing
  the statement's budget, the EXPLAIN ANALYZE
  :class:`~repro.observability.tracer.QueryTracer`, and the
  :class:`~repro.observability.tracing.TraceContext` whose span is open
  (a span *is* the context it opens, see :class:`~repro.observability.
  tracing.span`);
* two labels — the cluster node name every span recorded on the thread
  carries, and the session name the slow-query log attributes work to.

``current_token()`` / ``current_tracer()`` / ``current_trace()`` are one
thread-local read and an index, so the operator and traversal hot path
pays nothing more when no budget or tracer is installed.

Stacks are per thread, so two server sessions running concurrently never
see each other's state. Removal is by identity, not strict stack order:
two suspended ``Database.stream`` generators can exit out of order
without popping each other's token.

A thread hand-off — the single-writer executor, the router's fan-out
threads, a replica recording its apply — carries the trace and the
labels across with one :func:`capture` on the submitting side and one
:func:`adopt` on the running side. Tokens and tracers are not carried:
a queued write receives its token explicitly, and EXPLAIN ANALYZE never
leaves its thread.
"""

from __future__ import annotations

import threading
from typing import Any, List, NamedTuple


class _Ambient(threading.local):
    """This thread's statement context (``__init__`` runs once per
    thread, so every thread starts empty)."""

    def __init__(self):
        self.tokens: List[Any] = []
        self.tracers: List[Any] = []
        self.traces: List[Any] = []
        self.node = ""
        self.session = ""


_LOCAL = _Ambient()


def current_token():
    """The token governing this thread's innermost statement (or None)."""
    items = _LOCAL.tokens
    return items[-1] if items else None


def current_tracer():
    """The tracer observing this thread's innermost statement (or None)."""
    items = _LOCAL.tracers
    return items[-1] if items else None


def current_trace():
    """The trace context of this thread's innermost open span (or None)."""
    items = _LOCAL.traces
    return items[-1] if items else None


def current_node() -> str:
    """The node name attributed to spans recorded on this thread."""
    return _LOCAL.node


def current_session() -> str:
    """The session label attributed to this thread's statements."""
    return _LOCAL.session


def remove(items: List[Any], item: Any) -> None:
    """Remove the innermost occurrence of ``item`` from ``items`` by
    identity — the one removal rule every stack here follows."""
    for index in range(len(items) - 1, -1, -1):
        if items[index] is item:
            del items[index]
            return


class activate:
    """Install a token, a tracer and/or a trace context for a block.

    Each argument given (not ``None``) becomes this thread's innermost of
    its kind; ``None`` installs nothing, so call sites need no
    conditional around the ``with``.
    """

    __slots__ = ("token", "tracer", "trace")

    def __init__(self, token=None, tracer=None, trace=None):
        self.token = token
        self.tracer = tracer
        self.trace = trace

    def __enter__(self) -> "activate":
        local = _LOCAL
        if self.token is not None:
            local.tokens.append(self.token)
        if self.tracer is not None:
            local.tracers.append(self.tracer)
        if self.trace is not None:
            local.traces.append(self.trace)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # the item is almost always on top: pop it without a call
        local = _LOCAL
        token = self.token
        if token is not None:
            items = local.tokens
            if items and items[-1] is token:
                items.pop()
            else:
                remove(items, token)
        tracer = self.tracer
        if tracer is not None:
            items = local.tracers
            if items and items[-1] is tracer:
                items.pop()
            else:
                remove(items, tracer)
        trace = self.trace
        if trace is not None:
            items = local.traces
            if items and items[-1] is trace:
                items.pop()
            else:
                remove(items, trace)
        return False


class Snapshot(NamedTuple):
    """What a thread hand-off carries: the open trace and the labels."""

    trace: Any = None
    node: str = ""
    session: str = ""


def capture() -> Snapshot:
    """This thread's trace and labels, for :func:`adopt` on another."""
    local = _LOCAL
    traces = local.traces
    return Snapshot(traces[-1] if traces else None, local.node, local.session)


class adopt:
    """Run a block under ``snapshot``: its trace context is the innermost
    and its labels are this thread's; the previous labels come back and
    the trace is removed on exit."""

    __slots__ = ("snapshot", "_previous")

    def __init__(self, snapshot: Snapshot):
        self.snapshot = snapshot
        self._previous = ("", "")

    def __enter__(self) -> Snapshot:
        local = _LOCAL
        snapshot = self.snapshot
        self._previous = (local.node, local.session)
        local.node = snapshot.node
        local.session = snapshot.session
        if snapshot.trace is not None:
            local.traces.append(snapshot.trace)
        return snapshot

    def __exit__(self, exc_type, exc, tb) -> bool:
        local = _LOCAL
        if self.snapshot.trace is not None:
            remove(local.traces, self.snapshot.trace)
        local.node, local.session = self._previous
        return False
