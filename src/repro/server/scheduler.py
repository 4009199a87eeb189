"""Single-writer scheduling: serialized writes, concurrent reads.

VoltDB executes every transaction of a partition on one thread — that
serial order *is* the isolation story, and it is what makes the command
log a faithful replay script (PR 1) and the replication stream a total
order (PR 2). The network server keeps that property while still
letting read-only statements overlap:

* **Writes** are submitted as tickets to a **bounded queue** consumed
  by a single executor thread. Queue order is commit order is
  command-log order is replication order. A full queue raises
  :class:`~repro.errors.OverloadedError` immediately (backpressure —
  the statement was never admitted, the client may retry), and a
  submitting session waits for its ticket under its own
  :class:`~repro.budget.QueryBudget` deadline, so time spent queued
  counts against the statement's timeout.
* **Reads** run on the calling session thread under the shared side of
  a readers-writer lock; the executor takes the exclusive side. Reads
  therefore see either all of a write or none of it, and writes never
  mutate a table an in-flight scan is iterating.
* **Drain** — shutdown stops admitting, lets queued tickets finish,
  and waits for in-flight readers, so "graceful" means exactly: every
  admitted statement completes, no new one starts.

The writer thread is writer-preferring: a waiting write blocks *new*
readers, so a stream of cheap point reads cannot starve the write
queue.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable, Optional

from .. import ambient
from ..budget import CancellationToken
from ..errors import (
    OverloadedError,
    QueryTimeoutError,
    ShuttingDownError,
)
from ..observability import tracing as observability_tracing
from ..observability.metrics import recording_registry


class ReadWriteLock:
    """A writer-preferring readers-writer lock.

    Multiple readers hold the lock together; a writer holds it alone.
    Once a writer is waiting, new readers queue behind it — the
    single-writer queue must not starve under read load.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    # -- read side ------------------------------------------------------

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    # -- write side -----------------------------------------------------

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._cond:
            self._writer_active = False
            self._cond.notify_all()

    # -- introspection --------------------------------------------------

    @property
    def active_readers(self) -> int:
        with self._cond:
            return self._readers

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no reader or writer holds the lock."""
        with self._cond:
            return self._cond.wait_for(
                lambda: not self._writer_active and self._readers == 0,
                timeout=timeout,
            )


class WriteTicket:
    """One queued write: the work, its owner, and the rendezvous."""

    __slots__ = (
        "fn",
        "token",
        "snapshot",
        "done",
        "result",
        "error",
        "started",
        "submitted_at",
    )

    def __init__(self, fn: Callable[[], Any], token: Optional[CancellationToken]):
        self.fn = fn
        self.token = token
        #: The submitting thread's trace and labels, adopted by the
        #: writer thread: the write joins the statement's trace and is
        #: attributed to the session that sent it.
        self.snapshot = ambient.capture()
        self.done = threading.Event()
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.started = False
        self.submitted_at = time.perf_counter()


_STOP = object()

#: How often a session waiting on its write runs the token's probe.
_PROBE_WAIT_S = 0.001


class SingleWriterScheduler:
    """The write queue, its executor thread, and the read gate."""

    def __init__(self, max_queue: int = 64):
        if max_queue <= 0:
            raise ValueError("max_queue must be positive")
        self.max_queue = max_queue
        self._queue: "queue.Queue" = queue.Queue(maxsize=max_queue)
        self._rwlock = ReadWriteLock()
        self._draining = False
        self._started = False
        #: Writes executed by the writer thread (monotone; tests poll it).
        self.writes_executed = 0
        self._thread = threading.Thread(
            target=self._writer_loop, name="repro-writer", daemon=True
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        if not self._started:
            self._started = True
            self._thread.start()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting, finish what was admitted, stop the writer.

        Returns True when everything in flight completed within
        ``timeout`` (queued writes executed, active readers released).
        """
        self._draining = True
        finished = True
        if self._started:
            self._queue.put(_STOP)  # FIFO: runs after every queued ticket
            self._thread.join(timeout=timeout)
            finished = not self._thread.is_alive()
        finished = self._rwlock.wait_idle(timeout=timeout) and finished
        return finished

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    # ------------------------------------------------------------------
    # read path (session threads)
    # ------------------------------------------------------------------

    def run_read(self, fn: Callable[[], Any]) -> Any:
        """Run a read-only statement now, sharing the lock with other
        readers; excluded from any write the executor is applying."""
        if self._draining:
            raise ShuttingDownError("server is draining; no new statements")
        self._rwlock.acquire_read()
        self._reads_gauge(1)
        try:
            return fn()
        finally:
            self._reads_gauge(-1)
            self._rwlock.release_read()

    # ------------------------------------------------------------------
    # write path (session threads submit; the executor runs)
    # ------------------------------------------------------------------

    def submit_write(
        self,
        fn: Callable[[], Any],
        token: Optional[CancellationToken] = None,
    ) -> WriteTicket:
        """Enqueue a write; raises OverloadedError when the queue is full."""
        if self._draining:
            raise ShuttingDownError("server is draining; no new statements")
        if not self._started:
            self.start()
        ticket = WriteTicket(fn, token)
        try:
            self._queue.put_nowait(ticket)
        except queue.Full:
            self._count_overload()
            raise OverloadedError(
                f"write queue is full ({self.max_queue} statements queued); "
                "the server is overloaded — retry after a backoff"
            )
        self._depth_gauge()
        return ticket

    def execute_write(
        self,
        fn: Callable[[], Any],
        token: Optional[CancellationToken] = None,
    ) -> Any:
        """Submit and wait. Queue time is charged to the statement's
        deadline: if the budget expires while queued, the ticket is
        cancelled and the caller gets :class:`QueryTimeoutError` —
        once a ticket *starts*, the wait is unbounded (the executor
        always completes a started statement, and the token's own
        deadline aborts it from inside if it runs long).

        The token's probe runs here, on the waiting thread, every
        ``_PROBE_WAIT_S``: a token it cancels before the ticket starts
        ends the wait with :class:`QueryCancelledError` and the executor
        skips the ticket; one it cancels later aborts the running write
        at its next check.
        """
        ticket = self.submit_write(fn, token)
        if token is None:
            ticket.done.wait()
        else:
            self._await(ticket, token)
        if ticket.error is not None:
            raise ticket.error
        return ticket.result

    @staticmethod
    def _await(ticket: WriteTicket, token: CancellationToken) -> None:
        probe = token.probe
        while True:
            timeout = None if probe is None else _PROBE_WAIT_S
            if token.deadline is not None and not ticket.started:
                remaining = max(0.0, token.deadline - token._clock())
                timeout = remaining if timeout is None else min(timeout, remaining)
            if ticket.done.wait(timeout):
                return
            if probe is not None and not token.cancelled:
                probe()
            if ticket.started:
                continue
            # the executor marks a ticket started before it tests the
            # token, so a ticket cancelled and still not started is one
            # the executor will skip
            if token.cancelled:
                raise _cancelled_error(token)
            if token.deadline is None or token._clock() < token.deadline:
                continue
            token.cancel("queued past its deadline")
            if not ticket.started:
                raise QueryTimeoutError(
                    "statement spent its whole "
                    f"timeout_ms={token.budget.timeout_ms:g} budget "
                    "waiting in the write queue"
                )

    # ------------------------------------------------------------------

    def _writer_loop(self) -> None:
        while True:
            ticket = self._queue.get()
            if ticket is _STOP:
                return
            self._depth_gauge()
            # started before the cancelled test: a submitter that cancels
            # and then sees started False knows this ticket is skipped
            ticket.started = True
            token = ticket.token
            if token is not None and token.cancelled:
                # the client vanished (or timed out) while this waited
                ticket.error = _cancelled_error(token)
                ticket.done.set()
                continue
            with ambient.adopt(ticket.snapshot) as snapshot:
                if snapshot.trace is not None:
                    # queue wait: submit -> start, under the trace
                    observability_tracing.record_span(
                        "queue.wait",
                        (time.perf_counter() - ticket.submitted_at) * 1000.0,
                        session=snapshot.session,
                    )
                self._rwlock.acquire_write()
                try:
                    ticket.result = ticket.fn()
                except BaseException as error:  # delivered to the submitter
                    ticket.error = error
                finally:
                    self._rwlock.release_write()
            self.writes_executed += 1
            ticket.done.set()

    # ------------------------------------------------------------------
    # gauges
    # ------------------------------------------------------------------

    def _depth_gauge(self) -> None:
        registry = recording_registry()
        if registry is not None:
            registry.gauge(
                "repro_server_write_queue_depth",
                help="Writes waiting for the single-writer executor.",
            ).set(self._queue.qsize())

    def _reads_gauge(self, delta: int) -> None:
        registry = recording_registry()
        if registry is not None:
            registry.gauge(
                "repro_server_active_reads",
                help="Read statements currently executing on session threads.",
            ).inc(delta)

    def _count_overload(self) -> None:
        registry = recording_registry()
        if registry is not None:
            registry.counter(
                "repro_server_overload_total",
                help="Write submissions rejected because the queue was full.",
            ).inc()


def _cancelled_error(token: CancellationToken):
    from ..errors import QueryCancelledError

    return QueryCancelledError(token.cancel_reason or "query cancelled")
