"""Shared retry machinery: jittered exponential backoff + circuit breaker.

Three independent subsystems grew three ad-hoc retry loops — the
client's single blind redial, the replication manager's
``base * 2**attempt`` reconnect schedule, and (until this PR) *no*
retry at all around fsync. This module is the one implementation they
now share:

* :class:`RetryPolicy` — ``delay(attempt) = min(base * mult**(attempt-1),
  max_delay)``, shrunk by up to ``jitter`` fraction of itself using a
  **seeded** RNG so tests replay exactly. ``call()`` wraps a function in
  the retry loop with an injectable ``sleep`` (tests pass a recorder,
  production sleeps for real).
* :class:`CircuitBreaker` — closed / open / half-open. After
  ``failure_threshold`` consecutive failures the breaker opens and
  :meth:`allow` refuses immediately (no doomed attempt, no log spam)
  until ``cooldown`` seconds pass; then exactly one probe attempt is
  let through (half-open) and its outcome re-closes or re-opens the
  breaker. The clock is injectable for deterministic tests.

The policy is *why/when to wait*; the breaker is *whether to bother*.
The supervisor composes both: fsync gets a tight bounded policy (a disk
that fails three fsyncs is not getting better in microseconds), the
self-heal path gets a breaker (a node that keeps failing to heal must
stop thrashing its disk), and the client/replication reconnects get
unbounded jittered policies (the peer may be down for a while, and the
jitter keeps a thundering herd from re-dialing in lockstep).
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Optional, Tuple, Type


class RetryPolicy:
    """Jittered exponential backoff, seeded and fully injectable.

    ``max_attempts=None`` means retry forever (reconnect loops);
    a small integer bounds the loop (fsync retry). ``jitter=0.25``
    means each delay is scaled by a uniform factor in ``[0.75, 1.0]``
    — backoff only ever shrinks, so the cap is still honored.
    """

    def __init__(
        self,
        base_delay: float = 0.05,
        max_delay: float = 5.0,
        multiplier: float = 2.0,
        jitter: float = 0.25,
        max_attempts: Optional[int] = None,
        seed: Optional[int] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if base_delay < 0 or max_delay < 0:
            raise ValueError("delays must be non-negative")
        if multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if max_attempts is not None and max_attempts < 1:
            raise ValueError("max_attempts must be >= 1 (or None)")
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.multiplier = multiplier
        self.jitter = jitter
        self.max_attempts = max_attempts
        self.random = random.Random(seed)
        self.sleep = sleep

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        raw = self.base_delay * (self.multiplier ** (attempt - 1))
        capped = min(raw, self.max_delay)
        if self.jitter:
            capped *= 1.0 - self.jitter * self.random.random()
        return capped

    def call(
        self,
        fn: Callable[[], Any],
        retry_on: Tuple[Type[BaseException], ...] = (Exception,),
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
    ) -> Any:
        """Run ``fn``, retrying on ``retry_on`` with backoff between
        attempts. Exhausting ``max_attempts`` re-raises the last error;
        any exception *not* in ``retry_on`` propagates immediately."""
        attempt = 0
        while True:
            attempt += 1
            try:
                return fn()
            except retry_on as error:
                if (
                    self.max_attempts is not None
                    and attempt >= self.max_attempts
                ):
                    raise
                if on_retry is not None:
                    on_retry(attempt, error)
                self.sleep(self.delay(attempt))

    def __repr__(self) -> str:
        return (
            f"RetryPolicy(base={self.base_delay}, max={self.max_delay}, "
            f"mult={self.multiplier}, jitter={self.jitter}, "
            f"attempts={self.max_attempts or 'unbounded'})"
        )


class CircuitBreaker:
    """Stop hammering an operation that keeps failing.

    closed — attempts flow; failures are counted.
    open — :meth:`allow` returns False until ``cooldown`` elapses.
    half_open — one probe attempt is allowed; success closes the
    breaker, failure re-opens it (and restarts the cooldown).
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.clock = clock
        self.state = "closed"
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        #: Lifetime counters, surfaced by ``\health`` and HEALTH.
        self.total_failures = 0
        self.total_successes = 0
        self.times_opened = 0

    def allow(self) -> bool:
        """May the caller attempt the operation right now?"""
        if self.state == "closed":
            return True
        if self.state == "open":
            if (
                self.opened_at is not None
                and self.clock() - self.opened_at >= self.cooldown
            ):
                self.state = "half_open"
                return True
            return False
        # half_open: the single probe is already out; no more until it
        # reports back
        return False

    def record_success(self) -> None:
        self.total_successes += 1
        self.consecutive_failures = 0
        reopened = self.state != "closed"
        self.state = "closed"
        self.opened_at = None
        if reopened:
            self._emit("breaker_close")

    def record_failure(self) -> None:
        self.total_failures += 1
        self.consecutive_failures += 1
        if (
            self.state == "half_open"
            or self.consecutive_failures >= self.failure_threshold
        ):
            if self.state != "open":
                self.times_opened += 1
                self._emit("breaker_open", failures=self.total_failures)
            self.state = "open"
            self.opened_at = self.clock()
            self.consecutive_failures = 0

    def _emit(self, kind: str, **detail) -> None:
        from ..ambient import current_node
        from ..observability import events as events_module

        events_module.emit(
            kind, node=current_node(), **detail
        )

    def status(self) -> dict:
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "total_failures": self.total_failures,
            "total_successes": self.total_successes,
            "times_opened": self.times_opened,
        }

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.state}, "
            f"failures={self.consecutive_failures}/{self.failure_threshold})"
        )
