"""The engine health state machine: HEALTHY → DEGRADED → RECOVERING → FAILED.

The fsyncgate lesson: a failed fsync may have silently dropped
page-cache data, so an engine that shrugs and keeps acknowledging
writes is lying about durability. When the durable-write path fails
(after its bounded retry), this engine instead flips into **degraded**
mode — a read-only stance where the guarantee "acknowledged ⇒ durable"
is preserved by refusing to acknowledge anything new:

* reads keep flowing (the in-memory state is intact);
* writes are rejected with :class:`~repro.errors.DegradedError`
  (wire code ``DEGRADED`` — stable, machine-matchable);
* replicas can still be promoted (replication reads the log, and a
  healthy replica's disk is not this node's disk).

States and legal transitions::

    healthy ────────→ degraded      durable write failed
       ↑  ↖              │
       │    ╲            ▼
       │     recovering ←┘          supervisor replaying / self-healing
       │          │
       └──────────┤
                  ▼
                failed              recovery itself failed; needs operator

:class:`HealthMonitor` is the one mutable object: thread-safe, keeps a
bounded transition history, notifies listeners (the server uses this to
refresh gauges), and mirrors its state into the metrics registry
(``repro_health_state``: healthy=0 degraded=1 recovering=2 failed=3).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional

HEALTHY = "healthy"
DEGRADED = "degraded"
RECOVERING = "recovering"
FAILED = "failed"

STATES = (HEALTHY, DEGRADED, RECOVERING, FAILED)

#: Legal transitions. Same-state "transitions" are always allowed (and
#: are no-ops); anything else raises — an illegal health transition is
#: a bug, not a condition to limp through.
TRANSITIONS: Dict[str, tuple] = {
    HEALTHY: (DEGRADED, RECOVERING, FAILED),
    DEGRADED: (RECOVERING, FAILED),
    RECOVERING: (HEALTHY, DEGRADED, FAILED),
    FAILED: (RECOVERING,),
}

_STATE_CODES = {HEALTHY: 0, DEGRADED: 1, RECOVERING: 2, FAILED: 3}

_HISTORY_LIMIT = 64


class HealthMonitor:
    """Tracks one engine's health state, thread-safely."""

    def __init__(self, state: str = HEALTHY, clock: Callable[[], float] = time.time):
        if state not in STATES:
            raise ValueError(f"unknown health state {state!r}")
        self._lock = threading.RLock()
        self._state = state
        self._clock = clock
        self._reason: Optional[str] = None
        #: The exception that degraded us, kept for ``\health`` / HEALTH.
        self.last_error: Optional[str] = None
        self.last_error_at: Optional[float] = None
        #: Bounded ``(timestamp, from, to, reason)`` history.
        self.history: List[tuple] = []
        self._listeners: List[Callable[[str, str, str], None]] = []
        self._record_gauge(state)

    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def reason(self) -> Optional[str]:
        with self._lock:
            return self._reason

    def allows_writes(self) -> bool:
        """Writes are acknowledged only while fully healthy."""
        with self._lock:
            return self._state == HEALTHY

    def allows_reads(self) -> bool:
        """Reads flow in every state but FAILED (where in-memory state
        is not trustworthy — recovery itself went wrong)."""
        with self._lock:
            return self._state != FAILED

    def add_listener(self, listener: Callable[[str, str, str], None]) -> None:
        """``listener(old_state, new_state, reason)`` after each change."""
        with self._lock:
            self._listeners.append(listener)

    # ------------------------------------------------------------------

    def transition(
        self,
        to: str,
        reason: str = "",
        error: Optional[BaseException] = None,
    ) -> str:
        """Move to state ``to``. Same-state is a no-op; an illegal edge
        raises ``ValueError``. Returns the new state."""
        if to not in STATES:
            raise ValueError(f"unknown health state {to!r}")
        with self._lock:
            old = self._state
            if to == old:
                return old
            if to not in TRANSITIONS[old]:
                raise ValueError(
                    f"illegal health transition {old} -> {to} ({reason})"
                )
            self._state = to
            self._reason = reason or None
            if error is not None:
                self.last_error = f"{type(error).__name__}: {error}"
                self.last_error_at = self._clock()
            self.history.append((self._clock(), old, to, reason))
            del self.history[:-_HISTORY_LIMIT]
            listeners = list(self._listeners)
        self._record_gauge(to)
        self._count_transition(to)
        self._emit_event(old, to, reason)
        for listener in listeners:
            listener(old, to, reason)
        return to

    def mark_degraded(
        self, reason: str, error: Optional[BaseException] = None
    ) -> None:
        """Durable-write failure: drop to read-only. Idempotent — a
        second failure while already degraded just refreshes the error."""
        with self._lock:
            if self._state == DEGRADED:
                if error is not None:
                    self.last_error = f"{type(error).__name__}: {error}"
                    self.last_error_at = self._clock()
                return
            if self._state == FAILED:
                return  # already worse than degraded
        self.transition(DEGRADED, reason, error)

    # ------------------------------------------------------------------

    def status(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "reason": self._reason,
                "last_error": self.last_error,
                "last_error_at": self.last_error_at,
                "transitions": len(self.history),
            }

    # ------------------------------------------------------------------

    def _record_gauge(self, state: str) -> None:
        from ..observability.metrics import recording_registry

        registry = recording_registry()
        if registry is not None:
            registry.gauge(
                "repro_health_state",
                help="Engine health (0 healthy, 1 degraded, 2 recovering, "
                "3 failed).",
            ).set(_STATE_CODES[state])

    def _count_transition(self, to: str) -> None:
        from ..observability.metrics import recording_registry

        registry = recording_registry()
        if registry is not None:
            registry.counter(
                "repro_health_transitions_total",
                help="Health state transitions, by destination state.",
                to=to,
            ).inc()

    @staticmethod
    def _emit_event(old: str, to: str, reason: str) -> None:
        from ..ambient import current_node
        from ..observability import events as events_module

        events_module.emit(
            "health",
            node=current_node(),
            **{"from": old, "to": to, "reason": reason or None},
        )

    def __repr__(self) -> str:
        with self._lock:
            return f"HealthMonitor({self._state}, reason={self._reason!r})"
