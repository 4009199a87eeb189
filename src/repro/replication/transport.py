"""In-memory transport between replication peers.

A :class:`Channel` is one direction of a link (primary → replica or
replica → primary): an ordered queue with an optional
:class:`~repro.resilience.faults.FaultInjector` deciding, per
message, whether to drop, corrupt, duplicate, delay or reorder it. The
cluster is pumped cooperatively (single process, deterministic), which
is what lets the chaos suite replay a failure from a seed; the protocol
on top is written exactly as if the channel were a real, unreliable
datagram link — nothing assumes reliable or ordered delivery.

Every message carries the sender's ``epoch``; receivers discard
messages from a staler epoch than they have seen. That is the
split-brain fence: a deposed primary's traffic is ignored no matter
when it arrives.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..resilience.faults import FaultInjector

#: Message kinds (documentation; the protocol dispatches on the string).
KINDS = (
    "ship",  # one framed log record: primary -> replica
    "heartbeat",  # primary liveness + its log head position
    "digest",  # primary's state digest at a log position
    "ack",  # replica's applied position (doubles as its heartbeat)
    "bootstrap_request",  # replica asks for a fresh snapshot
    "bootstrap",  # primary's snapshot document + position
)


class Message:
    """One protocol message: ``kind``, sender ``epoch``, payload dict."""

    __slots__ = ("kind", "epoch", "data")

    def __init__(self, kind: str, epoch: int, data: Optional[Dict[str, Any]] = None):
        self.kind = kind
        self.epoch = epoch
        self.data = data if data is not None else {}

    def copy(self) -> "Message":
        return Message(self.kind, self.epoch, dict(self.data))

    def __repr__(self) -> str:
        return f"Message({self.kind}, e{self.epoch}, {self.data!r})"


class Channel:
    """One direction of a replication link, with injectable faults."""

    def __init__(self, injector: Optional[FaultInjector] = None):
        self.injector = injector
        self._queue: List[Message] = []
        #: ``[remaining_deliveries, message]`` pairs held back by delay.
        self._delayed: List[List[Any]] = []
        self.sent = 0
        self.delivered = 0

    def send(self, message: Message) -> None:
        self.sent += 1
        injector = self.injector
        if injector is None:
            self._queue.append(message)
            return
        if injector.roll("drop"):
            return
        if injector.roll("corrupt"):
            message = _corrupted(message, injector)
        copies = 2 if injector.roll("duplicate") else 1
        for _ in range(copies):
            if injector.roll("delay"):
                self._delayed.append([injector.delay_ticks(), message])
            elif injector.roll("reorder") and self._queue:
                position = injector.random.randrange(len(self._queue))
                self._queue.insert(position, message)
            else:
                self._queue.append(message)

    def receive_all(self) -> List[Message]:
        """Drain deliverable messages (advances delay timers)."""
        still_delayed: List[List[Any]] = []
        for entry in self._delayed:
            entry[0] -= 1
            if entry[0] <= 0:
                self._queue.append(entry[1])
            else:
                still_delayed.append(entry)
        self._delayed = still_delayed
        batch, self._queue = self._queue, []
        self.delivered += len(batch)
        return batch

    @property
    def pending(self) -> int:
        return len(self._queue) + len(self._delayed)

    def __repr__(self) -> str:
        return f"Channel(pending={self.pending}, sent={self.sent})"


def _corrupted(message: Message, injector: FaultInjector) -> Message:
    """A bit-flipped copy. Only a ship's statement text is mutated (its
    checksum is left stale so the receiver's verification must catch
    it); other kinds are sacrificed whole — a mangled heartbeat is just
    a missed heartbeat."""
    if message.kind == "ship":
        copy = message.copy()
        copy.data["sql"] = injector.corrupt_text(copy.data["sql"])
        return copy
    copy = message.copy()
    copy.data["_corrupted"] = True
    return copy
