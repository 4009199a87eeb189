"""The primary: owns the writable database and ships its command log.

Write path (client-visible guarantees marked ▸):

1. ``execute(sql)`` — rejected outright if this node is fenced
   (deposed by a failover) or down;
2. the statement commits against the local database;
3. the command log appends it as a framed ``(epoch, sequence)`` record
   and makes it durable per the log's ``sync`` policy ▸ *acknowledged
   writes survive a primary process crash*;
4. the record is shipped to every connected replica; lagging replicas
   are re-shipped from the on-disk log (the streaming reader) until
   they acknowledge ▸ *delivery is at-least-once; replicas dedupe by
   sequence*;
5. the cluster façade (:class:`~repro.replication.manager
   .ReplicationManager`) withholds the client acknowledgement until the
   configured number of replicas has applied the record ▸ *acknowledged
   writes survive primary loss with failover*.

Periodically the primary also ships a state digest pinned to its log
head, giving replicas the reference point for divergence detection.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Optional

from ..ambient import current_trace
from ..core.command_log import CommandLog, LogRecord, read_records
from ..core.database import Database
from ..core.snapshot import snapshot_to_dict
from ..errors import FencedError, ReplicationError
from ..observability import tracing as tracing_module
from .digest import database_digest
from .fault_injection import (
    FaultInjector,
    SimulatedCrash,
    register_crash_site,
)
from .transport import Channel, Message

SITE_BEFORE_COMMIT = register_crash_site(
    "primary.before_commit",
    "dies before the statement commits: no state change anywhere",
)
SITE_AFTER_COMMIT_BEFORE_LOG = register_crash_site(
    "primary.after_commit_before_log",
    "dies with the commit in memory but not on disk: the write is lost "
    "with the process, and the client was never acknowledged",
)
SITE_AFTER_LOG_BEFORE_SHIP = register_crash_site(
    "primary.after_log_before_ship",
    "dies with the record durable locally but never shipped: failover "
    "loses it, and the client was never acknowledged",
)
SITE_AFTER_SHIP_BEFORE_ACK = register_crash_site(
    "primary.after_ship_before_ack",
    "dies after shipping but before acknowledging: replicas may apply "
    "the write; the client must treat the outcome as unknown",
)


class ReplicaLink:
    """The primary's book-keeping for one attached replica."""

    __slots__ = (
        "name",
        "outbound",
        "inbound",
        "acked_sequence",
        "last_ack_tick",
        "last_ship_tick",
    )

    def __init__(
        self,
        name: str,
        outbound: Channel,
        inbound: Channel,
        acked_sequence: int = 0,
    ):
        self.name = name
        self.outbound = outbound
        self.inbound = inbound
        self.acked_sequence = acked_sequence
        self.last_ack_tick = 0
        self.last_ship_tick = 0


class Primary:
    """A database in the primary role, streaming its log to replicas."""

    def __init__(
        self,
        log_path: str,
        database: Optional[Database] = None,
        epoch: int = 1,
        injector: Optional[FaultInjector] = None,
        sync: str = "commit",
        name: str = "primary",
        digest_interval: int = 4,
        retransmit_after: int = 2,
        ship_limit: int = 64,
    ):
        self.name = name
        self.db = database or Database()
        self.db.set_role("primary")
        self.injector = injector
        self.log = CommandLog(self.db, log_path, sync=sync, epoch=epoch)
        self.log.pre_append_hook = self._before_log_append
        self.log.on_record = self._ship_record
        self.links: Dict[str, ReplicaLink] = {}
        self.crashed = False
        #: Set by the failover coordinator when a new primary is elected
        #: (the durable fencing token); a fenced primary refuses writes.
        self.fenced = False
        self.digest_interval = digest_interval
        self.retransmit_after = retransmit_after
        self.ship_limit = ship_limit
        self.retransmissions = 0
        self._pump_count = 0
        self._tick = 0

    # ------------------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self.log.epoch

    def attach_replica(
        self,
        name: str,
        outbound: Channel,
        inbound: Channel,
        acked_sequence: int = 0,
    ) -> ReplicaLink:
        link = ReplicaLink(name, outbound, inbound, acked_sequence)
        self.links[name] = link
        return link

    def detach_replica(self, name: str) -> None:
        self.links.pop(name, None)

    def bootstrap_document(self) -> dict:
        """A snapshot of the current state, stamped with the log
        position it corresponds to — everything a replica needs to
        join (or rejoin) the stream."""
        return snapshot_to_dict(
            self.db,
            replication={
                "epoch": self.epoch,
                "sequence": self.log.last_sequence,
                "digest": database_digest(self.db)["combined"],
            },
        )

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def execute(self, sql: str, budget=None):
        """Run a client statement. Commit, log, and ship happen inline;
        the caller (normally the manager) decides how many replica
        acknowledgements to await before acknowledging its client."""
        if self.crashed:
            raise ReplicationError(f"{self.name} is down")
        if self.fenced:
            raise FencedError(
                f"{self.name} was deposed (a newer epoch exists); "
                "writes must go to the current primary"
            )
        try:
            self._crash(SITE_BEFORE_COMMIT)
            result = self.db.execute(sql, budget=budget)
            self._crash(SITE_AFTER_SHIP_BEFORE_ACK)
        except SimulatedCrash:
            self.crashed = True
            raise
        return result

    def _before_log_append(self) -> None:
        self._crash(SITE_AFTER_COMMIT_BEFORE_LOG)

    def _ship_record(self, record: LogRecord) -> None:
        self._crash(SITE_AFTER_LOG_BEFORE_SHIP)
        # A freshly durable record is shipped from the writer thread,
        # which still carries the originating statement's trace context
        # — stamp it on the ship so the replica's apply span joins the
        # trace (the CRC covers only the framed record, so the extra
        # key is invisible to checksum verification), and record the
        # ship itself as a point span. Retransmissions go through
        # :meth:`_ship_message` directly and carry no trace.
        trace = current_trace()
        message = self._ship_message(record)
        if trace is not None and trace.sampled:
            message.data["trace"] = trace.to_wire()
            tracing_module.record_span(
                "repl.ship",
                0.0,
                sequence=record.sequence,
                epoch=record.epoch,
                replicas=len(self.links),
            )
        for link in self.links.values():
            link.outbound.send(message)
            link.last_ship_tick = self._tick

    def _ship_message(self, record: LogRecord) -> Message:
        return Message(
            "ship",
            self.epoch,
            {
                "record_epoch": record.epoch,
                "sequence": record.sequence,
                "sql": record.sql,
                "crc": record.checksum(),
            },
        )

    def _crash(self, site: str) -> None:
        if self.injector is not None:
            self.injector.crash_if_armed(site)

    # ------------------------------------------------------------------
    # background pump: acks, retransmission, heartbeats, digests
    # ------------------------------------------------------------------

    def pump(self, tick: int) -> None:
        """One scheduling quantum of the primary's background work."""
        if self.crashed or self.fenced:
            return
        self._tick = tick
        try:
            self._pump_count += 1
            for link in self.links.values():
                self._process_inbound(link, tick)
                self._retransmit_if_lagging(link, tick)
                link.outbound.send(
                    Message(
                        "heartbeat",
                        self.epoch,
                        {"sequence": self.log.last_sequence},
                    )
                )
            if (
                self._pump_count % self.digest_interval == 0
                and self.log.last_sequence > 0
            ):
                self._ship_digest()
        except SimulatedCrash:
            self.crashed = True

    def _process_inbound(self, link: ReplicaLink, tick: int) -> None:
        for message in link.inbound.receive_all():
            if message.data.get("_corrupted"):
                continue
            if message.kind == "ack":
                link.last_ack_tick = tick
                sequence = message.data.get("sequence", 0)
                if sequence > link.acked_sequence:
                    link.acked_sequence = sequence
            elif message.kind == "bootstrap_request":
                link.outbound.send(
                    Message(
                        "bootstrap",
                        self.epoch,
                        {"document": self.bootstrap_document()},
                    )
                )

    def _retransmit_if_lagging(self, link: ReplicaLink, tick: int) -> None:
        if link.acked_sequence >= self.log.last_sequence:
            return
        if tick - link.last_ship_tick < self.retransmit_after:
            return
        if link.acked_sequence < self.log.base_sequence:
            # the records it needs predate this log (truncated at a
            # snapshot, or this primary was promoted after the replica
            # fell behind): only a fresh snapshot can catch it up
            link.outbound.send(
                Message(
                    "bootstrap",
                    self.epoch,
                    {"document": self.bootstrap_document()},
                )
            )
            link.last_ship_tick = tick
            return
        records = islice(
            read_records(self.log.path, from_sequence=link.acked_sequence),
            self.ship_limit,
        )
        shipped = 0
        for record in records:
            link.outbound.send(self._ship_message(record))
            shipped += 1
        if shipped:
            link.last_ship_tick = tick
            self.retransmissions += 1

    def _ship_digest(self) -> None:
        digest = database_digest(self.db)
        message = Message(
            "digest",
            self.epoch,
            {
                "sequence": self.log.last_sequence,
                "digest": digest["combined"],
                "detail": {
                    "tables": digest["tables"],
                    "views": digest["views"],
                    "graph_views": digest["graph_views"],
                },
            },
        )
        for link in self.links.values():
            link.outbound.send(message)

    # ------------------------------------------------------------------

    def replication_lag(self) -> Dict[str, int]:
        """Per-replica lag in log records (0 = fully caught up)."""
        head = self.log.last_sequence
        return {
            name: head - link.acked_sequence
            for name, link in self.links.items()
        }

    def restart(self) -> None:
        """Simulate the process coming back after a crash.

        State is whatever the durable log says (the in-memory database
        was rebuilt by whoever restarted us — for a *fenced* primary
        that is irrelevant: it can never accept writes again)."""
        self.crashed = False

    def __repr__(self) -> str:
        state = (
            "down" if self.crashed else "fenced" if self.fenced else "up"
        )
        return (
            f"Primary({self.name}, e{self.epoch}, "
            f"seq={self.log.last_sequence}, {state}, "
            f"replicas={sorted(self.links)})"
        )
