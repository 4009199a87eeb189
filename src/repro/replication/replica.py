"""The replica: applies the shipped log, answers reads, detects divergence.

A replica owns a read-only :class:`~repro.core.database.Database` plus
two durable files in its data directory:

* ``<name>.snapshot.json`` — the bootstrap snapshot it started from,
  stamped with the log position it corresponds to;
* ``<name>.applied.log`` — every shipped record it has applied since,
  written with the primary's ``(epoch, sequence)`` framing *after* the
  apply succeeds.

Restarting a crashed replica replays snapshot + applied log, which is
exactly the engine's standalone recovery path — replication adds no
second recovery mechanism. Anything applied in memory but not yet in
the applied log is simply re-shipped by the primary (delivery is
at-least-once; the sequence number dedupes).

Divergence: the primary periodically ships the digest of its state at a
log position. When the replica's applied position reaches that exact
position with a different digest, the replica has diverged — it
**quarantines** itself (refuses reads with
:class:`~repro.errors.DivergenceError`, ignores further ships) and asks
for a fresh bootstrap, rejoining only once its digest matches again.

Epoch fencing: every message carries the sender's epoch. The replica
tracks the highest epoch it has seen and discards anything older — a
deposed primary's stragglers (or a partitioned primary that never heard
of the failover) cannot touch a replica that has moved on.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Any, Dict, Optional

from .. import ambient
from ..observability import events as events_module
from ..observability import tracing as tracing_module

from ..core.command_log import (
    FramedLogWriter,
    _checksum,
    frame_body,
    read_records,
)
from ..core.database import Database
from ..core.snapshot import restore_into, verify_snapshot_document
from ..errors import DivergenceError, RecoveryError, ReplicationError
from .digest import database_digest
from .fault_injection import (
    FaultInjector,
    SimulatedCrash,
    register_crash_site,
)
from .transport import Channel, Message

SITE_BEFORE_APPLY = register_crash_site(
    "replica.before_apply",
    "dies before applying a shipped record: pure retransmission case",
)
SITE_AFTER_APPLY_BEFORE_LOG = register_crash_site(
    "replica.after_apply_before_log",
    "dies after applying in memory but before the applied-log write: "
    "restart recovers to the pre-apply state and the primary re-ships",
)


class Replica:
    """A read-only follower of a :class:`~repro.replication.primary.Primary`."""

    def __init__(
        self,
        name: str,
        data_dir: str,
        injector: Optional[FaultInjector] = None,
        sync: str = "commit",
    ):
        self.name = name
        self.data_dir = pathlib.Path(data_dir)
        self.injector = injector
        self.sync = sync
        self.snapshot_path = self.data_dir / f"{name}.snapshot.json"
        self.log_path = self.data_dir / f"{name}.applied.log"
        self.inbound: Optional[Channel] = None
        self.outbound: Optional[Channel] = None
        self.crashed = False
        self.quarantined = False
        #: The :class:`DivergenceError` that triggered quarantine.
        self.divergence: Optional[DivergenceError] = None
        #: Highest epoch seen on any message (the fencing watermark).
        self.epoch = 0
        self.applied_sequence = 0
        self.applied_epoch = 0
        #: Log position of the snapshot this replica bootstrapped from.
        self.bootstrap_sequence = 0
        self.last_primary_tick = 0
        #: The primary's log head, from its most recent heartbeat.
        self.primary_head = 0
        self.applied_count = 0
        self.bootstraps = 0
        #: Times this replica has quarantined itself (never reset —
        #: lets a test assert detection even after a re-bootstrap heals).
        self.quarantines = 0
        self.rejected_corrupt = 0
        self.rejected_stale_epoch = 0
        #: Out-of-order ships parked until the gap before them fills.
        self._held: Dict[int, Dict[str, Any]] = {}
        #: Primary digests not yet comparable, keyed by log position.
        self._expected_digests: Dict[int, str] = {}
        self.db = self._fresh_db()
        self._writer = FramedLogWriter(str(self.log_path), sync=sync)
        self._recover_from_disk()

    # ------------------------------------------------------------------

    @staticmethod
    def _fresh_db() -> Database:
        db = Database()
        db.set_role("replica")
        return db

    def connect(self, inbound: Channel, outbound: Channel) -> None:
        """Wire the two directions of the link to the primary."""
        self.inbound = inbound
        self.outbound = outbound

    @property
    def lag(self) -> int:
        """Records behind the primary's last advertised head (>= 0)."""
        return max(0, self.primary_head - self.applied_sequence)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def query(self, sql: str, budget=None):
        """Serve a client read. Writes are rejected by the database's
        replica role; quarantined and down replicas refuse entirely."""
        if self.crashed:
            raise ReplicationError(f"{self.name} is down")
        if self.quarantined:
            raise DivergenceError(
                f"{self.name} refuses reads: {self.divergence} "
                "(re-bootstrap in progress)"
            )
        return self.db.execute(sql, budget=budget)

    # ------------------------------------------------------------------
    # the pump: consume the stream, apply, acknowledge
    # ------------------------------------------------------------------

    def pump(self, tick: int) -> None:
        """One scheduling quantum: drain inbound, apply, acknowledge."""
        if self.crashed or self.inbound is None or self.outbound is None:
            return
        try:
            for message in self.inbound.receive_all():
                self._handle(message, tick)
            self._drain_held()
            self._check_digests()
            if self.quarantined:
                # keep asking until a bootstrap makes it through the
                # (lossy) channel — requests are idempotent
                self.outbound.send(
                    Message("bootstrap_request", self.epoch, {"name": self.name})
                )
            else:
                self.outbound.send(
                    Message(
                        "ack",
                        self.epoch,
                        {"name": self.name, "sequence": self.applied_sequence},
                    )
                )
        except SimulatedCrash:
            self.crashed = True

    def _handle(self, message: Message, tick: int) -> None:
        if message.epoch < self.epoch:
            self.rejected_stale_epoch += 1
            return  # fenced: a deposed primary's straggler
        if message.epoch > self.epoch:
            self.epoch = message.epoch
        if message.data.get("_corrupted"):
            self.rejected_corrupt += 1
            return
        if message.kind == "heartbeat":
            self.last_primary_tick = tick
            self.primary_head = max(
                self.primary_head, message.data.get("sequence", 0)
            )
        elif message.kind == "ship":
            self.last_primary_tick = tick
            self._receive_ship(message.data)
        elif message.kind == "digest":
            self.last_primary_tick = tick
            sequence = message.data["sequence"]
            if sequence >= self.applied_sequence:
                self._expected_digests[sequence] = message.data["digest"]
        elif message.kind == "bootstrap":
            self.last_primary_tick = tick
            self._receive_bootstrap(message.data["document"])

    def _receive_ship(self, data: Dict[str, Any]) -> None:
        if self.quarantined:
            return  # state is suspect; only a bootstrap helps
        sequence = data["sequence"]
        if sequence <= self.applied_sequence or sequence in self._held:
            return  # duplicate delivery
        body = frame_body(data["record_epoch"], sequence, data["sql"])
        if _checksum(body) != data.get("crc"):
            self.rejected_corrupt += 1
            return  # mangled in flight; retransmission will cover it
        self._held[sequence] = data

    def _drain_held(self) -> None:
        while not self.quarantined and self.applied_sequence + 1 in self._held:
            data = self._held.pop(self.applied_sequence + 1)
            self._apply(data)

    def _apply(self, data: Dict[str, Any]) -> None:
        started = time.perf_counter()
        self._crash(SITE_BEFORE_APPLY)
        self.db.apply_replicated(data["sql"])
        self._crash(SITE_AFTER_APPLY_BEFORE_LOG)
        self._writer.append(data["record_epoch"], data["sequence"], data["sql"])
        self.applied_sequence = data["sequence"]
        self.applied_epoch = data["record_epoch"]
        self.applied_count += 1
        # A trace stamped on the ship joins the originating statement's
        # trace here — the cross-process tail of the write's lifecycle.
        # Retransmitted / recovered records carry no stamp and skip.
        context = tracing_module.TraceContext.from_wire(data.get("trace"))
        if context is not None:
            with ambient.adopt(ambient.Snapshot(context, self.name)):
                tracing_module.record_span(
                    "repl.apply",
                    (time.perf_counter() - started) * 1000.0,
                    sequence=data["sequence"],
                    epoch=data["record_epoch"],
                )

    def _check_digests(self) -> None:
        """Compare the primary's digests against our state — only at the
        exact log position each digest was taken at."""
        for sequence in sorted(self._expected_digests):
            if sequence < self.applied_sequence:
                del self._expected_digests[sequence]  # stale: we moved past
            elif sequence == self.applied_sequence:
                expected = self._expected_digests.pop(sequence)
                actual = database_digest(self.db)["combined"]
                if actual != expected and not self.quarantined:
                    self.divergence = DivergenceError(
                        f"{self.name} diverged at e{self.epoch}.{sequence}: "
                        f"digest {actual} != primary's {expected}"
                    )
                    self.quarantined = True
                    self.quarantines += 1
                    self._held.clear()
                    self._expected_digests.clear()
                    events_module.emit(
                        "quarantine",
                        node=self.name,
                        epoch=self.epoch,
                        sequence=sequence,
                        reason=str(self.divergence),
                    )
                    return

    def _receive_bootstrap(self, document: Dict[str, Any]) -> None:
        position = document.get("replication", {})
        sequence = position.get("sequence", 0)
        if not self.quarantined and sequence <= self.applied_sequence:
            return  # stale bootstrap; we are already past it
        try:
            verify_snapshot_document(document)
            db = self._fresh_db()
            restore_into(document, db)
        except RecoveryError:
            self.rejected_corrupt += 1
            return  # keep requesting; the next copy may arrive intact
        expected = position.get("digest")
        if expected is not None:
            actual = database_digest(db)["combined"]
            if actual != expected:
                self.rejected_corrupt += 1
                return  # snapshot did not restore faithfully
        self.db = db
        self.applied_sequence = sequence
        self.applied_epoch = position.get("epoch", self.epoch)
        self.bootstrap_sequence = sequence
        self.quarantined = False
        self.divergence = None
        self._held.clear()
        self._expected_digests.clear()
        self._writer.truncate()
        self.snapshot_path.write_text(json.dumps(document))
        self.bootstraps += 1

    def _crash(self, site: str) -> None:
        if self.injector is not None:
            self.injector.crash_if_armed(site)

    # ------------------------------------------------------------------
    # crash / restart / promotion
    # ------------------------------------------------------------------

    def restart(self) -> None:
        """Come back from a crash: rebuild from the durable snapshot +
        applied log (the standalone recovery path), then let the primary
        re-ship whatever was in memory only."""
        self._writer.close()
        self.crashed = False
        self.quarantined = False
        self.divergence = None
        self._held.clear()
        self._expected_digests.clear()
        self.db = self._fresh_db()
        self.applied_sequence = 0
        self.applied_epoch = 0
        self.bootstrap_sequence = 0
        self._recover_from_disk()
        self._writer = FramedLogWriter(str(self.log_path), sync=self.sync)

    def _recover_from_disk(self) -> None:
        """Standalone-style recovery: bootstrap snapshot (if any), then
        replay the applied log past the snapshot's position."""
        if self.snapshot_path.exists():
            document = json.loads(self.snapshot_path.read_text())
            verify_snapshot_document(document, source=str(self.snapshot_path))
            restore_into(document, self.db)
            position = document.get("replication", {})
            self.applied_sequence = position.get("sequence", 0)
            self.applied_epoch = position.get("epoch", 0)
            self.bootstrap_sequence = self.applied_sequence
        for record in read_records(
            str(self.log_path), from_sequence=self.applied_sequence
        ):
            self.db.apply_replicated(record.sql)
            self.applied_sequence = record.sequence
            self.applied_epoch = record.epoch

    def become_primary(self, epoch: int, **primary_kwargs):
        """Promote: re-open this replica's database and applied log as a
        :class:`~repro.replication.primary.Primary` at ``epoch``.

        The applied log continues as the new primary's command log, so
        sequence numbers keep counting from the global position; records
        older than our bootstrap snapshot are not in the file, so the
        new log's ``base_sequence`` is pinned there (further-behind
        replicas get a fresh bootstrap instead of retransmission).
        """
        from .primary import Primary  # circular at module load time

        if self.crashed:
            raise ReplicationError(f"cannot promote {self.name}: it is down")
        if self.quarantined:
            raise ReplicationError(
                f"cannot promote {self.name}: it is quarantined "
                f"({self.divergence})"
            )
        self._writer.close()
        primary = Primary(
            str(self.log_path),
            database=self.db,
            epoch=epoch,
            injector=self.injector,
            sync=self.sync,
            name=self.name,
            **primary_kwargs,
        )
        primary.log.last_sequence = max(
            primary.log.last_sequence, self.applied_sequence
        )
        primary.log.base_sequence = self.bootstrap_sequence
        return primary

    def __repr__(self) -> str:
        state = (
            "down"
            if self.crashed
            else "quarantined" if self.quarantined else "up"
        )
        return (
            f"Replica({self.name}, e{self.epoch}, "
            f"applied={self.applied_sequence}, {state})"
        )
