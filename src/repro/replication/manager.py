"""Cluster coordination: wiring, semi-sync acks, failover, reconnects.

The :class:`ReplicationManager` is the (simulated) control plane of one
primary plus N replicas:

* **Wiring** — each replica gets a pair of in-memory channels to the
  primary, both threaded through the manager's fault injector.
* **Semi-synchronous writes** — :meth:`execute` routes a statement to
  the primary, then pumps the cluster until ``ack_replicas`` replicas
  have *applied* it (not merely received it). Only then does the client
  get its acknowledgement — that is the contract the chaos suite
  verifies: an acknowledged write survives losing the primary.
* **Failure detection** — replicas record the tick of the last message
  from the primary; when every eligible replica has heard nothing for
  ``heartbeat_timeout`` ticks, the primary is declared dead and the
  most-caught-up healthy replica is promoted into a new epoch. The old
  primary is **fenced** the instant the decision is made: its epoch is
  obsolete, replicas discard its stragglers, and any write attempt on
  it raises :class:`~repro.errors.FencedError`.
* **Reconnection** — crashed replicas (and the deposed primary, which
  rejoins as a replica after discarding its now-divergent local state)
  are retried with exponential backoff, never in a tight loop.

Everything is driven by :meth:`step` — one logical tick per call, no
threads, no wall clock — so every failure scenario is deterministic and
replayable from the fault injector's seed.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from ..errors import ReplicationError
from ..observability.metrics import recording_registry
from ..resilience.retry import RetryPolicy
from .fault_injection import FaultInjector
from .primary import Primary
from .replica import Replica
from .transport import Channel


class ReplicationManager:
    """Control plane for a primary and its replicas."""

    def __init__(
        self,
        primary: Primary,
        data_dir: str,
        ack_replicas: int = 1,
        heartbeat_timeout: int = 5,
        backoff_base: int = 2,
        backoff_cap: int = 16,
        max_await_steps: int = 200,
        injector: Optional[FaultInjector] = None,
    ):
        self.primary = primary
        self.data_dir = str(data_dir)
        self.ack_replicas = ack_replicas
        self.heartbeat_timeout = heartbeat_timeout
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        #: The shared retry machinery, in logical ticks: jitter stays 0
        #: so chaos runs remain bit-for-bit replayable from their seed.
        self.reconnect_policy = RetryPolicy(
            base_delay=backoff_base,
            max_delay=backoff_cap,
            multiplier=2.0,
            jitter=0.0,
        )
        self.max_await_steps = max_await_steps
        self.injector = injector
        self.replicas: Dict[str, Replica] = {}
        self.tick = 0
        self.epoch = primary.epoch
        #: ``(tick, old_primary, new_primary, epoch)`` per failover.
        self.failovers: List[tuple] = []
        #: Every scheduled reconnect attempt, for observability/tests:
        #: ``{"name", "kind", "attempt", "delay", "due"}``.
        self.reconnect_log: List[dict] = []
        self._pending_reconnects: Dict[str, dict] = {}
        self._backoff_attempts: Dict[str, int] = {}
        #: Deposed primaries awaiting rejoin, by name.
        self._deposed: Dict[str, Primary] = {}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def add_replica(self, replica: Replica) -> Replica:
        if replica.name in self.replicas or replica.name == self.primary.name:
            raise ReplicationError(f"duplicate node name: {replica.name}")
        self.replicas[replica.name] = replica
        self._wire(replica)
        return replica

    def _wire(self, replica: Replica) -> None:
        """(Re-)connect ``replica`` to the current primary with fresh
        channels, resuming from its applied position."""
        to_replica = Channel(self.injector)
        to_primary = Channel(self.injector)
        self.primary.attach_replica(
            replica.name,
            outbound=to_replica,
            inbound=to_primary,
            acked_sequence=replica.applied_sequence,
        )
        replica.connect(inbound=to_replica, outbound=to_primary)

    # ------------------------------------------------------------------
    # the clock
    # ------------------------------------------------------------------

    def step(self, count: int = 1) -> None:
        """Advance the cluster ``count`` logical ticks."""
        for _ in range(count):
            self.tick += 1
            self.primary.pump(self.tick)
            for replica in self.replicas.values():
                replica.pump(self.tick)
            self._detect_primary_failure()
            self._handle_reconnects()
        if recording_registry() is not None:
            self.status()  # refreshes the replication lag/sequence gauges

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------

    def execute(self, sql: str, budget=None):
        """Run a statement on the primary. For writes, the call returns
        (acknowledges) only once ``ack_replicas`` replicas have applied
        it — :class:`~repro.errors.ReplicationError` means *outcome
        unknown*, never *acknowledged then lost*."""
        primary = self.primary
        head = primary.log.last_sequence
        result = primary.execute(sql, budget=budget)
        # the log head moves exactly when a write became durable here (a
        # write inside an open transaction is pending until its commit)
        if (
            primary.log.last_sequence > head
            and self.ack_replicas > 0
            and primary.links
        ):
            self._await_replication(primary, primary.log.last_sequence)
        return result

    def _await_replication(self, primary: Primary, target: int) -> None:
        needed = min(self.ack_replicas, len(primary.links))
        for _ in range(self.max_await_steps):
            acked = sum(
                1
                for link in primary.links.values()
                if link.acked_sequence >= target
            )
            if acked >= needed:
                return
            self.step()
            if self.primary is not primary or primary.crashed:
                raise ReplicationError(
                    "primary was lost before the write replicated; "
                    "its outcome is unknown (it was never acknowledged)"
                )
        raise ReplicationError(
            f"write not acknowledged by {needed} replica(s) within "
            f"{self.max_await_steps} ticks (sequence {target})"
        )

    # ------------------------------------------------------------------
    # failure detection and failover
    # ------------------------------------------------------------------

    def _eligible(self) -> List[Replica]:
        return [
            replica
            for replica in self.replicas.values()
            if not replica.crashed and not replica.quarantined
        ]

    def _detect_primary_failure(self) -> None:
        eligible = self._eligible()
        if not eligible:
            return
        last_heard = max(r.last_primary_tick for r in eligible)
        if self.tick - last_heard > self.heartbeat_timeout:
            self.promote()

    def promote(self, name: Optional[str] = None) -> Primary:
        """Fail over to ``name`` (or to the most-caught-up healthy
        replica). The old primary is fenced immediately and scheduled to
        rejoin as a replica, with backoff."""
        if name is not None:
            if name == self.primary.name:
                raise ReplicationError(f"{name} is already the primary")
            candidate = self.replicas.get(name)
            if candidate is None:
                raise ReplicationError(f"no such replica: {name}")
            if candidate.crashed:
                raise ReplicationError(f"{name} is down")
            if candidate.quarantined:
                raise ReplicationError(
                    f"{name} is quarantined (diverged); it cannot be promoted"
                )
        else:
            eligible = self._eligible()
            if not eligible:
                raise ReplicationError(
                    "no healthy replica is available to promote"
                )
            candidate = max(
                eligible, key=lambda r: (r.applied_sequence, r.name)
            )
        old = self.primary
        new_epoch = max(self.epoch, old.epoch, candidate.epoch) + 1
        # fence first: from this instant the old epoch is dead, whatever
        # the old process believes
        old.fenced = True
        old.links.clear()
        old.log.detach()
        del self.replicas[candidate.name]
        self.primary = candidate.become_primary(new_epoch)
        self.epoch = new_epoch
        for replica in self.replicas.values():
            replica.epoch = new_epoch
            replica.primary_head = max(
                replica.primary_head, self.primary.log.last_sequence
            )
            # the rewire itself is contact with the new primary
            replica.last_primary_tick = self.tick
            self._wire(replica)
        self.failovers.append((self.tick, old.name, self.primary.name, new_epoch))
        self._deposed[old.name] = old
        self._schedule_reconnect(old.name, kind="rejoin")
        return self.primary

    # ------------------------------------------------------------------
    # reconnection with backoff
    # ------------------------------------------------------------------

    def _schedule_reconnect(self, name: str, kind: str) -> None:
        if name in self._pending_reconnects:
            return
        attempt = self._backoff_attempts.get(name, 0) + 1
        delay = int(self.reconnect_policy.delay(attempt))
        self._backoff_attempts[name] = attempt
        entry = {
            "name": name,
            "kind": kind,
            "attempt": attempt,
            "delay": delay,
            "due": self.tick + delay,
        }
        self._pending_reconnects[name] = entry
        self.reconnect_log.append(entry)

    def _handle_reconnects(self) -> None:
        for replica in self.replicas.values():
            if replica.crashed:
                self._schedule_reconnect(replica.name, kind="restart")
        due = [
            entry
            for entry in self._pending_reconnects.values()
            if self.tick >= entry["due"]
        ]
        for entry in due:
            del self._pending_reconnects[entry["name"]]
            if entry["kind"] == "restart":
                replica = self.replicas.get(entry["name"])
                if replica is not None and replica.crashed:
                    replica.restart()
                    self._wire(replica)
            elif entry["kind"] == "rejoin":
                self._rejoin_deposed(entry["name"])

    def _rejoin_deposed(self, name: str) -> None:
        """Bring a fenced ex-primary back as a replica.

        Its local state may contain commits the new primary never saw
        (logged but unreplicated when it died) — by definition never
        acknowledged to any client. A deposed primary therefore discards
        its durable state and bootstraps fresh from the new primary;
        keeping it would be exactly the divergence the digests hunt for.
        """
        old = self._deposed.pop(name, None)
        if old is None or name in self.replicas:
            return
        if old.crashed:
            # the process is still down; try again later, backed off
            self._schedule_reconnect(name, kind="rejoin")
            self._deposed[name] = old
            return
        for stale in (f"{name}.snapshot.json", f"{name}.applied.log"):
            stale_path = os.path.join(self.data_dir, stale)
            if os.path.exists(stale_path):
                os.unlink(stale_path)
        replica = Replica(
            name,
            self.data_dir,
            injector=self.injector,
            sync=old.log.sync,
        )
        self.replicas[name] = replica
        replica.epoch = self.epoch
        replica.last_primary_tick = self.tick
        self._wire(replica)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def status(self) -> List[dict]:
        """One row per node, primary first — the ``\\replica status``
        shell command renders exactly this. Per-replica rows also carry
        ``acked`` (highest sequence the primary saw acknowledged) and
        ``shipped`` (the primary's log head the replica is chasing)."""
        primary = self.primary
        shipped = primary.log.last_sequence
        rows = [
            {
                "node": primary.name,
                "role": "primary",
                "epoch": primary.epoch,
                "sequence": shipped,
                "lag": 0,
                "acked": shipped,
                "shipped": shipped,
                "state": "down" if primary.crashed else "up",
            }
        ]
        for name in sorted(self.replicas):
            replica = self.replicas[name]
            link = primary.links.get(name)
            acked = (
                link.acked_sequence
                if link is not None
                else replica.applied_sequence
            )
            lag = shipped - acked if link is not None else replica.lag
            rows.append(
                {
                    "node": name,
                    "role": "replica",
                    "epoch": replica.epoch,
                    "sequence": replica.applied_sequence,
                    "lag": max(0, lag),
                    "acked": acked,
                    "shipped": shipped,
                    "state": (
                        "down"
                        if replica.crashed
                        else "quarantined" if replica.quarantined else "up"
                    ),
                }
            )
        self._update_gauges(rows)
        return rows

    def _update_gauges(self, rows: List[dict]) -> None:
        """Mirror the status rows into the process-wide metrics registry."""
        registry = recording_registry()
        if registry is None:
            return
        registry.gauge(
            "repro_replication_shipped_sequence",
            help="The primary's command-log head (last shipped sequence).",
        ).set(rows[0]["shipped"])
        for row in rows[1:]:
            registry.gauge(
                "repro_replication_lag",
                help="Statements shipped but not yet acknowledged, per replica.",
                replica=row["node"],
            ).set(row["lag"])
            registry.gauge(
                "repro_replication_acked_sequence",
                help="Highest acknowledged sequence, per replica.",
                replica=row["node"],
            ).set(row["acked"])

    def __repr__(self) -> str:
        return (
            f"ReplicationManager(e{self.epoch}, tick={self.tick}, "
            f"primary={self.primary.name}, "
            f"replicas={sorted(self.replicas)})"
        )
