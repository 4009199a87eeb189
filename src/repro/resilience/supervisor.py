"""The supervisor: restart recovery, checkpoints, probes, self-heal.

A :class:`Supervisor` owns one database's *process lifecycle* the way
the replication manager owns a cluster's membership. It is the piece
that turns the durability primitives (command log + snapshots) and the
health state machine into an operable node:

* **Recovery on start.** ``start()`` sweeps stale ``*.tmp`` snapshot
  temp files (leftovers of a crash mid-snapshot), restores the
  snapshot if one exists, and replays the command log *from the
  snapshot's embedded replication position* — the detail that makes a
  crash between "snapshot renamed" and "log truncated" safe instead of
  a double-apply. The engine is RECOVERING throughout (write gate
  closed) and HEALTHY only once a fresh command log is attached.
* **Checkpoints.** ``checkpoint()`` writes an atomic snapshot stamped
  with the log position it covers, then truncates the log. A failed
  checkpoint is *not* a durability failure — the log is intact, so
  nothing acknowledged is at risk; it is counted and retried later.
* **Health probes.** ``probe()`` exercises the data directory (write +
  fsync + unlink of a probe file). Consecutive successes while
  DEGRADED trigger self-heal.
* **Self-heal.** ``try_heal()`` — gated by a :class:`CircuitBreaker`
  so a node that keeps failing to heal stops thrashing its disk —
  moves DEGRADED → RECOVERING, snapshots the intact in-memory state to
  the recovered disk, attaches a fresh command log, and returns to
  HEALTHY. In-memory effects of the never-acknowledged failed write
  become durable in that snapshot; the contract (*acknowledged ⇒
  durable*) only requires acknowledged writes to survive, and making
  an unacknowledged one durable does not violate it.
* **Liveness / readiness.** ``liveness()`` is "the process is worth
  keeping" (everything but FAILED); ``readiness()`` splits reads from
  writes, because a DEGRADED node is exactly a node that is ready for
  reads and not for writes.

The server exposes all of this over the wire as the ``HEALTH`` message
and the shell as ``\\health``.
"""

from __future__ import annotations

import os
import pathlib
import threading
from typing import Any, Callable, Dict, List, Optional

from ..core.command_log import CommandLog, enable_command_log
from ..core.database import Database
from ..core.snapshot import save_snapshot
from ..errors import RecoveryError
from ..observability import events as events_module
from ..observability.metrics import recording_registry
from .faults import (
    SITE_CHECKPOINT_TRUNCATE,
    SITE_PROBE_FSYNC,
    SITE_PROBE_WRITE,
    FaultyIO,
    check_site,
)
from .health import DEGRADED, FAILED, HEALTHY, RECOVERING
from .retry import CircuitBreaker, RetryPolicy

PROBE_FILENAME = "health.probe"


class Supervisor:
    """Process-lifecycle manager for one durable database."""

    def __init__(
        self,
        data_dir: str,
        snapshot_name: str = "snapshot.json",
        log_name: str = "commands.log",
        sync: str = "commit",
        epoch: int = 1,
        probe_interval: float = 5.0,
        heal_after_probes: int = 2,
        heal_breaker: Optional[CircuitBreaker] = None,
        fsync_retry: Optional[RetryPolicy] = None,
        io: Optional[FaultyIO] = None,
        scheduler=None,
    ):
        self.data_dir = pathlib.Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.snapshot_path = self.data_dir / snapshot_name
        self.log_path = self.data_dir / log_name
        self.sync = sync
        self.epoch = epoch
        self.probe_interval = probe_interval
        self.heal_after_probes = max(1, heal_after_probes)
        self.heal_breaker = heal_breaker or CircuitBreaker(
            failure_threshold=3, cooldown=30.0
        )
        self._fsync_retry = fsync_retry
        self._io = io
        #: Optional :class:`~repro.server.scheduler.SingleWriterScheduler`;
        #: when set, self-heal runs as a queued write so it serializes
        #: with client statements instead of racing them.
        self.scheduler = scheduler
        self.database: Optional[Database] = None
        self.log: Optional[CommandLog] = None
        #: Stale temp files removed by the startup sweep.
        self.removed_temp_files: List[str] = []
        self.checkpoints_taken = 0
        self.checkpoints_failed = 0
        self.probes_run = 0
        self.probes_failed = 0
        self.consecutive_probe_ok = 0
        self.heals_attempted = 0
        self.heals_succeeded = 0
        self._probe_thread: Optional[threading.Thread] = None
        self._probe_stop = threading.Event()

    # ------------------------------------------------------------------
    # startup / recovery
    # ------------------------------------------------------------------

    def start(self) -> Database:
        """Recover (or bootstrap) the database and attach its log.

        Raises :class:`~repro.errors.RecoveryError` (after moving to
        FAILED) when the durable state is corrupt beyond the replay
        policies — that needs an operator, not a retry loop.
        """
        self._sweep_temp_files()
        database = Database()
        self.database = database
        database.health.transition(RECOVERING, "supervisor startup recovery")
        try:
            recovered = Database.recover(
                snapshot=str(self.snapshot_path)
                if self.snapshot_path.exists()
                else None,
                command_log=str(self.log_path)
                if self.log_path.exists()
                else None,
            )
        except (RecoveryError, OSError) as error:
            database.health.transition(
                FAILED, "startup recovery failed", error=error
            )
            raise
        # Adopt the recovered state wholesale; the health monitor (with
        # its RECOVERING state and history) stays ours.
        health = database.health
        recovered.health = health
        self.database = recovered
        position = recovered.snapshot_replication or {}
        report = recovered.recovery_report
        epoch = int(position.get("epoch", 0) or 0)
        if report is not None and report.last_epoch:
            epoch = max(epoch, report.last_epoch)
        self.epoch = max(self.epoch, epoch)
        self.log = enable_command_log(
            recovered,
            str(self.log_path),
            sync=self.sync,
            epoch=self.epoch,
            io=self._io,
            fsync_retry=self._fsync_retry,
        )
        # Resume the global sequence from the snapshot position: after
        # a checkpoint truncation the file alone under-counts.
        base = int(position.get("sequence", 0) or 0)
        self.log.last_sequence = max(self.log.last_sequence, base)
        self.log.base_sequence = base
        health.transition(HEALTHY, "recovery complete")
        return recovered

    def _sweep_temp_files(self) -> None:
        """Remove stale snapshot temp files left by crashes mid-write.

        Repeated crash-during-snapshot must not leak disk: the staged
        file is garbage by definition (it was never renamed into
        place), so removing it is always safe.
        """
        for stale in sorted(self.data_dir.glob("*.tmp")):
            try:
                stale.unlink()
                self.removed_temp_files.append(stale.name)
            except OSError:
                pass  # a sweep must never block startup

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------

    def checkpoint(self) -> bool:
        """Snapshot the database and truncate the log. Returns True on
        success; False when the disk refused (the log is still intact,
        so no acknowledged write is at risk — just try again later)."""
        if self.database is None or self.log is None:
            raise RuntimeError("supervisor is not started")
        try:
            save_snapshot(
                self.database,
                str(self.snapshot_path),
                replication={
                    "epoch": self.epoch,
                    "sequence": self.log.last_sequence,
                },
                io=self._io,
            )
            check_site(SITE_CHECKPOINT_TRUNCATE, io=self._io)
            self.log.truncate()
        except OSError as error:
            self.checkpoints_failed += 1
            registry = recording_registry()
            if registry is not None:
                registry.counter(
                    "repro_checkpoint_failures_total",
                    help="Checkpoints that failed and will be retried.",
                ).inc()
            health = self.database.health
            if health.last_error is None:
                health.last_error = f"{type(error).__name__}: {error}"
            events_module.emit(
                "checkpoint", ok=False, error=f"{type(error).__name__}: {error}"
            )
            return False
        self.checkpoints_taken += 1
        registry = recording_registry()
        if registry is not None:
            registry.counter(
                "repro_checkpoints_total", help="Checkpoints completed."
            ).inc()
        events_module.emit(
            "checkpoint", ok=True, sequence=self.log.last_sequence
        )
        return True

    # ------------------------------------------------------------------
    # probes and self-heal
    # ------------------------------------------------------------------

    def probe(self) -> bool:
        """One health probe: can the data directory take a durable
        write right now? Feeds the self-heal trigger."""
        self.probes_run += 1
        probe_path = self.data_dir / PROBE_FILENAME
        try:
            with open(probe_path, "w") as handle:
                check_site(
                    SITE_PROBE_WRITE, handle=handle, data="ok", io=self._io
                )
                handle.write("ok")
                handle.flush()
                check_site(SITE_PROBE_FSYNC, io=self._io)
                os.fsync(handle.fileno())
            probe_path.unlink()
        except OSError:
            self.probes_failed += 1
            self.consecutive_probe_ok = 0
            return False
        self.consecutive_probe_ok += 1
        if (
            self.database is not None
            and self.database.health.state == DEGRADED
            and self.consecutive_probe_ok >= self.heal_after_probes
        ):
            self.try_heal()
        return True

    def try_heal(self) -> bool:
        """Attempt DEGRADED → RECOVERING → HEALTHY, breaker-gated.

        The heal is a checkpoint in disguise: snapshot the intact
        in-memory state to the (apparently recovered) disk, then attach
        a fresh command log over a truncated file. If any step fails
        the breaker records it and the node drops back to DEGRADED.
        """
        if self.database is None:
            return False
        health = self.database.health
        if health.state != DEGRADED:
            return False
        if not self.heal_breaker.allow():
            return False
        self.heals_attempted += 1
        if self.scheduler is not None:
            try:
                return self.scheduler.execute_write(self._heal_locked)
            except Exception:
                return False
        return self._heal_locked()

    def _heal_locked(self) -> bool:
        health = self.database.health
        if health.state != DEGRADED:  # raced with another healer
            return health.state == HEALTHY
        health.transition(RECOVERING, "self-heal: re-establishing durability")
        try:
            if self.log is not None:
                sequence = self.log.last_sequence
                self.log.detach()
            else:
                sequence = 0
            save_snapshot(
                self.database,
                str(self.snapshot_path),
                replication={"epoch": self.epoch, "sequence": sequence},
                io=self._io,
            )
            self.log = enable_command_log(
                self.database,
                str(self.log_path),
                sync=self.sync,
                epoch=self.epoch,
                io=self._io,
                fsync_retry=self._fsync_retry,
            )
            self.log.last_sequence = max(self.log.last_sequence, sequence)
            self.log.truncate()
        except OSError as error:
            self.heal_breaker.record_failure()
            health.transition(
                DEGRADED, "self-heal failed; disk still refusing writes",
                error=error,
            )
            events_module.emit(
                "heal", ok=False, error=f"{type(error).__name__}: {error}"
            )
            return False
        self.heal_breaker.record_success()
        self.heals_succeeded += 1
        health.transition(HEALTHY, "self-heal complete")
        registry = recording_registry()
        if registry is not None:
            registry.counter(
                "repro_self_heals_total",
                help="Successful DEGRADED -> HEALTHY self-heals.",
            ).inc()
        events_module.emit("heal", ok=True)
        return True

    # ------------------------------------------------------------------
    # background probing
    # ------------------------------------------------------------------

    def start_probes(self, interval: Optional[float] = None) -> None:
        """Run :meth:`probe` every ``interval`` seconds on a daemon
        thread until :meth:`stop`."""
        if self._probe_thread is not None:
            return
        period = self.probe_interval if interval is None else interval
        self._probe_stop.clear()

        def loop() -> None:
            while not self._probe_stop.wait(period):
                try:
                    self.probe()
                except Exception:
                    self.probes_failed += 1

        self._probe_thread = threading.Thread(
            target=loop, name="repro-supervisor-probe", daemon=True
        )
        self._probe_thread.start()

    def stop(self, final_sync: bool = True) -> None:
        """Stop probing and detach the log (fsync'ing it first when the
        disk still allows)."""
        if self._probe_thread is not None:
            self._probe_stop.set()
            self._probe_thread.join(timeout=5.0)
            self._probe_thread = None
        if self.log is not None:
            if final_sync:
                try:
                    self.log.sync_now()
                except OSError:
                    pass
            self.log.detach()
            self.log = None

    # ------------------------------------------------------------------
    # liveness / readiness / status
    # ------------------------------------------------------------------

    def liveness(self) -> bool:
        """Is this process worth keeping? False only for FAILED."""
        if self.database is None:
            return True  # not started yet: still booting, not dead
        return self.database.health.state != FAILED

    def readiness(self) -> Dict[str, bool]:
        """Reads and writes answered separately — a DEGRADED node is
        ready for reads and not for writes, by design."""
        if self.database is None:
            return {"reads": False, "writes": False}
        health = self.database.health
        return {
            "reads": health.allows_reads(),
            "writes": health.allows_writes(),
        }

    def status(self) -> Dict[str, Any]:
        health = (
            self.database.health.status()
            if self.database is not None
            else {"state": "not_started"}
        )
        return {
            "health": health,
            "data_dir": str(self.data_dir),
            "epoch": self.epoch,
            "sequence": self.log.last_sequence if self.log is not None else None,
            "sync": self.sync,
            "liveness": self.liveness(),
            "readiness": self.readiness(),
            "checkpoints": {
                "taken": self.checkpoints_taken,
                "failed": self.checkpoints_failed,
            },
            "probes": {
                "run": self.probes_run,
                "failed": self.probes_failed,
                "consecutive_ok": self.consecutive_probe_ok,
            },
            "heal": {
                "attempted": self.heals_attempted,
                "succeeded": self.heals_succeeded,
                "breaker": self.heal_breaker.status(),
            },
            "fsync_retries": self.log.fsync_retries if self.log else 0,
            "last_durable_error": (
                self.log.last_durable_error if self.log is not None else None
            ),
            "removed_temp_files": list(self.removed_temp_files),
        }

    def __repr__(self) -> str:
        state = self.database.health.state if self.database else "not_started"
        return f"Supervisor({self.data_dir}, {state}, e{self.epoch})"


def run_supervised(
    data_dir: str,
    sync: str = "commit",
    setup: Optional[Callable[[Database], None]] = None,
) -> Supervisor:
    """Convenience: start a supervisor over ``data_dir`` and return it
    (``supervisor.database`` is the recovered engine)."""
    supervisor = Supervisor(data_dir, sync=sync)
    database = supervisor.start()
    if setup is not None:
        setup(database)
    return supervisor
