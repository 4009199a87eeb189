"""Tests for the resilience substrate: storage fault injection, the
health state machine, retry/breaker machinery, degraded mode, and the
self-healing supervisor.

The crash-point *matrix* (every site × seed with digest-verified
recovery) lives in ``test_crash_matrix.py``; this file covers the unit
and integration behavior the matrix builds on.
"""

import errno
import json
import os

import pytest

from repro.client import Client
from repro.core.command_log import enable_command_log, replay_log
from repro.core.database import Database
from repro.core.snapshot import load_snapshot, save_snapshot, snapshot_temp_path
from repro.errors import DegradedError, DurabilityError, RemoteError
from repro.replication.digest import database_digest
from repro.resilience.faults import (
    SITE_LOG_FSYNC,
    SITE_LOG_WRITE,
    SITE_SNAPSHOT_RENAME,
    SITE_SNAPSHOT_WRITE,
    SITES,
    FaultInjector,
    SimulatedCrash,
    ambient_io,
    check_site,
    injected,
)
from repro.resilience.health import (
    DEGRADED,
    FAILED,
    HEALTHY,
    RECOVERING,
    HealthMonitor,
)
from repro.resilience.retry import CircuitBreaker, RetryPolicy
from repro.resilience.supervisor import Supervisor
from repro.server import Server


def no_sleep(_delay):
    pass


def fast_retry(**kwargs):
    kwargs.setdefault("base_delay", 0.0)
    kwargs.setdefault("jitter", 0.0)
    kwargs.setdefault("sleep", no_sleep)
    return RetryPolicy(**kwargs)


# ---------------------------------------------------------------------------
# FaultInjector
# ---------------------------------------------------------------------------


class TestFaultyIO:
    def test_unknown_site_rejected(self):
        io = FaultInjector()
        with pytest.raises(ValueError, match="unknown storage site"):
            io.inject("no.such.site", "eio")

    def test_invalid_kind_for_site_rejected(self):
        io = FaultInjector()
        # fsync has no data to tear; a replication crash point only crashes
        for site, kind in (
            (SITE_LOG_FSYNC, "torn"),
            ("primary.before_commit", "eio"),
        ):
            with pytest.raises(ValueError, match="not valid"):
                io.inject(site, kind)

    def test_transient_fault_fires_once(self):
        io = FaultInjector()
        io.inject(SITE_LOG_FSYNC, "eio")
        with pytest.raises(OSError) as exc:
            io.check(SITE_LOG_FSYNC)
        assert exc.value.errno == errno.EIO
        io.check(SITE_LOG_FSYNC)  # disarmed after firing
        assert io.counts["eio"] == 1
        assert io.fired == [(SITE_LOG_FSYNC, "eio")]

    def test_persistent_fault_keeps_firing(self):
        io = FaultInjector()
        io.inject(SITE_LOG_FSYNC, "enospc", persistent=True)
        for _ in range(3):
            with pytest.raises(OSError) as exc:
                io.check(SITE_LOG_FSYNC)
            assert exc.value.errno == errno.ENOSPC
        assert io.counts["enospc"] == 3

    def test_after_counts_hits(self):
        io = FaultInjector()
        io.inject(SITE_LOG_WRITE, "eio", after=3)
        io.check(SITE_LOG_WRITE)
        io.check(SITE_LOG_WRITE)
        with pytest.raises(OSError):
            io.check(SITE_LOG_WRITE)
        assert io.hits[SITE_LOG_WRITE] == 3

    def test_torn_writes_seeded_prefix_and_crashes(self, tmp_path):
        cuts = []
        for _ in range(2):
            io = FaultInjector(seed=42)
            io.inject(SITE_LOG_WRITE, "torn")
            path = tmp_path / f"torn-{len(cuts)}.txt"
            with open(path, "w") as handle:
                with pytest.raises(SimulatedCrash):
                    io.check(SITE_LOG_WRITE, handle=handle, data="x" * 100)
            cuts.append(path.read_text())
        # same seed -> bit-identical torn prefix, and it is a prefix
        assert cuts[0] == cuts[1]
        assert len(cuts[0]) < 100
        assert set(cuts[0]) <= {"x"}

    def test_ambient_install_is_scoped(self):
        io = FaultInjector()
        assert ambient_io() is None
        with injected(io) as active:
            assert active is io
            assert ambient_io() is io
            check_site(SITE_LOG_WRITE)  # unarmed: just counts the hit
            assert io.hits[SITE_LOG_WRITE] == 1
        assert ambient_io() is None

    def test_every_registered_site_has_valid_kinds(self):
        assert len(SITES) >= 8
        for name, (_family, _description, kinds) in SITES.items():
            assert kinds, name
            io = FaultInjector()
            io.inject(name, kinds[0])  # accepted


# ---------------------------------------------------------------------------
# RetryPolicy / CircuitBreaker
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_delay_schedule_without_jitter(self):
        policy = RetryPolicy(
            base_delay=1.0, max_delay=8.0, multiplier=2.0, jitter=0.0
        )
        assert [policy.delay(n) for n in (1, 2, 3, 4, 5)] == [
            1.0, 2.0, 4.0, 8.0, 8.0,  # capped
        ]

    def test_jitter_only_shrinks(self):
        policy = RetryPolicy(
            base_delay=1.0, max_delay=1.0, jitter=0.5, seed=1
        )
        for attempt in range(1, 20):
            delay = policy.delay(attempt)
            assert 0.5 <= delay <= 1.0

    def test_call_retries_then_succeeds(self):
        calls = {"n": 0}
        retries = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "ok"

        policy = fast_retry(max_attempts=5)
        result = policy.call(
            flaky, retry_on=(OSError,),
            on_retry=lambda attempt, error: retries.append(attempt),
        )
        assert result == "ok"
        assert retries == [1, 2]

    def test_call_exhaustion_reraises_last_error(self):
        policy = fast_retry(max_attempts=3)
        calls = {"n": 0}

        def doomed():
            calls["n"] += 1
            raise OSError(errno.EIO, "still broken")

        with pytest.raises(OSError, match="still broken"):
            policy.call(doomed, retry_on=(OSError,))
        assert calls["n"] == 3

    def test_unlisted_exception_propagates_immediately(self):
        policy = fast_retry(max_attempts=5)
        calls = {"n": 0}

        def wrong_kind():
            calls["n"] += 1
            raise ValueError("not retryable")

        with pytest.raises(ValueError):
            policy.call(wrong_kind, retry_on=(OSError,))
        assert calls["n"] == 1


class TestCircuitBreaker:
    def make(self, threshold=3, cooldown=10.0):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=threshold, cooldown=cooldown,
            clock=lambda: clock["now"],
        )
        return breaker, clock

    def test_opens_after_threshold(self):
        breaker, _clock = self.make(threshold=3)
        for _ in range(2):
            breaker.record_failure()
            assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.times_opened == 1

    def test_half_open_probe_after_cooldown(self):
        breaker, clock = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure()
        assert not breaker.allow()
        clock["now"] = 10.0
        assert breaker.allow()  # the single half-open probe
        assert breaker.state == "half_open"
        assert not breaker.allow()  # no second probe until it reports

    def test_half_open_success_closes(self):
        breaker, clock = self.make(threshold=1, cooldown=1.0)
        breaker.record_failure()
        clock["now"] = 1.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_failure_reopens(self):
        breaker, clock = self.make(threshold=3, cooldown=1.0)
        for _ in range(3):
            breaker.record_failure()
        clock["now"] = 1.0
        assert breaker.allow()
        breaker.record_failure()  # single half-open failure re-opens
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.times_opened == 2


# ---------------------------------------------------------------------------
# HealthMonitor
# ---------------------------------------------------------------------------


class TestHealthMonitor:
    def test_starts_healthy_and_allows_everything(self):
        health = HealthMonitor()
        assert health.state == HEALTHY
        assert health.allows_writes()
        assert health.allows_reads()

    def test_degraded_blocks_writes_not_reads(self):
        health = HealthMonitor()
        health.mark_degraded("disk said no", error=OSError(errno.EIO, "eio"))
        assert health.state == DEGRADED
        assert not health.allows_writes()
        assert health.allows_reads()
        assert "eio" in health.last_error

    def test_illegal_transition_raises(self):
        health = HealthMonitor()
        health.mark_degraded("x")
        with pytest.raises(ValueError, match="illegal health transition"):
            health.transition(HEALTHY)  # must pass through RECOVERING

    def test_recovering_path_back_to_healthy(self):
        health = HealthMonitor()
        health.mark_degraded("x")
        health.transition(RECOVERING, "healing")
        health.transition(HEALTHY, "healed")
        assert health.allows_writes()
        assert len(health.history) == 3

    def test_failed_blocks_reads_too(self):
        health = HealthMonitor()
        health.transition(FAILED, "recovery exploded")
        assert not health.allows_reads()
        assert not health.allows_writes()

    def test_mark_degraded_idempotent_and_listener_fires_once(self):
        health = HealthMonitor()
        seen = []
        health.add_listener(lambda old, new, reason: seen.append((old, new)))
        health.mark_degraded("first")
        health.mark_degraded("second", error=OSError("later"))
        assert seen == [(HEALTHY, DEGRADED)]
        assert "later" in health.last_error  # refreshed, no transition


# ---------------------------------------------------------------------------
# degraded mode through the command log
# ---------------------------------------------------------------------------


def make_logged_db(tmp_path, io=None, sync="commit", fsync_retry=None, **kw):
    db = Database()
    log = enable_command_log(
        db, str(tmp_path / "commands.log"), sync=sync, io=io,
        fsync_retry=fsync_retry or fast_retry(max_attempts=3), **kw
    )
    return db, log


class TestDegradedMode:
    def test_enospc_mid_append_degrades(self, tmp_path):
        io = FaultInjector(seed=1)
        db, log = make_logged_db(tmp_path, io=io)
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR)")
        db.execute("INSERT INTO t VALUES (1, 'ok')")
        io.inject(SITE_LOG_WRITE, "enospc", persistent=True)
        with pytest.raises(DurabilityError, match="DEGRADED"):
            db.execute("INSERT INTO t VALUES (2, 'lost')")
        assert db.health.state == DEGRADED
        assert "ENOSPC" in log.last_durable_error or "28" in log.last_durable_error

    def test_degraded_rejects_writes_allows_reads(self, tmp_path):
        io = FaultInjector(seed=1)
        db, _log = make_logged_db(tmp_path, io=io)
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        io.inject(SITE_LOG_FSYNC, "eio", persistent=True)
        with pytest.raises(DurabilityError):
            db.execute("INSERT INTO t VALUES (2)")
        # reads flow; writes get the stable DegradedError (not Durability)
        assert db.execute("SELECT COUNT(*) FROM t").scalar() >= 1
        with pytest.raises(DegradedError):
            db.execute("INSERT INTO t VALUES (3)")

    def test_transient_fsync_eio_absorbed_by_bounded_retry(self, tmp_path):
        io = FaultInjector(seed=1)
        db, log = make_logged_db(tmp_path, io=io)
        db.execute("CREATE TABLE t (a INTEGER)")
        io.inject(SITE_LOG_FSYNC, "eio")  # transient: one bad fsync
        db.execute("INSERT INTO t VALUES (1)")  # succeeds via retry
        assert db.health.state == HEALTHY
        assert log.fsync_retries == 1

    def test_persistent_fsync_failure_exhausts_retry_and_degrades(
        self, tmp_path
    ):
        io = FaultInjector(seed=1)
        db, log = make_logged_db(tmp_path, io=io)
        db.execute("CREATE TABLE t (a INTEGER)")
        io.inject(SITE_LOG_FSYNC, "eio", persistent=True)
        with pytest.raises(DurabilityError):
            db.execute("INSERT INTO t VALUES (1)")
        assert db.health.state == DEGRADED
        assert log.fsync_retries == 2  # 3 attempts = 2 retries

    def test_batch_mode_defers_fsync_failure_to_batch_boundary(self, tmp_path):
        io = FaultInjector(seed=1)
        db, _log = make_logged_db(
            tmp_path, io=io, sync="batch", batch_interval=3
        )
        db.execute("CREATE TABLE t (a INTEGER)")
        io.inject(SITE_LOG_FSYNC, "eio", persistent=True)
        # first two commits don't fsync, so the broken disk is invisible
        db.execute("INSERT INTO t VALUES (1)")
        assert db.health.state == HEALTHY
        # the batch_interval-th commit fsyncs and hits the fault
        with pytest.raises(DurabilityError):
            db.execute("INSERT INTO t VALUES (2)")
        assert db.health.state == DEGRADED

    def test_failed_transaction_commit_not_reappended(self, tmp_path):
        io = FaultInjector(seed=1)
        db, log = make_logged_db(tmp_path, io=io)
        db.execute("CREATE TABLE t (a INTEGER)")
        io.inject(SITE_LOG_WRITE, "eio")
        db.begin()
        db.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(DurabilityError):
            db.commit()
        # recover out of degraded and commit something else: the failed
        # transaction's statements must not reappear in the log
        db.health.transition(RECOVERING, "test")
        db.health.transition(HEALTHY, "test")
        db.execute("INSERT INTO t VALUES (2)")
        recovered = replay_log(str(log.path))
        assert recovered.execute("SELECT a FROM t").rows == [(2,)]

    def test_replica_apply_bypasses_degraded_gate(self, tmp_path):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER)")
        db.health.mark_degraded("test")
        # replication applies through apply_replicated: a degraded
        # primary's log must still be applicable on this node
        db.apply_replicated("INSERT INTO t VALUES (1)")
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 1


# ---------------------------------------------------------------------------
# snapshot atomicity
# ---------------------------------------------------------------------------


class TestSnapshotAtomicity:
    def build(self):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR)")
        db.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
        return db

    def test_snapshot_goes_through_temp_file(self, tmp_path):
        db = self.build()
        path = tmp_path / "snap.json"
        save_snapshot(db, str(path))
        assert path.exists()
        assert not os.path.exists(snapshot_temp_path(str(path)))

    def test_failed_rename_preserves_old_snapshot(self, tmp_path):
        db = self.build()
        path = tmp_path / "snap.json"
        save_snapshot(db, str(path))
        before = path.read_text()
        db.execute("INSERT INTO t VALUES (3, 'three')")
        io = FaultInjector(seed=1)
        io.inject(SITE_SNAPSHOT_RENAME, "eio")
        with pytest.raises(OSError):
            save_snapshot(db, str(path), io=io)
        # the old snapshot is intact and the temp file was cleaned up
        assert path.read_text() == before
        assert not os.path.exists(snapshot_temp_path(str(path)))
        restored = load_snapshot(str(path))
        assert restored.execute("SELECT COUNT(*) FROM t").scalar() == 2

    def test_torn_snapshot_write_leaves_no_valid_snapshot(self, tmp_path):
        db = self.build()
        path = tmp_path / "snap.json"
        io = FaultInjector(seed=3)
        io.inject(SITE_SNAPSHOT_WRITE, "torn")
        with pytest.raises(SimulatedCrash):
            save_snapshot(db, str(path), io=io)
        assert not path.exists()  # never renamed into place

    def test_supervisor_sweeps_stale_temp_files(self, tmp_path):
        stale = tmp_path / "snapshot.json.tmp"
        stale.write_text('{"partial": ')
        supervisor = Supervisor(str(tmp_path))
        supervisor.start()
        assert not stale.exists()
        assert "snapshot.json.tmp" in supervisor.removed_temp_files
        supervisor.stop()

    def test_snapshot_embeds_replication_position(self, tmp_path):
        db = self.build()
        path = tmp_path / "snap.json"
        save_snapshot(db, str(path), replication={"epoch": 2, "sequence": 9})
        document = json.loads(path.read_text())
        assert document["replication"] == {"epoch": 2, "sequence": 9}
        restored = load_snapshot(str(path))
        assert restored.snapshot_replication == {"epoch": 2, "sequence": 9}


# ---------------------------------------------------------------------------
# supervisor
# ---------------------------------------------------------------------------


class TestSupervisor:
    def seed_rows(self, db, count=5, start=0):
        for i in range(start, start + count):
            db.execute(f"INSERT INTO t VALUES ({i}, 'row{i}')")

    def boot(self, tmp_path, **kwargs):
        supervisor = Supervisor(str(tmp_path), **kwargs)
        db = supervisor.start()
        return supervisor, db

    def test_restart_replays_acknowledged_writes(self, tmp_path):
        supervisor, db = self.boot(tmp_path)
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR)")
        self.seed_rows(db)
        digest = database_digest(db)["combined"]
        supervisor.stop()

        restarted, db2 = self.boot(tmp_path)
        assert database_digest(db2)["combined"] == digest
        assert db2.health.state == HEALTHY
        restarted.stop()

    def test_checkpoint_truncates_and_restart_does_not_double_apply(
        self, tmp_path
    ):
        supervisor, db = self.boot(tmp_path)
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR)")
        self.seed_rows(db, count=4)
        assert supervisor.checkpoint()
        self.seed_rows(db, count=3, start=4)  # post-checkpoint tail
        digest = database_digest(db)["combined"]
        sequence = supervisor.log.last_sequence
        supervisor.stop()

        restarted, db2 = self.boot(tmp_path)
        assert database_digest(db2)["combined"] == digest
        assert db2.execute("SELECT COUNT(*) FROM t").scalar() == 7
        # the sequence resumes globally, not from the truncated file
        assert restarted.log.last_sequence == sequence
        restarted.stop()

    def test_crash_between_snapshot_and_truncate_is_not_double_applied(
        self, tmp_path
    ):
        io = FaultInjector(seed=5)
        supervisor, db = self.boot(tmp_path, io=io)
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR)")
        self.seed_rows(db, count=4)
        digest = database_digest(db)["combined"]
        io.inject("checkpoint.before_truncate", "crash")
        with pytest.raises(SimulatedCrash):
            supervisor.checkpoint()
        # disk state now: snapshot covers everything, log still full —
        # the double-replay window the embedded position closes
        supervisor.stop(final_sync=False)

        restarted, db2 = self.boot(tmp_path)
        assert database_digest(db2)["combined"] == digest
        assert db2.execute("SELECT COUNT(*) FROM t").scalar() == 4
        restarted.stop()

    def test_failed_checkpoint_keeps_log_intact(self, tmp_path):
        io = FaultInjector(seed=1)
        supervisor, db = self.boot(tmp_path, io=io)
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR)")
        self.seed_rows(db, count=3)
        digest = database_digest(db)["combined"]
        io.inject(SITE_SNAPSHOT_RENAME, "eio")
        assert supervisor.checkpoint() is False
        assert supervisor.checkpoints_failed == 1
        assert db.health.state == HEALTHY  # not a durability failure
        supervisor.stop()

        restarted, db2 = self.boot(tmp_path)
        assert database_digest(db2)["combined"] == digest
        restarted.stop()

    def test_probe_driven_self_heal(self, tmp_path):
        io = FaultInjector(seed=1)
        supervisor, db = self.boot(
            tmp_path, io=io, heal_after_probes=2,
            fsync_retry=fast_retry(max_attempts=3),
        )
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR)")
        self.seed_rows(db, count=3)
        io.inject(SITE_LOG_FSYNC, "eio", persistent=True)
        with pytest.raises(DurabilityError):
            db.execute("INSERT INTO t VALUES (100, 'fails')")
        assert db.health.state == DEGRADED
        io.clear()  # the disk comes back
        assert supervisor.probe()
        assert db.health.state == DEGRADED  # needs 2 consecutive OKs
        assert supervisor.probe()
        assert db.health.state == HEALTHY
        assert supervisor.heals_succeeded == 1
        # post-heal writes are durable again and survive a restart
        db.execute("INSERT INTO t VALUES (200, 'after-heal')")
        digest = database_digest(db)["combined"]
        supervisor.stop()
        restarted, db2 = self.boot(tmp_path)
        assert database_digest(db2)["combined"] == digest
        restarted.stop()

    def test_probe_failure_resets_consecutive_count(self, tmp_path):
        io = FaultInjector(seed=1)
        supervisor, db = self.boot(tmp_path, io=io, heal_after_probes=2)
        db.health.mark_degraded("test")
        assert supervisor.probe()
        io.inject("probe.write", "eio")
        assert supervisor.probe() is False  # resets the streak
        assert supervisor.consecutive_probe_ok == 0
        assert db.health.state == DEGRADED
        supervisor.stop()

    def test_heal_breaker_stops_thrashing(self, tmp_path):
        io = FaultInjector(seed=1)
        clock = {"now": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=2, cooldown=60.0, clock=lambda: clock["now"]
        )
        supervisor, db = self.boot(
            tmp_path, io=io, heal_breaker=breaker, heal_after_probes=1,
            fsync_retry=fast_retry(max_attempts=2),
        )
        db.execute("CREATE TABLE t (a INTEGER)")
        io.inject(SITE_LOG_FSYNC, "eio", persistent=True)
        with pytest.raises(DurabilityError):
            db.execute("INSERT INTO t VALUES (1)")
        # disk still broken for snapshots too: heals fail, breaker opens
        io.inject(SITE_SNAPSHOT_WRITE, "eio", persistent=True)
        assert supervisor.try_heal() is False
        assert supervisor.try_heal() is False
        assert breaker.state == "open"
        attempted = supervisor.heals_attempted
        assert supervisor.try_heal() is False  # refused, no attempt
        assert supervisor.heals_attempted == attempted
        assert db.health.state == DEGRADED
        supervisor.stop(final_sync=False)

    def test_liveness_and_readiness(self, tmp_path):
        supervisor, db = self.boot(tmp_path)
        assert supervisor.liveness()
        assert supervisor.readiness() == {"reads": True, "writes": True}
        db.health.mark_degraded("test")
        assert supervisor.liveness()
        assert supervisor.readiness() == {"reads": True, "writes": False}
        db.health.transition(FAILED, "test")
        assert not supervisor.liveness()
        assert supervisor.readiness() == {"reads": False, "writes": False}
        supervisor.stop(final_sync=False)

    def test_status_shape(self, tmp_path):
        supervisor, _db = self.boot(tmp_path)
        status = supervisor.status()
        assert status["health"]["state"] == HEALTHY
        assert status["readiness"] == {"reads": True, "writes": True}
        assert status["checkpoints"] == {"taken": 0, "failed": 0}
        assert status["heal"]["breaker"]["state"] == "closed"
        supervisor.stop()


# ---------------------------------------------------------------------------
# end-to-end over the wire
# ---------------------------------------------------------------------------


class TestWireHealth:
    @pytest.fixture
    def supervised(self, tmp_path):
        supervisor = Supervisor(str(tmp_path))
        supervisor.start()
        server = Server(supervisor.database, supervisor=supervisor).start()
        try:
            with Client(*server.address) as client:
                yield supervisor, server, client
        finally:
            server.shutdown(drain=False, timeout=10)
            supervisor.stop(final_sync=False)

    def test_health_message_healthy(self, supervised):
        _supervisor, _server, client = supervised
        info = client.health()
        assert info["state"] == "healthy"
        assert info["liveness"] is True
        assert info["readiness"] == {"reads": True, "writes": True}
        assert info["supervisor"]["heal"]["breaker"]["state"] == "closed"

    def test_degraded_write_rejected_with_stable_code(self, supervised):
        supervisor, _server, client = supervised
        client.execute("CREATE TABLE t (a INTEGER)")
        client.execute("INSERT INTO t VALUES (1)")
        supervisor.database.health.mark_degraded(
            "test-induced", error=OSError(errno.EIO, "eio")
        )
        with pytest.raises(RemoteError) as exc:
            client.execute("INSERT INTO t VALUES (2)")
        assert exc.value.code == "DEGRADED"
        # reads keep flowing on the same connection
        assert client.execute("SELECT COUNT(*) FROM t").scalar() == 1
        info = client.health()
        assert info["state"] == "degraded"
        assert info["readiness"] == {"reads": True, "writes": False}
        assert info["liveness"] is True

    def test_hello_ok_carries_health(self, supervised):
        supervisor, server, _client = supervised
        supervisor.database.health.mark_degraded("test")
        with Client(*server.address) as fresh:
            # the handshake already told the client the node is degraded
            assert fresh.health()["state"] == "degraded"

    def test_durability_error_has_stable_code(self, tmp_path):
        io = FaultInjector(seed=1)
        db, _log = make_logged_db(tmp_path, io=io)
        server = Server(db).start()
        try:
            with Client(*server.address) as client:
                client.execute("CREATE TABLE t (a INTEGER)")
                io.inject(SITE_LOG_WRITE, "enospc", persistent=True)
                with pytest.raises(RemoteError) as exc:
                    client.execute("INSERT INTO t VALUES (1)")
                assert exc.value.code == "DURABILITY_ERROR"
                with pytest.raises(RemoteError) as exc:
                    client.execute("INSERT INTO t VALUES (2)")
                assert exc.value.code == "DEGRADED"
        finally:
            server.shutdown(drain=False, timeout=10)


class TestClientBackoff:
    def test_overloaded_retried_under_policy(self):
        client = Client("127.0.0.1", 1, retry_policy=fast_retry(max_attempts=4))
        calls = {"n": 0}

        def transport(message, retry, until):
            calls["n"] += 1
            if calls["n"] < 3:
                raise RemoteError("OVERLOADED", "queue full")
            return [{"type": "PONG"}]

        client._attempt = transport
        assert client.ping()
        assert client.stats["overloaded_retries"] == 2
        assert client.stats["overloaded_gave_up"] == 0

    def test_overloaded_gives_up_after_max_attempts(self):
        client = Client("127.0.0.1", 1, retry_policy=fast_retry(max_attempts=3))

        def transport(message, retry, until):
            raise RemoteError("OVERLOADED", "queue full")

        client._attempt = transport
        with pytest.raises(RemoteError) as exc:
            client.ping()
        assert exc.value.code == "OVERLOADED"
        assert client.stats["overloaded_retries"] == 2
        assert client.stats["overloaded_gave_up"] == 1

    def test_other_remote_errors_not_retried(self):
        client = Client("127.0.0.1", 1, retry_policy=fast_retry(max_attempts=5))
        calls = {"n": 0}

        def transport(message, retry, until):
            calls["n"] += 1
            raise RemoteError("PARSE_ERROR", "bad sql")

        client._attempt = transport
        with pytest.raises(RemoteError):
            client.ping()
        assert calls["n"] == 1


# ---------------------------------------------------------------------------
# shell \health
# ---------------------------------------------------------------------------


class TestShellHealth:
    def render(self, **kwargs):
        import io as io_module

        from repro.shell import Shell

        out = io_module.StringIO()
        shell = Shell(out=out, **kwargs)
        shell._command("\\health")
        return out.getvalue()

    def test_local_healthy(self):
        text = self.render(database=Database())
        assert "state       healthy" in text
        assert "writes      accepted" in text

    def test_local_degraded_shows_error(self):
        db = Database()
        db.health.mark_degraded(
            "disk refused", error=OSError(errno.ENOSPC, "disk full")
        )
        text = self.render(database=db)
        assert "state       degraded" in text
        assert "rejected" in text
        assert "disk full" in text

    def test_supervised_shows_counters(self, tmp_path):
        supervisor = Supervisor(str(tmp_path))
        db = supervisor.start()
        db.execute("CREATE TABLE t (a INTEGER)")
        supervisor.checkpoint()
        supervisor.probe()
        text = self.render(database=db, supervisor=supervisor)
        assert "checkpoints taken=1" in text
        assert "probes      run=1" in text
        assert "breaker=closed" in text
        supervisor.stop()

    def test_remote_health(self, tmp_path):
        supervisor = Supervisor(str(tmp_path))
        supervisor.start()
        server = Server(supervisor.database, supervisor=supervisor).start()
        try:
            with Client(*server.address) as client:
                text = self.render(client=client)
                assert "state       healthy" in text
                assert "readiness   reads=True writes=True" in text
        finally:
            server.shutdown(drain=False, timeout=10)
            supervisor.stop()
