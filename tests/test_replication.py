"""Tests for primary–replica replication (log shipping, failover,
fencing, divergence detection) under a *clean* network; the lossy and
crashing scenarios live in ``test_chaos.py``."""

import json

import pytest

from repro.core.command_log import read_records
from repro.core.snapshot import load_snapshot, save_snapshot
from repro.errors import (
    DivergenceError,
    FencedError,
    ReadOnlyError,
    ReplicationError,
)
from repro.replication import (
    Primary,
    Replica,
    ReplicationManager,
    combined_digest,
    database_digest,
)


def make_cluster(tmp_path, replicas=2, **manager_kwargs):
    primary = Primary(str(tmp_path / "primary.log"))
    manager = ReplicationManager(
        primary, data_dir=str(tmp_path), **manager_kwargs
    )
    for i in range(1, replicas + 1):
        manager.add_replica(Replica(f"r{i}", str(tmp_path)))
    manager.step(2)
    return manager


WORKLOAD = [
    "CREATE TABLE accounts (id INT PRIMARY KEY, owner VARCHAR, cents INT)",
    "INSERT INTO accounts VALUES (1, 'ada', 1000)",
    "INSERT INTO accounts VALUES (2, 'bob', 500)",
    "UPDATE accounts SET cents = 900 WHERE id = 1",
    "DELETE FROM accounts WHERE id = 2",
]


class TestLogShipping:
    def test_replicas_converge_on_workload(self, tmp_path):
        manager = make_cluster(tmp_path)
        for sql in WORKLOAD:
            manager.execute(sql)
        manager.step(4)
        digests = {
            combined_digest(node.db)
            for node in [manager.primary, *manager.replicas.values()]
        }
        assert len(digests) == 1

    def test_replica_serves_reads(self, tmp_path):
        manager = make_cluster(tmp_path, replicas=1)
        for sql in WORKLOAD:
            manager.execute(sql)
        manager.step(4)
        replica = manager.replicas["r1"]
        assert replica.query("SELECT owner, cents FROM accounts").rows == [
            ("ada", 900)
        ]

    def test_replica_rejects_writes(self, tmp_path):
        manager = make_cluster(tmp_path, replicas=1)
        manager.execute("CREATE TABLE t (a INT PRIMARY KEY)")
        manager.step(4)
        replica = manager.replicas["r1"]
        with pytest.raises(ReadOnlyError, match="read-only replica"):
            replica.query("INSERT INTO t VALUES (1)")
        # reads still fine afterwards
        assert replica.query("SELECT * FROM t").rows == []

    def test_graph_views_replicate_with_topology(self, tmp_path):
        manager = make_cluster(tmp_path, replicas=1)
        for sql in [
            "CREATE TABLE vs (vid INT PRIMARY KEY, name VARCHAR)",
            "CREATE TABLE es (eid INT PRIMARY KEY, src INT, dst INT)",
            "INSERT INTO vs VALUES (1, 'x')",
            "INSERT INTO vs VALUES (2, 'y')",
            "INSERT INTO es VALUES (10, 1, 2)",
            "CREATE DIRECTED GRAPH VIEW g "
            "VERTEXES(ID = vid, NAME = name) FROM vs "
            "EDGES(ID = eid, FROM = src, TO = dst) FROM es",
            "INSERT INTO vs VALUES (3, 'z')",
            "INSERT INTO es VALUES (11, 2, 3)",
        ]:
            manager.execute(sql)
        manager.step(4)
        replica = manager.replicas["r1"]
        view = replica.db.catalog.graph_view("g")
        assert view.topology.vertex_count == 3
        assert view.topology.edge_count == 2
        assert (
            view.topology_digest()
            == manager.primary.db.catalog.graph_view("g").topology_digest()
        )

    def test_sequence_numbers_are_monotonic_and_framed(self, tmp_path):
        manager = make_cluster(tmp_path, replicas=1)
        for sql in WORKLOAD:
            manager.execute(sql)
        records = list(read_records(str(tmp_path / "primary.log")))
        assert [r.sequence for r in records] == list(
            range(1, len(WORKLOAD) + 1)
        )
        assert all(r.epoch == 1 for r in records)

    def test_semi_sync_ack_waits_for_replica(self, tmp_path):
        manager = make_cluster(tmp_path, replicas=2, ack_replicas=2)
        manager.execute("CREATE TABLE t (a INT PRIMARY KEY)")
        # returning from execute implies both replicas applied it
        for replica in manager.replicas.values():
            assert replica.applied_sequence == 1

    def test_rolled_back_statements_never_ship(self, tmp_path):
        manager = make_cluster(tmp_path, replicas=1)
        manager.execute("CREATE TABLE t (a INT PRIMARY KEY)")
        primary_db = manager.primary.db
        primary_db.begin()
        primary_db.execute("INSERT INTO t VALUES (1)")
        primary_db.rollback()
        manager.execute("INSERT INTO t VALUES (2)")
        manager.step(4)
        replica = manager.replicas["r1"]
        assert replica.query("SELECT a FROM t").rows == [(2,)]


class TestBootstrap:
    def test_late_joining_replica_bootstraps(self, tmp_path):
        manager = make_cluster(tmp_path, replicas=1)
        for sql in WORKLOAD:
            manager.execute(sql)
        # the primary truncates its log after a snapshot, so the new
        # replica cannot be served by retransmission alone
        save_snapshot(manager.primary.db, str(tmp_path / "snap.json"))
        manager.primary.log.truncate()
        manager.execute("INSERT INTO accounts VALUES (3, 'eve', 10)")
        late = Replica("late", str(tmp_path))
        manager.add_replica(late)
        manager.step(12)
        assert late.bootstraps >= 1
        assert combined_digest(late.db) == combined_digest(manager.primary.db)

    def test_replica_restart_recovers_from_disk(self, tmp_path):
        manager = make_cluster(tmp_path, replicas=1)
        for sql in WORKLOAD:
            manager.execute(sql)
        manager.step(4)
        replica = manager.replicas["r1"]
        seen = replica.applied_sequence
        replica.crashed = True
        manager.step(1)
        replica.restart()
        # recovery replays the durable applied log; nothing was lost
        assert replica.applied_sequence == seen
        assert combined_digest(replica.db) == combined_digest(
            manager.primary.db
        )

    def test_bootstrap_snapshot_carries_position_and_digest(self, tmp_path):
        manager = make_cluster(tmp_path, replicas=0)
        for sql in WORKLOAD:
            manager.execute(sql)
        document = manager.primary.bootstrap_document()
        section = document["replication"]
        assert section["sequence"] == len(WORKLOAD)
        assert section["epoch"] == 1
        assert section["digest"] == combined_digest(manager.primary.db)

    def test_snapshot_replication_section_roundtrips(self, tmp_path):
        manager = make_cluster(tmp_path, replicas=0)
        manager.execute("CREATE TABLE t (a INT PRIMARY KEY)")
        path = tmp_path / "snap.json"
        save_snapshot(
            manager.primary.db,
            str(path),
            replication={"epoch": 1, "sequence": 1},
        )
        assert json.loads(path.read_text())["replication"] == {
            "epoch": 1,
            "sequence": 1,
        }
        restored = load_snapshot(str(path))
        assert combined_digest(restored) == combined_digest(
            manager.primary.db
        )


class TestFailover:
    def test_heartbeat_timeout_promotes_most_caught_up(self, tmp_path):
        manager = make_cluster(tmp_path, replicas=2, heartbeat_timeout=3)
        for sql in WORKLOAD:
            manager.execute(sql)
        manager.step(4)
        old = manager.primary
        old.crashed = True
        manager.step(8)
        assert manager.primary is not old
        assert manager.primary.epoch == 2
        assert manager.failovers and manager.failovers[0][1] == "primary"

    def test_new_primary_serves_writes_and_continues_sequence(self, tmp_path):
        manager = make_cluster(tmp_path, replicas=2, heartbeat_timeout=3)
        for sql in WORKLOAD:
            manager.execute(sql)
        manager.step(4)
        head = manager.primary.log.last_sequence
        manager.primary.crashed = True
        manager.step(8)
        manager.execute("INSERT INTO accounts VALUES (7, 'g', 7)")
        # the global log position survives the epoch change
        assert manager.primary.log.last_sequence == head + 1
        manager.step(4)
        survivor = next(iter(manager.replicas.values()))
        assert combined_digest(survivor.db) == combined_digest(
            manager.primary.db
        )

    def test_old_primary_is_fenced(self, tmp_path):
        manager = make_cluster(tmp_path, replicas=1, heartbeat_timeout=3)
        manager.execute("CREATE TABLE t (a INT PRIMARY KEY)")
        old = manager.primary
        old.crashed = True
        manager.step(8)
        old.restart()
        with pytest.raises(FencedError, match="deposed"):
            old.execute("INSERT INTO t VALUES (1)")

    def test_stale_epoch_messages_are_discarded(self, tmp_path):
        manager = make_cluster(tmp_path, replicas=2, heartbeat_timeout=3)
        manager.execute("CREATE TABLE t (a INT PRIMARY KEY)")
        manager.step(2)
        manager.promote()
        replica = next(iter(manager.replicas.values()))
        before = replica.rejected_stale_epoch
        from repro.replication import Message

        replica.inbound.send(Message("heartbeat", 1, {"sequence": 99}))
        manager.step(1)
        assert replica.rejected_stale_epoch == before + 1
        assert replica.primary_head != 99

    def test_deposed_primary_rejoins_as_replica_with_backoff(self, tmp_path):
        manager = make_cluster(tmp_path, replicas=1, heartbeat_timeout=3)
        for sql in WORKLOAD:
            manager.execute(sql)
        manager.promote()  # planned switchover: old node is healthy
        manager.step(20)
        rejoin_attempts = [
            e for e in manager.reconnect_log if e["kind"] == "rejoin"
        ]
        assert rejoin_attempts
        assert "primary" in manager.replicas
        rejoined = manager.replicas["primary"]
        manager.execute("INSERT INTO accounts VALUES (9, 'i', 9)")
        manager.step(20)
        assert combined_digest(rejoined.db) == combined_digest(
            manager.primary.db
        )

    def test_crashed_replica_reconnects_with_exponential_backoff(
        self, tmp_path
    ):
        manager = make_cluster(
            tmp_path, replicas=1, heartbeat_timeout=100, backoff_base=2
        )
        replica = manager.replicas["r1"]
        delays = []
        for _ in range(3):
            replica.crashed = True
            manager.step(1)
            entry = manager.reconnect_log[-1]
            assert entry["name"] == "r1" and entry["kind"] == "restart"
            delays.append(entry["delay"])
            manager.step(entry["delay"] + 1)
            assert not replica.crashed
        assert delays == [2, 4, 8]

    def test_manual_promote_error_cases(self, tmp_path):
        manager = make_cluster(tmp_path, replicas=1)
        with pytest.raises(ReplicationError, match="already the primary"):
            manager.promote("primary")
        with pytest.raises(ReplicationError, match="no such replica"):
            manager.promote("ghost")
        manager.replicas["r1"].crashed = True
        with pytest.raises(ReplicationError, match="down"):
            manager.promote("r1")
        with pytest.raises(ReplicationError, match="no healthy replica"):
            manager.promote()

    def test_applied_sequence_tie_breaks_deterministically(self, tmp_path):
        """Two equally-caught-up candidates: the election must be a
        function of cluster state, not dict order — the highest
        ``(applied_sequence, name)`` pair wins."""
        manager = make_cluster(tmp_path, replicas=2, heartbeat_timeout=3)
        for sql in WORKLOAD:
            manager.execute(sql)
        manager.step(4)
        r1, r2 = manager.replicas["r1"], manager.replicas["r2"]
        assert r1.applied_sequence == r2.applied_sequence  # a real tie
        manager.primary.crashed = True
        manager.step(8)
        assert manager.primary.name == "r2"  # name breaks the tie, always

    def test_most_caught_up_wins_over_name_order(self, tmp_path):
        """The tiebreaker never outranks the log position: a
        further-behind replica loses even with the greater name."""
        manager = make_cluster(
            tmp_path, replicas=2, heartbeat_timeout=100, backoff_base=50
        )
        manager.execute("CREATE TABLE t (a INT PRIMARY KEY)")
        manager.step(4)
        r2 = manager.replicas["r2"]
        r2.crashed = True  # r2 misses the next writes (backoff keeps it down)
        manager.execute("INSERT INTO t VALUES (1)")
        manager.execute("INSERT INTO t VALUES (2)")
        manager.step(1)  # r1 applies the tail before r2 can reconnect
        r1 = manager.replicas["r1"]
        assert r1.applied_sequence > r2.applied_sequence
        r2.crashed = False  # healthy again, but behind
        promoted = manager.promote()
        assert promoted.name == "r1"

    def test_auto_promote_skips_quarantined_candidate(self, tmp_path):
        """A quarantined replica's state is suspect by its own digest —
        it can never win an election, even as the only caught-up node
        with the winning name."""
        manager = make_cluster(tmp_path, replicas=2, heartbeat_timeout=3)
        for sql in WORKLOAD:
            manager.execute(sql)
        manager.step(4)
        manager.replicas["r2"].quarantined = True  # would win the tie
        manager.primary.crashed = True
        manager.step(8)
        assert manager.primary.name == "r1"

    def test_manual_promote_rejects_quarantined_candidate(self, tmp_path):
        manager = make_cluster(tmp_path, replicas=2)
        manager.replicas["r2"].quarantined = True
        with pytest.raises(ReplicationError, match="quarantined"):
            manager.promote("r2")

    def test_back_to_back_failovers_rejoin_and_converge(self, tmp_path):
        """Two failovers in a row: each deposed primary rejoins as a
        replica of the next epoch, and the whole cluster converges on
        one history with strictly increasing epochs."""
        manager = make_cluster(tmp_path, replicas=2, heartbeat_timeout=3)
        for sql in WORKLOAD:
            manager.execute(sql)
        manager.step(4)
        first = manager.primary
        second = manager.promote()  # failover #1
        assert second.epoch == first.epoch + 1
        manager.step(25)  # let the deposed primary rejoin
        assert first.name in manager.replicas
        manager.execute("INSERT INTO accounts VALUES (20, 'x', 1)")
        manager.step(4)
        third = manager.promote()  # failover #2, immediately after
        assert third.epoch == second.epoch + 1
        assert third.name != second.name
        manager.step(25)  # both deposed primaries now follow `third`
        assert second.name in manager.replicas
        manager.execute("INSERT INTO accounts VALUES (21, 'y', 2)")
        manager.step(25)
        expected = combined_digest(manager.primary.db)
        for replica in manager.replicas.values():
            assert combined_digest(replica.db) == expected
        rows = manager.primary.db.execute(
            "SELECT id FROM accounts ORDER BY id"
        ).rows
        assert (20,) in rows and (21,) in rows


class TestDivergence:
    def diverge(self, manager, replica):
        """Mutate the replica behind replication's back."""
        replica.db.apply_replicated(
            "UPDATE accounts SET cents = 1 WHERE id = 1"
        )

    def test_diverged_replica_quarantines_and_refuses_reads(self, tmp_path):
        manager = make_cluster(tmp_path, replicas=1, heartbeat_timeout=100)
        manager.primary.digest_interval = 1
        for sql in WORKLOAD:
            manager.execute(sql)
        manager.step(2)
        replica = manager.replicas["r1"]
        self.diverge(manager, replica)
        # step one tick at a time so the quarantined window is observable
        for _ in range(30):
            manager.step(1)
            if replica.quarantined:
                break
        assert replica.quarantined
        assert replica.quarantines == 1
        with pytest.raises(DivergenceError, match="refuses reads"):
            replica.query("SELECT * FROM accounts")

    def test_quarantined_replica_rebootstraps_to_matching_digest(
        self, tmp_path
    ):
        manager = make_cluster(tmp_path, replicas=1, heartbeat_timeout=100)
        manager.primary.digest_interval = 1
        for sql in WORKLOAD:
            manager.execute(sql)
        manager.step(2)
        replica = manager.replicas["r1"]
        self.diverge(manager, replica)
        manager.step(30)
        assert replica.quarantines == 1
        assert not replica.quarantined
        assert replica.bootstraps >= 1
        assert combined_digest(replica.db) == combined_digest(
            manager.primary.db
        )
        # and it serves reads again
        assert replica.query("SELECT COUNT(*) FROM accounts").rows

    def test_digest_is_order_insensitive(self, tmp_path):
        a, b = Primary(str(tmp_path / "a.log")), Primary(str(tmp_path / "b.log"))
        a.db.execute("CREATE TABLE t (x INT PRIMARY KEY)")
        b.db.execute("CREATE TABLE t (x INT PRIMARY KEY)")
        for x in (1, 2, 3):
            a.db.execute(f"INSERT INTO t VALUES ({x})")
        for x in (3, 1, 2):
            b.db.execute(f"INSERT INTO t VALUES ({x})")
        assert combined_digest(a.db) == combined_digest(b.db)
        assert database_digest(a.db)["tables"]["t"] == (
            database_digest(b.db)["tables"]["t"]
        )
