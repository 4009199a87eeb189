"""Chaos suite: replication under message faults and process crashes.

Every scenario drives the cluster through a lossy, reordering,
duplicating, corrupting network (fixed seed — failures replay
bit-for-bit) and kills a node at every registered crash point. The
contract under test is the one the module documents:

* an **acknowledged** write (``manager.execute`` returned) is never
  lost — after any single crash plus failover it is present on the
  serving primary and on surviving replicas;
* an unacknowledged write may be lost or may survive, but the client
  was told its outcome was unknown (it got an exception);
* a diverged replica detects the digest mismatch, refuses reads, and
  re-bootstraps until its digest matches again.
"""

import pytest

from repro.errors import (
    DivergenceError,
    FencedError,
    ReplicationError,
)
from repro.replication import (
    Primary,
    Replica,
    ReplicationManager,
    combined_digest,
)
from repro.resilience.faults import SITES, FaultInjector, SimulatedCrash

SEED = 0xC0FFEE

#: Moderate, always-on network chaos for every scenario.
NETWORK_FAULTS = dict(
    drop=0.05, duplicate=0.05, reorder=0.05, corrupt=0.03, delay=0.05
)


def build_cluster(tmp_path, seed=SEED, replicas=2, **faults):
    injector = FaultInjector(seed=seed, **faults)
    primary = Primary(
        str(tmp_path / "primary.log"), injector=injector, digest_interval=3
    )
    manager = ReplicationManager(
        primary,
        data_dir=str(tmp_path),
        ack_replicas=1,
        heartbeat_timeout=4,
        max_await_steps=500,
        injector=injector,
    )
    for i in range(1, replicas + 1):
        manager.add_replica(
            Replica(f"r{i}", str(tmp_path), injector=injector)
        )
    manager.step(2)
    return manager, injector


class Client:
    """Tracks which statements the cluster actually acknowledged."""

    def __init__(self, manager):
        self.manager = manager
        self.acked = []
        self.unknown = []

    def attempt(self, sql):
        try:
            self.manager.execute(sql)
        except (SimulatedCrash, ReplicationError, FencedError):
            self.unknown.append(sql)
            return False
        self.acked.append(sql)
        return True


def acked_ids(client):
    return sorted(
        int(sql.split("(")[1].split(",")[0].rstrip(")"))
        for sql in client.acked
        if sql.startswith("INSERT")
    )


@pytest.mark.parametrize(
    "site",
    sorted(name for name, site in SITES.items() if site.family == "replication"),
)
def test_acked_writes_survive_crash_at_every_site(tmp_path, site):
    manager, injector = build_cluster(tmp_path, **NETWORK_FAULTS)
    client = Client(manager)
    assert client.attempt(
        "CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)"
    ), "setup write must succeed before chaos starts"
    for i in range(3):
        client.attempt(f"INSERT INTO t VALUES ({i}, 'pre{i}')")

    injector.inject(site, "crash")
    for i in range(3, 12):
        client.attempt(f"INSERT INTO t VALUES ({i}, 'mid{i}')")
    assert injector.fired == [(site, "crash")], "the armed crash point must fire"

    # let detection, failover and reconnection run their course
    manager.step(40)

    if site.startswith("primary."):
        # the primary died: a replica must have been promoted
        assert manager.failovers, "expected a failover"
        assert manager.primary.name != "primary"
        assert manager.epoch > 1
    else:
        # a replica died: the primary survives, the replica reconnects
        assert not manager.failovers
        assert manager.primary.name == "primary"

    # the serving primary answers reads and holds every acked write
    rows = manager.primary.db.execute("SELECT id FROM t").rows
    present = sorted(r[0] for r in rows)
    missing = [i for i in acked_ids(client) if i not in present]
    assert not missing, f"acknowledged writes lost after {site}: {missing}"

    # and the cluster still takes writes after the incident
    assert client.attempt("INSERT INTO t VALUES (100, 'post')")
    manager.step(30)

    # every healthy replica converges to the primary and serves reads
    target = combined_digest(manager.primary.db)
    healthy = [
        r
        for r in manager.replicas.values()
        if not r.crashed and not r.quarantined
    ]
    assert healthy, "at least one replica must end healthy"
    for replica in healthy:
        assert combined_digest(replica.db) == target
        replica_ids = sorted(
            row[0] for row in replica.query("SELECT id FROM t").rows
        )
        assert 100 in replica_ids
        assert not [i for i in acked_ids(client) if i not in replica_ids]


def test_chaos_runs_are_deterministic(tmp_path):
    """Same seed, same workload → identical fault trace and state."""
    traces = []
    for run in ("a", "b"):
        directory = tmp_path / run
        directory.mkdir()
        manager, injector = build_cluster(directory, **NETWORK_FAULTS)
        client = Client(manager)
        client.attempt("CREATE TABLE t (id INT PRIMARY KEY)")
        for i in range(10):
            client.attempt(f"INSERT INTO t VALUES ({i})")
        manager.step(25)
        traces.append(
            (
                dict(injector.counts),
                combined_digest(manager.primary.db),
                manager.tick,
                client.acked,
            )
        )
    assert traces[0] == traces[1]
    assert sum(traces[0][0].values()) > 0, "chaos must actually happen"
    # pinned across commits: a reordered or extra RNG draw moves these
    counts, _digest, tick, acked = traces[0]
    assert counts == {
        "drop": 11, "duplicate": 9, "reorder": 10, "corrupt": 4, "delay": 17,
        "crash": 0, "torn": 0, "eio": 0, "enospc": 0,
    }
    assert tick == 50
    assert len(acked) == 11


def test_heavy_loss_still_converges(tmp_path):
    manager, injector = build_cluster(
        tmp_path, replicas=1, drop=0.3, delay=0.2, duplicate=0.2, corrupt=0.1
    )
    client = Client(manager)
    assert client.attempt("CREATE TABLE t (id INT PRIMARY KEY)")
    for i in range(15):
        client.attempt(f"INSERT INTO t VALUES ({i})")
    manager.step(60)
    replica = manager.replicas["r1"]
    assert injector.counts["drop"] > 0
    assert replica.applied_sequence == manager.primary.log.last_sequence
    assert combined_digest(replica.db) == combined_digest(manager.primary.db)


def test_corrupted_ship_records_are_rejected_not_applied(tmp_path):
    manager, injector = build_cluster(tmp_path, replicas=1, corrupt=0.4)
    client = Client(manager)
    client.attempt("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)")
    for i in range(10):
        client.attempt(f"INSERT INTO t VALUES ({i}, 'v{i}')")
    manager.step(40)
    replica = manager.replicas["r1"]
    assert injector.counts["corrupt"] > 0
    assert replica.rejected_corrupt > 0, "corruption must have been caught"
    # despite heavy corruption, only verbatim records were applied
    assert combined_digest(replica.db) == combined_digest(manager.primary.db)


def test_diverged_replica_quarantines_and_rebootstraps_under_chaos(tmp_path):
    manager, injector = build_cluster(tmp_path, replicas=2, **NETWORK_FAULTS)
    manager.primary.digest_interval = 1
    client = Client(manager)
    client.attempt("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)")
    for i in range(5):
        client.attempt(f"INSERT INTO t VALUES ({i}, 'v{i}')")
    manager.step(4)
    rogue = manager.replicas["r1"]
    # divergence: a write that never went through replication
    rogue.db.apply_replicated("UPDATE t SET v = 'rogue' WHERE id = 0")
    # write without awaiting acks, then tick one step at a time so the
    # quarantined window is observable from outside
    for i in range(5, 12):
        manager.primary.execute(f"INSERT INTO t VALUES ({i}, 'v{i}')")
    refused_reads = False
    for _ in range(80):
        manager.step(1)
        if rogue.quarantined:
            with pytest.raises(DivergenceError, match="refuses reads"):
                rogue.query("SELECT * FROM t")
            refused_reads = True
            break
    manager.step(40)
    assert rogue.quarantines >= 1, "divergence must have been detected"
    assert refused_reads, "the quarantined window must refuse reads"
    assert not rogue.quarantined, "re-bootstrap must heal the replica"
    assert rogue.bootstraps >= 1
    assert combined_digest(rogue.db) == combined_digest(manager.primary.db)
    # the healthy replica was never quarantined by someone else's rogue write
    assert manager.replicas["r2"].quarantines == 0


def test_double_fault_primary_then_promoted_replica(tmp_path):
    """Two failovers in a row: the epoch fence keeps every survivor on
    the latest primary and acked writes survive both hops."""
    manager, injector = build_cluster(tmp_path, replicas=2, **NETWORK_FAULTS)
    client = Client(manager)
    client.attempt("CREATE TABLE t (id INT PRIMARY KEY)")
    for i in range(5):
        client.attempt(f"INSERT INTO t VALUES ({i})")
    manager.primary.crashed = True
    manager.step(20)
    assert manager.epoch == 2
    for i in range(5, 8):
        client.attempt(f"INSERT INTO t VALUES ({i})")
    manager.primary.crashed = True
    manager.step(20)
    assert manager.epoch == 3
    rows = sorted(r[0] for r in manager.primary.db.execute("SELECT id FROM t").rows)
    missing = [i for i in acked_ids(client) if i not in rows]
    assert not missing, f"acked writes lost across double failover: {missing}"
    assert client.attempt("INSERT INTO t VALUES (50)")
