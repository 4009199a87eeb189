"""Property-style test: command-log replay is deterministic.

Replication's whole correctness story rests on this invariant — the
same logged workload applied to the same starting state must produce
the same database, *including* the derived graph-view topologies. Two
independent replays of one randomly generated (but seeded) workload
must therefore agree digest-for-digest; if this ever breaks, replicas
would diverge from their primary without any fault being injected.
"""

import random

import pytest

from repro import Database
from repro.core.command_log import enable_command_log, replay_log
from repro.replication import database_digest


def generate_workload(seed, statements=120):
    """A seeded random mix of DML over relational + graph schema."""
    rng = random.Random(seed)
    sqls = [
        "CREATE TABLE people (id INT PRIMARY KEY, name VARCHAR, age INT)",
        "CREATE TABLE knows (id INT PRIMARY KEY, src INT, dst INT, w INT)",
        "CREATE DIRECTED GRAPH VIEW social "
        "VERTEXES(ID = id, NAME = name, AGE = age) FROM people "
        "EDGES(ID = id, FROM = src, TO = dst, W = w) FROM knows",
    ]
    people = []
    edges = []
    next_person = 1
    next_edge = 1
    for _ in range(statements):
        action = rng.random()
        if action < 0.45 or not people:
            sqls.append(
                f"INSERT INTO people VALUES ({next_person}, "
                f"'p{next_person}', {rng.randint(18, 90)})"
            )
            people.append(next_person)
            next_person += 1
        elif action < 0.70 and len(people) >= 2:
            src, dst = rng.sample(people, 2)
            sqls.append(
                f"INSERT INTO knows VALUES ({next_edge}, {src}, {dst}, "
                f"{rng.randint(1, 9)})"
            )
            edges.append(next_edge)
            next_edge += 1
        elif action < 0.85:
            victim = rng.choice(people)
            sqls.append(
                f"UPDATE people SET age = {rng.randint(18, 90)} "
                f"WHERE id = {victim}"
            )
        elif edges and action < 0.95:
            edge = edges.pop(rng.randrange(len(edges)))
            sqls.append(f"DELETE FROM knows WHERE id = {edge}")
        else:
            victim = rng.choice(people)
            if len(people) > 1:
                people.remove(victim)
                sqls.append(
                    f"DELETE FROM knows WHERE src = {victim} "
                    f"OR dst = {victim}"
                )
                sqls.append(f"DELETE FROM people WHERE id = {victim}")
    return sqls


@pytest.mark.parametrize("seed", [7, 1234, 987654])
def test_replaying_the_same_log_twice_yields_identical_state(
    tmp_path, seed
):
    db = Database()
    log = enable_command_log(db, str(tmp_path / "workload.log"))
    for sql in generate_workload(seed):
        db.execute(sql)
    original = database_digest(db)

    first = database_digest(replay_log(str(log.path), Database()))
    second = database_digest(replay_log(str(log.path), Database()))

    # full dicts, not just the combined hash: a mismatch then names the
    # exact table or graph view that replayed differently
    assert first == second
    assert first == original
    assert first["graph_views"], "workload must exercise a graph view"


def test_replay_determinism_with_framed_log(tmp_path):
    """The replication framing (epoch/sequence prefixes) must not
    change what replay produces."""
    seed = 42
    plain_db = Database()
    enable_command_log(plain_db, str(tmp_path / "plain.log"))
    framed_db = Database()
    enable_command_log(framed_db, str(tmp_path / "framed.log"), epoch=3)
    for sql in generate_workload(seed, statements=60):
        plain_db.execute(sql)
        framed_db.execute(sql)
    replayed_plain = replay_log(str(tmp_path / "plain.log"), Database())
    replayed_framed = replay_log(str(tmp_path / "framed.log"), Database())
    assert database_digest(replayed_plain) == database_digest(replayed_framed)
    report = replayed_framed.recovery_report
    assert report.last_epoch == 3
    assert report.last_sequence == report.statements_replayed


def test_warm_cache_primary_and_replaying_replica_agree(tmp_path):
    """A primary whose DML runs from cached plans, and a replica that
    replays its log — where the same texts meet a cache of their own —
    end in the same state."""
    from repro.observability.metrics import (
        get_registry,
        metrics_enabled,
        set_enabled,
    )

    was_enabled = metrics_enabled()
    set_enabled(True)
    try:
        hits = get_registry().value("repro_statement_cache_hits_total") or 0
        primary = Database()
        log = enable_command_log(primary, str(tmp_path / "primary.log"), epoch=1)
        workload = generate_workload(2024)
        for sql in workload:
            primary.execute(sql)
        warm = get_registry().value("repro_statement_cache_hits_total") - hits
        assert warm > len(workload) // 2, "the primary's cache must be warm"
        log.detach()
    finally:
        set_enabled(was_enabled)
    replica = Database()
    replica.set_role("replica")
    replay_log(str(log.path), replica)
    assert database_digest(replica) == database_digest(primary)
