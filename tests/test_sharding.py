"""End-to-end tests of the sharding subsystem: shard map, router,
scatter-gather, multi-shard writes, and failure semantics.

Everything network-facing runs real servers on ephemeral loopback
ports through :func:`repro.sharding.start_sharded` — the same wiring
``repro --router`` uses. The acceptance bar from the issue: a seeded
workload must produce identical answers on 1 shard and on 3 shards
(scans, aggregates, ORDER BY/LIMIT, graph PATHS), and single-shard
point queries must take the fast path, observable in the router's
routing counters.
"""

import random

import pytest

from repro.client import Client
from repro.core.database import Database
from repro.errors import CatalogError, DatabaseError, RemoteError
from repro.server import Server
from repro.sharding import (
    DEFAULT_SLOTS,
    ShardMap,
    bound_partition_keys,
    stable_hash,
    start_sharded,
    stop_sharded,
)
from repro.sql.parser import parse_statement
from repro.sql.render import render_statement


# ---------------------------------------------------------------------------
# shard map units
# ---------------------------------------------------------------------------


class TestStableHash:
    def test_process_stable_values(self):
        # Pinned CRC-32 values: these must never change across runs or
        # machines, or existing deployments would misplace every row.
        assert stable_hash(0) == stable_hash(0)
        assert stable_hash(7) == 626217675
        assert stable_hash("alice") == 77691481
        assert stable_hash(7) != stable_hash("7")

    def test_only_ints_and_strings_are_keys(self):
        from repro.errors import PlanningError

        for bad in (True, False, 1.5, None, (1,), b"x"):
            with pytest.raises(PlanningError):
                stable_hash(bad)

    def test_negative_ints_hash(self):
        assert stable_hash(-3) != stable_hash(3)


class TestShardMap:
    def test_round_robin_slot_table(self):
        shard_map = ShardMap(3)
        assert shard_map.slots == DEFAULT_SLOTS
        assert shard_map.slot_table[:6] == [0, 1, 2, 0, 1, 2]
        assert set(shard_map.slot_table) == {0, 1, 2}

    def test_shard_for_key_is_slot_indirected(self):
        shard_map = ShardMap(4)
        for key in (0, 1, 99, "x", "alice"):
            slot = stable_hash(key) % shard_map.slots
            assert shard_map.shard_for_key(key) == shard_map.slot_table[slot]

    def test_register_and_describe(self):
        shard_map = ShardMap(2)
        shard_map.register_table(
            parse_statement(
                "CREATE TABLE A (k INTEGER PRIMARY KEY) PARTITION BY k"
            )
        )
        shard_map.register_table(
            parse_statement("CREATE TABLE B (x INTEGER PRIMARY KEY)")
        )
        assert shard_map.is_partitioned("a")
        assert shard_map.partition_column("A") == "k"
        assert not shard_map.is_partitioned("B")
        described = shard_map.describe()
        assert described["tables"]["a"] == {
            "partition_by": "k", "broadcast": False,
        }
        assert described["tables"]["b"]["broadcast"] is True
        shard_map.drop_table("A")
        assert not shard_map.knows_table("a")


GRAPH_DDL = (
    "CREATE UNDIRECTED GRAPH VIEW G VERTEXES(ID = uId) FROM Users "
    "EDGES(ID = relId, FROM = uId, TO = uId2) FROM Rel"
)


class TestCoPartitioning:
    def _map_with(self, users_clause, rel_clause):
        shard_map = ShardMap(3)
        shard_map.register_table(parse_statement(
            f"CREATE TABLE Users (uId INTEGER PRIMARY KEY){users_clause}"
        ))
        shard_map.register_table(parse_statement(
            "CREATE TABLE Rel (relId INTEGER PRIMARY KEY, "
            f"uId INTEGER, uId2 INTEGER){rel_clause}"
        ))
        return shard_map

    def test_both_broadcast_is_legal(self):
        shard_map = self._map_with("", "")
        shard_map.register_graph_view(parse_statement(GRAPH_DDL))
        assert shard_map.graph_view_is_broadcast("G")

    def test_co_partitioned_by_source_vertex_is_legal(self):
        shard_map = self._map_with(" PARTITION BY uId", " PARTITION BY uId")
        shard_map.register_graph_view(parse_statement(GRAPH_DDL))
        assert not shard_map.graph_view_is_broadcast("G")

    def test_mixed_broadcast_and_partitioned_is_rejected(self):
        shard_map = self._map_with(" PARTITION BY uId", "")
        with pytest.raises(CatalogError, match="co-partitioned"):
            shard_map.register_graph_view(parse_statement(GRAPH_DDL))

    def test_vertex_partitioned_off_its_id_is_rejected(self):
        shard_map = ShardMap(3)
        shard_map.register_table(parse_statement(
            "CREATE TABLE Users (uId INTEGER PRIMARY KEY, age INTEGER) "
            "PARTITION BY age"
        ))
        shard_map.register_table(parse_statement(
            "CREATE TABLE Rel (relId INTEGER PRIMARY KEY, "
            "uId INTEGER, uId2 INTEGER) PARTITION BY uId"
        ))
        with pytest.raises(CatalogError, match="vertex ID column"):
            shard_map.register_graph_view(parse_statement(GRAPH_DDL))

    def test_edge_partitioned_off_from_is_rejected(self):
        shard_map = self._map_with(" PARTITION BY uId", " PARTITION BY uId2")
        with pytest.raises(CatalogError, match="FROM column"):
            shard_map.register_graph_view(parse_statement(GRAPH_DDL))


class TestPartitionByClause:
    def test_parse_render_round_trip(self):
        sql = "CREATE TABLE T (a INTEGER, b VARCHAR) PARTITION BY b"
        rendered = render_statement(parse_statement(sql))
        assert "PARTITION BY b" in rendered
        assert render_statement(parse_statement(rendered)) == rendered

    def test_engine_validates_partition_column(self):
        with pytest.raises(CatalogError, match="nosuch"):
            Database().execute(
                "CREATE TABLE T (a INTEGER PRIMARY KEY) PARTITION BY nosuch"
            )

    def test_engine_records_partition_column(self):
        db = Database()
        db.execute("CREATE TABLE T (a INTEGER PRIMARY KEY) PARTITION BY a")
        assert db.catalog.table("T").partition_by == "a"


class TestBoundPartitionKeys:
    def _keys(self, sql, column="k", table="t"):
        def partition_column_of(name):
            return column if name.lower() == table else None

        return bound_partition_keys(parse_statement(sql), partition_column_of)

    def test_point_select(self):
        assert self._keys("SELECT * FROM T WHERE k = 5") == [5]
        assert self._keys("SELECT * FROM T t2 WHERE t2.k = 'a'") == ["a"]
        assert self._keys("SELECT * FROM T WHERE 5 = k AND v > 2") == [5]

    def test_update_delete(self):
        assert self._keys("UPDATE T SET v = 1 WHERE k = 3") == [3]
        assert self._keys("DELETE FROM T WHERE k = -2") == [-2]

    def test_insert_rows(self):
        assert self._keys(
            "INSERT INTO T (k, v) VALUES (1, 'x'), (9, 'y')"
        ) == [1, 9]
        # No explicit column list: positions need the schema, so the
        # extractor stays conservative and the router resolves it.
        assert self._keys("INSERT INTO T VALUES (1, 'x')") is None

    def test_unbounded_statements(self):
        assert self._keys("SELECT * FROM T") is None
        assert self._keys("SELECT * FROM T WHERE k > 5") is None
        assert self._keys("SELECT * FROM T WHERE v = 5") is None
        assert self._keys("DELETE FROM T") is None
        assert self._keys("SELECT * FROM T, U WHERE T.k = 1") is None


# ---------------------------------------------------------------------------
# seeded workload: identical answers on 1 shard and 3 shards
# ---------------------------------------------------------------------------


def seed_workload(client):
    """A deterministic mixed workload: partitioned Users/Rel (the
    paper's social-network shape), a broadcast Tags table, and a graph
    view co-partitioned by source-vertex id."""
    rng = random.Random(20260808)
    client.execute(
        "CREATE TABLE Users (uId INTEGER PRIMARY KEY, name VARCHAR, "
        "age INTEGER, tagId INTEGER) PARTITION BY uId"
    )
    client.execute(
        "CREATE TABLE Rel (relId INTEGER PRIMARY KEY, uId INTEGER, "
        "uId2 INTEGER, w INTEGER) PARTITION BY uId"
    )
    client.execute(
        "CREATE TABLE Tags (tagId INTEGER PRIMARY KEY, label VARCHAR)"
    )
    client.execute(
        "INSERT INTO Tags VALUES (0, 'core'), (1, 'edge'), (2, 'misc')"
    )
    users = ", ".join(
        f"({i}, 'user{i:02d}', {rng.randrange(18, 48)}, {i % 3})"
        for i in range(36)
    )
    client.execute("INSERT INTO Users VALUES " + users)
    edges = set()
    while len(edges) < 90:
        a, b = rng.randrange(36), rng.randrange(36)
        if a != b:
            edges.add((a, b))
    client.execute("INSERT INTO Rel VALUES " + ", ".join(
        f"({k}, {a}, {b}, {rng.randrange(1, 9)})"
        for k, (a, b) in enumerate(sorted(edges))
    ))
    client.execute(GRAPH_DDL)
    # a few point writes and deletes so the workload is not insert-only
    # (edges first: the graph view protects referenced vertexes)
    client.execute("UPDATE Users SET age = 99 WHERE uId = 5")
    client.execute("DELETE FROM Rel WHERE uId = 35")
    client.execute("DELETE FROM Rel WHERE uId2 = 35")
    client.execute("DELETE FROM Users WHERE uId = 35")


#: (sql, ordered) — ordered queries compare rows positionally, the
#: rest compare as multisets.
BATTERY = [
    ("SELECT uId, name, age FROM Users ORDER BY uId", True),
    ("SELECT COUNT(*), SUM(age), MIN(age), MAX(age), AVG(age) "
     "FROM Users", True),
    ("SELECT COUNT(*) FROM Users WHERE age > 30", True),
    ("SELECT tagId, COUNT(*), AVG(age) FROM Users "
     "GROUP BY tagId ORDER BY tagId", True),
    ("SELECT name FROM Users ORDER BY age DESC, uId ASC LIMIT 5", True),
    ("SELECT uId FROM Users ORDER BY uId LIMIT 4 OFFSET 3", True),
    ("SELECT DISTINCT age FROM Users ORDER BY age", True),
    ("SELECT name FROM Users WHERE uId = 7", True),
    ("SELECT U.name, T.label FROM Users U, Tags T "
     "WHERE U.tagId = T.tagId ORDER BY U.uId", True),
    ("SELECT COUNT(*), SUM(w) FROM Rel", True),
    ("SELECT PS.PathString FROM G.Paths PS "
     "WHERE PS.StartVertex.Id = 1 AND PS.Length = 2", False),
    ("SELECT PS.EndVertex.Id FROM G.Paths PS "
     "WHERE PS.StartVertex.Id = 3 AND PS.Length = 1", False),
]


def run_battery(client):
    answers = []
    for sql, ordered in BATTERY:
        result = client.execute(sql)
        rows = result.rows if ordered else sorted(result.rows)
        answers.append((result.columns, rows))
    return answers


@pytest.fixture(scope="module")
def single_shard_answers():
    router, shards = start_sharded(1)
    try:
        with Client(*router.address) as client:
            seed_workload(client)
            yield run_battery(client)
    finally:
        stop_sharded(router, shards)


class TestDigestEquivalence:
    def test_three_shards_answer_like_one(self, single_shard_answers):
        router, shards = start_sharded(3)
        try:
            with Client(*router.address) as client:
                seed_workload(client)
                assert run_battery(client) == single_shard_answers
                state = client.shard_state()
            # every shard really holds a slice (the placement worked)
            counts = [
                shard.db.execute("SELECT COUNT(*) FROM Users").rows[0][0]
                for shard in shards
            ]
            assert sum(counts) == 35 and all(c > 0 for c in counts)
            # the broadcast table is complete on every shard
            for shard in shards:
                assert shard.db.execute(
                    "SELECT COUNT(*) FROM Tags"
                ).rows[0][0] == 3
            routing = state["routing"]
            assert routing["fast_path"] >= 1  # the uId = 7 point read
            assert routing["scatter"] >= 5    # scans and aggregates
            assert routing["gather"] >= 3     # join + PATHS
        finally:
            stop_sharded(router, shards)


# ---------------------------------------------------------------------------
# routing and observability
# ---------------------------------------------------------------------------


@pytest.fixture
def sharded3():
    router, shards = start_sharded(3)
    try:
        with Client(*router.address) as client:
            yield router, shards, client
    finally:
        stop_sharded(router, shards)


class TestRouting:
    def test_point_queries_take_the_fast_path(self, sharded3):
        router, shards, client = sharded3
        client.execute(
            "CREATE TABLE KV (k INTEGER PRIMARY KEY, v INTEGER) "
            "PARTITION BY k"
        )
        for i in range(12):
            client.execute(f"INSERT INTO KV VALUES ({i}, {i * i})")
        before = client.shard_state()["routing"]["fast_path"]
        assert client.execute("SELECT v FROM KV WHERE k = 7").rows == [(49,)]
        assert client.execute("SELECT v FROM KV WHERE k = 3").rows == [(9,)]
        routing = client.shard_state()["routing"]
        assert routing["fast_path"] == before + 2
        assert routing["single_shard_writes"] == 12

    def test_scatter_and_gather_are_counted(self, sharded3):
        router, shards, client = sharded3
        client.execute(
            "CREATE TABLE KV (k INTEGER PRIMARY KEY, v INTEGER) "
            "PARTITION BY k"
        )
        client.execute("INSERT INTO KV VALUES (1, 1), (2, 2), (3, 3)")
        client.execute("SELECT COUNT(*) FROM KV")            # scatter
        client.execute("SELECT a.k FROM KV a, KV b "
                       "WHERE a.k = b.v ORDER BY a.k")       # gather (join)
        routing = client.shard_state()["routing"]
        assert routing["scatter"] >= 1
        assert routing["gather"] >= 1
        assert routing["multi_shard_writes"] >= 1            # 3-row INSERT

    def test_prepared_point_select_takes_fast_path(self, sharded3):
        router, shards, client = sharded3
        client.execute(
            "CREATE TABLE KV (k INTEGER PRIMARY KEY, v VARCHAR) "
            "PARTITION BY k"
        )
        client.execute("INSERT INTO KV VALUES (1, 'a'), (2, 'b'), (3, 'c')")
        prepared = client.prepare("SELECT v FROM KV WHERE k = ?")
        before = client.shard_state()["routing"]["fast_path"]
        assert prepared.execute(2).rows == [("b",)]
        assert prepared.execute(3).rows == [("c",)]
        assert client.shard_state()["routing"]["fast_path"] == before + 2
        # an unbounded prepared read falls back to the coordinator
        scan = client.prepare("SELECT COUNT(*) FROM KV WHERE v <> ?")
        assert scan.execute("a").rows == [(2,)]

    def test_re_preparing_a_text_adds_no_backend_handles(self, sharded3):
        # each PREPARE at the router is a new router statement whose first
        # EXECUTE prepares it on the owning shard's backend client again
        router, shards, client = sharded3
        client.execute(
            "CREATE TABLE KV (k INTEGER PRIMARY KEY, v VARCHAR) "
            "PARTITION BY k"
        )
        client.execute("INSERT INTO KV VALUES (1, 'a'), (2, 'b'), (3, 'c')")
        for _ in range(20):
            prepared = client.prepare("SELECT v FROM KV WHERE k = ?")
            assert prepared.execute(2).rows == [("b",)]
        backends = [
            backend
            for session in list(router.sessions.values())
            for backend in getattr(session, "shard_backends", {}).values()
        ]
        # one handle on the owning shard's client, none on the others
        assert max(len(backend._prepared) for backend in backends) == 1

    def test_scalar_subqueries_see_every_shard(self):
        """A scalar subquery reads the whole table, so the statement is
        gathered on the coordinator: scattered, each shard would answer
        against its own partition's MAX / AVG."""
        setup = [
            "CREATE TABLE KV (k INTEGER PRIMARY KEY, v INTEGER) "
            "PARTITION BY k",
            "INSERT INTO KV VALUES "
            + ", ".join(f"({k}, {10 * k})" for k in range(1, 9)),
        ]
        queries = [
            "SELECT k FROM KV WHERE v = (SELECT MAX(v) FROM KV)",
            "SELECT k FROM KV WHERE v > (SELECT AVG(v) FROM KV)",
        ]
        single = Database()
        for sql in setup:
            single.execute(sql)
        router, shards = start_sharded(2)
        try:
            with Client(*router.address) as client:
                for sql in setup:
                    client.execute(sql)
                for sql in queries:
                    assert sorted(client.execute(sql).rows) == sorted(
                        single.execute(sql).rows
                    ), sql
        finally:
            stop_sharded(router, shards)
        assert sorted(single.execute(queries[1]).rows) == [
            (5,), (6,), (7,), (8,)
        ]

    def test_statement_budget_is_enforced(self, sharded3):
        router, shards, client = sharded3
        client.execute(
            "CREATE TABLE KV (k INTEGER PRIMARY KEY) PARTITION BY k"
        )
        client.execute("INSERT INTO KV VALUES " + ", ".join(
            f"({i})" for i in range(20)
        ))
        with pytest.raises(RemoteError) as excinfo:
            client.execute("SELECT * FROM KV", budget={"max_rows": 2})
        assert excinfo.value.code == "BUDGET_EXCEEDED"

    def test_shard_state_over_the_wire(self, sharded3):
        router, shards, client = sharded3
        client.execute(
            "CREATE TABLE KV (k INTEGER PRIMARY KEY) PARTITION BY k"
        )
        state = client.shard_state()
        assert state["sharded"] is True
        assert state["map"]["shard_count"] == 3
        assert state["map"]["tables"]["kv"]["partition_by"] == "k"
        assert [s["index"] for s in state["shards"]] == [0, 1, 2]
        assert all(s["healthy"] for s in state["shards"])
        assert state["global_sequence"] >= 1

    def test_plain_server_answers_shard_state(self):
        server = Server(Database()).start()
        try:
            with Client(*server.address) as client:
                state = client.shard_state()
                assert state["sharded"] is False
                assert state["shard"] is None
        finally:
            server.shutdown(drain=False, timeout=10)

    def test_float_partition_key_is_rejected(self, sharded3):
        router, shards, client = sharded3
        client.execute(
            "CREATE TABLE KV (k FLOAT PRIMARY KEY) PARTITION BY k"
        )
        with pytest.raises(RemoteError) as excinfo:
            client.execute("INSERT INTO KV VALUES (1.5)")
        assert excinfo.value.code == "PLANNING_ERROR"


# ---------------------------------------------------------------------------
# multi-shard writes: all-or-nothing
# ---------------------------------------------------------------------------


class TestMultiShardWrites:
    def test_constraint_violation_applies_nowhere(self, sharded3):
        router, shards, client = sharded3
        client.execute(
            "CREATE TABLE KV (k INTEGER PRIMARY KEY, v INTEGER) "
            "PARTITION BY k"
        )
        client.execute("INSERT INTO KV VALUES (1, 1), (2, 2), (3, 3)")
        with pytest.raises(RemoteError) as excinfo:
            # row (4,...) lands on a different shard than the duplicate
            # (2,...): the coordinator must reject the whole statement
            # before any shard applies its slice
            client.execute("INSERT INTO KV VALUES (4, 4), (2, 99)")
        assert excinfo.value.code == "CONSTRAINT_VIOLATION"
        assert client.execute("SELECT COUNT(*) FROM KV").rows == [(3,)]
        total = sum(
            shard.db.execute("SELECT COUNT(*) FROM KV").rows[0][0]
            for shard in shards
        )
        assert total == 3
        assert client.execute(
            "SELECT v FROM KV WHERE k = 2"
        ).rows == [(2,)]

    def test_updating_the_partition_column_is_rejected(self, sharded3):
        router, shards, client = sharded3
        client.execute(
            "CREATE TABLE KV (k INTEGER PRIMARY KEY, v INTEGER) "
            "PARTITION BY k"
        )
        client.execute("INSERT INTO KV VALUES (1, 1)")
        with pytest.raises(RemoteError) as excinfo:
            client.execute("UPDATE KV SET k = 9 WHERE k = 1")
        assert excinfo.value.code == "PLANNING_ERROR"
        assert client.execute("SELECT k FROM KV").rows == [(1,)]

    def test_unbounded_update_reaches_every_shard(self, sharded3):
        router, shards, client = sharded3
        client.execute(
            "CREATE TABLE KV (k INTEGER PRIMARY KEY, v INTEGER) "
            "PARTITION BY k"
        )
        client.execute("INSERT INTO KV VALUES " + ", ".join(
            f"({i}, 0)" for i in range(9)
        ))
        client.execute("UPDATE KV SET v = 1")
        assert client.execute(
            "SELECT SUM(v) FROM KV"
        ).rows == [(9,)]
        for shard in shards:
            rows = shard.db.execute("SELECT v FROM KV").rows
            assert all(v == 1 for (v,) in rows)

    def test_insert_select_is_materialized_and_placed(self, sharded3):
        router, shards, client = sharded3
        client.execute(
            "CREATE TABLE Src (k INTEGER PRIMARY KEY, v INTEGER) "
            "PARTITION BY k"
        )
        client.execute(
            "CREATE TABLE Dst (k INTEGER PRIMARY KEY, v INTEGER) "
            "PARTITION BY k"
        )
        client.execute("INSERT INTO Src VALUES " + ", ".join(
            f"({i}, {i * 10})" for i in range(8)
        ))
        client.execute("INSERT INTO Dst SELECT k, v FROM Src WHERE k < 5")
        assert client.execute(
            "SELECT COUNT(*) FROM Dst"
        ).rows == [(5,)]
        assert client.execute(
            "SELECT v FROM Dst WHERE k = 4"
        ).rows == [(40,)]
        # placement matches the hash, so point reads find the rows
        shard_map = ShardMap(3)
        for k in range(5):
            owner = shard_map.shard_for_key(k)
            assert shards[owner].db.execute(
                f"SELECT COUNT(*) FROM Dst WHERE k = {k}"
            ).rows == [(1,)]

    def test_drop_table_is_broadcast(self, sharded3):
        router, shards, client = sharded3
        client.execute(
            "CREATE TABLE KV (k INTEGER PRIMARY KEY) PARTITION BY k"
        )
        client.execute("DROP TABLE KV")
        for shard in shards:
            with pytest.raises(DatabaseError):
                shard.db.execute("SELECT * FROM KV")
        with pytest.raises(RemoteError) as excinfo:
            client.execute("SELECT * FROM KV")
        assert excinfo.value.code == "PLANNING_ERROR"


# ---------------------------------------------------------------------------
# the shard-side ownership guard
# ---------------------------------------------------------------------------


class TestShardGuard:
    def test_misrouted_key_is_redirected_before_execution(self):
        router, shards = start_sharded(2)
        try:
            with Client(*router.address) as client:
                client.execute(
                    "CREATE TABLE KV (k INTEGER PRIMARY KEY, v INTEGER) "
                    "PARTITION BY k"
                )
                client.execute("INSERT INTO KV VALUES " + ", ".join(
                    f"({i}, {i})" for i in range(8)
                ))
            shard_map = ShardMap(2)
            owned = next(
                k for k in range(8) if shard_map.shard_for_key(k) == 0
            )
            misrouted = next(
                k for k in range(8) if shard_map.shard_for_key(k) == 1
            )
            with Client(*shards[0].address, reconnect=False) as direct:
                assert direct.execute(
                    f"SELECT v FROM KV WHERE k = {owned}"
                ).rows == [(owned,)]
                with pytest.raises(RemoteError) as excinfo:
                    direct.execute(f"SELECT v FROM KV WHERE k = {misrouted}")
                assert excinfo.value.code == "SHARD_REDIRECT"
                assert excinfo.value.shard_hint["shard"] == 1
                assert excinfo.value.shard_hint["count"] == 2
                # writes are rejected *before execution*, so nothing
                # was applied and a retry elsewhere is safe
                with pytest.raises(RemoteError) as excinfo:
                    direct.execute(
                        f"INSERT INTO KV VALUES ({misrouted + 100}, 0)"
                    )
                assert excinfo.value.code == "SHARD_REDIRECT"
                assert direct.execute(
                    "SELECT COUNT(*) FROM KV WHERE k >= 100"
                ).rows == [(0,)]
        finally:
            stop_sharded(router, shards)


# ---------------------------------------------------------------------------
# failure semantics: kill a shard mid-workload
# ---------------------------------------------------------------------------


class TestShardFailure:
    def test_dead_shard_surfaces_clean_errors(self):
        router, shards = start_sharded(3)
        try:
            with Client(*router.address) as client:
                client.execute(
                    "CREATE TABLE KV (k INTEGER PRIMARY KEY, v INTEGER) "
                    "PARTITION BY k"
                )
                client.execute("INSERT INTO KV VALUES " + ", ".join(
                    f"({i}, {i})" for i in range(30)
                ))
                shards[2].shutdown(drain=False, timeout=5)
                shard_map = ShardMap(3)
                # a scatter read needs every shard: clean failure, no
                # silent partial result
                with pytest.raises(RemoteError) as excinfo:
                    client.execute("SELECT COUNT(*) FROM KV")
                assert excinfo.value.code == "SHARD_UNAVAILABLE"
                # point reads owned by surviving shards still answer
                alive = next(
                    k for k in range(30) if shard_map.shard_for_key(k) != 2
                )
                assert client.execute(
                    f"SELECT v FROM KV WHERE k = {alive}"
                ).rows == [(alive,)]
                # a write owned by the dead shard fails cleanly and the
                # coordinator rolls back — the row does not exist
                dead = next(
                    k for k in range(100, 200)
                    if shard_map.shard_for_key(k) == 2
                )
                with pytest.raises(RemoteError) as excinfo:
                    client.execute(f"INSERT INTO KV VALUES ({dead}, 0)")
                assert excinfo.value.code == "SHARD_UNAVAILABLE"
                state = client.shard_state()
                assert state["shards"][2]["healthy"] is False
            assert router.db.execute(
                "SELECT COUNT(*) FROM KV"
            ).rows == [(30,)]
        finally:
            stop_sharded(router, shards[:2])


# ---------------------------------------------------------------------------
# graph views through the router
# ---------------------------------------------------------------------------


class TestShardedGraphViews:
    def test_non_co_partitioned_view_is_rejected(self, sharded3):
        router, shards, client = sharded3
        client.execute(
            "CREATE TABLE Users (uId INTEGER PRIMARY KEY) PARTITION BY uId"
        )
        client.execute(
            "CREATE TABLE Rel (relId INTEGER PRIMARY KEY, uId INTEGER, "
            "uId2 INTEGER) PARTITION BY uId2"
        )
        with pytest.raises(RemoteError) as excinfo:
            client.execute(GRAPH_DDL)
        assert excinfo.value.code == "CATALOG_ERROR"
        # the failed CREATE left no view behind
        assert client.shard_state()["map"]["graph_views"] == {}

    def test_paths_follow_edges_across_shards(self, sharded3):
        router, shards, client = sharded3
        client.execute(
            "CREATE TABLE Users (uId INTEGER PRIMARY KEY, name VARCHAR) "
            "PARTITION BY uId"
        )
        client.execute(
            "CREATE TABLE Rel (relId INTEGER PRIMARY KEY, uId INTEGER, "
            "uId2 INTEGER) PARTITION BY uId"
        )
        client.execute("INSERT INTO Users VALUES " + ", ".join(
            f"({i}, 'u{i}')" for i in range(6)
        ))
        # a chain 0-1-2-3-4-5: consecutive vertexes hash to different
        # shards, so every hop crosses a shard boundary somewhere
        client.execute("INSERT INTO Rel VALUES " + ", ".join(
            f"({i}, {i}, {i + 1})" for i in range(5)
        ))
        client.execute(GRAPH_DDL)
        result = client.execute(
            "SELECT PS.PathString FROM G.Paths PS "
            "WHERE PS.StartVertex.Id = 0 AND PS.EndVertex.Id = 5 LIMIT 1"
        )
        assert result.rows == [("0->1->2->3->4->5",)]
        assert client.shard_state()["routing"]["gather"] >= 1
