"""The statement cache: ``Database.execute`` plans once per statement shape.

Literals in value positions are lifted into parameters; every literal the
planner reads as a value is pinned in the plan's key. Each test compares
the cached engine against the uncached path — ``execute_parsed`` of a
fresh parse — on a twin database, and the cache's counters say which path
a statement took.
"""

import sys
import threading

import pytest

from repro import Database, PlannerOptions
from repro.client import Client
from repro.core.command_log import enable_command_log, read_records
from repro.core.statement_cache import LruCache
from repro.errors import (
    ConstraintViolation,
    ExecutionError,
    RemoteError,
    SqlSyntaxError,
)
from repro.observability.metrics import get_registry, metrics_enabled, set_enabled
from repro.server import Server
from repro.sql import parse_statement
from repro.sql.render import render_statement

SCHEMA = [
    "CREATE TABLE T (k INTEGER PRIMARY KEY, g INTEGER, v INTEGER, s VARCHAR)",
    "CREATE TABLE E (id INTEGER PRIMARY KEY, src INTEGER, dst INTEGER, "
    "w INTEGER)",
    "CREATE DIRECTED GRAPH VIEW G VERTEXES(ID = k, v = v) FROM T "
    "EDGES(ID = id, FROM = src, TO = dst, w = w) FROM E",
]
ROWS = [
    f"INSERT INTO T VALUES ({k}, {k % 3}, {k * 10}, 's{k}')" for k in range(1, 9)
]
EDGES = [
    "INSERT INTO E VALUES (1, 1, 2, 1), (2, 2, 3, 1), (3, 3, 4, 1), "
    "(4, 1, 5, 4), (5, 5, 4, 4), (6, 4, 6, 2), (7, 2, 6, 3)"
]


def build():
    db = Database()
    for sql in SCHEMA + ROWS + EDGES:
        db.execute(sql)
    return db


def uncached(db, sql):
    """The path every statement took before the cache."""
    return db.execute_parsed(parse_statement(sql), sql)


def outcome(run, db, sql):
    try:
        result = run(db, sql)
    except ExecutionError as error:
        return type(error)
    return result.rowcount, result.columns, result.rows


@pytest.fixture
def counts():
    """``counts()`` -> the cache counters (hits, misses, uncacheable)."""
    was_enabled = metrics_enabled()
    set_enabled(True)

    def read():
        registry = get_registry()
        return tuple(
            registry.value(f"repro_statement_cache_{outcome}_total") or 0
            for outcome in ("hits", "misses", "uncacheable")
        )

    yield read
    set_enabled(was_enabled)


def delta(before, after):
    return tuple(b - a for a, b in zip(before, after))


def assert_same_answers(texts, rounds=2):
    """Every text, run in turn ``rounds`` times, answers through the
    cache what it answers uncached."""
    cached, twin = build(), build()
    for _ in range(rounds):
        for sql in texts:
            assert outcome(Database.execute, cached, sql) == outcome(
                uncached, twin, sql
            ), sql


@pytest.mark.parametrize(
    "sql, lifted",
    [
        (
            "SELECT k + 1, 'x' FROM T WHERE k = 5 ORDER BY 1 LIMIT 3",
            "SELECT (k + 1), 'x' FROM T WHERE (k = ?) ORDER BY 1 ASC LIMIT 3",
        ),
        (
            "SELECT TOP 2 k FROM T WHERE s LIKE 's%' AND g = 1 OFFSET 1",
            "SELECT k FROM T WHERE ((s LIKE 's%') AND (g = ?)) LIMIT 2 OFFSET 1",
        ),
        (
            "SELECT PS.PathString FROM G.Paths PS WHERE PS.StartVertex.Id = 1 "
            "AND PS.Length BETWEEN 2 AND 3 AND SUM(PS.Edges.w) > 3 "
            "AND PS.Edges[0..*].w IN (1, 3)",
            "SELECT PS.PathString FROM G.Paths PS WHERE "
            "((((PS.StartVertex.Id = ?) AND (PS.Length BETWEEN 2 AND 3)) "
            "AND (SUM(PS.Edges.w) > 3)) AND (PS.Edges[0..*].w IN (1, 3)))",
        ),
        (
            "UPDATE T SET v = -5, g = g + 1 WHERE k BETWEEN 2 AND 4",
            "UPDATE T SET v = -(?), g = (g + 1) WHERE (k BETWEEN ? AND ?)",
        ),
        (
            "INSERT INTO T VALUES (9, NULL, -1, 'n')",
            "INSERT INTO T VALUES (?, NULL, -(?), ?)",
        ),
        (
            "DELETE FROM T WHERE 3 < k AND v = v",
            "DELETE FROM T WHERE ((? < k) AND (v = v))",
        ),
    ],
)
def test_lifts_values_and_pins_what_the_planner_reads(sql, lifted):
    """``?`` marks a lifted literal; every other literal is pinned."""
    db = build()
    assert render_statement(db.compile(sql)) == render_statement(
        parse_statement(sql)
    )  # a first sighting only marks the shape
    assert render_statement(db.compile(sql).statement) == lifted


def test_lru_cache_forgets_the_least_recently_used():
    cache = LruCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1
    cache.put("c", 3)
    assert (cache.get("a"), cache.get("b"), cache.get("c")) == (1, None, 3)
    assert cache.pop("a") == 1 and cache.get("a") is None


class TestPinnedLiterals:
    """Two texts differing only in a literal the planner reads as a value
    each get their own plan, and both answer correctly."""

    def test_path_length(self):
        assert_same_answers([
            "SELECT PS.EndVertex.Id FROM G.Paths PS "
            f"WHERE PS.StartVertex.Id = 1 AND PS.Length = {length}"
            for length in (2, 3)
        ])

    def test_limit(self):
        assert_same_answers(
            [f"SELECT k FROM T ORDER BY k LIMIT {n}" for n in (1, 2)]
        )

    def test_top_and_offset(self):
        assert_same_answers(
            [f"SELECT TOP {n} k FROM T ORDER BY k" for n in (1, 3)]
            + [f"SELECT k FROM T ORDER BY k LIMIT 2 OFFSET {n}" for n in (1, 4)]
        )

    def test_order_by_ordinal(self):
        assert_same_answers(
            [f"SELECT v, g FROM T WHERE k < 6 ORDER BY {n}" for n in (1, 2)]
        )

    def test_sum_bound(self):
        assert_same_answers([
            "SELECT PS.PathString FROM G.Paths PS "
            f"WHERE PS.StartVertex.Id = 1 AND SUM(PS.Edges.w) > {bound}"
            for bound in (3, 5)
        ])

    def test_in_lists(self):
        assert_same_answers([
            "SELECT k FROM T WHERE k IN (1, 2)",
            "SELECT k FROM T WHERE k IN (1, 2, 3)",
            "SELECT k FROM T WHERE k IN (4, 5)",
            "SELECT PS.PathString FROM G.Paths PS WHERE PS.StartVertex.Id = 1 "
            "AND PS.Length = 2 AND PS.Edges[0..*].w IN (1, 3)",
            "SELECT PS.PathString FROM G.Paths PS WHERE PS.StartVertex.Id = 1 "
            "AND PS.Length = 2 AND PS.Edges[0..*].w IN (1, 4)",
        ])

    def test_select_list_literals(self):
        assert_same_answers(
            [f"SELECT k + {n}, 'x{n}' FROM T WHERE k = 2" for n in (1, 2)]
        )

    def test_pinned_values_select_their_plan(self, counts):
        db = build()
        for _ in range(2):
            db.execute("SELECT k FROM T ORDER BY k LIMIT 1")
        before = counts()
        for _ in range(2):
            assert db.execute("SELECT k FROM T ORDER BY k LIMIT 2").rows == [
                (1,), (2,)
            ]
        assert delta(before, counts()) == (0, 2, 0)
        before = counts()
        for limit in (1, 2):
            assert len(db.execute(f"SELECT k FROM T ORDER BY k LIMIT {limit}").rows) == limit
        assert delta(before, counts()) == (2, 0, 0)


class TestLiftedLiterals:
    def test_point_reads_share_one_plan(self, counts):
        db = build()
        before = counts()
        db.execute("SELECT v FROM T WHERE k = 1")
        db.execute("SELECT v FROM T WHERE k = 2")
        # the first sighting marks the shape, the second plans it
        assert delta(before, counts()) == (0, 2, 0)
        before = counts()
        for k in range(1, 9):
            assert db.execute(f"SELECT v FROM T WHERE k = {k}").rows == [
                (k * 10,)
            ]
        assert delta(before, counts()) == (8, 0, 0)

    def test_dml_and_path_starts_are_lifted(self):
        assert_same_answers([
            "UPDATE T SET v = 5 WHERE k = 3",
            "UPDATE T SET v = v + 1 WHERE k BETWEEN 2 AND 4",
            "SELECT k, v FROM T WHERE v >= 6 AND g <> 1",
            "DELETE FROM T WHERE k = 8",
            "INSERT INTO T VALUES (8, -2, 80, 'back')",
            "SELECT PS.EndVertex.Id FROM G.Paths PS "
            "WHERE PS.StartVertex.Id = 2 AND PS.Length = 2",
            "SELECT PS.EndVertex.Id FROM G.Paths PS "
            "WHERE PS.StartVertex.Id = 1 AND PS.Length = 2",
            "SELECT PS.Length FROM G.Paths PS WHERE PS.StartVertex.Id = 1 "
            "AND PS.EndVertex.Id = 6 AND PS.Edges[0..*].w < 3 LIMIT 1",
        ], rounds=3)

    def test_integer_and_string_literals_never_share_a_plan(self, counts):
        db = build()
        for _ in range(2):
            assert db.execute("SELECT v FROM T WHERE k = 5").rows == [(50,)]
        before = counts()
        # '5' is no INTEGER key: = never coerces
        for _ in range(2):
            assert db.execute("SELECT v FROM T WHERE k = '5'").rows == []
        assert delta(before, counts()) == (0, 2, 0)
        assert db.execute("SELECT v FROM T WHERE k = 5.0").rows == [(50,)]
        assert db.execute("SELECT v FROM T WHERE k = 5").rows == [(50,)]

    def test_a_failed_run_leaves_no_plan_behind(self, counts):
        db = build()
        assert db.execute("UPDATE T SET k = 9 WHERE k = 9").rowcount == 0
        with pytest.raises(ConstraintViolation):
            db.execute("UPDATE T SET k = 2 WHERE k = 1")
        before = counts()
        assert db.execute("UPDATE T SET k = 20 WHERE k = 1").rowcount == 1
        assert delta(before, counts()) == (0, 1, 0)
        assert db.execute("SELECT k FROM T WHERE k >= 8").rows == [(8,), (20,)]


class TestUncacheable:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT v FROM T WHERE k = 2 -- key 3",
            "SELECT v FROM T /* 3 */ WHERE k = 2",
            'SELECT "v" FROM T WHERE "k" = 2',
            "SELECT v FROM T WHERE k IN (SELECT k FROM T WHERE k = 2)",
            "SELECT v FROM T WHERE k = 2 UNION SELECT v FROM T WHERE k = 2",
            "EXPLAIN SELECT v FROM T WHERE k = 2",
        ],
    )
    def test_takes_the_uncached_path_and_is_correct(self, sql, counts):
        cached, twin = build(), build()
        for _ in range(2):
            before = counts()
            assert outcome(Database.execute, cached, sql) == outcome(
                uncached, twin, sql
            )
            assert delta(before, counts()) == (0, 0, 1)

    def test_ddl_runs_uncached(self, counts):
        db = build()
        before = counts()
        db.execute("CREATE INDEX t_v ON T (v)")
        db.execute("DROP INDEX t_v")
        db.execute("CREATE INDEX t_v ON T (v)")
        assert delta(before, counts()) == (0, 0, 3)

    def test_syntax_errors_quote_the_users_text(self):
        db = build()
        for _ in range(2):
            with pytest.raises(SqlSyntaxError) as raised:
                db.execute("SELECT v FROM T\nWHERE k = 12 'twelve'")
            assert "'twelve'" in str(raised.value)
            assert (raised.value.line, raised.value.column) == (2, 14)

    def test_question_marks_run_uncached(self, counts):
        db = build()
        before = counts()
        assert db.execute("SELECT v FROM T WHERE k = ?").rows == []
        assert delta(before, counts()) == (0, 0, 1)


class TestInvalidation:
    def test_ddl_replans_a_cached_shape(self):
        db = build()
        for _ in range(2):
            db.execute("SELECT k FROM T WHERE v = 30")
        db.execute("DROP GRAPH VIEW G")
        db.execute("DROP TABLE T")
        db.execute("CREATE TABLE T (k INTEGER PRIMARY KEY, v INTEGER)")
        db.execute("INSERT INTO T VALUES (7, 30)")
        assert db.execute("SELECT k FROM T WHERE v = 30").rows == [(7,)]

    def test_new_index_reaches_cached_shapes(self):
        db = build()
        for _ in range(2):
            db.execute("SELECT k FROM T WHERE v = 30")
        db.execute("CREATE INDEX t_v ON T (v)")
        assert db.compile("SELECT k FROM T WHERE v = 40").explain() == (
            db.explain("SELECT k FROM T WHERE v = 40")
        )
        assert "IndexLookup(T.t_v)" in db.explain("SELECT k FROM T WHERE v = 40")
        assert db.execute("SELECT k FROM T WHERE v = 40").rows == [(4,)]

    def test_new_planner_options_replan(self):
        db = build()
        sql = "SELECT E.dst FROM E, T WHERE E.src = T.k AND T.v = 10"
        db.execute(sql)
        rows = db.execute(sql).rows
        reordered = db.compile(sql).explain()
        db.planner_options = PlannerOptions(reorder_joins=False)
        assert db.execute(sql).rows == rows
        in_from_order = db.compile(sql).explain()
        assert in_from_order != reordered
        assert in_from_order == db.explain(sql)


class TestDurability:
    def test_command_log_records_the_original_text(self, tmp_path):
        db = build()
        path = str(tmp_path / "cache.log")
        log = enable_command_log(db, path, epoch=1)
        texts = [
            "UPDATE T SET v = 7 WHERE k = 1",
            "UPDATE T SET v = 8 WHERE k = 2",
            "UPDATE  T SET v = 9 WHERE k = 3",
            "INSERT INTO T VALUES (20, 1, -5, 'it''s')",
            "INSERT INTO T VALUES (21, 1, -6, 'x')",
            "DELETE FROM T WHERE k = 20",
        ]
        for sql in texts:
            db.execute(sql)
        log.detach()
        assert [record.sql for record in read_records(path)] == texts


def run_threads(target, arguments):
    """Run ``target(*a)`` for each ``a`` in its own thread, switching
    threads as often as the interpreter allows; the errors they saw."""
    errors = []

    def guarded(*args):
        try:
            target(*args)
        except Exception as error:  # reported by the caller
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=a) for a in arguments]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return errors


class TestConcurrency:
    """A plan is checked out while it runs: callers of one shape with
    different literals never see each other's values."""

    def test_threads_on_one_shape_get_their_own_answers(self):
        db = build()
        wrong = []

        def reader(keys):
            for _ in range(200):
                for k in keys:
                    rows = db.execute(f"SELECT v FROM T WHERE k = {k}").rows
                    if rows != [(k * 10,)]:
                        wrong.append((k, rows))

        keys = ((1, 2), (3, 4), (5, 6), (7, 8))
        assert run_threads(reader, [(k,) for k in keys]) == []
        assert wrong == []

    def test_two_sessions_hammer_one_shape(self):
        db = build()
        server = Server(db).start()
        wrong = []

        def session(name, keys):
            with Client(*server.address, session=name) as client:
                for _ in range(60):
                    for k in keys:
                        rows = client.execute(
                            f"SELECT v, s FROM T WHERE k = {k}"
                        ).rows
                        if rows != [(k * 10, f"s{k}")]:
                            wrong.append((name, k, rows))

        try:
            errors = run_threads(
                session, [("a", (1, 3, 5, 7)), ("b", (2, 4, 6, 8))]
            )
        finally:
            server.shutdown(drain=False, timeout=10)
        assert errors == []
        assert wrong == []


class TestOverTheWire:
    def test_session_handles_replan_after_ddl(self):
        db = build()
        server = Server(db).start()
        try:
            with Client(*server.address) as client:
                query = client.prepare("SELECT k FROM T WHERE v = ?")
                assert query.execute(30).rows == [(3,)]
                client.execute("CREATE INDEX t_v ON T (v)")
                assert "IndexLookup(T.t_v)" in next(
                    iter(server.sessions.values())
                ).prepared[query.handle].explain()
                client.execute("UPDATE T SET v = 31 WHERE k = 3")
                assert query.execute(31).rows == [(3,)]
        finally:
            server.shutdown(drain=False, timeout=10)

    def test_writes_are_not_preparable_over_the_wire(self):
        """``EXECUTE`` is retried after a reconnect like any read."""
        db = build()
        server = Server(db).start()
        try:
            with Client(*server.address) as client:
                with pytest.raises(RemoteError) as raised:
                    client.prepare("DELETE FROM T WHERE k = ?")
                assert raised.value.code == "PLANNING_ERROR"
                assert client.execute("SELECT COUNT(*) FROM T").rows == [(8,)]
        finally:
            server.shutdown(drain=False, timeout=10)
