"""Tests for prepared statements (the VoltDB stored-procedure model)."""

import pytest

from repro import Database, ExecutionError, PlanningError


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE V (id INTEGER PRIMARY KEY, name VARCHAR)")
    database.execute(
        "CREATE TABLE E (id INTEGER PRIMARY KEY, s INTEGER, d INTEGER, "
        "w FLOAT)"
    )
    for vid in range(1, 7):
        database.execute(f"INSERT INTO V VALUES ({vid}, 'v{vid}')")
    edges = [(1, 1, 2), (2, 2, 3), (3, 3, 4), (4, 4, 5), (5, 1, 6)]
    for eid, s, d in edges:
        database.execute(f"INSERT INTO E VALUES ({eid}, {s}, {d}, 1.0)")
    database.execute(
        "CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id, name = name) FROM V "
        "EDGES(ID = id, FROM = s, TO = d, w = w) FROM E"
    )
    return database


class TestRelationalPrepared:
    def test_simple_filter(self, db):
        query = db.prepare("SELECT name FROM V WHERE id = ?")
        assert query.execute(3).scalar() == "v3"
        assert query.execute(5).scalar() == "v5"
        assert query.execute(99).rows == []

    def test_parameter_count(self, db):
        query = db.prepare("SELECT 1 FROM V WHERE id = ? AND name = ?")
        assert query.parameter_count == 2
        with pytest.raises(ExecutionError):
            query.execute(1)

    def test_rebinding_does_not_leak(self, db):
        query = db.prepare("SELECT COUNT(*) FROM V WHERE id < ?")
        assert query.execute(3).scalar() == 2
        assert query.execute(100).scalar() == 6
        assert query.execute(3).scalar() == 2

    def test_parameter_in_select_list(self, db):
        query = db.prepare("SELECT id + ? FROM V WHERE id = 1")
        assert query.execute(10).scalar() == 11

    def test_prepared_uses_lazy_index_lookup(self, db):
        db.execute("CREATE INDEX v_name ON V (name)")
        query = db.prepare("SELECT id FROM V WHERE V.name = ?")
        assert "IndexLookup" in query.explain()
        assert query.execute("v2").scalar() == 2
        assert query.execute("v4").scalar() == 4

    def test_ddl_not_preparable(self, db):
        for sql in ("CREATE INDEX v_name ON V (name)", "DROP TABLE E",
                    "SELECT id FROM V UNION SELECT id FROM E"):
            with pytest.raises(PlanningError):
                db.prepare(sql)

    def test_sees_data_changes(self, db):
        query = db.prepare("SELECT COUNT(*) FROM V")
        before = query.execute().scalar()
        db.execute("INSERT INTO V VALUES (100, 'new')")
        assert query.execute().scalar() == before + 1


class TestPreparedReplans:
    """A prepared plan is valid for the catalog version and planner
    options it was made under."""

    def test_sees_a_recreated_table(self):
        db = Database()
        db.execute("CREATE TABLE T (k INTEGER PRIMARY KEY, v INTEGER)")
        db.execute("INSERT INTO T VALUES (1, 10)")
        query = db.prepare("SELECT v FROM T WHERE k = ?")
        assert query.execute(1).rows == [(10,)]
        db.execute("DROP TABLE T")
        db.execute("CREATE TABLE T (k INTEGER PRIMARY KEY, v INTEGER)")
        db.execute("INSERT INTO T VALUES (1, 99)")
        assert query.execute(1).rows == [(99,)]

    def test_uses_an_index_created_after_it(self):
        db = Database()
        db.execute("CREATE TABLE U (k INTEGER PRIMARY KEY, v INTEGER)")
        db.execute("INSERT INTO U VALUES (1, 10), (2, 20)")
        query = db.prepare("SELECT k FROM U WHERE v = ?")
        assert "SeqScan(U)" in query.explain()
        db.execute("CREATE INDEX u_v ON U (v)")
        assert "IndexLookup(U.u_v)" in query.explain()
        assert query.execute(20).rows == [(2,)]
        db.execute("DROP INDEX u_v")
        assert "SeqScan(U)" in query.explain()
        assert query.execute(20).rows == [(2,)]
        # a dropped index frees its name
        db.create_ordered_index("u_v", "U", ["v"])
        assert "IndexLookup(U.u_v)" in query.explain()

    def test_follows_new_planner_options(self, db):
        from repro import PlannerOptions

        query = db.prepare(
            "SELECT E.d FROM E, V WHERE E.s = V.id AND V.name = ?"
        )
        reordered = query.explain()
        db.planner_options = PlannerOptions(reorder_joins=False)
        assert query.explain() != reordered
        assert sorted(query.execute("v1").column(0)) == [2, 6]


class TestPreparedWrites:
    def test_insert_update_delete(self, db):
        insert = db.prepare("INSERT INTO V (id, name) VALUES (?, ?)")
        assert insert.parameter_count == 2
        assert insert.execute(10, "ten").rowcount == 1
        assert insert.execute(11, "eleven").rowcount == 1
        rename = db.prepare("UPDATE V SET name = ? WHERE id >= ?")
        assert rename.execute("big", 10).rowcount == 2
        delete = db.prepare("DELETE FROM V WHERE id = ?")
        assert delete.execute(11).rowcount == 1
        assert db.execute("SELECT id, name FROM V WHERE id > 6").rows == [
            (10, "big")
        ]

    def test_runs_in_the_callers_transaction(self, db):
        insert = db.prepare("INSERT INTO V VALUES (?, ?)")
        db.begin()
        insert.execute(20, "x")
        db.rollback()
        assert db.execute("SELECT id FROM V WHERE id = 20").rows == []

    def test_logged_with_its_values(self, db, tmp_path):
        from repro.core.command_log import enable_command_log, replay_log

        snapshot = str(tmp_path / "base.json")
        db.save_snapshot(snapshot)
        log = enable_command_log(db, str(tmp_path / "prepared.log"))
        insert = db.prepare("INSERT INTO V VALUES (?, ?)")
        insert.execute(30, "it's")
        insert.execute(31, None)
        insert.execute(32, "line\r\nbreak")
        db.prepare("UPDATE E SET w = ? WHERE id = ?").execute(-2.5, 1)
        log.detach()
        replayed = replay_log(str(log.path), Database.load_snapshot(snapshot))
        for sql in ("SELECT id, name FROM V ORDER BY id", "SELECT w FROM E"):
            assert replayed.execute(sql).rows == db.execute(sql).rows

    def test_subqueries_see_the_data_of_each_run(self, tmp_path):
        from repro.core.command_log import enable_command_log, replay_log
        from repro.sql import parse_statement

        def build():
            database = Database()
            database.execute("CREATE TABLE A (k INTEGER PRIMARY KEY, v INTEGER)")
            database.execute("CREATE TABLE B (k INTEGER PRIMARY KEY)")
            database.execute("INSERT INTO A VALUES (1, 0), (2, 0), (3, 0), (4, 0)")
            database.execute("INSERT INTO B VALUES (1)")
            return database

        db, twin = build(), build()
        log = enable_command_log(db, str(tmp_path / "subquery.log"))
        delete = db.prepare("DELETE FROM A WHERE k IN (SELECT k FROM B)")
        count = db.prepare("UPDATE A SET v = (SELECT COUNT(*) FROM B) WHERE k > ?")
        steps = [
            (delete, (), "DELETE FROM A WHERE k IN (SELECT k FROM B)"),
            (None, (), "INSERT INTO B VALUES (2)"),
            (delete, (), "DELETE FROM A WHERE k IN (SELECT k FROM B)"),
            (count, (0,), "UPDATE A SET v = (SELECT COUNT(*) FROM B) WHERE k > 0"),
            (None, (), "INSERT INTO B VALUES (3), (9)"),
            (count, (3,), "UPDATE A SET v = (SELECT COUNT(*) FROM B) WHERE k > 3"),
        ]
        for prepared, values, sql in steps:
            if prepared is None:
                ran = db.execute(sql)
            else:
                ran = prepared.execute(*values)
            assert ran.rowcount == twin.execute_parsed(parse_statement(sql), sql).rowcount
        log.detach()
        replayed = replay_log(str(log.path), build())
        answer = "SELECT k, v FROM A ORDER BY k"
        assert db.execute(answer).rows == [(3, 2), (4, 4)]
        assert twin.execute(answer).rows == db.execute(answer).rows
        assert replayed.execute(answer).rows == db.execute(answer).rows

    def test_binds_only_values_a_literal_writes(self, db, tmp_path):
        from decimal import Decimal

        from repro.core.command_log import enable_command_log, read_records, replay_log

        snapshot = str(tmp_path / "base.json")
        db.save_snapshot(snapshot)
        log = enable_command_log(db, str(tmp_path / "values.log"), epoch=1)
        update = db.prepare("UPDATE E SET w = ? WHERE id = ?")
        for value in (float("inf"), float("-inf"), float("nan"), Decimal("1.5"),
                      b"1", object()):
            with pytest.raises(ExecutionError, match="parameter 1 "):
                update.execute(value, 1)
        for eid, value in enumerate((1e300, 5e-324, -0.0, 7, 1e-07), start=1):
            update.execute(value, eid)
        log.detach()
        assert [record.sql for record in read_records(str(log.path))] == [
            f"UPDATE E SET w = {text} WHERE (id = {eid})"
            for eid, text in enumerate(
                ("1e+300", "5e-324", "-0.0", "7", "1e-07"), start=1)
        ]
        replayed = replay_log(str(log.path), Database.load_snapshot(snapshot))
        answer = "SELECT id, w FROM E ORDER BY id"
        assert replayed.execute(answer).rows == db.execute(answer).rows

    def test_refused_on_a_replica(self, db):
        from repro.errors import ReadOnlyError

        delete = db.prepare("DELETE FROM V WHERE id = ?")
        db.set_role("replica")
        with pytest.raises(ReadOnlyError):
            delete.execute(1)


class TestGraphPrepared:
    def test_parameterized_reachability(self, db):
        reach = db.prepare(
            "SELECT PS.PathString FROM g.Paths PS "
            "WHERE PS.StartVertex.Id = ? AND PS.EndVertex.Id = ? LIMIT 1"
        )
        assert reach.execute(1, 5).rows == [("1->2->3->4->5",)]
        assert reach.execute(1, 6).rows == [("1->6",)]
        assert reach.execute(5, 1).rows == []

    def test_parameterized_start_only(self, db):
        query = db.prepare(
            "SELECT PS.EndVertex.name FROM g.Paths PS "
            "WHERE PS.StartVertex.Id = ? AND PS.Length = 1"
        )
        assert sorted(query.execute(1).column(0)) == ["v2", "v6"]
        assert query.execute(3).column(0) == ["v4"]

    def test_parameterized_length_is_not_folded(self, db):
        # Length inference cannot fold a parameter: it becomes a
        # residual predicate, still correct (bounded by the default cap)
        from repro import PlannerOptions

        db.planner_options = PlannerOptions(default_max_path_length=5)
        query = db.prepare(
            "SELECT COUNT(*) FROM g.Paths PS "
            "WHERE PS.StartVertex.Id = 1 AND PS.Length = ?"
        )
        assert query.execute(1).scalar() == 2
        assert query.execute(4).scalar() == 1

    def test_prepared_join_with_paths(self, db):
        query = db.prepare(
            "SELECT PS.EndVertex.name FROM V U, g.Paths PS "
            "WHERE U.name = ? AND PS.StartVertex.Id = U.id "
            "AND PS.Length = 2"
        )
        assert query.execute("v1").column(0) == ["v3"]
        assert query.execute("v2").column(0) == ["v4"]


class TestStreaming:
    def test_stream_yields_lazily(self, db):
        stream = db.stream("SELECT id FROM V ORDER BY id")
        first = next(stream)
        assert first == (1,)
        # remaining rows still pending
        assert len(list(stream)) >= 4

    def test_stream_only_selects(self, db):
        import pytest as _pytest
        from repro import PlanningError

        with _pytest.raises(PlanningError):
            next(db.stream("DELETE FROM V"))

    def test_stream_pulls_minimum_from_traversal(self, db):
        """Consuming one row of an unbounded-ish path enumeration must
        not enumerate everything."""
        stream = db.stream(
            "SELECT PS.PathString FROM g.Paths PS "
            "WHERE PS.StartVertex.Id = 1 AND PS.Length <= 4"
        )
        assert next(stream).count  # got one row without exhausting
        stream.close()

    def test_prepared_stream(self, db):
        query = db.prepare("SELECT id FROM V WHERE id > ? ORDER BY id")
        assert list(query.stream(4)) == [(5,), (6,)]
        assert next(query.stream(0)) == (1,)
