"""Integration tests for the relational side of the Database façade:
DDL, DML, SELECT features, joins, aggregation, ordering, subqueries."""

import pytest

from repro import (
    CatalogError,
    ConstraintViolation,
    Database,
    ExecutionError,
    PlanningError,
)


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE emp (id INTEGER PRIMARY KEY, name VARCHAR, "
        "dept VARCHAR, salary FLOAT, boss INTEGER)"
    )
    rows = [
        (1, "ann", "eng", 100.0, None),
        (2, "bob", "eng", 80.0, 1),
        (3, "cid", "ops", 60.0, 1),
        (4, "dee", "ops", 70.0, 3),
        (5, "eve", "hr", 50.0, 1),
    ]
    for row in rows:
        database.execute(
            "INSERT INTO emp VALUES "
            f"({row[0]}, '{row[1]}', '{row[2]}', {row[3]}, "
            f"{'NULL' if row[4] is None else row[4]})"
        )
    return database


class TestDdl:
    def test_create_and_drop_table(self):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER)")
        assert db.table("t").row_count == 0
        db.execute("DROP TABLE t")
        with pytest.raises(CatalogError):
            db.table("t")

    def test_duplicate_table_rejected(self):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER)")
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE T (a INTEGER)")

    def test_create_index_used_by_planner(self, db):
        db.execute("CREATE INDEX emp_dept ON emp (dept)")
        plan = db.explain("SELECT name FROM emp e WHERE e.dept = 'eng'")
        assert "IndexLookup" in plan

    def test_drop_index(self, db):
        db.execute("CREATE INDEX emp_dept ON emp (dept)")
        db.execute("DROP INDEX emp_dept")
        plan = db.explain("SELECT name FROM emp e WHERE e.dept = 'eng'")
        assert "IndexLookup" not in plan


class TestInsert:
    def test_insert_with_column_list(self, db):
        db.execute("INSERT INTO emp (id, name) VALUES (9, 'zed')")
        row = db.execute("SELECT dept, name FROM emp WHERE id = 9").first()
        assert row == (None, "zed")

    def test_multi_row_insert(self, db):
        result = db.execute(
            "INSERT INTO emp (id, name) VALUES (10, 'x'), (11, 'y')"
        )
        assert result.rowcount == 2

    def test_arity_mismatch(self, db):
        with pytest.raises(ExecutionError):
            db.execute("INSERT INTO emp (id, name) VALUES (12)")

    def test_pk_violation(self, db):
        with pytest.raises(ConstraintViolation):
            db.execute("INSERT INTO emp (id) VALUES (1)")

    def test_expression_values(self, db):
        db.execute("INSERT INTO emp (id, salary) VALUES (20, 10 * 5 + 2.5)")
        assert db.execute(
            "SELECT salary FROM emp WHERE id = 20"
        ).scalar() == pytest.approx(52.5)


class TestUpdateDelete:
    def test_update_with_where(self, db):
        result = db.execute("UPDATE emp SET salary = salary * 2 WHERE dept = 'eng'")
        assert result.rowcount == 2
        assert db.execute(
            "SELECT salary FROM emp WHERE id = 1"
        ).scalar() == pytest.approx(200.0)

    def test_update_all(self, db):
        assert db.execute("UPDATE emp SET salary = 1").rowcount == 5

    def test_delete_with_where(self, db):
        assert db.execute("DELETE FROM emp WHERE dept = 'ops'").rowcount == 2
        assert db.execute("SELECT COUNT(*) FROM emp").scalar() == 3

    def test_truncate(self, db):
        db.execute("TRUNCATE TABLE emp")
        assert db.execute("SELECT COUNT(*) FROM emp").scalar() == 0


class TestSelectBasics:
    def test_star(self, db):
        result = db.execute("SELECT * FROM emp WHERE id = 1")
        assert result.columns == ["id", "name", "dept", "salary", "boss"]
        assert result.first() == (1, "ann", "eng", 100.0, None)

    def test_projection_and_alias(self, db):
        result = db.execute("SELECT name AS who, salary * 2 pay FROM emp WHERE id = 2")
        assert result.columns == ["who", "pay"]
        assert result.first() == ("bob", 160.0)

    def test_where_null_is_filtered(self, db):
        result = db.execute("SELECT id FROM emp WHERE boss > 0")
        assert 1 not in result.column("id")  # NULL boss row dropped

    def test_is_null(self, db):
        assert db.execute(
            "SELECT name FROM emp WHERE boss IS NULL"
        ).column("name") == ["ann"]

    def test_order_by(self, db):
        names = db.execute(
            "SELECT name FROM emp ORDER BY salary DESC"
        ).column("name")
        assert names == ["ann", "bob", "dee", "cid", "eve"]

    def test_order_by_multiple_keys(self, db):
        rows = db.execute(
            "SELECT dept, name FROM emp ORDER BY dept ASC, salary DESC"
        ).rows
        assert rows[0] == ("eng", "ann")
        assert rows[-1] == ("ops", "cid")

    def test_order_by_select_alias(self, db):
        names = db.execute(
            "SELECT name, salary * -1 AS neg FROM emp ORDER BY neg"
        ).column("name")
        assert names[0] == "ann"

    def test_limit_offset(self, db):
        rows = db.execute(
            "SELECT id FROM emp ORDER BY id LIMIT 2 OFFSET 1"
        ).column("id")
        assert rows == [2, 3]

    def test_top(self, db):
        rows = db.execute("SELECT TOP 2 id FROM emp ORDER BY id").column("id")
        assert rows == [1, 2]

    def test_distinct(self, db):
        depts = db.execute("SELECT DISTINCT dept FROM emp").column("dept")
        assert sorted(depts) == ["eng", "hr", "ops"]

    def test_constant_only_query(self):
        db = Database()
        db.execute("CREATE TABLE one (a INTEGER)")
        db.execute("INSERT INTO one VALUES (1)")
        assert db.execute("SELECT 1 + 1 FROM one").scalar() == 2

    def test_like(self, db):
        assert db.execute(
            "SELECT name FROM emp WHERE name LIKE '%e%' ORDER BY name"
        ).column("name") == ["dee", "eve"]

    def test_case_expression(self, db):
        result = db.execute(
            "SELECT name, CASE WHEN salary >= 80 THEN 'high' ELSE 'low' END "
            "FROM emp WHERE id IN (1, 5)"
        )
        assert set(result.rows) == {("ann", "high"), ("eve", "low")}


class TestJoins:
    def test_implicit_join(self, db):
        result = db.execute(
            "SELECT e.name, b.name FROM emp e, emp b WHERE e.boss = b.id "
            "ORDER BY e.id"
        )
        assert result.rows[0] == ("bob", "ann")
        assert len(result.rows) == 4

    def test_explicit_inner_join(self, db):
        result = db.execute(
            "SELECT e.name FROM emp e JOIN emp b ON e.boss = b.id "
            "WHERE b.dept = 'ops'"
        )
        assert result.column("name") == ["dee"]

    def test_left_join_keeps_unmatched(self, db):
        result = db.execute(
            "SELECT e.name, b.name FROM emp e LEFT JOIN emp b ON e.boss = b.id "
            "ORDER BY e.id"
        )
        assert result.rows[0] == ("ann", None)
        assert len(result.rows) == 5

    def test_cross_join_count(self, db):
        assert db.execute(
            "SELECT COUNT(*) FROM emp a CROSS JOIN emp b"
        ).scalar() == 25

    def test_hash_join_in_plan(self, db):
        plan = db.explain(
            "SELECT 1 FROM emp e, emp b WHERE e.boss = b.id"
        )
        assert "HashJoin" in plan

    def test_non_equi_join(self, db):
        result = db.execute(
            "SELECT COUNT(*) FROM emp a, emp b WHERE a.salary < b.salary"
        )
        assert result.scalar() == 10  # all distinct salary pairs


class TestAggregation:
    def test_count_star(self, db):
        assert db.execute("SELECT COUNT(*) FROM emp").scalar() == 5

    def test_scalar_aggregates(self, db):
        row = db.execute(
            "SELECT MIN(salary), MAX(salary), SUM(salary), AVG(salary) FROM emp"
        ).first()
        assert row == (50.0, 100.0, 360.0, 72.0)

    def test_count_column_skips_nulls(self, db):
        assert db.execute("SELECT COUNT(boss) FROM emp").scalar() == 4

    def test_count_distinct(self, db):
        assert db.execute("SELECT COUNT(DISTINCT dept) FROM emp").scalar() == 3

    def test_group_by(self, db):
        result = db.execute(
            "SELECT dept, COUNT(*), AVG(salary) FROM emp GROUP BY dept "
            "ORDER BY dept"
        )
        assert result.rows == [
            ("eng", 2, 90.0),
            ("hr", 1, 50.0),
            ("ops", 2, 65.0),
        ]

    def test_group_by_expression_in_select(self, db):
        result = db.execute(
            "SELECT UPPER(dept), COUNT(*) FROM emp GROUP BY UPPER(dept) "
            "ORDER BY UPPER(dept)"
        )
        assert result.rows[0] == ("ENG", 2)

    def test_having(self, db):
        result = db.execute(
            "SELECT dept FROM emp GROUP BY dept HAVING COUNT(*) > 1 ORDER BY dept"
        )
        assert result.column("dept") == ["eng", "ops"]

    def test_aggregate_over_empty_input(self, db):
        row = db.execute(
            "SELECT COUNT(*), SUM(salary) FROM emp WHERE id > 100"
        ).first()
        assert row == (0, None)

    def test_ungrouped_column_rejected(self, db):
        with pytest.raises(PlanningError):
            db.execute("SELECT name, COUNT(*) FROM emp GROUP BY dept")

    def test_having_without_group_rejected(self, db):
        with pytest.raises(PlanningError):
            db.execute("SELECT name FROM emp HAVING name = 'x'")

    def test_order_by_aggregate(self, db):
        depts = db.execute(
            "SELECT dept FROM emp GROUP BY dept ORDER BY SUM(salary) DESC"
        ).column("dept")
        assert depts == ["eng", "ops", "hr"]


class TestSubqueries:
    def test_in_subquery(self, db):
        result = db.execute(
            "SELECT name FROM emp WHERE boss IN "
            "(SELECT id FROM emp WHERE dept = 'ops') ORDER BY name"
        )
        assert result.column("name") == ["dee"]

    def test_scalar_subquery(self, db):
        result = db.execute(
            "SELECT name FROM emp WHERE salary = (SELECT MAX(salary) FROM emp)"
        )
        assert result.column("name") == ["ann"]

    def test_empty_scalar_subquery_is_null(self, db):
        result = db.execute(
            "SELECT name FROM emp WHERE salary = "
            "(SELECT MAX(salary) FROM emp WHERE id > 99)"
        )
        assert result.rows == []

    def test_multi_row_scalar_subquery_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.execute(
                "SELECT name FROM emp WHERE salary = (SELECT salary FROM emp)"
            )

    def test_not_in_subquery(self, db):
        result = db.execute(
            "SELECT COUNT(*) FROM emp WHERE id NOT IN "
            "(SELECT boss FROM emp WHERE boss IS NOT NULL)"
        )
        assert result.scalar() == 3  # 2, 4, 5 are nobody's boss


class TestErrors:
    def test_unknown_table(self, db):
        with pytest.raises(PlanningError):
            db.execute("SELECT * FROM nope")

    def test_unknown_column(self, db):
        with pytest.raises(PlanningError):
            db.execute("SELECT wat FROM emp")

    def test_explain_without_a_plan_rejected(self, db):
        with pytest.raises(PlanningError):
            db.explain("TRUNCATE TABLE emp")

    def test_execute_script(self):
        db = Database()
        results = db.execute_script(
            "CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1); "
            "SELECT a FROM t"
        )
        assert results[-1].scalar() == 1


class TestAnalyze:
    def test_statistics_collected(self, db):
        db.execute("CREATE TABLE V (id INTEGER PRIMARY KEY)")
        db.execute(
            "CREATE TABLE E (id INTEGER PRIMARY KEY, s INTEGER, d INTEGER)"
        )
        db.execute("INSERT INTO V VALUES (1), (2), (3)")
        db.execute("INSERT INTO E VALUES (10, 1, 2), (11, 1, 3)")
        db.execute(
            "CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id) FROM V "
            "EDGES(ID = id, FROM = s, TO = d) FROM E"
        )
        statistics = db.analyze()
        assert statistics["emp"]["row_count"] == 5
        assert statistics["g"]["vertex_count"] == 3
        assert statistics["g"]["edge_count"] == 2
        assert statistics["g"]["average_fan_out"] == pytest.approx(2 / 3)
        assert statistics["g"]["max_fan_out"] == 2
        assert db.catalog.statistics is statistics

    def test_analyze_refreshes_after_updates(self, db):
        first = db.analyze()
        db.execute("DELETE FROM emp WHERE dept = 'eng'")
        second = db.analyze()
        assert second["emp"]["row_count"] == first["emp"]["row_count"] - 2
