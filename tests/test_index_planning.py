"""Tests for index access-path selection: multi-column lookups and
ordered-index range scans."""

import io
import json

import pytest

from repro import Database
from repro.budget import QueryBudget
from repro.core.command_log import enable_command_log
from repro.errors import (
    CatalogError,
    ConstraintViolation,
    ExecutionError,
    PlanningError,
    QueryTimeoutError,
    ResourceExhaustedError,
)
from repro.expr.scope import RelationBinding, Scope
from repro.planner.conjuncts import (
    extract_column_comparison,
    extract_column_equality,
)
from repro.replication.digest import combined_digest
from repro.shell import Shell
from repro.sql import parse_statement


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE m (id INTEGER PRIMARY KEY, a INTEGER, b VARCHAR, "
        "score FLOAT)"
    )
    database.load_rows(
        "m",
        [(i, i % 10, f"b{i % 3}", float(i)) for i in range(100)],
    )
    return database


class TestMultiColumnLookup:
    def test_composite_index_chosen(self, db):
        db.execute("CREATE INDEX m_ab ON m (a, b)")
        plan = db.explain(
            "SELECT id FROM m t WHERE t.a = 3 AND t.b = 'b0'"
        )
        assert "IndexLookup(m.m_ab)" in plan

    def test_composite_results_correct(self, db):
        db.execute("CREATE INDEX m_ab ON m (a, b)")
        rows = db.execute(
            "SELECT id FROM m t WHERE t.a = 3 AND t.b = 'b0' ORDER BY id"
        ).column(0)
        expected = [i for i in range(100) if i % 10 == 3 and i % 3 == 0]
        assert rows == expected

    def test_longest_index_preferred(self, db):
        db.execute("CREATE INDEX m_a ON m (a)")
        db.execute("CREATE INDEX m_ab ON m (a, b)")
        plan = db.explain(
            "SELECT id FROM m t WHERE t.a = 3 AND t.b = 'b0'"
        )
        assert "m_ab" in plan

    def test_partial_key_falls_back_to_shorter(self, db):
        db.execute("CREATE INDEX m_a ON m (a)")
        db.execute("CREATE INDEX m_ab ON m (a, b)")
        plan = db.explain("SELECT id FROM m t WHERE t.a = 3")
        assert "m_a" in plan and "m_ab" not in plan

    def test_prepared_composite_rebinds(self, db):
        db.execute("CREATE INDEX m_ab ON m (a, b)")
        query = db.prepare("SELECT COUNT(*) FROM m t WHERE t.a = ? AND t.b = ?")
        assert "IndexLookup(m.m_ab)" in query.explain()
        first = query.execute(3, "b0").scalar()
        second = query.execute(4, "b1").scalar()
        assert first == len(
            [i for i in range(100) if i % 10 == 3 and i % 3 == 0]
        )
        assert second == len(
            [i for i in range(100) if i % 10 == 4 and i % 3 == 1]
        )


class TestRangeScan:
    def test_range_scan_chosen_on_ordered_index(self, db):
        db.create_ordered_index("m_score", "m", ["score"])
        plan = db.explain(
            "SELECT id FROM m t WHERE t.score >= 10 AND t.score < 20"
        )
        assert "IndexRangeScan(m.m_score" in plan

    def test_range_scan_results(self, db):
        db.create_ordered_index("m_score", "m", ["score"])
        rows = db.execute(
            "SELECT id FROM m t WHERE t.score >= 10 AND t.score < 20 "
            "ORDER BY id"
        ).column(0)
        assert rows == list(range(10, 20))

    def test_half_open_ranges(self, db):
        db.create_ordered_index("m_score", "m", ["score"])
        assert len(
            db.execute("SELECT id FROM m t WHERE t.score > 95").rows
        ) == 4
        assert len(
            db.execute("SELECT id FROM m t WHERE t.score <= 5").rows
        ) == 6

    def test_hash_index_not_used_for_range(self, db):
        db.execute("CREATE INDEX m_a ON m (a)")  # hash
        plan = db.explain("SELECT id FROM m t WHERE t.a > 5")
        assert "IndexRangeScan" not in plan
        assert "SeqScan" in plan

    def test_extra_predicate_stays_as_filter(self, db):
        db.create_ordered_index("m_score", "m", ["score"])
        result = db.execute(
            "SELECT id FROM m t WHERE t.score >= 10 AND t.score < 30 "
            "AND t.b = 'b0' ORDER BY id"
        )
        expected = [i for i in range(10, 30) if i % 3 == 0]
        assert result.column(0) == expected

    def test_prepared_range_rebinds(self, db):
        db.create_ordered_index("m_score", "m", ["score"])
        query = db.prepare(
            "SELECT COUNT(*) FROM m t WHERE t.score >= ? AND t.score < ?"
        )
        assert "IndexRangeScan" in query.explain()
        assert query.execute(0, 50).scalar() == 50
        assert query.execute(90, 100).scalar() == 10

    def test_null_bound_yields_no_rows(self, db):
        db.create_ordered_index("m_score", "m", ["score"])
        query = db.prepare("SELECT COUNT(*) FROM m t WHERE t.score > ?")
        assert query.execute(None).scalar() == 0

    def test_equality_preferred_over_range(self, db):
        db.create_ordered_index("m_score", "m", ["score"])
        plan = db.explain(
            "SELECT id FROM m t WHERE t.score = 5 AND t.score < 50"
        )
        # the equality can use the ordered index as a point lookup
        assert "IndexLookup(m.m_score)" in plan


# ---------------------------------------------------------------------------
# access-path goldens: every way of writing a key predicate reaches the index
# ---------------------------------------------------------------------------

#: index kind -> (index name, its column, a probe value, a [low, high) range)
INDEXES = {
    "pk": ("m_pkey", "id", 7, (10, 20)),
    "hash": ("m_a", "a", 7, (2, 4)),
    "ordered": ("m_score", "score", 7, (10, 20)),
}

#: how the statement names the column: FROM-clause suffix and column prefix
SELECT_SPELLINGS = {
    "qualified": ("", "m."),
    "aliased": (" t", "t."),
    "unqualified": ("", ""),
}
DML_SPELLINGS = {"qualified": "m.", "unqualified": ""}

PREDICATES = ("equality", "range", "equality_leftover")


@pytest.fixture
def indexed(db):
    db.execute("CREATE INDEX m_a ON m (a)")
    db.create_ordered_index("m_score", "m", ["score"])
    return db


def predicate_sql(kind, predicate, prefix, placeholders=False):
    """WHERE text, its bind values, and the matching Python predicate."""
    _name, column, probe, (low, high) = INDEXES[kind]
    position = {"id": 0, "a": 1, "score": 3}[column]
    mark = (lambda value: "?") if placeholders else repr
    if predicate == "equality":
        return (f"{prefix}{column} = {mark(probe)}", [probe],
                lambda row: row[position] == probe)
    if predicate == "range":
        return (
            f"{prefix}{column} >= {mark(low)} AND {prefix}{column} < {mark(high)}",
            [low, high], lambda row: low <= row[position] < high)
    return (f"{prefix}{column} = {mark(probe)} AND {prefix}b = {mark('b1')}",
            [probe, "b1"],
            lambda row: row[position] == probe and row[2] == "b1")


def access_shape(kind, predicate, indent):
    """The plan lines below the statement's own node."""
    name = INDEXES[kind][0]
    pad = "  " * indent
    if predicate == "equality":
        return [f"{pad}IndexLookup(m.{name})"]
    if predicate == "equality_leftover":
        return [f"{pad}Filter", f"{pad}  IndexLookup(m.{name})"]
    if kind == "hash":  # a hash index cannot answer a range
        return [f"{pad}Filter", f"{pad}  SeqScan(m)"]
    return [f"{pad}IndexRangeScan(m.{name} [low..high))"]


def rows_of(db):
    return sorted(db.table("m").rows())


class TestAccessPathGoldens:
    @pytest.mark.parametrize("predicate", PREDICATES)
    @pytest.mark.parametrize("spelling", sorted(SELECT_SPELLINGS))
    @pytest.mark.parametrize("kind", sorted(INDEXES))
    def test_select(self, indexed, kind, spelling, predicate):
        suffix, prefix = SELECT_SPELLINGS[spelling]
        where, _values, matches = predicate_sql(kind, predicate, prefix)
        sql = f"SELECT {prefix}id FROM m{suffix} WHERE {where}"
        assert indexed.explain(sql).splitlines() == (
            ["Project(1 exprs)"] + access_shape(kind, predicate, 1)
        )
        expected = sorted(row[0] for row in rows_of(indexed) if matches(row))
        assert sorted(indexed.execute(sql).column(0)) == expected

    @pytest.mark.parametrize("predicate", PREDICATES)
    @pytest.mark.parametrize("spelling", sorted(SELECT_SPELLINGS))
    @pytest.mark.parametrize("kind", sorted(INDEXES))
    def test_prepared_select(self, indexed, kind, spelling, predicate):
        suffix, prefix = SELECT_SPELLINGS[spelling]
        where, values, matches = predicate_sql(kind, predicate, prefix, True)
        query = indexed.prepare(f"SELECT {prefix}id FROM m{suffix} WHERE {where}")
        assert query.explain().splitlines() == (
            ["Project(1 exprs)"] + access_shape(kind, predicate, 1)
        )
        expected = sorted(row[0] for row in rows_of(indexed) if matches(row))
        assert sorted(query.execute(*values).column(0)) == expected

    @pytest.mark.parametrize("predicate", PREDICATES)
    @pytest.mark.parametrize("spelling", sorted(DML_SPELLINGS))
    @pytest.mark.parametrize("kind", sorted(INDEXES))
    def test_update(self, indexed, kind, spelling, predicate):
        where, _values, matches = predicate_sql(
            kind, predicate, DML_SPELLINGS[spelling])
        sql = f"UPDATE m SET b = 'hit' WHERE {where}"
        assert indexed.explain(sql).splitlines() == (
            ["Update(m)"] + access_shape(kind, predicate, 1)
        )
        expected = sorted(
            (row[0], row[1], "hit", row[3]) if matches(row) else row
            for row in rows_of(indexed)
        )
        hits = sum(1 for row in rows_of(indexed) if matches(row))
        assert indexed.execute(sql).rowcount == hits > 0
        assert rows_of(indexed) == expected

    @pytest.mark.parametrize("predicate", PREDICATES)
    @pytest.mark.parametrize("spelling", sorted(DML_SPELLINGS))
    @pytest.mark.parametrize("kind", sorted(INDEXES))
    def test_delete(self, indexed, kind, spelling, predicate):
        where, _values, matches = predicate_sql(
            kind, predicate, DML_SPELLINGS[spelling])
        sql = f"DELETE FROM m WHERE {where}"
        assert indexed.explain(sql).splitlines() == (
            ["Delete(m)"] + access_shape(kind, predicate, 1)
        )
        expected = [row for row in rows_of(indexed) if not matches(row)]
        assert indexed.execute(sql).rowcount == 100 - len(expected) > 0
        assert rows_of(indexed) == expected

    def test_explain_statement_form_for_dml(self, indexed):
        result = indexed.execute("EXPLAIN DELETE FROM m WHERE id = 3")
        assert result.rows == [("Delete(m)",), ("  IndexLookup(m.m_pkey)",)]

    def test_explain_update_runs_no_set_subquery(self, indexed):
        # the subquery yields many rows, so running it fails
        sql = "UPDATE m SET b = (SELECT b FROM m) WHERE id = 3"
        assert indexed.explain(sql).splitlines() == [
            "Update(m)", "  IndexLookup(m.m_pkey)"
        ]
        with pytest.raises(ExecutionError):
            indexed.execute(sql)

    def test_unqualified_column_in_a_join_owned_by_one_table(self, indexed):
        indexed.execute("CREATE TABLE n (nid INTEGER PRIMARY KEY, mid INTEGER)")
        indexed.load_rows("n", [(i, i % 5) for i in range(20)])
        plan = indexed.explain(
            "SELECT nid FROM m, n WHERE id = 3 AND n.mid = m.id"
        )
        assert "IndexLookup(m.m_pkey)" in plan
        assert sorted(
            indexed.execute(
                "SELECT nid FROM m, n WHERE id = 3 AND n.mid = m.id"
            ).column(0)
        ) == [3, 8, 13, 18]

    def test_ambiguous_unqualified_column_selects_no_index(self, indexed):
        """Two bindings own ``id``: index selection matches nothing and
        raises nothing — the statement's own ambiguity error, raised by
        expression compilation before and after this change, is the only
        one."""
        schema = indexed.table("m").schema
        scope = Scope(
            [RelationBinding("x", 0, schema), RelationBinding("y", 1, schema)]
        )
        where = parse_statement("SELECT 1 FROM m x, m y WHERE id = 3").where
        assert extract_column_equality(where, "x", scope) is None
        where = parse_statement("SELECT 1 FROM m x, m y WHERE id < 3").where
        assert extract_column_comparison(where, "y", scope) is None
        with pytest.raises(PlanningError, match="ambiguous column reference"):
            indexed.explain("SELECT 1 FROM m x, m y WHERE id = 3")
        # qualified, the same join reaches the index on either side
        plan = indexed.explain(
            "SELECT 1 FROM m x, m y WHERE x.id = 3 AND y.id = x.a"
        )
        assert "IndexLookup(m.m_pkey)" in plan

    def test_equality_probe_of_another_type_finds_what_equals_finds(self, indexed):
        """``=`` never coerces (``7 = '7'`` is false for a scan's filter),
        so neither does a lookup, in any index kind, for any statement."""
        for column in ("id", "a", "score"):  # ordered unique, hash, ordered
            sql = f"SELECT id FROM m WHERE {column} = '7'"
            assert "IndexLookup" in indexed.explain(sql)
            assert indexed.execute(sql).rows == []
            assert indexed.execute(f"SELECT id FROM m WHERE {column} = 'x'").rows == []
        assert indexed.execute("SELECT a FROM m WHERE id = 7.0").rows == [(7,)]
        assert indexed.execute("UPDATE m SET b = 'no' WHERE id = '7'").rowcount == 0
        assert indexed.execute("DELETE FROM m WHERE id = '7'").rowcount == 0
        query = indexed.prepare("SELECT a FROM m WHERE id = ?")
        assert query.execute("7").rows == []
        assert query.execute(7).rows == [(7,)]

    def test_range_bound_of_another_type_is_left_to_the_comparison(self, indexed):
        """``>=`` coerces a string against a number row by row; an index
        cannot order the two, so the operator answers such a bound with
        the comparison itself over a scan — same rows, same errors."""
        sql = "SELECT COUNT(*) FROM m WHERE id >= '10' AND id < 20"
        assert "IndexRangeScan(m.m_pkey" in indexed.explain(sql)
        assert indexed.execute(sql).scalar() == 10
        assert indexed.execute("DELETE FROM m WHERE id >= '98'").rowcount == 2
        with pytest.raises(ExecutionError, match="cannot compare string 'x'"):
            indexed.execute("SELECT id FROM m WHERE id < 'x'")
        query = indexed.prepare("SELECT COUNT(*) FROM m WHERE id >= ? AND id < ?")
        assert query.execute("10", "20").scalar() == 10
        assert query.execute(10, 20).scalar() == 10

    def test_null_probe_matches_nothing(self, indexed):
        indexed.execute("INSERT INTO m VALUES (200, NULL, 'n', NULL)")
        query = indexed.prepare("SELECT id FROM m WHERE a = ?")
        assert "IndexLookup(m.m_a)" in query.explain()
        assert query.execute(None).rows == []

    def test_numbers_against_a_string_key(self, indexed):
        """A number equals no string; ordered against one, each stored
        string is read as a number (what the filter over a scan does)."""
        indexed.execute("CREATE TABLE s (name VARCHAR PRIMARY KEY)")
        indexed.execute("INSERT INTO s VALUES ('8'), ('9'), ('10')")
        assert "IndexLookup(s.s_pkey)" in indexed.explain(
            "SELECT name FROM s WHERE name = 9"
        )
        assert indexed.execute("SELECT name FROM s WHERE name = 9").rows == []
        assert "IndexRangeScan(s.s_pkey" in indexed.explain(
            "SELECT name FROM s WHERE name >= 9"
        )
        assert sorted(
            indexed.execute("SELECT name FROM s WHERE name >= 9").rows
        ) == [("10",), ("9",)]
        assert indexed.execute("SELECT name FROM s WHERE name >= '9'").rows == [
            ("9",)
        ]
        indexed.execute("INSERT INTO s VALUES ('bob')")
        with pytest.raises(ExecutionError, match="cannot compare string 'bob'"):
            indexed.execute("DELETE FROM s WHERE name >= 9")
        assert len(indexed.table("s")) == 4


    @pytest.mark.parametrize(
        "where, leaf",
        [
            ("a = 3", "IndexLookup(m.m_a)"),
            ("id >= 3 AND id < 60 AND a + 0 = 3", "IndexRangeScan(m.m_pkey"),
            ("a + 0 = 3", "SeqScan(m)"),
        ],
    )
    def test_row_deleted_under_a_suspended_plan_is_passed_over(
        self, indexed, where, leaf
    ):
        """Whichever leaf reads the table: a streamed plan resumed after
        a DELETE does not return the row that is gone."""
        sql = f"SELECT id FROM m WHERE {where}"
        assert leaf in indexed.explain(sql)
        stream = indexed.stream(sql)
        assert next(stream) == (3,)
        indexed.execute("DELETE FROM m WHERE id = 23")
        assert list(stream) == [(13,), (33,), (43,), (53,)] + (
            [] if "RangeScan" in leaf else [(63,), (73,), (83,), (93,)]
        )


class TestIndexRanking:
    """The choice among covering indexes does not depend on creation order."""

    def test_unique_beats_non_unique(self, db):
        db.execute("CREATE INDEX m_a ON m (a)")  # hash, many rows per key
        plan = db.explain("SELECT b FROM m WHERE a = 3 AND id = 3")
        assert "IndexLookup(m.m_pkey)" in plan

    def test_hash_on_the_key_column_is_not_shadowed_by_the_key(self, db):
        """A hash index on the primary-key column finds one row as well
        and finds it faster; whichever was created first."""
        db.execute("CREATE INDEX m_id ON m (id)")
        assert "IndexLookup(m.m_id)" in db.explain("SELECT a FROM m WHERE id = 3")
        db.execute("CREATE UNIQUE INDEX a_id ON m (id)")
        assert "IndexLookup(m.a_id)" in db.explain("SELECT a FROM m WHERE id = 3")

    def test_hash_beats_ordered_at_equal_uniqueness(self, db):
        db.create_ordered_index("a_ordered", "m", ["a"])
        db.execute("CREATE INDEX z_hash ON m (a)")
        assert "IndexLookup(m.z_hash)" in db.explain("SELECT id FROM m WHERE a = 3")

    def test_name_breaks_the_last_tie(self, db):
        db.execute("CREATE INDEX m_a2 ON m (a)")
        db.execute("CREATE INDEX m_a1 ON m (a)")
        assert "IndexLookup(m.m_a1)" in db.explain("SELECT id FROM m WHERE a = 3")

    def test_more_key_columns_beat_uniqueness(self, db):
        db.execute("CREATE INDEX m_id_a ON m (id, a)")
        plan = db.explain("SELECT b FROM m WHERE id = 3 AND a = 3")
        assert "IndexLookup(m.m_id_a)" in plan and "Filter" not in plan

    def test_range_only_when_no_equality_index_applies(self, db):
        plan = db.explain("SELECT b FROM m WHERE id > 3 AND id = 5")
        assert "IndexLookup(m.m_pkey)" in plan and "IndexRangeScan" not in plan

    def test_two_bounds_beat_one(self, db):
        db.create_ordered_index("a_ordered", "m", ["a"])
        plan = db.explain("SELECT b FROM m WHERE a > 3 AND id >= 5 AND id < 9")
        assert "IndexRangeScan(m.m_pkey [low..high))" in plan


class TestCompositePrimaryKey:
    @pytest.fixture
    def pairs(self):
        database = Database()
        database.execute(
            "CREATE TABLE p (a INTEGER PRIMARY KEY, b INTEGER PRIMARY KEY, "
            "v INTEGER)"
        )
        database.load_rows(
            "p", [(a, b, 10 * a + b) for a in range(6) for b in range(4)]
        )
        return database

    def test_full_key_is_a_lookup(self, pairs):
        sql = "SELECT v FROM p WHERE a = 3 AND b = 2"
        assert "IndexLookup(p.p_pkey)" in pairs.explain(sql)
        assert pairs.execute(sql).rows == [(32,)]

    @pytest.mark.parametrize(
        "where, expected",
        [
            ("a >= 2 AND a < 4", {2, 3}),
            ("a > 2 AND a <= 4", {3, 4}),
            ("a > 4", {5}),
            ("a <= 0", {0}),
            ("a >= 6", set()),
        ],
    )
    def test_leading_column_range_keeps_every_row_of_a_bound(
        self, pairs, where, expected
    ):
        sql = f"SELECT a, b FROM p WHERE {where}"
        assert "IndexRangeScan(p.p_pkey" in pairs.explain(sql)
        assert sorted(pairs.execute(sql).rows) == [
            (a, b) for a in sorted(expected) for b in range(4)
        ]

    def test_dml_through_the_composite_key(self, pairs):
        assert pairs.execute("DELETE FROM p WHERE a = 1 AND b = 1").rowcount == 1
        assert pairs.execute("UPDATE p SET v = 0 WHERE a >= 4").rowcount == 8
        assert pairs.execute("SELECT SUM(v) FROM p WHERE a >= 4").scalar() == 0

        with pytest.raises(ConstraintViolation):
            pairs.execute("INSERT INTO p VALUES (0, 0, 1)")


class TestDmlThroughIndexes:
    def test_update_moving_rows_along_the_index_it_scans(self, db):
        """No Halloween re-visit: targets are collected before any row
        moves, so a key pushed further into the selected range is updated
        once."""
        assert db.execute("UPDATE m SET id = id + 1000 WHERE id >= 50").rowcount == 50
        assert sorted(row[0] for row in db.table("m").rows()) == (
            list(range(50)) + list(range(1050, 1100))
        )

    def test_colliding_key_update_rolls_the_statement_back(self, db):
        before = sorted(db.table("m").rows())
        with pytest.raises(ConstraintViolation):
            # 10 -> 15 .. 14 -> 19 succeed, then 15 -> 20 meets row 20
            db.execute("UPDATE m SET id = id + 5 WHERE id >= 10 AND id < 16")
        assert sorted(db.table("m").rows()) == before
        assert db.execute("SELECT a FROM m WHERE id = 15").rows == [(5,)]
        assert db.table("m").lookup_primary_key((20,)) is not None

    def test_update_keeps_unchanged_index_keys_in_place(self, db):
        table = db.table("m")
        pk = table.primary_key_index
        touched = []
        original_insert, original_delete = pk.insert, pk.delete
        pk.insert = lambda row, slot: (touched.append(row), original_insert(row, slot))
        pk.delete = lambda row, slot: (touched.append(row), original_delete(row, slot))
        db.execute("UPDATE m SET score = score + 1")
        assert touched == []
        db.execute("UPDATE m SET id = 500 WHERE id = 5")
        assert len(touched) == 2

    def test_budgets_still_abort_a_scanning_dml(self, db):
        class JumpingClock:
            now = 0.0

            def __call__(self):
                self.now += 1.0
                return self.now

        assert "SeqScan(m)" in db.explain("DELETE FROM m WHERE score + 0 >= 0")
        token = QueryBudget(timeout_ms=100).start(clock=JumpingClock())
        with pytest.raises(QueryTimeoutError):
            db.execute("DELETE FROM m WHERE score + 0 >= 0", token=token)
        # a bound the index leaves to the comparison: every row it reads
        # ticks, not only the ones it keeps (here none)
        token = QueryBudget(timeout_ms=100).start(clock=JumpingClock())
        with pytest.raises(QueryTimeoutError):
            db.execute("DELETE FROM m WHERE id >= '1000'", token=token)
        with pytest.raises(ResourceExhaustedError, match="max_undo_depth"):
            db.execute(
                "DELETE FROM m WHERE score + 0 >= 0",
                budget=QueryBudget(max_undo_depth=5),
            )
        assert len(db.table("m")) == 100


class TestPrimaryKeyIndexHygiene:
    def test_registered_like_any_index(self, db):
        table = db.table("m")
        assert list(table.indexes) == ["m_pkey"]
        assert table.primary_key_index is table.indexes["m_pkey"]
        assert table.primary_key_index.unique
        assert db.catalog.index_owner("M_PKEY") == "m"

    def test_drop_index_refused(self, db):
        with pytest.raises(CatalogError, match="primary-key index"):
            db.execute("DROP INDEX m_pkey")
        assert "m_pkey" in db.table("m").indexes

    def test_colliding_create_index_name_refused(self, db):
        with pytest.raises(CatalogError, match="duplicate index name"):
            db.execute("CREATE INDEX m_pkey ON m (a)")
        db.execute("CREATE TABLE other (x INTEGER)")
        with pytest.raises(CatalogError, match="duplicate index name"):
            db.execute("CREATE INDEX m_pkey ON other (x)")
        assert list(db.table("other").indexes) == []
        db.execute("CREATE INDEX free_pkey ON other (x)")
        with pytest.raises(CatalogError, match="duplicate index name"):
            db.execute("CREATE TABLE free (k INTEGER PRIMARY KEY)")
        assert not db.catalog.has_table("free")

    def test_name_released_with_the_table(self, db):
        db.execute("DROP TABLE m")
        db.execute("CREATE TABLE m (id INTEGER PRIMARY KEY)")
        assert list(db.table("m").indexes) == ["m_pkey"]

    def test_not_in_snapshots_and_old_snapshots_load(self, db, tmp_path):
        db.execute("CREATE INDEX m_a ON m (a)")
        path = str(tmp_path / "snap.json")
        db.save_snapshot(path)
        with open(path) as handle:
            document = json.load(handle)
        # the shape a snapshot had before PRIMARY KEY was an index
        assert [entry["name"] for entry in document["indexes"]] == ["m_a"]
        restored = Database.load_snapshot(path)
        assert list(restored.table("m").indexes) == ["m_pkey", "m_a"]
        assert combined_digest(restored) == combined_digest(db)
        assert "IndexLookup(m.m_pkey)" in restored.explain(
            "SELECT a FROM m WHERE id = 3"
        )

    def test_not_in_the_command_log(self, db, tmp_path):
        path = str(tmp_path / "commands.log")
        logged = Database()
        enable_command_log(logged, path)
        logged.execute("CREATE TABLE m (id INTEGER PRIMARY KEY, a INTEGER)")
        logged.execute("INSERT INTO m VALUES (1, 2)")
        with open(path) as handle:
            assert "pkey" not in handle.read()
        recovered = Database.recover(command_log=path)
        assert list(recovered.table("m").indexes) == ["m_pkey"]
        assert recovered.table("m").lookup_primary_key((1,)) is not None

    def test_shell_lists_it_as_primary_key(self, db):
        db.execute("CREATE INDEX m_a ON m (a)")
        out = io.StringIO()
        shell = Shell(db, out=out)
        shell.run(["\\d m"])
        listing = out.getvalue()
        assert "index m_pkey (id) PRIMARY KEY" in listing
        assert "index m_a (a) hash" in listing
