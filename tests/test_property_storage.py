"""Property-based tests for the storage layer.

Invariants checked under random operation sequences:

* ``row_count`` equals the number of live rows;
* the primary-key index always resolves to the row holding that key;
* secondary indexes stay consistent with a brute-force scan;
* tuple pointers either dereference to the current row or raise;
* DML and SELECT through the access paths answer what a scan answers,
  and through the statement cache what the uncached path answers.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro.errors import ConstraintViolation, DatabaseError, ExecutionError
from repro.sql import parse_statement
from repro.storage import Column, HashIndex, Table, TableSchema
from repro.types import SqlType


def make_table(with_index=False):
    table = Table(
        "t",
        TableSchema(
            [
                Column("id", SqlType.INTEGER, primary_key=True),
                Column("val", SqlType.INTEGER),
            ]
        ),
    )
    if with_index:
        table.attach_index(HashIndex("by_val", table.schema, ["val"]))
    return table


# an operation is (kind, key, value)
operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "update"]),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=5),
    ),
    max_size=60,
)


def apply_operations(table, ops):
    """Drive the table and an oracle dict through the same sequence."""
    oracle = {}
    for kind, key, value in ops:
        if kind == "insert":
            if key in oracle:
                with pytest.raises(ConstraintViolation):
                    table.insert((key, value))
            else:
                table.insert((key, value))
                oracle[key] = value
        elif kind == "delete":
            slot = table.lookup_primary_key((key,))
            if key in oracle:
                assert slot is not None
                table.delete(slot)
                del oracle[key]
            else:
                assert slot is None
        else:  # update value in place
            slot = table.lookup_primary_key((key,))
            if key in oracle:
                table.update(slot, (key, value))
                oracle[key] = value
            else:
                assert slot is None
    return oracle


class TestTableInvariants:
    @given(operations)
    @settings(max_examples=120, deadline=None)
    def test_row_count_and_contents_match_oracle(self, ops):
        table = make_table()
        oracle = apply_operations(table, ops)
        assert table.row_count == len(oracle)
        stored = {row[0]: row[1] for row in table.rows()}
        assert stored == oracle

    @given(operations)
    @settings(max_examples=120, deadline=None)
    def test_primary_key_index_consistent(self, ops):
        table = make_table()
        oracle = apply_operations(table, ops)
        for key in range(16):
            slot = table.lookup_primary_key((key,))
            if key in oracle:
                assert table.row_at(slot) == (key, oracle[key])
            else:
                assert slot is None

    @given(operations)
    @settings(max_examples=120, deadline=None)
    def test_secondary_index_matches_scan(self, ops):
        table = make_table(with_index=True)
        apply_operations(table, ops)
        index = table.indexes["by_val"]
        for value in range(6):
            via_index = sorted(table.row_at(s)[0] for s in index.lookup((value,)))
            via_scan = sorted(
                row[0] for row in table.rows() if row[1] == value
            )
            assert via_index == via_scan

    @given(operations)
    @settings(max_examples=80, deadline=None)
    def test_tuple_pointers_never_lie(self, ops):
        """Any pointer taken at any time either sees the row that now
        occupies its (slot, generation) or raises — never a wrong row."""
        table = make_table()
        pointers = []
        oracle = {}
        for kind, key, value in ops:
            if kind == "insert" and key not in oracle:
                pointer = table.insert((key, value))
                pointers.append((pointer, key))
                oracle[key] = value
            elif kind == "delete" and key in oracle:
                table.delete(table.lookup_primary_key((key,)))
                del oracle[key]
            elif kind == "update" and key in oracle:
                table.update(table.lookup_primary_key((key,)), (key, value))
                oracle[key] = value
        for pointer, key in pointers:
            if key in oracle:
                if pointer.is_live:
                    assert pointer.dereference() == (key, oracle[key])
            else:
                # the original row is gone: the pointer must not
                # silently resolve to a different row
                if pointer.is_live:
                    assert pointer.dereference()[0] == key
                else:
                    with pytest.raises(ExecutionError):
                        pointer.dereference()


# ---------------------------------------------------------------------------
# DML through access paths == DML through a scan
# ---------------------------------------------------------------------------

KEY_SPACE = 40

table_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=KEY_SPACE - 1),
        st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
        st.one_of(st.none(), st.integers(min_value=0, max_value=9)),
    ),
    max_size=30,
    unique_by=lambda row: row[0],
)

bound = st.integers(min_value=-2, max_value=KEY_SPACE + 2)
small = st.integers(min_value=0, max_value=9)

# the WHERE clauses: every access path (key / hash / ordered column, equality
# / range / open range, with and without a leftover conjunct) in both
# spellings of the column
predicates = st.one_of(
    st.builds("k = {}".format, bound),
    st.builds("t.k = {}".format, bound),
    st.builds("k >= {} AND k < {}".format, bound, bound),
    st.builds("{} < t.k AND t.k <= {}".format, bound, bound),
    st.builds("k > {}".format, bound),
    st.builds("k <= {} AND h = {}".format, bound, small),
    st.builds("h = {}".format, small),
    st.builds("t.h = {} AND o > {}".format, small, small),
    st.builds("o >= {} AND o <= {}".format, small, small),
    st.builds("o = {} AND k <> {}".format, small, bound),
    st.builds("k = {} AND k = {}".format, bound, bound),
    st.just("h = NULL"),
    st.just("o > NULL"),
)

# literals of another type than the INTEGER columns they meet: `=` never
# coerces (no integer equals '5'), the ordering operators read a string as
# a number row by row and fail on one that is none — whatever path reaches
# the rows
foreign = st.one_of(
    st.builds("'{}'".format, bound),
    st.builds("{}.0".format, bound),
    st.builds("{}.5".format, bound),
)
mixed_predicates = st.one_of(
    st.builds("k = {}".format, foreign),
    st.builds("t.h = {}".format, foreign),
    st.builds("o = {} AND k > {}".format, foreign, bound),
    st.builds("k >= {} AND k < {}".format, foreign, bound),
    st.builds("{} < t.k AND t.k <= {}".format, bound, foreign),
    st.builds("k <= {}".format, foreign),
    st.builds("o > {} AND o < {}".format, foreign, foreign),
    st.builds("o >= {} AND h = {}".format, foreign, small),
    st.builds(
        "{} {} 'x'".format,
        st.sampled_from(["k", "t.h", "o"]),
        st.sampled_from(["=", "<", ">="]),
    ),
)
predicates = st.one_of(predicates, mixed_predicates)

statements = st.lists(
    st.one_of(
        st.builds("DELETE FROM t WHERE {}".format, predicates),
        st.builds("UPDATE t SET h = o, o = {} WHERE {}".format, small, predicates),
        # moves the selected keys up by an amount no other statement uses
        # (filled in per position below), possibly further into the range
        # that selected them
        st.builds("UPDATE t SET k = k + {{shift}} WHERE {}".format, predicates),
    ),
    max_size=8,
)


def dml_pair(rows):
    """The table as the engine builds it (PRIMARY KEY + hash + ordered
    index) and the same rows where no statement has an index to reach."""
    indexed, scanned = Database(), Database()
    indexed.execute(
        "CREATE TABLE t (k INTEGER PRIMARY KEY, h INTEGER, o INTEGER)"
    )
    indexed.execute("CREATE INDEX t_h ON t (h)")
    indexed.create_ordered_index("t_o", "t", ["o"])
    scanned.execute("CREATE TABLE t (k INTEGER, h INTEGER, o INTEGER)")
    for database in (indexed, scanned):
        database.load_rows("t", rows)
    return indexed, scanned


def outcome(database, sql):
    """What a statement comes to: its rows and rowcount, or its error."""
    try:
        result = database.execute(sql)
    except ExecutionError as error:
        return type(error)
    return result.rowcount, sorted(result.rows, key=repr)


class TestDmlMatchesScanOracle:
    @given(table_rows, statements)
    @settings(max_examples=150, deadline=None)
    def test_rowcounts_and_contents_identical(self, rows, sqls):
        indexed, scanned = dml_pair(rows)
        for position, sql in enumerate(sqls):
            # distinct powers of two: no two rows can ever be moved onto
            # the same key, so the keyless oracle sees no different errors
            sql = sql.format(shift=1000 * 2 ** position)
            assert "SeqScan(t)" in scanned.explain(sql)
            assert outcome(indexed, sql) == outcome(scanned, sql)
            assert sorted(indexed.table("t").rows(), key=repr) == sorted(
                scanned.table("t").rows(), key=repr
            )
        # the indexes followed every statement
        table = indexed.table("t")
        for slot, row in table.scan():
            assert table.lookup_primary_key((row[0],)) == slot
        assert len(table.primary_key_index) == len(table)

    @given(table_rows, predicates)
    @settings(max_examples=100, deadline=None)
    def test_select_identical(self, rows, predicate):
        indexed, scanned = dml_pair(rows)
        sql = f"SELECT k, h, o FROM t WHERE {predicate}"
        assert outcome(indexed, sql) == outcome(scanned, sql)

    literal = st.sampled_from(["5", "'5'", "5.5", "9", "'7'", "'bob'", "NULL"])
    above = st.builds("name {} {}".format, st.sampled_from([">", ">="]), literal)
    below = st.builds("name {} {}".format, st.sampled_from(["<", "<="]), literal)

    @given(
        st.lists(
            st.sampled_from(["3", "5", "7", "10", "40", "5.5", "bob", ""]),
            unique=True,
        ),
        # predicates the access path answers whole: what it leaves to a
        # filter is not evaluated on the rows it spares, errors included
        st.one_of(
            st.builds("name = {}".format, literal),
            above,
            below,
            st.builds("{} AND {}".format, above, below),
        ),
        st.sampled_from(["SELECT name FROM s", "DELETE FROM s", "UPDATE s SET v = 1"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_string_key_identical(self, names, predicate, statement):
        """A VARCHAR key met by numbers: stored strings are read as
        numbers row by row, which no index order can stand for."""
        indexed, scanned = Database(), Database()
        indexed.execute("CREATE TABLE s (name VARCHAR PRIMARY KEY, v INTEGER)")
        scanned.execute("CREATE TABLE s (name VARCHAR, v INTEGER)")
        for database in (indexed, scanned):
            database.load_rows("s", [(name, 0) for name in names])
        sql = f"{statement} WHERE {predicate}"
        assert "SeqScan(s)" not in indexed.explain(sql)
        assert outcome(indexed, sql) == outcome(scanned, sql)
        assert sorted(indexed.table("s").rows()) == sorted(scanned.table("s").rows())


# ---------------------------------------------------------------------------
# the statement cache == the uncached path
# ---------------------------------------------------------------------------

cache_statements = st.lists(
    st.one_of(
        st.builds("SELECT k, h, o FROM t WHERE {}".format, predicates),
        st.builds("SELECT COUNT(*), SUM(o) FROM t WHERE {}".format, predicates),
        st.builds(
            "SELECT k, o FROM t WHERE {} ORDER BY {} LIMIT {}".format,
            predicates,
            st.sampled_from(["1", "2, 1", "2 DESC, 1 DESC"]),
            st.integers(min_value=1, max_value=4),
        ),
        st.builds("DELETE FROM t WHERE {}".format, predicates),
        st.builds("UPDATE t SET h = o, o = {} WHERE {}".format, small, predicates),
        st.builds("INSERT INTO t VALUES ({}, {}, {})".format, bound, small, small),
        st.sampled_from([
            "CREATE INDEX t_h ON t (h)",
            "CREATE INDEX t_o ON t (o)",
            "DROP INDEX t_h",
            "DROP INDEX t_o",
            "DROP TABLE t",
            "CREATE TABLE t (k INTEGER PRIMARY KEY, h INTEGER, o INTEGER)",
            "CREATE TABLE t (k INTEGER, h INTEGER, o INTEGER)",
        ]),
    ),
    max_size=12,
)


def any_outcome(run, sql):
    """Rows and rowcount, or the kind of error."""
    try:
        result = run(sql)
    except DatabaseError as error:
        return type(error)
    return result.rowcount, result.rows


class TestStatementCacheMatchesUncached:
    @given(table_rows, cache_statements)
    @settings(max_examples=120, deadline=None)
    def test_same_rows_and_rowcounts(self, rows, sqls):
        """A random DML / SELECT / DDL sequence, run twice over: through
        ``execute`` (cached plans, re-planned after DDL) and through
        ``execute_parsed`` of a fresh parse on a twin database."""
        cached, twin = Database(), Database()
        for database in (cached, twin):
            database.execute(
                "CREATE TABLE t (k INTEGER PRIMARY KEY, h INTEGER, o INTEGER)"
            )
            database.load_rows("t", rows)
        for sql in sqls + sqls:
            assert any_outcome(cached.execute, sql) == any_outcome(
                lambda text: twin.execute_parsed(parse_statement(text), text),
                sql,
            ), sql
        if twin.catalog.has_table("t"):
            assert sorted(cached.table("t").rows(), key=repr) == sorted(
                twin.table("t").rows(), key=repr
            )
