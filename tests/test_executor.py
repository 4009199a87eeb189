"""Direct unit tests for the Volcano executor operators."""

from repro.executor import (
    AggregateOp,
    DistinctOp,
    FilterOp,
    HashJoinOp,
    IndexLookupOp,
    LimitOp,
    NestedLoopJoinOp,
    ProjectOp,
    SeqScanOp,
    SingleRowOp,
    SortOp,
)
from repro.executor.aggregates import AggregateSpec
from repro.expr.compile import CompiledExpression
from repro.storage import Column, HashIndex, Table, TableSchema
from repro.types import SqlType


def make_table(rows):
    table = Table(
        "t",
        TableSchema(
            [
                Column("id", SqlType.INTEGER, primary_key=True),
                Column("grp", SqlType.VARCHAR),
                Column("val", SqlType.INTEGER),
            ]
        ),
    )
    for row in rows:
        table.insert(row)
    return table


def expr(fn):
    """Wrap a plain function as a CompiledExpression."""
    return CompiledExpression(fn, set(), set())


SAMPLE = [
    (1, "a", 10),
    (2, "a", 20),
    (3, "b", 30),
    (4, "b", None),
]


class TestScans:
    def test_seq_scan_emits_all_rows_in_slot(self):
        table = make_table(SAMPLE)
        rows = list(SeqScanOp(table, slot=1, width=3))
        assert len(rows) == 4
        for row in rows:
            assert row[0] is None and row[2] is None
            assert isinstance(row[1], tuple)

    def test_seq_scan_restartable(self):
        table = make_table(SAMPLE)
        scan = SeqScanOp(table, 0, 1)
        assert len(list(scan)) == len(list(scan)) == 4

    def test_index_lookup_constant_key(self):
        table = make_table(SAMPLE)
        index = HashIndex("by_grp", table.schema, ["grp"])
        table.attach_index(index)
        rows = list(IndexLookupOp(table, index, ("a",), 0, 1))
        assert sorted(row[0][0] for row in rows) == [1, 2]

    def test_index_lookup_callable_key(self):
        table = make_table(SAMPLE)
        index = HashIndex("by_grp", table.schema, ["grp"])
        table.attach_index(index)
        key_holder = ["a"]
        op = IndexLookupOp(table, index, lambda: (key_holder[0],), 0, 1)
        assert len(list(op)) == 2
        key_holder[0] = "b"
        assert len(list(op)) == 2
        key_holder[0] = "zzz"
        assert list(op) == []

    def test_single_row(self):
        rows = list(SingleRowOp(3))
        assert rows == [[None, None, None]]


class TestFilterProjectLimit:
    def scan(self):
        return SeqScanOp(make_table(SAMPLE), 0, 1)

    def test_filter_keeps_only_true(self):
        # val > 15 is None for the NULL row: dropped, not kept
        predicate = expr(
            lambda row: None if row[0][2] is None else row[0][2] > 15
        )
        rows = list(FilterOp(self.scan(), predicate))
        assert sorted(row[0][0] for row in rows) == [2, 3]

    def test_project(self):
        projection = [expr(lambda row: row[0][0] * 100)]
        rows = list(ProjectOp(self.scan(), projection))
        assert sorted(r[0] for r in rows) == [100, 200, 300, 400]

    def test_limit(self):
        assert len(list(LimitOp(self.scan(), 2))) == 2

    def test_limit_zero(self):
        assert list(LimitOp(self.scan(), 0)) == []

    def test_offset(self):
        rows = list(LimitOp(self.scan(), 2, offset=3))
        assert len(rows) == 1

    def test_limit_is_lazy(self):
        pulled = []

        class Counting(SeqScanOp):
            def __iter__(self):
                for row in super().__iter__():
                    pulled.append(1)
                    yield row

        scan = Counting(make_table(SAMPLE), 0, 1)
        list(LimitOp(scan, 1))
        assert len(pulled) == 1

    def test_distinct(self):
        table = make_table(SAMPLE)
        projected = ProjectOp(
            SeqScanOp(table, 0, 1), [expr(lambda row: row[0][1])]
        )
        rows = list(DistinctOp(projected))
        assert sorted(r[0] for r in rows) == ["a", "b"]


class TestJoins:
    def sides(self):
        left = SeqScanOp(make_table(SAMPLE), 0, 2)
        right_table = Table(
            "u",
            TableSchema(
                [
                    Column("grp", SqlType.VARCHAR, primary_key=True),
                    Column("label", SqlType.VARCHAR),
                ]
            ),
        )
        right_table.insert(("a", "alpha"))
        right_table.insert(("c", "gamma"))
        right = SeqScanOp(right_table, 1, 2)
        return left, right

    def test_nested_loop_inner(self):
        left, right = self.sides()
        predicate = expr(lambda row: row[0][1] == row[1][0])
        rows = list(NestedLoopJoinOp(left, right, predicate))
        assert len(rows) == 2
        assert all(row[1][1] == "alpha" for row in rows)

    def test_nested_loop_left_outer(self):
        left, right = self.sides()
        predicate = expr(lambda row: row[0][1] == row[1][0])
        rows = list(NestedLoopJoinOp(left, right, predicate, left_outer=True))
        assert len(rows) == 4
        unmatched = [row for row in rows if row[1] is None]
        assert len(unmatched) == 2  # the two 'b' rows

    def test_cross_join(self):
        left, right = self.sides()
        assert len(list(NestedLoopJoinOp(left, right, None))) == 8

    def test_hash_join(self):
        left, right = self.sides()
        rows = list(
            HashJoinOp(
                left,
                right,
                [expr(lambda row: row[0][1])],
                [expr(lambda row: row[1][0])],
            )
        )
        assert len(rows) == 2

    def test_hash_join_null_keys_never_match(self):
        table = make_table([(1, None, 1)])
        left = SeqScanOp(table, 0, 2)
        right = SeqScanOp(make_table([(9, None, 9)]), 1, 2)
        rows = list(
            HashJoinOp(
                left,
                right,
                [expr(lambda row: row[0][1])],
                [expr(lambda row: row[1][1])],
            )
        )
        assert rows == []

    def test_hash_join_left_outer(self):
        left, right = self.sides()
        rows = list(
            HashJoinOp(
                left,
                right,
                [expr(lambda row: row[0][1])],
                [expr(lambda row: row[1][0])],
                left_outer=True,
            )
        )
        assert len(rows) == 4


class TestAggregateAndSort:
    def scan(self):
        return SeqScanOp(make_table(SAMPLE), 0, 1)

    def test_group_by_aggregate(self):
        op = AggregateOp(
            self.scan(),
            [expr(lambda row: row[0][1])],
            [
                AggregateSpec("COUNT", None),
                AggregateSpec("SUM", expr(lambda row: row[0][2])),
            ],
        )
        groups = {row[0][0]: row[0][1:] for row in op}
        assert groups["a"] == (2, 30)
        assert groups["b"] == (2, 30)  # NULL ignored by SUM

    def test_scalar_aggregate_empty_input(self):
        table = make_table([])
        op = AggregateOp(
            SeqScanOp(table, 0, 1),
            [],
            [AggregateSpec("COUNT", None), AggregateSpec("MAX", expr(lambda r: 1))],
        )
        rows = list(op)
        assert rows == [[(0, None)]]

    def test_grouped_aggregate_empty_input_no_rows(self):
        table = make_table([])
        op = AggregateOp(
            SeqScanOp(table, 0, 1),
            [expr(lambda row: row[0][1])],
            [AggregateSpec("COUNT", None)],
        )
        assert list(op) == []

    def test_sort_ascending_descending(self):
        key = expr(lambda row: row[0][2])
        ascending = [
            row[0][0] for row in SortOp(self.scan(), [(key, True)])
        ]
        assert ascending == [4, 1, 2, 3]  # NULL first ascending
        descending = [
            row[0][0] for row in SortOp(self.scan(), [(key, False)])
        ]
        assert descending == [3, 2, 1, 4]  # NULL last descending

    def test_sort_multi_key_stable(self):
        grp = expr(lambda row: row[0][1])
        val = expr(lambda row: row[0][2] or 0)
        rows = [
            row[0][0]
            for row in SortOp(self.scan(), [(grp, True), (val, False)])
        ]
        assert rows == [2, 1, 3, 4]


class TestExplain:
    def test_tree_rendering(self):
        scan = SeqScanOp(make_table(SAMPLE), 0, 1)
        plan = LimitOp(FilterOp(scan, expr(lambda row: True)), 1)
        text = plan.explain()
        lines = text.splitlines()
        assert lines[0].startswith("Limit")
        assert lines[1].strip().startswith("Filter")
        assert lines[2].strip().startswith("SeqScan")
