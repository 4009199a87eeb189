"""Unit tests for the storage layer: schemas, tables, tuple pointers,
indexes, and the catalog."""

import pytest

from repro.errors import (
    CatalogError,
    ConstraintViolation,
    ExecutionError,
)
from repro.storage import (
    Catalog,
    Column,
    HashIndex,
    OrderedIndex,
    Table,
    TableSchema,
)
from repro.storage.table import TableListener
from repro.types import SqlType


def make_schema():
    return TableSchema(
        [
            Column("id", SqlType.INTEGER, primary_key=True),
            Column("name", SqlType.VARCHAR),
            Column("score", SqlType.FLOAT),
        ]
    )


def make_table(rows=()):
    table = Table("t", make_schema())
    for row in rows:
        table.insert(row)
    return table


class TestSchema:
    def test_column_positions(self):
        schema = make_schema()
        assert schema.position_of("id") == 0
        assert schema.position_of("NAME") == 1  # case-insensitive
        assert schema.position_of("Score") == 2

    def test_unknown_column_raises(self):
        with pytest.raises(CatalogError):
            make_schema().position_of("nope")

    def test_duplicate_column_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema(
                [Column("a", SqlType.INTEGER), Column("A", SqlType.FLOAT)]
            )

    def test_empty_schema_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema([])

    def test_primary_key_implies_not_null(self):
        column = Column("id", SqlType.INTEGER, nullable=True, primary_key=True)
        assert not column.nullable

    def test_coerce_row_arity(self):
        with pytest.raises(ConstraintViolation):
            make_schema().coerce_row([1, "x"])

    def test_coerce_row_not_null(self):
        with pytest.raises(ConstraintViolation):
            make_schema().coerce_row([None, "x", 1.0])

    def test_coerce_row_types(self):
        row = make_schema().coerce_row(["7", "x", 3])
        assert row == (7, "x", 3.0)

    def test_primary_key_extraction(self):
        schema = make_schema()
        assert schema.primary_key_of((5, "a", 1.0)) == (5,)

    def test_project(self):
        projected = make_schema().project(["score", "id"])
        assert projected.column_names == ["score", "id"]


class TestTableBasics:
    def test_insert_and_scan(self):
        table = make_table([(1, "a", 1.0), (2, "b", 2.0)])
        assert table.row_count == 2
        assert sorted(row[1] for _s, row in table.scan()) == ["a", "b"]

    def test_duplicate_primary_key_rejected(self):
        table = make_table([(1, "a", 1.0)])
        with pytest.raises(ConstraintViolation):
            table.insert((1, "b", 2.0))

    def test_delete_frees_slot_and_updates_count(self):
        table = make_table([(1, "a", 1.0), (2, "b", 2.0)])
        pointer = table.pointer_to(0)
        table.delete(pointer.slot)
        assert table.row_count == 1

    def test_primary_key_lookup(self):
        table = make_table([(1, "a", 1.0), (2, "b", 2.0)])
        slot = table.lookup_primary_key((2,))
        assert table.row_at(slot)[1] == "b"
        assert table.lookup_primary_key((99,)) is None

    def test_pk_reusable_after_delete(self):
        table = make_table([(1, "a", 1.0)])
        table.delete(0)
        table.insert((1, "again", 9.0))
        assert table.row_count == 1

    def test_update_in_place(self):
        table = make_table([(1, "a", 1.0)])
        table.update(0, (1, "z", 5.0))
        assert table.row_at(0) == (1, "z", 5.0)

    def test_update_changing_pk(self):
        table = make_table([(1, "a", 1.0), (2, "b", 2.0)])
        table.update(0, (9, "a", 1.0))
        assert table.lookup_primary_key((9,)) == 0
        assert table.lookup_primary_key((1,)) is None

    def test_update_to_duplicate_pk_rejected(self):
        table = make_table([(1, "a", 1.0), (2, "b", 2.0)])
        with pytest.raises(ConstraintViolation):
            table.update(0, (2, "a", 1.0))

    def test_truncate(self):
        table = make_table([(1, "a", 1.0), (2, "b", 2.0)])
        assert table.truncate() == 2
        assert table.row_count == 0


class TestTuplePointers:
    def test_dereference(self):
        table = make_table([(1, "a", 1.0)])
        pointer = table.pointer_to(0)
        assert pointer.dereference() == (1, "a", 1.0)

    def test_stale_pointer_detected_after_slot_reuse(self):
        table = make_table([(1, "a", 1.0)])
        pointer = table.pointer_to(0)
        table.delete(0)
        table.insert((2, "b", 2.0))  # reuses slot 0, bumps generation
        assert not pointer.is_live
        with pytest.raises(ExecutionError):
            pointer.dereference()

    def test_pointer_survives_update(self):
        table = make_table([(1, "a", 1.0)])
        pointer = table.pointer_to(0)
        table.update(0, (1, "b", 2.0))
        assert pointer.dereference() == (1, "b", 2.0)

    def test_dead_slot_raises(self):
        table = make_table([(1, "a", 1.0)])
        table.delete(0)
        with pytest.raises(ExecutionError):
            table.row_at(0)

    def test_out_of_range_raises(self):
        with pytest.raises(ExecutionError):
            make_table().row_at(5)


class TestListeners:
    def test_listener_receives_all_events(self):
        events = []

        class Recorder(TableListener):
            def on_insert(self, table, pointer, row):
                events.append(("insert", row))

            def on_delete(self, table, pointer, row):
                events.append(("delete", row))

            def on_update(self, table, pointer, old_row, new_row):
                events.append(("update", old_row, new_row))

        table = make_table()
        table.add_listener(Recorder())
        table.insert((1, "a", 1.0))
        table.update(0, (1, "b", 1.0))
        table.delete(0)
        assert [e[0] for e in events] == ["insert", "update", "delete"]

    def test_remove_listener(self):
        events = []

        class Recorder(TableListener):
            def on_insert(self, table, pointer, row):
                events.append(row)

        recorder = Recorder()
        table = make_table()
        table.add_listener(recorder)
        table.remove_listener(recorder)
        table.insert((1, "a", 1.0))
        assert events == []


class TestHashIndex:
    def test_lookup(self):
        table = make_table([(1, "a", 1.0), (2, "b", 2.0), (3, "a", 3.0)])
        index = HashIndex("by_name", table.schema, ["name"])
        table.attach_index(index)
        slots = index.lookup(("a",))
        names = {table.row_at(s)[1] for s in slots}
        assert names == {"a"}
        assert len(slots) == 2

    def test_maintained_on_insert_delete_update(self):
        table = make_table()
        index = HashIndex("by_name", table.schema, ["name"])
        table.attach_index(index)
        table.insert((1, "a", 1.0))
        assert len(index.lookup(("a",))) == 1
        table.update(0, (1, "b", 1.0))
        assert index.lookup(("a",)) == []
        assert len(index.lookup(("b",))) == 1
        table.delete(0)
        assert index.lookup(("b",)) == []

    def test_unique_violation(self):
        table = make_table([(1, "a", 1.0)])
        index = HashIndex("uq", table.schema, ["name"], unique=True)
        table.attach_index(index)
        with pytest.raises(ConstraintViolation):
            table.insert((2, "a", 2.0))

    def test_unique_violation_leaves_no_trace(self):
        """The rejected row is in no index and in no slot."""
        table = make_table([(1, "a", 1.0)])
        table.attach_index(HashIndex("uq", table.schema, ["name"], unique=True))
        with pytest.raises(ConstraintViolation):
            table.insert((2, "a", 2.0))
        assert table.row_count == 1
        assert table.lookup_primary_key((2,)) is None
        assert [row for _slot, row in table.scan()] == [(1, "a", 1.0)]

    def test_null_keys_are_left_out(self):
        table = make_table()
        index = HashIndex("uq", table.schema, ["name"], unique=True)
        table.attach_index(index)
        table.insert((1, None, 1.0))
        table.insert((2, None, 2.0))  # NULL is not equal to NULL
        assert index.lookup((None,)) == []
        assert len(index) == 0
        table.delete(0)

    def test_duplicate_index_name_rejected(self):
        table = make_table()
        table.attach_index(HashIndex("i", table.schema, ["name"]))
        with pytest.raises(CatalogError):
            table.attach_index(HashIndex("i", table.schema, ["score"]))

    def test_find_index_on(self):
        table = make_table()
        index = HashIndex("i", table.schema, ["name"])
        table.attach_index(index)
        assert table.find_index_on("NAME") is index
        assert table.find_index_on("score") is None


class TestOrderedIndex:
    def make_indexed_table(self):
        table = make_table(
            [(i, f"n{i}", float(i)) for i in range(1, 8)]
        )
        index = OrderedIndex("by_score", table.schema, ["score"])
        table.attach_index(index)
        return table, index

    def test_point_lookup(self):
        table, index = self.make_indexed_table()
        slots = index.lookup((3.0,))
        assert [table.row_at(s)[0] for s in slots] == [3]

    def test_range_scan_inclusive(self):
        table, index = self.make_indexed_table()
        ids = sorted(
            table.row_at(s)[0] for s in index.range_scan((2.0,), (4.0,))
        )
        assert ids == [2, 3, 4]

    def test_range_scan_exclusive_low(self):
        table, index = self.make_indexed_table()
        ids = sorted(
            table.row_at(s)[0]
            for s in index.range_scan((2.0,), (4.0,), low_inclusive=False)
        )
        assert ids == [3, 4]

    def test_range_scan_open_high(self):
        table, index = self.make_indexed_table()
        ids = sorted(table.row_at(s)[0] for s in index.range_scan((6.0,)))
        assert ids == [6, 7]

    def test_nulls_excluded(self):
        table = make_table()
        index = OrderedIndex("by_name", table.schema, ["name"])
        table.attach_index(index)
        table.insert((1, None, 1.0))
        assert len(index) == 0

    def test_delete_maintenance(self):
        table, index = self.make_indexed_table()
        slot = table.lookup_primary_key((3,))
        table.delete(slot)
        assert index.lookup((3.0,)) == []


class TestCatalog:
    def test_create_and_fetch_table(self):
        catalog = Catalog()
        table = catalog.create_table("T", make_schema())
        assert catalog.table("t") is table
        assert catalog.has_table("T")

    def test_duplicate_name_rejected_across_kinds(self):
        catalog = Catalog()
        catalog.create_table("x", make_schema())
        with pytest.raises(CatalogError):
            catalog.create_table("X", make_schema())
        with pytest.raises(CatalogError):
            catalog.register_view("x", object())
        with pytest.raises(CatalogError):
            catalog.register_graph_view("x", object())

    def test_drop_table(self):
        catalog = Catalog()
        catalog.create_table("x", make_schema())
        catalog.drop_table("x")
        assert not catalog.has_table("x")
        with pytest.raises(CatalogError):
            catalog.table("x")

    def test_graph_view_registry(self):
        catalog = Catalog()
        marker = object()
        catalog.register_graph_view("G", marker)
        assert catalog.graph_view("g") is marker
        catalog.drop_graph_view("G")
        assert not catalog.has_graph_view("g")

    def test_unknown_objects_raise(self):
        catalog = Catalog()
        with pytest.raises(CatalogError):
            catalog.view("v")
        with pytest.raises(CatalogError):
            catalog.graph_view("g")
        with pytest.raises(CatalogError):
            catalog.drop_view("v")
