"""Tests for transactions: undo logging, rollback of relational writes,
and transactional graph-view maintenance (Section 3.3)."""

import pytest

from repro import Database, IntegrityError, TransactionError


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE V (id INTEGER PRIMARY KEY, name VARCHAR)")
    database.execute(
        "CREATE TABLE E (id INTEGER PRIMARY KEY, s INTEGER, d INTEGER)"
    )
    database.execute("INSERT INTO V VALUES (1, 'a'), (2, 'b'), (3, 'c')")
    database.execute("INSERT INTO E VALUES (10, 1, 2), (11, 2, 3)")
    database.execute(
        "CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id, name = name) FROM V "
        "EDGES(ID = id, FROM = s, TO = d) FROM E"
    )
    return database


class TestExplicitTransactions:
    def test_commit_keeps_changes(self, db):
        db.begin()
        db.execute("INSERT INTO V VALUES (4, 'd')")
        db.commit()
        assert db.execute("SELECT COUNT(*) FROM V").scalar() == 4

    def test_rollback_undoes_insert(self, db):
        db.begin()
        db.execute("INSERT INTO V VALUES (4, 'd')")
        db.rollback()
        assert db.execute("SELECT COUNT(*) FROM V").scalar() == 3

    def test_rollback_undoes_delete(self, db):
        db.begin()
        db.execute("DELETE FROM E WHERE id = 10")
        db.rollback()
        assert db.execute("SELECT COUNT(*) FROM E").scalar() == 2

    def test_rollback_undoes_update(self, db):
        db.begin()
        db.execute("UPDATE V SET name = 'zzz' WHERE id = 1")
        db.rollback()
        assert db.execute(
            "SELECT name FROM V WHERE id = 1"
        ).scalar() == "a"

    def test_rollback_multiple_statements_in_reverse(self, db):
        db.begin()
        db.execute("INSERT INTO V VALUES (4, 'd')")
        db.execute("INSERT INTO E VALUES (12, 3, 4)")
        db.execute("UPDATE V SET name = 'x' WHERE id = 4")
        db.rollback()
        assert db.execute("SELECT COUNT(*) FROM V").scalar() == 3
        assert db.execute("SELECT COUNT(*) FROM E").scalar() == 2

    def test_nested_begin_rejected(self, db):
        db.begin()
        with pytest.raises(TransactionError):
            db.begin()
        db.rollback()

    def test_commit_without_begin_rejected(self, db):
        with pytest.raises(TransactionError):
            db.commit()

    def test_rollback_without_begin_rejected(self, db):
        with pytest.raises(TransactionError):
            db.rollback()


class TestImplicitTransactions:
    def test_failed_statement_fully_rolled_back(self, db):
        # second row violates the primary key: the first must not persist
        with pytest.raises(Exception):
            db.execute("INSERT INTO V VALUES (4, 'd'), (4, 'dup')")
        assert db.execute("SELECT COUNT(*) FROM V").scalar() == 3

    def test_failed_graph_maintenance_rolls_back_row(self, db):
        # the edge row is inserted, then graph maintenance raises; the
        # relational insert must be undone too
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO E VALUES (99, 1, 12345)")
        assert db.execute("SELECT COUNT(*) FROM E").scalar() == 2
        assert not db.graph_view("g").topology.has_edge(99)


class TestRefusedStatementInTransaction:
    """A statement refused inside ``BEGIN`` is undone on its own; the
    transaction keeps the statements that succeeded."""

    def test_refused_delete_is_undone_and_commit_keeps_the_rest(self, db):
        db.begin()
        db.execute("INSERT INTO V VALUES (4, 'd')")
        with pytest.raises(IntegrityError):
            db.execute("DELETE FROM V WHERE id = 1")  # edge 10 uses it
        assert db.execute("SELECT id FROM V ORDER BY id").column(0) == [
            1, 2, 3, 4,
        ]
        assert db.graph_view("g").topology.has_vertex(1)
        db.commit()
        assert db.execute("SELECT COUNT(*) FROM V").scalar() == 4
        # no dangling edge source: the vertex is there, and a later
        # transaction can still roll its own work back
        db.begin()
        db.execute("DELETE FROM E WHERE id = 10")
        db.rollback()
        assert db.graph_view("g").topology.has_edge(10)

    def test_replay_of_the_log_reaches_the_live_state(self, tmp_path):
        from repro.core.command_log import enable_command_log, replay_log
        from repro.replication.digest import combined_digest

        live = Database()
        log = enable_command_log(live, str(tmp_path / "commands.log"))
        live.execute("CREATE TABLE V (id INTEGER PRIMARY KEY)")
        live.execute(
            "CREATE TABLE E (id INTEGER PRIMARY KEY, s INTEGER, d INTEGER)"
        )
        live.execute(
            "CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id) FROM V "
            "EDGES(ID = id, FROM = s, TO = d) FROM E"
        )
        live.execute("INSERT INTO V VALUES (0), (1)")
        live.execute("INSERT INTO E VALUES (5, 0, 1)")
        live.begin()
        with pytest.raises(IntegrityError):
            live.execute("DELETE FROM V WHERE id = 0")
        live.execute("INSERT INTO V VALUES (2)")
        live.commit()
        log.detach()
        assert combined_digest(replay_log(str(log.path))) == combined_digest(
            live
        )


class TestGraphViewTransactionalMaintenance:
    def test_rollback_restores_topology_after_insert(self, db):
        view = db.graph_view("g")
        db.begin()
        db.execute("INSERT INTO V VALUES (4, 'd')")
        db.execute("INSERT INTO E VALUES (12, 3, 4)")
        assert view.topology.has_vertex(4)
        assert view.topology.has_edge(12)
        db.rollback()
        assert not view.topology.has_vertex(4)
        assert not view.topology.has_edge(12)

    def test_rollback_restores_topology_after_delete(self, db):
        view = db.graph_view("g")
        db.begin()
        db.execute("DELETE FROM E WHERE id = 10")
        assert not view.topology.has_edge(10)
        db.rollback()
        assert view.topology.has_edge(10)
        assert view.topology.edge(10).from_id == 1

    def test_rollback_restores_vertex_rename(self, db):
        view = db.graph_view("g")
        db.begin()
        db.execute("UPDATE V SET id = 100 WHERE id = 1")
        assert view.topology.has_vertex(100)
        db.rollback()
        assert view.topology.has_vertex(1)
        assert not view.topology.has_vertex(100)
        # edge source rows restored too
        assert db.execute("SELECT s FROM E WHERE id = 10").scalar() == 1
        assert view.topology.edge(10).from_id == 1

    def test_queries_inside_transaction_see_changes(self, db):
        db.begin()
        db.execute("INSERT INTO V VALUES (4, 'd')")
        db.execute("INSERT INTO E VALUES (12, 3, 4)")
        result = db.execute(
            "SELECT PS.PathString FROM g.Paths PS "
            "WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 4 LIMIT 1"
        )
        assert result.rows == [("1->2->3->4",)]
        db.rollback()

    def test_tuple_pointers_valid_after_rollback_cycle(self, db):
        """After rollback re-inserts rows, graph pointers must still
        dereference correctly."""
        view = db.graph_view("g")
        db.begin()
        db.execute("DELETE FROM E WHERE id = 11")
        db.rollback()
        edge = view.topology.edge(11)
        row = view.edge_row(edge)
        assert row[0] == 11


class TestUndoListenerOrdering:
    def test_bulk_load_outside_transaction_has_no_undo_cost(self, db):
        # record_undo is a no-op outside transactions: loads stay cheap
        assert db.transactions.active is None
        db.load_rows("V", [(i, f"v{i}") for i in range(100, 110)])
        assert db.execute("SELECT COUNT(*) FROM V").scalar() == 13
