"""Tests for the resource governor: QueryBudget, CancellationToken,
budget-level combination, and enforcement through the Database API."""

import pytest

from repro import (
    Database,
    PlannerOptions,
    QueryBudget,
    QueryCancelledError,
    QueryTimeoutError,
    ResourceExhaustedError,
)
from repro import ambient
from repro.ambient import activate, current_token
from repro.budget import CancellationToken


class FakeClock:
    """Deterministic monotonic clock for timeout tests."""

    def __init__(self):
        self.now = 100.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


class TestQueryBudget:
    def test_defaults_are_unlimited(self):
        assert QueryBudget().is_unlimited()
        assert not QueryBudget(max_rows=10).is_unlimited()

    @pytest.mark.parametrize(
        "knob", ["timeout_ms", "max_rows", "max_paths",
                 "max_vertices", "max_edges", "max_undo_depth"]
    )
    def test_non_positive_rejected(self, knob):
        with pytest.raises(ValueError):
            QueryBudget(**{knob: 0})
        with pytest.raises(ValueError):
            QueryBudget(**{knob: -5})

    def test_tightened_takes_element_wise_minimum(self):
        a = QueryBudget(timeout_ms=500, max_rows=100)
        b = QueryBudget(timeout_ms=1000, max_edges=50)
        combined = a.tightened(b)
        assert combined.timeout_ms == 500
        assert combined.max_rows == 100
        assert combined.max_edges == 50
        assert combined.max_paths is None

    def test_tightened_none_is_identity(self):
        a = QueryBudget(max_rows=3)
        assert a.tightened(None) is a

    def test_tightest_combines_all_levels(self):
        assert QueryBudget.tightest(None, None) is None
        only = QueryBudget(max_rows=7)
        assert QueryBudget.tightest(None, only, None) is only
        combined = QueryBudget.tightest(
            QueryBudget(max_rows=10), None, QueryBudget(max_rows=2)
        )
        assert combined.max_rows == 2

    def test_copy_with_overrides(self):
        base = QueryBudget(max_rows=5, max_edges=10)
        widened = base.copy(max_rows=50)
        assert widened.max_rows == 50
        assert widened.max_edges == 10
        assert base.max_rows == 5  # original untouched

    def test_equality_and_repr(self):
        assert QueryBudget(max_rows=5) == QueryBudget(max_rows=5)
        assert QueryBudget(max_rows=5) != QueryBudget(max_rows=6)
        assert "max_rows=5" in repr(QueryBudget(max_rows=5))
        assert "unlimited" in repr(QueryBudget())


class TestCancellationToken:
    def test_row_cap(self):
        token = QueryBudget(max_rows=3).start()
        for _ in range(3):
            token.tick_rows()
        with pytest.raises(ResourceExhaustedError, match="max_rows=3"):
            token.tick_rows()

    def test_edge_vertex_path_caps(self):
        token = QueryBudget(max_edges=2, max_vertices=2, max_paths=1).start()
        token.tick_edge()
        token.tick_edge()
        with pytest.raises(ResourceExhaustedError, match="max_edges=2"):
            token.tick_edge()
        token.tick_vertex()
        token.tick_vertex()
        with pytest.raises(ResourceExhaustedError, match="max_vertices=2"):
            token.tick_vertex()
        token.tick_path()
        with pytest.raises(ResourceExhaustedError, match="max_paths=1"):
            token.tick_path()

    def test_undo_depth_cap(self):
        token = QueryBudget(max_undo_depth=2).start()
        token.note_undo_depth(1)
        token.note_undo_depth(2)
        with pytest.raises(ResourceExhaustedError, match="max_undo_depth=2"):
            token.note_undo_depth(3)
        assert token.peak_undo_depth == 3

    def test_timeout_via_fake_clock(self):
        clock = FakeClock()
        token = QueryBudget(timeout_ms=100).start(clock=clock)
        token.check()  # within budget
        clock.advance(0.2)
        with pytest.raises(QueryTimeoutError, match="timeout_ms=100"):
            token.check()

    def test_deadline_check_is_amortized(self):
        """tick() only reads the clock every 64 ticks."""
        clock = FakeClock()
        token = QueryBudget(timeout_ms=100).start(clock=clock)
        clock.advance(10)  # way past the deadline
        for _ in range(63):
            token.tick()  # no check yet: ticks 1..63
        with pytest.raises(QueryTimeoutError):
            token.tick()  # tick 64 reads the clock

    def test_external_cancellation(self):
        token = QueryBudget(timeout_ms=60_000).start()
        token.cancel("admission control")
        with pytest.raises(QueryCancelledError, match="admission control"):
            token.check()

    def test_counters_observable(self):
        token = QueryBudget().start()
        token.tick_rows(2)
        token.tick_edge()
        assert token.rows_emitted == 2
        assert token.edges_explored == 1
        assert "rows=2" in repr(token)


class TestAmbientToken:
    def test_activate_and_restore(self):
        assert current_token() is None
        token = CancellationToken()
        with activate(token=token):
            assert current_token() is token
        assert current_token() is None

    def test_nested_activation(self):
        outer, inner = CancellationToken(), CancellationToken()
        with activate(token=outer):
            with activate(token=inner):
                assert current_token() is inner
            assert current_token() is outer

    def test_identity_removal_tolerates_interleaving(self):
        """Two suspended stream generators exit out of stack order."""
        a, b = CancellationToken(), CancellationToken()
        ctx_a, ctx_b = activate(token=a), activate(token=b)
        ctx_a.__enter__()
        ctx_b.__enter__()
        ctx_a.__exit__(None, None, None)  # a leaves first, b stays
        assert current_token() is b
        ctx_b.__exit__(None, None, None)
        assert current_token() is None


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (a INTEGER PRIMARY KEY)")
    database.execute(
        "INSERT INTO t VALUES (1), (2), (3), (4), (5), (6), (7), (8)"
    )
    return database


class TestDatabaseEnforcement:
    def test_max_rows_aborts_select(self, db):
        with pytest.raises(ResourceExhaustedError, match="max_rows=3"):
            db.execute("SELECT a FROM t", budget=QueryBudget(max_rows=3))

    def test_within_budget_succeeds(self, db):
        result = db.execute(
            "SELECT a FROM t", budget=QueryBudget(max_rows=100)
        )
        assert len(result.rows) == 8

    def test_database_level_budget(self, db):
        db.set_budget(QueryBudget(max_rows=3))
        with pytest.raises(ResourceExhaustedError):
            db.execute("SELECT a FROM t")
        db.set_budget(None)
        assert len(db.execute("SELECT a FROM t").rows) == 8

    def test_statement_budget_cannot_loosen_database_budget(self, db):
        db.set_budget(QueryBudget(max_rows=3))
        with pytest.raises(ResourceExhaustedError, match="max_rows=3"):
            db.execute("SELECT a FROM t", budget=QueryBudget(max_rows=1000))

    def test_planner_options_budget(self):
        database = Database(
            planner_options=PlannerOptions(budget=QueryBudget(max_rows=2))
        )
        database.execute("CREATE TABLE t (a INTEGER)")
        database.execute("INSERT INTO t VALUES (1), (2), (3)")
        with pytest.raises(ResourceExhaustedError):
            database.execute("SELECT a FROM t")

    def test_database_constructor_budget(self):
        database = Database(budget=QueryBudget(max_rows=1))
        database.execute("CREATE TABLE t (a INTEGER)")
        database.execute("INSERT INTO t VALUES (1), (2)")
        with pytest.raises(ResourceExhaustedError):
            database.execute("SELECT a FROM t")

    def test_stream_enforces_budget_lazily(self, db):
        rows = []
        with pytest.raises(ResourceExhaustedError):
            for row in db.stream(
                "SELECT a FROM t", budget=QueryBudget(max_rows=2)
            ):
                rows.append(row)
        assert len(rows) == 2  # the first two rows arrived before the cap

    def test_prepared_query_budget(self, db):
        prepared = db.prepare("SELECT a FROM t WHERE a > ?")
        assert len(prepared.execute(6).rows) == 2
        with pytest.raises(ResourceExhaustedError):
            prepared.execute(0, budget=QueryBudget(max_rows=3))

    def test_ambient_token_cleared_after_abort(self, db):
        with pytest.raises(ResourceExhaustedError):
            db.execute("SELECT a FROM t", budget=QueryBudget(max_rows=1))
        assert current_token() is None
        assert len(db.execute("SELECT a FROM t").rows) == 8

    def test_timeout_on_real_clock(self, db):
        """A 1 ms budget trips on any non-trivial scan (cross join)."""
        with pytest.raises(QueryTimeoutError):
            db.execute(
                "SELECT t1.a FROM t t1, t t2, t t3, t t4, t t5, t t6",
                budget=QueryBudget(timeout_ms=1),
            )

    def test_max_undo_depth_rolls_back_dml(self, db):
        with pytest.raises(ResourceExhaustedError, match="max_undo_depth"):
            db.execute(
                "UPDATE t SET a = a + 100",
                budget=QueryBudget(max_undo_depth=3),
            )
        # the implicit rollback restored every row
        assert db.execute("SELECT a FROM t ORDER BY a").column(0) == [
            1, 2, 3, 4, 5, 6, 7, 8,
        ]


class TestStreamTokenHygiene:
    """Regression: a stream generator closed early must not leave its
    CancellationToken on the ambient stack — a leaked token would
    govern (and falsely abort) unrelated later statements."""

    def test_early_close_leaves_no_ambient_token(self, db):
        stream = db.stream("SELECT a FROM t", budget=QueryBudget(max_rows=100))
        next(stream)
        stream.close()  # abandon mid-iteration
        assert _stack() == []
        assert current_token() is None
        # later statements are ungoverned by the abandoned budget
        assert len(db.execute("SELECT a FROM t").rows) == 8

    def test_abandoned_generator_gc_leaves_no_ambient_token(self, db):
        stream = db.stream("SELECT a FROM t", budget=QueryBudget(max_rows=2))
        next(stream)
        del stream  # GC closes the generator
        assert _stack() == []
        assert current_token() is None

    def test_prepared_stream_early_close_is_clean(self, db):
        prepared = db.prepare("SELECT a FROM t WHERE a > ?")
        stream = prepared.stream(0, budget=QueryBudget(max_rows=100))
        next(stream)
        stream.close()
        assert _stack() == []
        assert len(prepared.execute(0).rows) == 8

    def test_interleaved_streams_unwind_cleanly(self, db):
        first = db.stream("SELECT a FROM t", budget=QueryBudget(max_rows=100))
        second = db.stream("SELECT a FROM t", budget=QueryBudget(max_rows=100))
        next(first)
        next(second)
        first.close()  # out of stack order
        next(second)
        second.close()
        assert _stack() == []

    def test_raising_stream_leaves_no_ambient_token(self, db):
        stream = db.stream("SELECT a FROM t", budget=QueryBudget(max_rows=1))
        next(stream)
        with pytest.raises(ResourceExhaustedError):
            next(stream)  # the pull that raises
        assert _stack() == []

    def test_activate_none_is_noop(self):
        with activate(token=None, tracer=None, trace=None):
            assert _stack() == []
            assert ambient.current_tracer() is None
            assert ambient.current_trace() is None
        assert _stack() == []


def _stack():
    """This thread's token stack."""
    return ambient._LOCAL.tokens
