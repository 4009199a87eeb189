"""Thread safety of the ambient state and observability counters.

The network server runs one session per thread, so the ambient
statement context (token, tracer and trace stacks, node and session
labels) must be per-thread and the metrics/slow-log updates must not
lose increments under contention. These are regression tests for the
conversion from module-global stacks to ``threading.local``.
"""

import threading

import pytest

from repro import ambient
from repro.ambient import (
    Snapshot,
    activate,
    adopt,
    current_session,
    current_token,
    current_tracer,
)
from repro.budget import CancellationToken, QueryBudget
from repro.core.database import Database
from repro.errors import ResourceExhaustedError
from repro.observability.metrics import MetricsRegistry
from repro.observability.slowlog import SlowQueryLog
from repro.observability.tracer import QueryTracer


def _stack():
    """This thread's token stack."""
    return ambient._LOCAL.tokens


def run_threads(*targets):
    """Run the targets concurrently; re-raise the first failure."""
    errors = []

    def wrap(fn):
        def inner():
            try:
                fn()
            except BaseException as error:  # pragma: no cover - on failure
                errors.append(error)

        return inner

    threads = [threading.Thread(target=wrap(t)) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestAmbientTokenStack:
    def test_stacks_are_per_thread(self):
        token = CancellationToken()
        seen = {}

        def other():
            seen["token"] = current_token()
            seen["stack"] = list(_stack())

        with activate(token=token):
            run_threads(other)
        assert seen["token"] is None
        assert seen["stack"] == []

    def test_two_concurrent_budgeted_queries_do_not_interfere(self):
        """The regression: with a module-global stack, thread B's token
        pop could remove thread A's token (or B could run under A's
        budget). Each thread gets its own database and budget; the
        tight budget must fire in its own thread only."""
        barrier = threading.Barrier(2)

        def make_db():
            db = Database()
            db.execute("CREATE TABLE T (a INTEGER PRIMARY KEY)")
            db.execute(
                "INSERT INTO T VALUES "
                + ", ".join(f"({i})" for i in range(100))
            )
            return db

        db_tight, db_loose = make_db(), make_db()

        def tight():
            barrier.wait()
            for _ in range(20):
                with pytest.raises(ResourceExhaustedError):
                    db_tight.execute(
                        "SELECT * FROM T", budget=QueryBudget(max_rows=5)
                    )
                assert _stack() == []

        def loose():
            barrier.wait()
            for _ in range(20):
                result = db_loose.execute("SELECT * FROM T")
                assert len(result.rows) == 100
                assert _stack() == []

        run_threads(tight, loose)

    def test_cross_thread_cancel_still_works(self):
        """Cancellation is *delivered* across threads via the shared
        token object; only the ambient lookup is thread-local."""
        token = QueryBudget(max_rows=10**9).start()
        started = threading.Event()
        outcome = {}

        def victim():
            with activate(token=token):
                started.set()
                try:
                    while True:
                        token.tick()
                except Exception as error:
                    outcome["error"] = type(error).__name__

        thread = threading.Thread(target=victim)
        thread.start()
        started.wait(timeout=5)
        token.cancel("test")
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert outcome["error"] == "QueryCancelledError"


class TestAmbientTracerStack:
    def test_tracer_is_per_thread(self):
        tracer = QueryTracer()
        seen = {}

        def other():
            seen["tracer"] = current_tracer()

        with activate(tracer=tracer):
            run_threads(other)
            assert current_tracer() is tracer
        assert seen["tracer"] is None


class TestSessionContext:
    def test_label_is_per_thread(self):
        seen = {}

        def other():
            seen["label"] = current_session()
            with adopt(Snapshot(session="other")):
                seen["after_set"] = current_session()

        with adopt(Snapshot(session="mine")):
            run_threads(other)
            assert current_session() == "mine"
        assert current_session() == ""
        assert seen["label"] == ""
        assert seen["after_set"] == "other"

    def test_context_manager_restores_previous(self):
        with adopt(Snapshot(node="n1", session="outer")):
            with adopt(Snapshot(node="n2", session="inner")):
                assert current_session() == "inner"
                assert ambient.current_node() == "n2"
            assert current_session() == "outer"
            assert ambient.current_node() == "n1"
        assert current_session() == ""
        assert ambient.current_node() == ""


class TestWriterHandOff:
    def test_queued_write_runs_under_the_submitters_snapshot(self):
        """The writer thread adopts the submitting session's snapshot
        (session, node, trace) for the write, and keeps none of it."""
        from repro.observability.tracing import TraceContext
        from repro.server.scheduler import SingleWriterScheduler

        def observe():
            local = ambient._LOCAL
            return (
                threading.current_thread().name,
                ambient.capture(),
                list(local.tokens),
                list(local.tracers),
                list(local.traces),
            )

        scheduler = SingleWriterScheduler()
        context = TraceContext.new()
        token = CancellationToken()
        try:
            with adopt(Snapshot(context, "n7", "s1")):
                during = scheduler.execute_write(
                    lambda: _with_token(token, observe), token=token
                )
            after = scheduler.execute_write(observe)
        finally:
            scheduler.drain(timeout=5.0)
        assert during[0] == "repro-writer"
        assert during[1] == Snapshot(context, "n7", "s1")
        assert during[2] == [token]
        assert after == ("repro-writer", Snapshot(), [], [], [])


def _with_token(token, fn):
    with activate(token=token):
        return fn()


class TestMetricsAtomicity:
    THREADS = 8
    PER_THREAD = 10_000

    def test_counter_hammer_loses_no_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("hammer_total")

        def worker():
            for _ in range(self.PER_THREAD):
                counter.inc()

        run_threads(*[worker] * self.THREADS)
        assert registry.value("hammer_total") == self.THREADS * self.PER_THREAD

    def test_labelled_counter_hammer_through_registry(self):
        """The registry's handle-acquisition path (family + child
        creation) is itself contended."""
        registry = MetricsRegistry()

        def worker(index):
            def inner():
                for _ in range(self.PER_THREAD):
                    registry.counter("by_label_total", shard=index % 2).inc()

            return inner

        run_threads(*[worker(i) for i in range(self.THREADS)])
        total = registry.value("by_label_total", shard=0) + registry.value(
            "by_label_total", shard=1
        )
        assert total == self.THREADS * self.PER_THREAD

    def test_gauge_inc_dec_balances(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("balance")

        def worker():
            for _ in range(self.PER_THREAD):
                gauge.inc()
                gauge.dec()

        run_threads(*[worker] * self.THREADS)
        assert registry.value("balance") == 0

    def test_histogram_hammer_counts_exactly(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat_ms", buckets=(1, 10, 100))

        def worker():
            for i in range(self.PER_THREAD):
                histogram.observe(float(i % 200))

        run_threads(*[worker] * 4)
        assert histogram.count == 4 * self.PER_THREAD
        # the +Inf bucket is cumulative over everything observed
        assert histogram.cumulative_buckets()[-1][1] == 4 * self.PER_THREAD

    def test_snapshot_and_render_during_writes(self):
        """Readers iterate consistent copies while writers mutate."""
        registry = MetricsRegistry()
        stop = threading.Event()

        def writer():
            i = 0
            while not stop.is_set():
                registry.counter("churn_total", lane=i % 4).inc()
                i += 1

        def reader():
            for _ in range(200):
                registry.snapshot()
                registry.render_prometheus()
            stop.set()

        run_threads(writer, writer, reader)


class TestSlowLogConcurrency:
    def test_concurrent_observes_are_not_lost(self):
        log = SlowQueryLog(threshold_ms=0.0, capacity=100_000)

        def worker(name):
            def inner():
                for i in range(5_000):
                    assert log.observe(f"SELECT {i}", 1.0, 1, "Select", name)

            return inner

        run_threads(*[worker(f"s{i}") for i in range(4)])
        assert len(log) == 20_000
        by_session = {}
        for entry in log.entries():
            by_session[entry.session] = by_session.get(entry.session, 0) + 1
        assert by_session == {f"s{i}": 5_000 for i in range(4)}

    def test_reads_during_writes(self):
        log = SlowQueryLog(threshold_ms=0.0, capacity=64)
        stop = threading.Event()

        def writer():
            i = 0
            while not stop.is_set():
                log.observe(f"SELECT {i}", 2.0, 0, "Select")
                i += 1

        def reader():
            for _ in range(500):
                entries = log.entries()
                assert len(entries) <= 64
                len(log)
            stop.set()

        run_threads(writer, reader)

    def test_threshold_flip_during_writes(self):
        log = SlowQueryLog(capacity=64)
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                log.observe("SELECT 1", 5.0, 0, "Select")

        def flipper():
            for i in range(300):
                log.set_threshold(None if i % 2 else 1.0)
            log.set_threshold(None)
            stop.set()

        run_threads(writer, flipper)
