"""Tests for command logging (snapshot + log = VoltDB-style recovery)."""

import warnings

import pytest

from repro import (
    Database,
    ExecutionError,
    QueryBudget,
    RecoveryError,
    ResourceExhaustedError,
)
from repro.core.command_log import (
    _decode,
    _encode,
    _format_line,
    enable_command_log,
    replay_log,
)
from repro.core.database import statement_is_write
from repro.errors import DatabaseError, SqlSyntaxError
from repro.observability.metrics import (
    get_registry,
    metrics_enabled,
    set_enabled,
)
from repro.sql import parse_statement


def make_logged_db(tmp_path):
    db = Database()
    log = enable_command_log(db, str(tmp_path / "commands.log"))
    return db, log


class TestLogging:
    def test_statements_logged_and_replayable(self, tmp_path):
        db, log = make_logged_db(tmp_path)
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR)")
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        db.execute("UPDATE t SET b = 'z' WHERE a = 2")
        db.execute("DELETE FROM t WHERE a = 1")
        recovered = replay_log(str(log.path))
        assert recovered.execute("SELECT a, b FROM t").rows == [(2, "z")]

    def test_selects_not_logged(self, tmp_path):
        db, log = make_logged_db(tmp_path)
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("SELECT * FROM t")
        content = log.path.read_text().strip().splitlines()
        assert len(content) == 1

    def test_failed_statement_not_logged(self, tmp_path):
        db, log = make_logged_db(tmp_path)
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(Exception):
            db.execute("INSERT INTO t VALUES (1)")  # duplicate key
        recovered = replay_log(str(log.path))
        assert recovered.execute("SELECT COUNT(*) FROM t").scalar() == 1

    def test_transaction_logged_at_commit(self, tmp_path):
        db, log = make_logged_db(tmp_path)
        db.execute("CREATE TABLE t (a INTEGER)")
        db.begin()
        db.execute("INSERT INTO t VALUES (1)")
        assert len(log.path.read_text().strip().splitlines()) == 1
        db.commit()
        assert len(log.path.read_text().strip().splitlines()) == 2

    def test_rollback_discards_pending(self, tmp_path):
        db, log = make_logged_db(tmp_path)
        db.execute("CREATE TABLE t (a INTEGER)")
        db.begin()
        db.execute("INSERT INTO t VALUES (1)")
        db.rollback()
        recovered = replay_log(str(log.path))
        assert recovered.execute("SELECT COUNT(*) FROM t").scalar() == 0

    def test_multiline_statement_round_trip(self, tmp_path):
        db, log = make_logged_db(tmp_path)
        db.execute("CREATE TABLE t (a VARCHAR)")
        db.execute("INSERT INTO t VALUES ('line1\nline2')")
        recovered = replay_log(str(log.path))
        assert recovered.execute("SELECT a FROM t").scalar() == "line1\nline2"

    def test_graph_views_recovered(self, tmp_path):
        db, log = make_logged_db(tmp_path)
        db.execute("CREATE TABLE V (id INTEGER PRIMARY KEY)")
        db.execute(
            "CREATE TABLE E (id INTEGER PRIMARY KEY, s INTEGER, d INTEGER)"
        )
        db.execute("INSERT INTO V VALUES (1), (2), (3)")
        db.execute("INSERT INTO E VALUES (10, 1, 2), (11, 2, 3)")
        db.execute(
            "CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id) FROM V "
            "EDGES(ID = id, FROM = s, TO = d) FROM E"
        )
        db.execute("DELETE FROM E WHERE id = 11")
        recovered = replay_log(str(log.path))
        topology = recovered.graph_view("g").topology
        assert topology.vertex_count == 3
        assert topology.edge_count == 1

    def test_detach_stops_logging(self, tmp_path):
        db, log = make_logged_db(tmp_path)
        db.execute("CREATE TABLE t (a INTEGER)")
        log.detach()
        db.execute("INSERT INTO t VALUES (1)")
        assert len(log.path.read_text().strip().splitlines()) == 1

    def test_missing_log_raises(self):
        with pytest.raises(ExecutionError):
            replay_log("/nonexistent/commands.log")

    def test_replay_error_reports_line(self, tmp_path):
        log_path = tmp_path / "bad.log"
        log_path.write_text("CREATE TABLE t (a INTEGER)\nSELECT garbage(\n")
        with pytest.raises(ExecutionError, match="bad.log:2"):
            replay_log(str(log_path))


class TestEncoding:
    @pytest.mark.parametrize(
        "sql",
        [
            "INSERT INTO t VALUES ('plain')",
            "INSERT INTO t VALUES ('line1\nline2')",
            "INSERT INTO t VALUES ('trailing backslash \\')",
            "INSERT INTO t VALUES ('mixed \\n literal\nand real')",
            "INSERT INTO t VALUES ('carriage\rreturn\r\n and \\r literal')",
            "\\",
            "ends with backslash\\",
        ],
    )
    def test_encode_decode_round_trip(self, sql):
        encoded = _encode(sql)
        assert "\n" not in encoded and "\r" not in encoded  # one per line
        assert _decode(encoded) == sql

    def test_carriage_return_in_a_string_recovers(self, tmp_path):
        db, log = make_logged_db(tmp_path)
        db.execute("CREATE TABLE t (a VARCHAR)")
        db.execute("INSERT INTO t VALUES ('a\rb')")
        recovered = replay_log(str(log.path))
        assert recovered.execute("SELECT a FROM t").scalar() == "a\rb"


def _logged(sql):
    return statement_is_write(parse_statement(sql))


class TestLoggability:
    def test_matches_on_parsed_statement_not_prefix(self):
        # a leading comment must not hide a data-changing statement
        assert _logged("-- fix for ticket 42\nINSERT INTO t VALUES (1)")
        assert _logged("/* batch */ UPDATE t SET a = 1")
        # ... and a SELECT mentioning DML keywords must not be logged
        assert not _logged("SELECT 'INSERT INTO t' FROM t")
        assert not _logged("SELECT * FROM inserted_rows")

    def test_unparseable_text_never_reaches_the_log(self, tmp_path):
        # it fails the one parse, before anything is classified or run
        with pytest.raises(SqlSyntaxError):
            _logged("INSERT INTO (")
        db, log = make_logged_db(tmp_path)
        with pytest.raises(SqlSyntaxError):
            db.execute("INSERT INTO (")
        assert log.path.read_text() == ""

    def test_leading_comment_statement_is_logged_and_replayed(self, tmp_path):
        db, log = make_logged_db(tmp_path)
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("-- audit note\nINSERT INTO t VALUES (7)")
        recovered = replay_log(str(log.path))
        assert recovered.execute("SELECT a FROM t").scalar() == 7


def _logged_statements(log):
    return [
        _decode(line.split("\t", 1)[1])
        for line in log.path.read_text().splitlines()
    ]


class TestScriptsAreLogged:
    """``execute_script`` goes through the same statement funnel as
    ``execute``: acknowledged => durable holds for it too."""

    SCRIPT = "INSERT INTO t VALUES (2);\n-- second\nINSERT INTO t VALUES (3);"

    def test_script_writes_replay_in_order(self, tmp_path):
        db, log = make_logged_db(tmp_path)
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute_script(self.SCRIPT)
        db.execute("INSERT INTO t VALUES (4)")
        assert _logged_statements(log) == [
            "CREATE TABLE t (a INTEGER)",
            "INSERT INTO t VALUES (1)",
            "INSERT INTO t VALUES (2)",
            "INSERT INTO t VALUES (3)",
            "INSERT INTO t VALUES (4)",
        ]
        recovered = replay_log(str(log.path))
        assert recovered.execute("SELECT a FROM t").column(0) == [1, 2, 3, 4]

    def test_script_in_transaction_logs_at_commit(self, tmp_path):
        db, log = make_logged_db(tmp_path)
        db.execute("CREATE TABLE t (a INTEGER)")
        db.begin()
        db.execute_script(self.SCRIPT)
        assert len(_logged_statements(log)) == 1
        db.commit()
        recovered = replay_log(str(log.path))
        assert recovered.execute("SELECT a FROM t").column(0) == [2, 3]

    def test_script_in_transaction_rollback_discards(self, tmp_path):
        db, log = make_logged_db(tmp_path)
        db.execute("CREATE TABLE t (a INTEGER)")
        db.begin()
        db.execute_script(self.SCRIPT)
        db.rollback()
        db.execute("INSERT INTO t VALUES (9)")
        recovered = replay_log(str(log.path))
        assert recovered.execute("SELECT a FROM t").column(0) == [9]

    def test_failing_statement_stops_the_script_after_what_committed(
        self, tmp_path
    ):
        db, log = make_logged_db(tmp_path)
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY)")
        with pytest.raises(ExecutionError):
            db.execute_script(
                "INSERT INTO t VALUES (1); INSERT INTO t VALUES (1); "
                "INSERT INTO t VALUES (2)"
            )
        assert _logged_statements(log)[1:] == ["INSERT INTO t VALUES (1)"]
        recovered = replay_log(str(log.path))
        assert recovered.execute("SELECT a FROM t").column(0) == [1]

    def test_script_statements_are_recorded_like_any_other(self):
        was_enabled = metrics_enabled()
        set_enabled(True)
        registry = get_registry()
        registry.reset()
        try:
            db = Database()
            db.set_slow_query_threshold(0.0)  # everything is slow
            db.execute_script(
                "CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1), (2)"
            )
            assert registry.value("repro_statements_total", kind="Insert") == 1
            assert [entry.sql for entry in db.slow_queries.entries()] == [
                "CREATE TABLE t (a INTEGER)",
                "INSERT INTO t VALUES (1), (2)",
            ]
            with pytest.raises(ResourceExhaustedError):
                db.execute_script(
                    "SELECT a FROM t", budget=QueryBudget(max_rows=1)
                )
            assert registry.value(
                "repro_statement_aborts_total",
                cause="ResourceExhaustedError",
                kind="Select",
            ) == 1
        finally:
            registry.reset()
            set_enabled(was_enabled)


class TestAttachment:
    def test_second_log_on_one_database_is_refused(self, tmp_path):
        db, log = make_logged_db(tmp_path)
        with pytest.raises(DatabaseError, match="already has a command log"):
            enable_command_log(db, str(tmp_path / "second.log"))
        assert not (tmp_path / "second.log").exists()
        assert db.command_log is log

    def test_detach_then_attach_again(self, tmp_path):
        """The supervisor's heal path: detach, then a fresh log."""
        db, log = make_logged_db(tmp_path)
        db.execute("CREATE TABLE t (a INTEGER)")
        log.detach()
        log.detach()  # idempotent
        fresh = enable_command_log(db, str(log.path))
        db.execute("INSERT INTO t VALUES (1)")
        log.detach()  # a stale handle must not detach its successor
        db.execute("INSERT INTO t VALUES (2)")
        fresh.detach()
        db.execute("INSERT INTO t VALUES (3)")
        recovered = replay_log(str(log.path))
        assert recovered.execute("SELECT a FROM t").column(0) == [1, 2]


class TestChecksums:
    def test_lines_carry_crc32(self, tmp_path):
        db, log = make_logged_db(tmp_path)
        db.execute("CREATE TABLE t (a INTEGER)")
        line = log.path.read_text().splitlines()[0]
        crc, payload = line.split("\t", 1)
        assert len(crc) == 8
        int(crc, 16)  # valid hex
        assert payload == "CREATE TABLE t (a INTEGER)"

    def test_corrupted_line_aborts_by_default(self, tmp_path):
        log_path = tmp_path / "c.log"
        good = _format_line("CREATE TABLE t (a INTEGER)")
        bad = _format_line("INSERT INTO t VALUES (1)").replace(
            "VALUES (1)", "VALUES (9)"
        )  # payload edited, checksum now stale
        log_path.write_text(good + bad)
        with pytest.raises(RecoveryError, match="c.log:2.*checksum mismatch"):
            replay_log(str(log_path))

    def test_corrupted_line_skipped_on_request(self, tmp_path):
        log_path = tmp_path / "c.log"
        log_path.write_text(
            _format_line("CREATE TABLE t (a INTEGER)")
            + _format_line("INSERT INTO t VALUES (1)").replace("(1)", "(9)")
            + _format_line("INSERT INTO t VALUES (2)")
        )
        db = replay_log(str(log_path), on_error="skip")
        assert db.execute("SELECT a FROM t").column(0) == [2]
        report = db.recovery_report
        assert report.statements_replayed == 2
        assert report.skipped == [(2, "checksum mismatch")]
        assert not report.clean

    def test_corrupted_line_stops_on_request(self, tmp_path):
        log_path = tmp_path / "c.log"
        log_path.write_text(
            _format_line("CREATE TABLE t (a INTEGER)")
            + _format_line("INSERT INTO t VALUES (1)")
            + _format_line("INSERT INTO t VALUES (2)").replace("(2)", "(9)")
            + _format_line("INSERT INTO t VALUES (3)")
        )
        db = replay_log(str(log_path), on_error="stop")
        # everything before the damage is kept; nothing after is applied
        assert db.execute("SELECT a FROM t").column(0) == [1]
        assert db.recovery_report.stopped_at_line == 3

    def test_invalid_policy_rejected(self, tmp_path):
        log_path = tmp_path / "c.log"
        log_path.write_text("")
        with pytest.raises(ValueError, match="on_error"):
            replay_log(str(log_path), on_error="ignore")

    def test_legacy_checksumless_log_still_replays(self, tmp_path):
        log_path = tmp_path / "legacy.log"
        log_path.write_text(
            "CREATE TABLE t (a INTEGER)\nINSERT INTO t VALUES (1)\n"
        )
        db = replay_log(str(log_path))
        assert db.execute("SELECT a FROM t").scalar() == 1
        assert db.recovery_report.clean


class TestTornTail:
    def test_torn_tail_dropped_and_reported(self, tmp_path):
        log_path = tmp_path / "torn.log"
        complete = _format_line("CREATE TABLE t (a INTEGER)") + _format_line(
            "INSERT INTO t VALUES (1)"
        )
        # crash mid-append: half a checksummed line, no newline
        log_path.write_text(
            complete + _format_line("INSERT INTO t VALUES (2)")[:15]
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            db = replay_log(str(log_path))
        assert db.execute("SELECT a FROM t").column(0) == [1]
        assert db.recovery_report.torn_tail is not None
        # any(): a garbage-collection pass inside the block may add an
        # unrelated ResourceWarning for an earlier test's log file
        assert any("torn tail" in str(w.message) for w in caught)
        # the file was truncated back to complete statements only
        assert log_path.read_text() == complete

    def test_complete_line_missing_only_newline_is_replayed(self, tmp_path):
        log_path = tmp_path / "torn.log"
        log_path.write_text(
            _format_line("CREATE TABLE t (a INTEGER)")
            + _format_line("INSERT INTO t VALUES (1)").rstrip("\n")
        )
        db = replay_log(str(log_path))
        # checksum validates: the statement was whole, only \n was lost
        assert db.execute("SELECT a FROM t").scalar() == 1
        assert db.recovery_report.torn_tail is None

    def test_torn_tail_on_single_line_log(self, tmp_path):
        log_path = tmp_path / "torn.log"
        log_path.write_text(_format_line("CREATE TABLE t (a INTEGER)")[:10])
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            db = replay_log(str(log_path))
        assert db.recovery_report.statements_replayed == 0
        assert log_path.read_text() == ""

    def test_torn_legacy_tail_dropped(self, tmp_path):
        log_path = tmp_path / "torn.log"
        log_path.write_text(
            "CREATE TABLE t (a INTEGER)\nINSERT INTO t VAL"
        )
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            db = replay_log(str(log_path))
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 0
        assert db.recovery_report.torn_tail is not None


class TestReplayPolicies:
    def test_skip_records_execution_failures(self, tmp_path):
        log_path = tmp_path / "p.log"
        log_path.write_text(
            _format_line("CREATE TABLE t (a INTEGER PRIMARY KEY)")
            + _format_line("INSERT INTO t VALUES (1)")
            + _format_line("INSERT INTO t VALUES (1)")  # duplicate key
            + _format_line("INSERT INTO t VALUES (2)")
        )
        db = replay_log(str(log_path), on_error="skip")
        assert db.execute("SELECT a FROM t").column(0) == [1, 2]
        (line, reason), = db.recovery_report.skipped
        assert line == 3
        assert "skipped 1 line(s)" in db.recovery_report.summary()

    def test_recover_facade_passes_policy_through(self, tmp_path):
        db = Database()
        log = enable_command_log(db, str(tmp_path / "commands.log"))
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        snapshot = tmp_path / "snap.json"
        db.save_snapshot(str(snapshot))
        log.truncate()
        db.execute("INSERT INTO t VALUES (3)")

        recovered = Database.recover(
            snapshot=str(snapshot), command_log=str(log.path)
        )
        assert recovered.execute(
            "SELECT a FROM t ORDER BY a"
        ).column(0) == [1, 2, 3]
        assert recovered.recovery_report.statements_replayed == 1

    def test_logged_db_still_accepts_statement_budget(self, tmp_path):
        db, log = make_logged_db(tmp_path)
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        with pytest.raises(ResourceExhaustedError):
            db.execute("SELECT a FROM t", budget=QueryBudget(max_rows=1))
        # the failed SELECT is not loggable; the log stays replayable
        recovered = replay_log(str(log.path))
        assert recovered.execute("SELECT COUNT(*) FROM t").scalar() == 3


class TestSnapshotPlusLog:
    def test_full_recovery_cycle(self, tmp_path):
        """Snapshot, keep logging, crash, recover: snapshot + replay."""
        db, log = make_logged_db(tmp_path)
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        snapshot_path = tmp_path / "snap.json"
        db.save_snapshot(str(snapshot_path))
        log.truncate()  # log restarts at the snapshot point
        db.execute("INSERT INTO t VALUES (3)")
        db.execute("DELETE FROM t WHERE a = 1")

        recovered = Database.load_snapshot(str(snapshot_path))
        replay_log(str(log.path), recovered)
        assert recovered.execute(
            "SELECT a FROM t ORDER BY a"
        ).column(0) == [2, 3]


class TestSyncPolicy:
    def test_default_policy_fsyncs_every_commit(self, tmp_path):
        db = Database()
        log = enable_command_log(db, str(tmp_path / "c.log"))
        assert log.sync == "commit"
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        assert log.fsync_count == 2

    def test_batch_policy_fsyncs_every_interval(self, tmp_path):
        from repro.core.command_log import CommandLog

        db = Database()
        log = CommandLog(db, str(tmp_path / "c.log"), sync="batch",
                         batch_interval=3)
        db.execute("CREATE TABLE t (a INTEGER)")
        for i in range(5):
            db.execute(f"INSERT INTO t VALUES ({i})")
        # 6 commits, interval 3 -> exactly 2 fsyncs
        assert log.fsync_count == 2

    def test_off_policy_never_fsyncs_but_still_flushes(self, tmp_path):
        db = Database()
        log = enable_command_log(db, str(tmp_path / "c.log"), sync="off")
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        assert log.fsync_count == 0
        # flushed per commit: another reader sees complete statements
        assert len(log.path.read_text().strip().splitlines()) == 2

    def test_sync_now_forces_fsync(self, tmp_path):
        db = Database()
        log = enable_command_log(db, str(tmp_path / "c.log"), sync="off")
        db.execute("CREATE TABLE t (a INTEGER)")
        log.sync_now()
        assert log.fsync_count == 1

    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="sync must be one of"):
            enable_command_log(Database(), str(tmp_path / "c.log"),
                               sync="eventually")

    def test_replay_works_under_every_policy(self, tmp_path):
        for sync in ("commit", "batch", "off"):
            db = Database()
            path = tmp_path / f"{sync}.log"
            enable_command_log(db, str(path), sync=sync)
            db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY)")
            db.execute("INSERT INTO t VALUES (1)")
            recovered = replay_log(str(path))
            assert recovered.execute("SELECT a FROM t").rows == [(1,)]


class TestReplicationFraming:
    def test_framed_records_carry_epoch_and_sequence(self, tmp_path):
        from repro.core.command_log import read_records

        db = Database()
        log = enable_command_log(db, str(tmp_path / "c.log"), epoch=2)
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("SELECT * FROM t")  # not logged, no sequence burned
        records = list(read_records(str(log.path)))
        assert [(r.epoch, r.sequence) for r in records] == [(2, 1), (2, 2)]
        assert log.last_sequence == 2

    def test_frame_checksum_covers_sequence(self, tmp_path):
        from repro.core.command_log import read_records

        db = Database()
        log = enable_command_log(db, str(tmp_path / "c.log"), epoch=1)
        db.execute("CREATE TABLE t (a INTEGER)")
        # splice the sequence number without fixing the checksum
        tampered = log.path.read_text().replace("r1.1\t", "r1.9\t")
        log.path.write_text(tampered)
        assert list(read_records(str(log.path))) == []

    def test_reopened_log_resumes_sequence(self, tmp_path):
        db = Database()
        log = enable_command_log(db, str(tmp_path / "c.log"), epoch=1)
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        log.detach()
        db2 = replay_log(str(log.path))
        log2 = enable_command_log(db2, str(log.path), epoch=2)
        assert log2.last_sequence == 2
        db2.execute("INSERT INTO t VALUES (2)")
        assert log2.last_sequence == 3

    def test_read_records_from_sequence_and_torn_tail(self, tmp_path):
        from repro.core.command_log import read_records

        db = Database()
        log = enable_command_log(db, str(tmp_path / "c.log"), epoch=1)
        db.execute("CREATE TABLE t (a INTEGER)")
        for i in range(3):
            db.execute(f"INSERT INTO t VALUES ({i})")
        assert [r.sequence for r in read_records(str(log.path),
                                                 from_sequence=2)] == [3, 4]
        # torn tail: reader stops, file untouched
        original = log.path.read_text()
        log.path.write_text(original + "deadbeef\tr1.9\tINSERT INTO")
        assert [r.sequence for r in read_records(str(log.path))] == [
            1, 2, 3, 4
        ]
        assert log.path.read_text().endswith("INSERT INTO")

    def test_truncate_sets_base_and_keeps_counting(self, tmp_path):
        db = Database()
        log = enable_command_log(db, str(tmp_path / "c.log"), epoch=1)
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        log.truncate()
        assert log.base_sequence == 2
        db.execute("INSERT INTO t VALUES (2)")
        assert log.last_sequence == 3
        from repro.core.command_log import read_records

        assert [r.sequence for r in read_records(str(log.path))] == [3]

    def test_legacy_unframed_format_is_unchanged(self, tmp_path):
        db = Database()
        log = enable_command_log(db, str(tmp_path / "c.log"))
        db.execute("CREATE TABLE t (a INTEGER)")
        line = log.path.read_text().strip()
        crc, payload = line.split("\t", 1)
        assert payload == "CREATE TABLE t (a INTEGER)"
        assert not payload.startswith("r")
