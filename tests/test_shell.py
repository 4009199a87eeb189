"""Tests for the interactive shell (streams injected, no TTY needed)."""

import io

from repro import Database, QueryBudget
from repro.shell import Shell, format_result
from repro.core.result import ResultSet
from repro.resilience.supervisor import Supervisor


def run_lines(lines, database=None):
    out = io.StringIO()
    shell = Shell(database=database, out=out)
    for line in lines:
        if shell.done:
            break
        shell.feed_line(line)
    return out.getvalue(), shell


class TestStatementHandling:
    def test_create_insert_select(self):
        output, _shell = run_lines(
            [
                "CREATE TABLE t (a INTEGER, b VARCHAR);",
                "INSERT INTO t VALUES (1, 'x');",
                "SELECT * FROM t;",
            ]
        )
        assert "1 row(s) affected" in output
        assert "a" in output and "b" in output
        assert "1 | x" in output

    def test_multiline_statement(self):
        output, _shell = run_lines(
            [
                "CREATE TABLE t (a INTEGER);",
                "SELECT a",
                "FROM t",
                "WHERE a > 0;",
            ]
        )
        assert "(0 row(s))" in output

    def test_error_reported_not_raised(self):
        output, shell = run_lines(["SELECT * FROM missing;"])
        assert "error:" in output
        assert not shell.done

    def test_prompt_changes_mid_statement(self):
        _output, shell = run_lines(["SELECT 1"])
        assert shell.prompt().strip().endswith("...>")

    def test_null_rendering(self):
        output, _shell = run_lines(
            [
                "CREATE TABLE t (a INTEGER);",
                "INSERT INTO t VALUES (NULL);",
                "SELECT a FROM t;",
            ]
        )
        assert "NULL" in output


class TestDotCommands:
    def test_quit(self):
        _output, shell = run_lines([".quit", "SELECT 1;"])
        assert shell.done

    def test_help(self):
        output, _shell = run_lines([".help"])
        assert ".tables" in output
        assert ".schema" in output

    def test_tables_lists_everything(self):
        db = Database()
        db.execute("CREATE TABLE V (id INTEGER PRIMARY KEY)")
        db.execute("CREATE TABLE E (id INTEGER PRIMARY KEY, s INTEGER, d INTEGER)")
        db.execute("CREATE VIEW v1 AS SELECT id FROM V")
        db.execute(
            "CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id) FROM V "
            "EDGES(ID = id, FROM = s, TO = d) FROM E"
        )
        output, _shell = run_lines([".tables"], database=db)
        assert "table       V" in output
        assert "view        v1" in output
        assert "graph view  g" in output

    def test_schema_table(self):
        db = Database()
        db.execute(
            "CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR NOT NULL)"
        )
        output, _shell = run_lines([".schema t"], database=db)
        assert "a INTEGER PRIMARY KEY" in output
        assert "b VARCHAR NOT NULL" in output

    def test_schema_graph_view(self):
        db = Database()
        db.execute("CREATE TABLE V (id INTEGER PRIMARY KEY, n VARCHAR)")
        db.execute("CREATE TABLE E (id INTEGER PRIMARY KEY, s INTEGER, d INTEGER)")
        db.execute(
            "CREATE UNDIRECTED GRAPH VIEW g VERTEXES(ID = id, n = n) FROM V "
            "EDGES(ID = id, FROM = s, TO = d) FROM E"
        )
        output, _shell = run_lines([".schema g"], database=db)
        assert "undirected" in output
        assert "vertexes from V" in output

    def test_schema_unknown(self):
        output, _shell = run_lines([".schema nothere"])
        assert "unknown object" in output

    def test_explain(self):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER)")
        output, _shell = run_lines([".explain SELECT a FROM t"], database=db)
        assert "SeqScan" in output

    def test_timer_toggle(self):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER)")
        output, _shell = run_lines(
            [".timer on", "SELECT a FROM t;"], database=db
        )
        assert "timer on" in output
        assert "time:" in output

    def test_unknown_command(self):
        output, _shell = run_lines([".frobnicate"])
        assert "unknown command" in output

    def test_run_script(self, tmp_path):
        script = tmp_path / "setup.sql"
        script.write_text(
            "CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (7);"
        )
        db = Database()
        output, _shell = run_lines([f".run {script}"], database=db)
        assert "ok (2 statement(s))" in output
        assert db.execute("SELECT a FROM t").scalar() == 7

    def test_run_script_is_durable_under_a_supervisor(self, tmp_path):
        script = tmp_path / "setup.sql"
        script.write_text(
            "CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (7);"
        )
        supervisor = Supervisor(str(tmp_path / "data"))
        output, _shell = run_lines(
            [f".run {script}"], database=supervisor.start()
        )
        assert "ok (2 statement(s))" in output
        supervisor.stop()
        restarted = Supervisor(str(tmp_path / "data"))
        try:
            recovered = restarted.start()
            assert recovered.execute("SELECT a FROM t").scalar() == 7
        finally:
            restarted.stop()

    def test_run_missing_file(self):
        output, _shell = run_lines([".run /does/not/exist.sql"])
        assert "cannot read" in output


class TestFriendlyErrors:
    def test_syntax_error_points_at_line_and_column(self):
        output, shell = run_lines(["SELECT FROM WHERE;"])
        assert "syntax error at line 1, column" in output
        assert output.count("line 1") == 1  # no duplicated position info
        assert not shell.done

    def test_budget_abort_hints_at_timeout(self):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        db.set_budget(QueryBudget(max_rows=1))
        output, shell = run_lines(["SELECT a FROM t;"], database=db)
        assert "aborted:" in output
        assert "\\timeout" in output
        assert not shell.done

    def test_error_is_one_line(self):
        output, _shell = run_lines(["SELECT * FROM missing;"])
        error_lines = [
            line for line in output.splitlines() if "error" in line
        ]
        assert len(error_lines) == 1


class TestTimeoutMetaCommand:
    def test_set_show_and_clear(self):
        db = Database()
        output, shell = run_lines(
            ["\\timeout 250", "\\timeout", "\\timeout off"], database=db
        )
        assert "timeout 250 ms" in output
        assert "timeout off" in output
        assert shell.timeout_ms is None
        assert db.budget is None

    def test_sets_database_budget(self):
        db = Database()
        _output, shell = run_lines(["\\timeout 100"], database=db)
        assert shell.timeout_ms == 100
        assert db.budget == QueryBudget(timeout_ms=100)

    def test_timeout_aborts_runaway_statement(self):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER)")
        db.load_rows("t", [(i,) for i in range(30)])
        output, shell = run_lines(
            [
                "\\timeout 1",
                "SELECT t1.a FROM t t1, t t2, t t3, t t4;",
            ],
            database=db,
        )
        assert "aborted:" in output
        assert "timeout_ms=1" in output
        assert not shell.done

    def test_bad_argument(self):
        output, _shell = run_lines(["\\timeout soon"])
        assert "usage: \\timeout MS|off" in output

    def test_unknown_backslash_command(self):
        output, _shell = run_lines(["\\frobnicate"])
        assert "unknown command" in output

    def test_help_documents_timeout(self):
        output, _shell = run_lines([".help"])
        assert "\\timeout" in output


class TestFormatResult:
    def test_dml_summary(self):
        assert "3 row(s) affected" in format_result(ResultSet(rowcount=3))

    def test_truncation(self):
        result = ResultSet(["n"], [(i,) for i in range(500)])
        text = format_result(result, max_rows=10)
        assert "500 rows total" in text

    def test_boolean_rendering(self):
        text = format_result(ResultSet(["b"], [(True,), (False,)]))
        assert "true" in text and "false" in text


class TestRunLoop:
    def test_run_with_injected_lines(self):
        out = io.StringIO()
        shell = Shell(out=out)
        shell.run(
            [
                "CREATE TABLE t (a INTEGER);",
                "INSERT INTO t VALUES (5);",
                "SELECT a FROM t;",
                ".quit",
                "SELECT never_reached;",
            ]
        )
        text = out.getvalue()
        assert "repro shell" in text
        assert "5" in text
        assert "never_reached" not in text
        assert shell.done


class TestReplicationCommands:
    """``\\replica status`` and ``\\promote`` against a real cluster."""

    def make_cluster(self, tmp_path):
        from repro.replication import Primary, Replica, ReplicationManager

        primary = Primary(str(tmp_path / "primary.log"))
        manager = ReplicationManager(primary, data_dir=str(tmp_path))
        manager.add_replica(Replica("r1", str(tmp_path)))
        manager.add_replica(Replica("r2", str(tmp_path)))
        manager.step(2)
        manager.execute("CREATE TABLE t (a INTEGER PRIMARY KEY)")
        manager.step(2)
        return manager

    def run_cluster_lines(self, tmp_path, lines):
        manager = self.make_cluster(tmp_path)
        out = io.StringIO()
        shell = Shell(cluster=manager, out=out)
        for line in lines:
            shell.feed_line(line)
        return out.getvalue(), shell, manager

    def test_replica_status_lists_every_node(self, tmp_path):
        output, _, _ = self.run_cluster_lines(tmp_path, ["\\replica status"])
        assert "primary" in output
        assert "r1" in output and "r2" in output
        assert "lag=0" in output

    def test_promote_switches_primary_and_shell_db(self, tmp_path):
        output, shell, manager = self.run_cluster_lines(
            tmp_path, ["\\promote r1", "SELECT a FROM t;"]
        )
        assert "promoted r1 to primary (epoch 2)" in output
        assert manager.primary.name == "r1"
        assert shell.db is manager.primary.db
        assert "(0 row(s))" in output  # reads now served by the new primary

    def test_promote_error_messages_are_one_line(self, tmp_path):
        output, _, _ = self.run_cluster_lines(
            tmp_path, ["\\promote ghost", "\\promote r1", "\\promote r1"]
        )
        assert "error: no such replica: ghost" in output
        assert "error: r1 is already the primary" in output

    def test_promote_quarantined_replica_refused(self, tmp_path):
        manager = self.make_cluster(tmp_path)
        manager.replicas["r1"].quarantined = True
        out = io.StringIO()
        shell = Shell(cluster=manager, out=out)
        shell.feed_line("\\promote r1")
        assert "error: r1 is quarantined" in out.getvalue()

    def test_statements_route_through_semi_sync_commit(self, tmp_path):
        """A write at the prompt is acked by a replica before the shell
        prints ``ok`` — so promoting immediately after never loses it."""
        output, shell, manager = self.run_cluster_lines(
            tmp_path,
            [
                "INSERT INTO t VALUES (7);",
                "\\promote r1",
                "SELECT a FROM t;",
            ],
        )
        assert "ok (1 row(s) affected)" in output
        assert "promoted r1 to primary (epoch 2)" in output
        assert "(1 row(s))" in output
        rows = manager.primary.db.execute("SELECT a FROM t").rows
        assert rows == [(7,)]

    def test_replica_usage_line(self, tmp_path):
        output, _, _ = self.run_cluster_lines(tmp_path, ["\\replica"])
        assert "usage: \\replica status" in output

    def test_without_cluster_commands_degrade_gracefully(self):
        output, shell = run_lines(["\\replica status", "\\promote r1"])
        assert output.count("error: replication is not configured") == 2
        assert not shell.done

    def test_help_mentions_replication_commands(self):
        output, _ = run_lines([".help"])
        assert "\\replica status" in output
        assert "\\promote" in output


class TestShardsCommand:
    def test_shards_status_against_a_router(self):
        from repro.client import Client
        from repro.sharding import start_sharded, stop_sharded

        router, shards = start_sharded(2)
        try:
            with Client(*router.address) as client:
                client.execute(
                    "CREATE TABLE KV (k INTEGER PRIMARY KEY, v INTEGER) "
                    "PARTITION BY k"
                )
                client.execute("INSERT INTO KV VALUES (1, 1), (2, 2)")
                out = io.StringIO()
                Shell(client=client, out=out)._shards_command("status")
                text = out.getvalue()
                assert "2 shard(s), 64 slots" in text
                assert "shard 0" in text and "shard 1" in text
                assert "healthy" in text
                assert "table kv: partition by k" in text
                assert "single_shard_writes=1" in text
        finally:
            stop_sharded(router, shards)

    def test_shards_against_a_plain_server_and_locally(self):
        from repro.client import Client
        from repro.server import Server

        server = Server(Database()).start()
        try:
            with Client(*server.address) as client:
                out = io.StringIO()
                Shell(client=client, out=out)._shards_command("")
                assert "not sharded" in out.getvalue()
        finally:
            server.shutdown(drain=False, timeout=10)
        output, _ = run_lines(["\\shards status"])
        assert "error" in output  # needs a remote connection

    def test_help_mentions_shards(self):
        output, _ = run_lines([".help"])
        assert "\\shards" in output
