"""``serve_mixed``: point reads, durable writes and short traversals over the
wire, two closed-loop connections against a server in a child process.

Why: the tables are indexed and the statements prepared, so the engine
answers a read in microseconds and ``client``, ``server.protocol``,
``server.scheduler``, the session threads and ``core.command_log`` (one
fsync per commit) are the work. This is where a cheaper serving path must
show. Writes run beside reads under the writer-preferring lock, so a read
gain that starves writers (or the reverse) shows in the other class.

The whole benchmark is pinned to one processor (``harness.pin``), so the
server child and the load generator share it. Each is a single interpreter
and the loops are closed, so a second processor bought 10 % of throughput,
and paid for it with hand-offs between virtual processors that ride on the
host: repetitions of the same list then differed by a third, and whole runs
by a quarter whenever another tenant was busy. On one processor a hand-off is
a context switch inside the guest, and ten runs of the same commit spread
by 3-7 %.

Run as a module with ``--child`` this file is the server process.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

from repro import Database
from repro.bench.workloads import adjacency_of
from repro.client import Client
from repro.core.command_log import enable_command_log
from repro.datasets import follower_network, load_into_grfusion
from repro.replication.digest import combined_digest
from repro.server import Server

from .harness import (
    DATA_SEED, OUT_DIR, Op, Tracer, make_issuer, now, peak_rss_mb, plan_shapes)
from .oracle import rows_checksum, sorted_first_column, hop_ends
from .wire import CountingRelay

NAME = "serve_mixed"
WHY = ("indexed prepared statements over the wire, 2 closed-loop clients, "
       "fsync per commit: client, protocol, scheduler and command log dominate")

CLIENTS = 2
ROWS = 20000
GROUPS = 100
FOLLOWERS = 1000
OUT_DEGREE = 5
BLOCKS = 8
#: Operations per block, class and connection (60/10/15/15 %).
MIX = {"point_read": 84, "group_read": 14, "insert_event": 21, "paths_2hop": 21}
FSYNC_POLICY = "commit"
LOG_NAME = "command.log"

POINT_READ = "SELECT KV.v FROM KV WHERE KV.k = ?"
GROUP_READ = "SELECT KV.k, KV.v FROM KV WHERE KV.g = ?"
PATHS_2HOP = ("SELECT PS.EndVertex.Id FROM G.Paths PS "
              "WHERE PS.StartVertex.Id = ? AND PS.Length = 2")
PREPARED = (POINT_READ, GROUP_READ, PATHS_2HOP)
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def dataset():
    rng = random.Random(f"{NAME}:data:{DATA_SEED}")
    rows = [(k, k % GROUPS, rng.randrange(1_000_000)) for k in range(ROWS)]
    graph = follower_network(n=FOLLOWERS, out_degree=OUT_DEGREE, seed=DATA_SEED)
    return rows, graph


def build(rows, graph) -> Database:
    """The served database, without the command log and ``Events``."""
    db = Database()
    db.execute("CREATE TABLE KV (k INTEGER PRIMARY KEY, g INTEGER, v INTEGER)")
    db.load_rows("KV", rows)
    db.execute("CREATE INDEX kv_k ON KV (k)")
    db.execute("CREATE INDEX kv_g ON KV (g)")
    load_into_grfusion(graph, db, "G")
    return db


def operations(seed: int, scale: float, rows, graph) -> List[List[Op]]:
    """One list per connection. ``KV`` and ``G`` are never written, so the
    expected answers do not depend on how the connections interleave;
    ``Events`` is append-only and truncated between repetitions."""
    values = [v for _k, _g, v in rows]
    adjacency = adjacency_of(graph)
    lanes: List[List[Op]] = []
    for lane in range(CLIENTS):
        rng = random.Random(f"{NAME}:ops:{seed}:{lane}")
        ops: List[Op] = []
        event = lane * 10_000_000
        for _ in range(BLOCKS):
            block: List[Op] = []
            for cls, count in MIX.items():
                for _ in range(max(1, round(count * scale))):
                    if cls == "point_read":
                        key = rng.randrange(ROWS)
                        block.append(Op(cls, "read", POINT_READ, (key,),
                                        [(values[key],)]))
                    elif cls == "group_read":
                        group = rng.randrange(GROUPS)
                        members = range(group, ROWS, GROUPS)
                        block.append(Op(
                            cls, "read", GROUP_READ, (group,),
                            (len(members),
                             rows_checksum((k, values[k]) for k in members))))
                    elif cls == "insert_event":
                        event += 1
                        block.append(Op(
                            cls, "write",
                            f"INSERT INTO Events VALUES ({event}, "
                            f"{rng.randrange(ROWS)}, 'payload-{event}')",
                            None, event))
                    else:
                        start = rng.randrange(FOLLOWERS)
                        block.append(Op(cls, "paths", PATHS_2HOP, (start,),
                                        hop_ends(adjacency, start)))
            rng.shuffle(block)
            ops.extend(block)
        lanes.append(ops)
    return lanes


def check(op: Op, result: Any) -> bool:
    if op.cls == "insert_event":
        return result.rowcount == 1
    if op.cls == "group_read":
        return (len(result.rows), rows_checksum(result.rows)) == op.expect
    if op.cls == "paths_2hop":
        return sorted_first_column(result) == op.expect
    return result.rows == op.expect


class ServedInstance:
    """The server child, its command log, and the client connections."""

    clients = CLIENTS
    check = staticmethod(check)

    def __init__(self, seed: int, scale: float):
        os.makedirs(OUT_DIR, exist_ok=True)
        self.directory = tempfile.mkdtemp(prefix="serve-", dir=OUT_DIR)
        self.log_path = os.path.join(self.directory, LOG_NAME)
        self.child = subprocess.Popen(
            [sys.executable, "-m", __name__, "--child", "--dir", self.directory],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=REPO_ROOT)
        rows, graph = dataset()
        self.lanes = operations(seed, scale, rows, graph)
        self.block_len = len(self.lanes[0]) // BLOCKS
        self.connections: List[tuple] = []
        self.relay: Optional[CountingRelay] = None
        self.relayed: List[tuple] = []
        try:
            hello = json.loads(self.child.stdout.readline())
            self.address = ("127.0.0.1", hello["port"])
            self.connections = [self._connect(self.address)
                                for _ in range(CLIENTS)]
        except BaseException:
            self.close()  # the child must not outlive a failed set-up
            raise

    @staticmethod
    def _connect(address):
        client = Client(*address).connect()
        return client, {text: client.prepare(text) for text in PREPARED}

    def issuer(self, lane: int, tracer: Optional[Tracer]):
        if tracer is None:
            client, prepared = self.connections[lane]
            return make_issuer(client.execute, prepared)
        # traced: the same calls through the byte-counting relay, one
        # span per Client call (the server is another process)
        if self.relay is None:
            self.relay = CountingRelay(self.address)
            self.relayed = [self._connect(self.relay.address)
                            for _ in range(CLIENTS)]
        issue = make_issuer(self.relayed[lane][0].execute, self.relayed[lane][1])
        spans = tracer.spans

        def traced_issue(op: Op, op_id: int) -> Any:
            t0 = now()
            result = issue(op, op_id)
            spans.append((f"client.execute.{op.cls}", t0, now(), None,
                          lane * 1_000_000 + op_id))
            return result

        return traced_issue

    def _ask(self, command: str) -> Dict[str, Any]:
        self.child.stdin.write(command + "\n")
        self.child.stdin.flush()
        return json.loads(self.child.stdout.readline())

    def digest(self) -> str:
        return self._ask("digest")["digest"]

    def plan_shapes(self) -> Dict[str, str]:
        """Planned on an in-process twin of the served database."""
        return plan_shapes(build(*dataset()), self.lanes)

    def restore(self) -> None:
        self.connections[0][0].execute("TRUNCATE TABLE Events")

    def peak_rss_mb(self) -> float:
        """Of the server child, which holds the data."""
        return peak_rss_mb(self.child.pid)

    def lost_acked_writes(self) -> int:
        """Re-issue the first connection's acknowledged-write list, kill
        the server with SIGKILL, recover a database from its command log
        alone and count the acknowledged ``Events`` rows that are absent.
        (kill -9 leaves the OS cache intact: this checks that the log is
        complete, not that the device kept it.)"""
        client = self.connections[0][0]
        acked = set()
        for op in self.lanes[0][: self.block_len]:
            if op.cls == "insert_event":
                client.execute(op.text)
                acked.add(op.expect)
        self.child.kill()
        self.child.wait()
        recovered = Database.recover(command_log=self.log_path)
        present = {row[0] for row in recovered.table("Events").rows()}
        return len(acked - present)

    def close(self) -> None:
        for client, _prepared in self.connections + self.relayed:
            client.reconnect = False
            client.close()
        if self.relay is not None:
            self.relay.close()
        if self.child.poll() is None:
            try:
                self.child.stdin.write("quit\n")
                self.child.stdin.flush()
                self.child.wait(timeout=20)
            except (OSError, subprocess.TimeoutExpired):
                self.child.kill()
                self.child.wait()
        self.child.stdin.close()
        self.child.stdout.close()
        for name in os.listdir(self.directory):
            os.unlink(os.path.join(self.directory, name))
        os.rmdir(self.directory)


def setup(seed: int, scale: float = 1.0) -> ServedInstance:
    return ServedInstance(seed, scale)


def child_main(directory: str) -> None:
    """The server process: build, attach the command log, create
    ``Events`` through it (so recovery from the log alone has the table),
    serve, and answer ``digest`` / ``quit`` lines on stdin."""
    db = build(*dataset())
    enable_command_log(db, os.path.join(directory, LOG_NAME), sync=FSYNC_POLICY)
    db.execute("CREATE TABLE Events (eid INTEGER PRIMARY KEY, k INTEGER, "
               "payload VARCHAR)")
    server = Server(db).start()
    print(json.dumps({"port": server.address[1]}), flush=True)
    for line in sys.stdin:
        if line.strip() == "digest":
            print(json.dumps({"digest": combined_digest(db)}), flush=True)
        elif line.strip() == "quit":
            break
    server.shutdown(drain=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--child", action="store_true", required=True)
    parser.add_argument("--dir", required=True)
    arguments = parser.parse_args()
    child_main(arguments.dir)
