#!/usr/bin/env python3
"""Cross-process cluster observability smoke check (CI gate).

The unit suites prove tracing inside one process; this script proves
the claim that matters operationally: **one statement, one trace_id,
spans from multiple OS processes** — plus a working per-node HTTP
observability endpoint during a real failover. It:

1. spawns a 3-node cluster as real ``python -m repro --cluster``
   subprocesses, each with ``--http-port``;
2. curls every node's ``/health`` and ``/metrics``;
3. runs one INSERT through a cluster-aware client (this process is the
   fourth participant — it records the root span locally), then merges
   that trace's spans from every node's ``/traces`` until the full
   client → server.statement → queue.wait → db.execute → log.fsync →
   repl.ship → repl.apply chain is present across ≥ 2 processes;
4. writes the merged trace to ``benchmarks/results/TRACE_cluster.json``
   (uploaded as a CI artifact);
5. kills the primary with SIGKILL and polls the survivors' ``/events``
   until the ``election_won`` → ``epoch_bump`` sequence appears, then
   proves the cluster still takes a write.

Usage::

    PYTHONPATH=src python benchmarks/cluster_observability_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Dict, List, Optional, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
RESULTS_DIR = os.path.join(REPO, "benchmarks", "results")
ARTIFACT = os.path.join(RESULTS_DIR, "TRACE_cluster.json")

NAMES = ("n1", "n2", "n3")
#: Span names a single acknowledged cluster write must produce.
REQUIRED_SPANS = (
    "client.execute",
    "server.statement",
    "queue.wait",
    "db.execute",
    "log.fsync",
    "repl.ship",
    "repl.apply",
)
DEADLINE = 45.0  # per wait; CI runners can be slow


class SmokeFailure(AssertionError):
    """One failed smoke assertion (message is the whole report)."""


def http_get(url: str, timeout: float = 3.0) -> Tuple[int, str]:
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8", "replace")


def http_json(url: str, timeout: float = 3.0) -> Dict[str, Any]:
    status, body = http_get(url, timeout=timeout)
    if status != 200:
        raise SmokeFailure(f"GET {url} -> HTTP {status}: {body[:200]}")
    return json.loads(body)


def wait_for(
    predicate: Callable[[], bool], what: str, deadline: float = DEADLINE
) -> None:
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        try:
            if predicate():
                return
        except (OSError, urllib.error.URLError, ConnectionError):
            pass  # node still booting / mid-failover: poll again
        time.sleep(0.15)
    raise SmokeFailure(f"timed out after {deadline:.0f}s waiting for {what}")


class Cluster:
    """Three ``python -m repro --cluster`` subprocesses + their ports."""

    def __init__(self, directory: str):
        from repro.resilience.chaos import free_ports

        self.directory = directory
        ports = free_ports(9)
        self.client_ports = dict(zip(NAMES, ports[0:3]))
        self.repl_ports = dict(zip(NAMES, ports[3:6]))
        self.http_ports = dict(zip(NAMES, ports[6:9]))
        self.peers_arg = ",".join(
            f"{name}=127.0.0.1:{self.client_ports[name]}:"
            f"{self.repl_ports[name]}"
            for name in NAMES
        )
        self.procs: Dict[str, Optional[subprocess.Popen]] = {}
        self.logs: Dict[str, str] = {}

    def spawn(self, name: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        log_path = os.path.join(self.directory, f"{name}.log")
        self.logs[name] = log_path
        with open(log_path, "ab") as log:
            self.procs[name] = subprocess.Popen(
                [
                    sys.executable, "-m", "repro",
                    "--cluster", name,
                    "--peers", self.peers_arg,
                    "--data-dir", os.path.join(self.directory, name),
                    "--initial-primary", "n1",
                    "--heartbeat-timeout", "1.0",
                    "--http-port", str(self.http_ports[name]),
                ],
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
            )

    def http_url(self, name: str, route: str) -> str:
        return f"http://127.0.0.1:{self.http_ports[name]}{route}"

    def live(self) -> List[str]:
        return [
            name
            for name, proc in self.procs.items()
            if proc is not None and proc.poll() is None
        ]

    def kill(self, name: str) -> None:
        proc = self.procs.get(name)
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        self.procs[name] = None

    def shutdown(self) -> None:
        for name in list(self.procs):
            self.kill(name)

    def tail_logs(self) -> str:
        chunks = []
        for name, path in self.logs.items():
            try:
                with open(path, "r") as handle:
                    tail = handle.read()[-1500:]
            except OSError:
                tail = "<no log>"
            chunks.append(f"--- {name} ---\n{tail}")
        return "\n".join(chunks)


def primary_name(cluster: Cluster) -> Optional[str]:
    for name in cluster.live():
        try:
            health = http_json(cluster.http_url(name, "/health"))
        except (SmokeFailure, OSError, urllib.error.URLError, ValueError):
            continue
        if health.get("role") == "primary":
            return name
    return None


def merged_trace_spans(
    cluster: Cluster, trace_id: str
) -> List[Dict[str, Any]]:
    """This process's spans + every live node's, deduped by span_id."""
    from repro.observability.tracing import get_collector

    merged: Dict[Tuple[str, str], Dict[str, Any]] = {}
    for span in get_collector().export(trace_id):
        merged[(span["span_id"], span["name"])] = span
    for name in cluster.live():
        doc = http_json(
            cluster.http_url(name, f"/traces?trace_id={trace_id}")
        )
        for span in doc.get("spans", []):
            merged[(span["span_id"], span["name"])] = span
    return sorted(merged.values(), key=lambda s: s["started_at"])


def check_endpoints(cluster: Cluster) -> None:
    for name in NAMES:
        health = http_json(cluster.http_url(name, "/health"))
        if health.get("node") != name or "role" not in health:
            raise SmokeFailure(f"{name}: malformed /health: {health}")
        status, body = http_get(cluster.http_url(name, "/metrics"))
        if status != 200 or "repro_" not in body:
            raise SmokeFailure(
                f"{name}: /metrics missing repro_* series "
                f"(HTTP {status}, {len(body)} bytes)"
            )
        print(f"  {name}: /health role={health['role']!r}, /metrics ok")


def run_traced_write(cluster: Cluster) -> str:
    """One INSERT through the cluster; returns its trace_id once the
    full span chain is visible across the node endpoints."""
    from repro.client import Client
    from repro.observability.tracing import get_collector

    seeds = [f"127.0.0.1:{cluster.client_ports[n]}" for n in NAMES]
    with Client(seeds=seeds, timeout=10.0, connect_timeout=2.0) as client:
        client.execute(
            "CREATE TABLE obs (id INTEGER PRIMARY KEY, note VARCHAR)"
        )
        get_collector().clear()
        client.execute("INSERT INTO obs VALUES (1, 'traced')")
        roots = [
            span
            for span in get_collector().export()
            if span["name"] == "client.execute"
            and "INSERT" in str(span["attrs"].get("sql", ""))
        ]
        if not roots:
            raise SmokeFailure("client recorded no root span for the INSERT")
        trace_id = roots[-1]["trace_id"]

        def chain_complete() -> bool:
            names = {s["name"] for s in merged_trace_spans(cluster, trace_id)}
            return all(required in names for required in REQUIRED_SPANS)

        wait_for(
            chain_complete,
            f"full span chain {REQUIRED_SPANS} for trace {trace_id[:8]}..",
        )
    return trace_id


def check_trace(cluster: Cluster, trace_id: str) -> List[Dict[str, Any]]:
    spans = merged_trace_spans(cluster, trace_id)
    trace_ids = {span["trace_id"] for span in spans}
    if trace_ids != {trace_id}:
        raise SmokeFailure(f"expected one trace_id, got {trace_ids}")
    # processes: this script (node == "") plus at least two cluster nodes
    nodes = {span["node"] for span in spans}
    cluster_nodes = nodes - {""}
    if "" not in nodes or len(cluster_nodes) < 2:
        raise SmokeFailure(
            f"trace must span the client process and >= 2 nodes; "
            f"got nodes {sorted(nodes)}"
        )
    by_name: Dict[str, List[str]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span["node"])
    print(f"  trace {trace_id[:8]}.. spans {len(spans)} across "
          f"client + {sorted(cluster_nodes)}:")
    for name in REQUIRED_SPANS:
        print(f"    {name:<18} on {sorted(set(by_name.get(name, [])))}")
    return spans


def write_artifact(trace_id: str, spans: List[Dict[str, Any]]) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(ARTIFACT, "w") as handle:
        json.dump(
            {
                "benchmark": "cluster_observability_smoke",
                "captured_at": time.time(),
                "trace_id": trace_id,
                "span_count": len(spans),
                "nodes": sorted({s["node"] for s in spans}),
                "spans": spans,
            },
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")
    print(f"  wrote {os.path.relpath(ARTIFACT, REPO)} ({len(spans)} spans)")


def check_failover_events(cluster: Cluster) -> None:
    victim = primary_name(cluster)
    if victim is None:
        raise SmokeFailure("no primary found before the failover check")
    print(f"  killing primary {victim} (SIGKILL)")
    cluster.kill(victim)

    def election_done() -> bool:
        return any(
            http_json(cluster.http_url(name, "/events?kind=election_won"))
            .get("events")
            for name in cluster.live()
        )

    wait_for(election_done, "an election_won event on a survivor")
    winner = primary_name(cluster)
    if winner is None or winner == victim:
        raise SmokeFailure(f"no new primary after killing {victim}")
    events = http_json(cluster.http_url(winner, "/events")).get("events", [])
    won = [e for e in events
           if e["kind"] == "election_won" and e["node"] == winner]
    bumps = [e for e in events
             if e["kind"] == "epoch_bump" and e["node"] == winner
             and e["detail"].get("role") == "primary"]
    if not won or not bumps:
        raise SmokeFailure(
            f"{winner}: /events missing the failover sequence "
            f"(election_won={len(won)}, epoch_bump={len(bumps)})"
        )
    if won[0]["seq"] >= bumps[-1]["seq"]:
        raise SmokeFailure(
            f"{winner}: election_won (seq {won[0]['seq']}) must precede "
            f"its epoch_bump (seq {bumps[-1]['seq']})"
        )
    print(f"  {winner}: election_won seq {won[0]['seq']} -> "
          f"epoch_bump seq {bumps[-1]['seq']} (epoch "
          f"{bumps[-1]['detail'].get('epoch')})")

    # the cluster must still take writes after the failover
    from repro.client import Client

    seeds = [
        f"127.0.0.1:{cluster.client_ports[n]}" for n in cluster.live()
    ]
    with Client(seeds=seeds, timeout=10.0, connect_timeout=2.0) as client:
        client.execute("INSERT INTO obs VALUES (2, 'post-failover')")
        rows = client.execute("SELECT COUNT(*) FROM obs").rows
    print(f"  post-failover write ok (obs rows: {rows[0][0]})")


def main() -> int:
    directory = tempfile.mkdtemp(prefix="repro-obs-smoke-")
    cluster = Cluster(directory)
    try:
        print(f"starting 3-node cluster under {directory}")
        for name in NAMES:
            cluster.spawn(name)
        wait_for(
            lambda: all(
                http_get(cluster.http_url(name, "/health"))[0] == 200
                for name in NAMES
            ),
            "every node's /health endpoint",
        )
        wait_for(
            lambda: primary_name(cluster) is not None,
            "a primary to emerge",
        )
        print("checking per-node HTTP endpoints")
        check_endpoints(cluster)
        print("running one traced write through the cluster")
        trace_id = run_traced_write(cluster)
        spans = check_trace(cluster, trace_id)
        write_artifact(trace_id, spans)
        print("checking failover event sequence over /events")
        check_failover_events(cluster)
        print("OK: cross-process trace + failover events verified")
        return 0
    except SmokeFailure as failure:
        print(f"FAIL: {failure}", file=sys.stderr)
        print(cluster.tail_logs(), file=sys.stderr)
        return 1
    finally:
        cluster.shutdown()
        shutil.rmtree(directory, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
