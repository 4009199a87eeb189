"""The chaos runner: scenario cells × seeds, digest-verified.

The acknowledged-commit guarantee is only as strong as its weakest
failure, so this runner enumerates them. It holds two **scenario
tables**; every cell of a table runs once per seed, in a fresh
directory, against the same relational + graph schema (kv table, nodes,
edges, a graph view — so the digests cover topology too) and the same
seeded write workload, with exactly one fault injected mid-workload.
Afterwards the replication digests must show that the surviving state
equals what was acknowledged: every acknowledged statement present, an
in-flight or ambiguous one present or absent, nothing else different.

``storage`` — one cell per data-path storage fault site × fault kind
valid there (the probe sites are left to the unit tests; a probe fault
endangers no data). A :class:`~repro.resilience.supervisor.Supervisor`
runs the workload with a checkpoint in the middle and one armed fault
(a seeded position for command-log sites, the checkpoint for the
others). The cell classifies what happened — ``crashed`` (the simulated
process died), ``degraded`` (the engine refused the write and went
read-only; the cell then proves reads still flow and the next write
raises ``DegradedError``) or ``absorbed`` (e.g. a failed checkpoint that
will simply be retried) — then repairs the disk, restarts through a
fresh supervisor, compares digests and proves the node takes writes.

``cluster`` — the four named whole-cluster scenarios (:data:`SCENARIOS`)
against a real 3-node :class:`~repro.replication.node.ClusterNode`
cluster driven through a cluster-aware :class:`~repro.client.Client`.
At a seeded step the scenario's fault fires; every statement is driven
to resolution — retried until acknowledged, or until a primary-key
conflict shows an earlier unknown-outcome attempt applied (ambiguous).
Once the cluster converges, ambiguous statements are resolved by reading
them back, and the final primary's digest must equal the resolved
reference and every live replica's digest the primary's. The survivors
must still take a write.

A cell fails on any unhandled exception, a digest mismatch, a fault
that never fired, a degraded node that would not serve reads, or a
statement unresolved before its deadline. The CLI prints every failing
cell with a one-line repro command and exits non-zero::

    PYTHONPATH=src python -m repro.resilience.chaos storage --seeds 0,1,2
    PYTHONPATH=src python -m repro.resilience.chaos storage \\
        --only commandlog.fsync --seeds 7
    PYTHONPATH=src python -m repro.resilience.chaos cluster \\
        --only kill_primary --seeds 7
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import socket
import sys
import tempfile
import time
from collections import Counter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..client import Client
from ..core.database import Database
from ..errors import (
    ClientConnectionError,
    DegradedError,
    DurabilityError,
    RemoteError,
)
from ..replication.digest import database_digest
from ..replication.node import ClusterNode, PeerSpec
from .faults import (
    SITE_PROBE_FSYNC,
    SITE_PROBE_WRITE,
    SITES,
    FaultInjector,
    SimulatedCrash,
    injected,
)
from .health import DEGRADED, HEALTHY
from .retry import RetryPolicy
from .supervisor import Supervisor

DDL = [
    "CREATE TABLE kv (k INTEGER PRIMARY KEY, v VARCHAR)",
    "CREATE TABLE nodes (nId INTEGER PRIMARY KEY, label VARCHAR)",
    "CREATE TABLE edges (eId INTEGER PRIMARY KEY, src INTEGER, "
    "dst INTEGER, w INTEGER)",
    "CREATE DIRECTED GRAPH VIEW ChaosGraph "
    "VERTEXES(ID = nId, label = label) FROM nodes "
    "EDGES(ID = eId, FROM = src, TO = dst, weight = w) FROM edges",
]


class Statement(NamedTuple):
    sql: str
    #: The read that shows, after the fact, whether ``sql`` applied.
    probe: str


def workload(seed: int, steps: int) -> List[Statement]:
    """The seeded write workload: kv churn plus graph growth (nodes
    first, then edges between existing nodes, so integrity holds).
    Every statement writes a unique key, so a duplicate attempt can
    only end in a primary-key conflict, never a silent double-apply."""
    rng = random.Random(seed)
    statements: List[Statement] = []
    for i in range(steps):
        statements.append(Statement(
            f"INSERT INTO kv VALUES ({i}, 'v{seed}.{i}')",
            f"SELECT k FROM kv WHERE k = {i}",
        ))
        statements.append(Statement(
            f"INSERT INTO nodes VALUES ({i}, 'n{i}')",
            f"SELECT nId FROM nodes WHERE nId = {i}",
        ))
        if i:
            src = rng.choice(range(i))
            statements.append(Statement(
                f"INSERT INTO edges VALUES ({i}, {src}, {i}, "
                f"{rng.randint(1, 9)})",
                f"SELECT eId FROM edges WHERE eId = {i}",
            ))
    return statements


def _reference_digest(applied_sql: List[str]) -> str:
    db = Database()
    for sql in DDL + applied_sql:
        db.execute(sql)
    return database_digest(db)["combined"]


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

#: ``body(cell, key, seed, directory, steps)`` runs one cell, recording
#: its verdict in ``cell`` (``"passed"``, else ``"failure"``).
CellBody = Callable[[Dict[str, Any], Tuple[str, ...], int, str, int], None]


class Table(NamedTuple):
    """One scenario table: its cells and the body that runs one."""

    #: Report names of a cell key's parts; ``--only`` matches part 0.
    fields: Tuple[str, ...]
    keys: List[Tuple[str, ...]]
    #: Default workload length per cell.
    steps: int
    body: CellBody


def run_cell(
    table: Table,
    key: Tuple[str, ...],
    seed: int,
    data_dir: Optional[str] = None,
    steps: Optional[int] = None,
) -> Dict[str, Any]:
    """Run one cell of ``table``; returns its report dict with
    ``"passed"`` and, on failure, ``"failure"`` explaining why."""
    cell: Dict[str, Any] = dict(
        zip(table.fields, key),
        seed=seed,
        passed=False,
        outcome=None,
        failure=None,
    )
    own_dir = data_dir is None
    directory = data_dir or tempfile.mkdtemp(prefix="repro-chaos-")
    started = time.time()
    try:
        table.body(
            cell, key, seed, directory, table.steps if steps is None else steps
        )
    except Exception as error:  # anything uncaught is exactly the bug
        cell["passed"] = False
        cell["failure"] = f"unhandled {type(error).__name__}: {error}"
    finally:
        if own_dir:
            shutil.rmtree(directory, ignore_errors=True)
        cell["duration_seconds"] = round(time.time() - started, 3)
    return cell


def run_matrix(
    table: Table,
    seeds: List[int],
    only: Optional[List[str]] = None,
    steps: Optional[int] = None,
) -> Dict[str, Any]:
    """Run every cell of ``table`` (or those named in ``only``) for
    every seed; returns the report document."""
    names = [key[0] for key in table.keys]
    unknown = sorted(set(only or ()) - set(names))
    if unknown:
        raise ValueError(
            f"unknown {table.fields[0]} {unknown}; pick from "
            f"{sorted(set(names))}"
        )
    started = time.time()
    cells = [
        run_cell(table, key, seed, steps=steps)
        for key in table.keys
        if not only or key[0] in only
        for seed in seeds
    ]
    failures = [cell for cell in cells if not cell["passed"]]
    return {
        "seeds": seeds,
        "only": only,
        "steps": table.steps if steps is None else steps,
        "cells": len(cells),
        "passed": len(cells) - len(failures),
        "failed": len(failures),
        "duration_seconds": round(time.time() - started, 3),
        "outcomes": dict(Counter(c["outcome"] or "error" for c in cells)),
        "failures": failures,
        "results": cells,
    }


# ---------------------------------------------------------------------------
# storage: one node, one storage fault
# ---------------------------------------------------------------------------


def _storage_cell(
    cell: Dict[str, Any],
    key: Tuple[str, ...],
    seed: int,
    directory: str,
    steps: int,
) -> None:
    site, kind = key
    rng = random.Random(seed * 7919 + 17)
    statements = [statement.sql for statement in workload(seed, steps)]
    checkpoint_at = len(statements) // 2
    io = FaultInjector(seed=seed)
    if site.startswith("commandlog.") and site != "commandlog.truncate":
        # Hit a seeded write somewhere in the first half so the
        # checkpoint (and the second half) can also be in play.
        after = rng.randint(1, max(1, checkpoint_at))
    else:
        # snapshot.* / checkpoint.* / commandlog.truncate are only
        # reached through the checkpoint call.
        after = 1
    io.inject(site, kind, after=after, persistent=kind in ("eio", "enospc"))
    supervisor = Supervisor(directory)
    recovered_sup: Optional[Supervisor] = None
    try:
        db = supervisor.start()
        # DDL is acknowledged before the fault is installed; the fault
        # hits the workload, never the schema.
        for sql in DDL:
            db.execute(sql)
        acked: List[str] = []
        inflight: Optional[str] = None
        with injected(io):
            try:
                for index, sql in enumerate(statements):
                    if index == checkpoint_at:
                        supervisor.checkpoint()
                    inflight = sql
                    db.execute(sql)
                    acked.append(sql)
                    inflight = None
                cell["outcome"] = "absorbed"
            except SimulatedCrash:
                cell["outcome"] = "crashed"
            except DurabilityError:
                cell["outcome"] = "degraded"
                failure = _verify_degraded(db)
                if failure is not None:
                    cell["failure"] = failure
                    return
        cell["fault_fired"] = list(io.fired)
        if not io.fired:
            cell["failure"] = (
                f"fault never fired (site {site} not reached by the workload)"
            )
            return
        if cell["outcome"] == "absorbed" and db.health.state != HEALTHY:
            cell["failure"] = (
                f"no error surfaced but health is {db.health.state}"
            )
            return
        # --- the disk is repaired; the process restarts ---------------
        supervisor.stop(final_sync=False)
        recovered_sup = Supervisor(directory)
        recovered = recovered_sup.start()
        recovered_digest = database_digest(recovered)["combined"]
        allowed = {_reference_digest(acked): "acked prefix"}
        if inflight is not None:
            allowed[_reference_digest(acked + [inflight])] = (
                "acked prefix + in-flight statement"
            )
        if recovered_digest not in allowed:
            cell["failure"] = (
                f"digest mismatch after recovery: {recovered_digest} not "
                f"in {allowed} — an acknowledged commit was lost or state "
                "diverged"
            )
            return
        cell["recovered_as"] = allowed[recovered_digest]
        # the recovered node must be writable again
        recovered.execute("INSERT INTO kv VALUES (9991, 'post-recovery')")
        count = recovered.execute("SELECT COUNT(*) FROM kv").rows[0][0]
        if count < 1:
            cell["failure"] = "post-recovery write did not land"
            return
        cell["passed"] = True
    finally:
        # detach both command logs (and close their files) on every exit
        supervisor.stop(final_sync=False)
        if recovered_sup is not None:
            recovered_sup.stop(final_sync=False)


def _verify_degraded(db: Database) -> Optional[str]:
    """The degraded contract: reads flow, writes are refused with
    DegradedError, health reads DEGRADED."""
    if db.health.state != DEGRADED:
        return f"DurabilityError raised but health is {db.health.state}"
    try:
        db.execute("SELECT COUNT(*) FROM kv")
    except Exception as error:
        return f"degraded node refused a read: {error}"
    try:
        db.execute("INSERT INTO kv VALUES (9990, 'should-fail')")
    except DegradedError:
        pass
    except Exception as error:
        return (
            f"degraded write rejected with {type(error).__name__}, "
            "expected DegradedError"
        )
    else:
        return "degraded node accepted a write"
    return None


STORAGE = Table(
    fields=("site", "kind"),
    keys=[
        (name, kind)
        for name, site in SITES.items()
        if site.family == "storage"
        and name not in (SITE_PROBE_WRITE, SITE_PROBE_FSYNC)
        for kind in site.kinds
    ],
    steps=20,
    body=_storage_cell,
)


# ---------------------------------------------------------------------------
# cluster: three nodes, one whole-node fault
# ---------------------------------------------------------------------------

#: scenario name -> one-line description; the cluster table's cells.
SCENARIOS: Dict[str, str] = {
    "kill_primary": "kill -9 the primary mid-workload; it stays dead",
    "restart_primary": "kill -9 the primary, restart it after a delay; "
    "it must rejoin as a replica of the new primary",
    "kill_replica": "kill -9 one replica, restart it after a delay; it "
    "must catch back up",
    "partition_primary": "partition the primary from its peers, heal "
    "after a delay; the deposed primary must fence and rejoin",
}

#: Wall-clock bound for resolving one statement across a failover.
_STATEMENT_DEADLINE = 30.0
#: Wall-clock bound for post-workload cluster convergence.
_CONVERGE_DEADLINE = 30.0


def free_ports(count: int) -> List[int]:
    """``count`` currently-free ports (bind-and-release; the usual
    small race is acceptable for a test harness)."""
    socks = []
    try:
        for _ in range(count):
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(("127.0.0.1", 0))
            socks.append(sock)
        return [sock.getsockname()[1] for sock in socks]
    finally:
        for sock in socks:
            sock.close()


class _Cluster:
    """One cell's 3-node cluster plus its fault levers."""

    NAMES = ("n1", "n2", "n3")

    def __init__(self, directory: str):
        self.directory = directory
        ports = free_ports(6)
        self.peers = {
            name: PeerSpec(name, "127.0.0.1", ports[2 * i], ports[2 * i + 1])
            for i, name in enumerate(self.NAMES)
        }
        self.nodes: Dict[str, ClusterNode] = {}
        for name in self.NAMES:
            self.nodes[name] = self._build(name).start()

    def _build(self, name: str) -> ClusterNode:
        return ClusterNode(
            name,
            self.peers,
            data_dir=os.path.join(self.directory, name),
            initial_primary="n1",
            heartbeat_timeout=0.4,
            pump_interval=0.02,
            ack_replicas=1,
            ack_timeout=1.0,
            probe_timeout=0.25,
        )

    @property
    def seeds(self) -> List[str]:
        return [
            f"{spec.host}:{spec.client_port}"
            for spec in self.peers.values()
        ]

    def live(self) -> List[ClusterNode]:
        return [n for n in self.nodes.values() if n is not None]

    def primary(self) -> Optional[ClusterNode]:
        for node in self.live():
            if node.is_primary():
                return node
        return None

    def kill(self, name: str) -> None:
        node = self.nodes.get(name)
        if node is not None:
            node.kill()
            self.nodes[name] = None

    def restart(self, name: str) -> None:
        self.nodes[name] = self._build(name).start()

    def converged(self) -> bool:
        primary = self.primary()
        if primary is None:
            return False
        for node in self.live():
            if node is primary:
                continue
            if node.role != "replica":
                return False  # two primaries: mid-demotion, keep waiting
            replica = node.replica
            if replica is None or replica.quarantined:
                return False
            if replica.lag != 0 or replica.last_primary_tick <= 0:
                return False
        return True

    def wait_converged(self, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.converged():
                # converged twice in a row, a pump apart — a digest
                # taken here cannot race a ship still in flight
                time.sleep(0.1)
                if self.converged():
                    return True
            time.sleep(0.05)
        return False

    def stop(self) -> None:
        for name, node in self.nodes.items():
            if node is not None:
                node.stop(drain=False, timeout=2.0)
                self.nodes[name] = None


class _FaultPlan:
    """When and what to break (and heal), for one scenario."""

    def __init__(self, scenario: str, fire_at_step: int):
        self.scenario = scenario
        self.fire_at_step = fire_at_step
        self.fired = False
        self.heal_at: Optional[float] = None
        self.healed = False
        self.victim: Optional[str] = None
        self.events: List[str] = []

    def maybe_fire(self, step: int, cluster: _Cluster) -> None:
        if self.fired or step < self.fire_at_step:
            return
        self.fired = True
        now = time.monotonic()
        if self.scenario in ("kill_primary", "restart_primary"):
            primary = cluster.primary()
            self.victim = primary.name if primary else "n1"
            cluster.kill(self.victim)
            self.events.append(f"killed primary {self.victim} at step {step}")
            if self.scenario == "restart_primary":
                self.heal_at = now + 1.5
        elif self.scenario == "kill_replica":
            primary = cluster.primary()
            primary_name = primary.name if primary else "n1"
            self.victim = next(
                name for name in cluster.NAMES if name != primary_name
            )
            cluster.kill(self.victim)
            self.events.append(f"killed replica {self.victim} at step {step}")
            self.heal_at = now + 1.0
        elif self.scenario == "partition_primary":
            primary = cluster.primary()
            self.victim = primary.name if primary else "n1"
            node = cluster.nodes.get(self.victim)
            if node is not None:
                node.set_partitioned(True)
            self.events.append(
                f"partitioned primary {self.victim} at step {step}"
            )
            self.heal_at = now + 2.0

    def maybe_heal(self, cluster: _Cluster) -> None:
        if (
            self.healed
            or self.heal_at is None
            or time.monotonic() < self.heal_at
        ):
            return
        self.healed = True
        if self.scenario in ("restart_primary", "kill_replica"):
            cluster.restart(self.victim)
            self.events.append(f"restarted {self.victim}")
        elif self.scenario == "partition_primary":
            node = cluster.nodes.get(self.victim)
            if node is not None:
                node.set_partitioned(False)
            self.events.append(f"healed partition of {self.victim}")

    def finish(self, cluster: _Cluster) -> None:
        """Force any pending heal so convergence is possible."""
        if self.heal_at is not None and not self.healed:
            self.heal_at = 0.0
            self.maybe_heal(cluster)


def _cluster_cell(
    cell: Dict[str, Any],
    key: Tuple[str, ...],
    seed: int,
    directory: str,
    steps: int,
) -> None:
    (scenario,) = key
    cell.update(events=[], acked=0, ambiguous=0, final_epoch=None)
    cluster = _Cluster(directory)
    try:
        if not cluster.nodes["n1"].wait_for_role("primary", 10.0):
            cell["failure"] = "initial primary never came up"
            return
        for name in ("n2", "n3"):
            if not cluster.nodes[name].wait_caught_up(10.0):
                cell["failure"] = f"replica {name} never attached"
                return
        with Client(
            seeds=cluster.seeds,
            timeout=10.0,
            connect_timeout=1.0,
            retry_policy=RetryPolicy(
                base_delay=0.05, max_delay=0.4, multiplier=2.0, jitter=0.25,
                max_attempts=6,
            ),
        ) as client:
            _cluster_workload(cell, cluster, client, scenario, seed, steps)
    finally:
        cluster.stop()


def _cluster_workload(
    cell: Dict[str, Any],
    cluster: _Cluster,
    client: Client,
    scenario: str,
    seed: int,
    steps: int,
) -> None:
    for sql in DDL:
        client.execute(sql)
    statements = workload(seed, steps)
    rng = random.Random(seed * 7919 + 17)
    # fire somewhere in the middle third: after enough acked writes for
    # the loss check to have teeth, with enough left to stress recovery
    plan = _FaultPlan(
        scenario,
        rng.randint(len(statements) // 3, 2 * len(statements) // 3),
    )
    acked = 0
    ambiguous: List[Statement] = []
    for step, statement in enumerate(statements):
        plan.maybe_fire(step, cluster)
        outcome = _resolve_statement(client, statement, plan, cluster)
        if outcome == "acked":
            acked += 1
        elif outcome == "ambiguous":
            ambiguous.append(statement)
        else:
            cell["failure"] = (
                f"statement {step} ({statement.sql!r}) unresolved "
                f"within {_STATEMENT_DEADLINE}s: {outcome}"
            )
            cell["events"] = plan.events
            return
    plan.finish(cluster)
    cell["events"] = plan.events
    cell["acked"] = acked
    cell["ambiguous"] = len(ambiguous)
    if not plan.fired:
        cell["failure"] = "fault never fired (harness bug)"
        return
    # --- convergence --------------------------------------------------
    if not cluster.wait_converged(_CONVERGE_DEADLINE):
        cell["failure"] = (
            f"cluster did not converge within {_CONVERGE_DEADLINE}s "
            f"(roles: { {n.name: n.role for n in cluster.live()} })"
        )
        return
    primary = cluster.primary()
    cell["final_epoch"] = primary.epoch
    cell["outcome"] = "failed over" if primary.epoch > 1 else "same primary"
    # --- resolve the ambiguous writes by reading them back ------------
    absent = {
        statement.sql
        for statement in ambiguous
        if not client.execute(statement.probe).rows
    }
    cell["ambiguous_applied"] = len(ambiguous) - len(absent)
    # --- the digest verdict -------------------------------------------
    reference = _reference_digest(
        [statement.sql for statement in statements if statement.sql not in absent]
    )
    primary_digest = database_digest(primary.db)["combined"]
    if primary_digest != reference:
        cell["failure"] = (
            f"primary digest {primary_digest} != reference {reference} — "
            "an acknowledged write was lost or a phantom write appeared"
        )
        return
    for node in cluster.live():
        if node is primary:
            continue
        replica_digest = database_digest(node.db)["combined"]
        if replica_digest != primary_digest:
            cell["failure"] = (
                f"replica {node.name} digest {replica_digest} diverged "
                f"from primary {primary_digest} after convergence"
            )
            return
    # --- the survivors still take writes ------------------------------
    probe = Statement(
        "INSERT INTO kv VALUES (999991, 'post-fault')",
        "SELECT k FROM kv WHERE k = 999991",
    )
    if _resolve_statement(client, probe, plan, cluster) not in (
        "acked", "ambiguous"
    ):
        cell["failure"] = "post-fault write did not land"
        return
    if not client.execute(probe.probe).rows:
        cell["failure"] = "post-fault write not readable back"
        return
    cell["passed"] = True


def _resolve_statement(
    client: Client,
    statement: Statement,
    plan: _FaultPlan,
    cluster: _Cluster,
) -> str:
    """Drive one write to resolution: ``"acked"`` (a clean server
    acknowledgement), ``"ambiguous"`` (some attempt's outcome is
    unknown and a later attempt hit its primary-key shadow), or the
    last error (deadline exceeded — an availability failure).

    The retry loop is the *client's documented contract* acted out:
    ``NOT_PRIMARY``/``OVERLOADED`` retries happen inside the client;
    connection drops and unknown-outcome replication errors surface
    here, where the workload (which knows its writes are unique-keyed)
    may safely re-submit.
    """
    deadline = time.monotonic() + _STATEMENT_DEADLINE
    saw_unknown_outcome = False
    last_error = "no attempt"
    while time.monotonic() < deadline:
        plan.maybe_heal(cluster)
        try:
            client.execute(statement.sql)
            return "acked"
        except RemoteError as error:
            if error.code == "CONSTRAINT_VIOLATION" and saw_unknown_outcome:
                # an earlier unknown-outcome attempt DID apply (its key
                # is occupied); whether it survives the failover is for
                # the read-back resolution to decide
                return "ambiguous"
            if error.code == "CONSTRAINT_VIOLATION":
                raise  # a genuine conflict would be a workload bug
            last_error = f"{error.code}: {error}"
            if error.code in ("REPLICATION_ERROR", "INTERNAL_ERROR"):
                saw_unknown_outcome = True
        except ClientConnectionError as error:
            # the socket died with the request possibly delivered
            last_error = f"connection: {error}"
            saw_unknown_outcome = True
        time.sleep(0.1)
    return last_error


CLUSTER = Table(
    fields=("scenario",),
    keys=[(name,) for name in sorted(SCENARIOS)],
    steps=12,
    body=_cluster_cell,
)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

TABLES = {"storage": STORAGE, "cluster": CLUSTER}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience.chaos",
        description="Run one chaos scenario table: every cell x seed, "
        "digest-verified.",
    )
    parser.add_argument("table", choices=sorted(TABLES))
    parser.add_argument(
        "--seeds", default="0,1,2",
        help="comma-separated seeds (default: 0,1,2)",
    )
    parser.add_argument(
        "--only", action="append", default=None,
        help="restrict to one storage site or cluster scenario "
        "(repeatable; default: every cell of the table)",
    )
    parser.add_argument(
        "--steps", type=int, default=None,
        help="workload length per cell (default: storage 20, cluster 12)",
    )
    parser.add_argument(
        "--out", default=None, help="write the JSON report here",
    )
    options = parser.parse_args(argv)
    table = TABLES[options.table]
    seeds = [int(part) for part in options.seeds.split(",") if part.strip()]
    try:
        report = run_matrix(table, seeds, only=options.only, steps=options.steps)
    except ValueError as error:
        parser.error(str(error))
    if options.out:
        with open(options.out, "w") as handle:
            json.dump(report, handle, indent=2)
    print(
        f"chaos {options.table}: {report['passed']}/{report['cells']} cells "
        f"passed in {report['duration_seconds']}s "
        f"(outcomes: {report['outcomes']})"
    )
    if report["failed"]:
        print(f"\n{report['failed']} FAILING cell(s):", file=sys.stderr)
        for cell in report["failures"]:
            where = " ".join(f"{field}={cell[field]}" for field in table.fields)
            print(
                f"  {where} seed={cell['seed']}: {cell['failure']}\n"
                "    repro: PYTHONPATH=src python -m repro.resilience.chaos "
                f"{options.table} --only {cell[table.fields[0]]} "
                f"--seeds {cell['seed']}",
                file=sys.stderr,
            )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
