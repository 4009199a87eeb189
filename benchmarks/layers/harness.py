"""Shared machinery: operations, the closed-loop repetition runner, the
benchmark's own tracer, and the end-to-end measurement of one workload.

Every layer is measured from outside, by timing calls into its public
functions; nothing under ``src/repro`` is instrumented.
"""

from __future__ import annotations

import gc
import json
import math
import os
import statistics
import threading
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.errors import DatabaseError
from repro.replication.digest import combined_digest
from repro.sql.parser import parse_statement

now = time.perf_counter

KINDS = ("read", "write", "paths")

#: Everything the benchmark writes goes here (ignored by git).
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: The datasets are part of a workload's definition, like a schema: they are
#: generated from this constant, and ``--seed`` draws the operations on them
#: (endpoints, keys, values, order). Graph structure drawn per seed moved the
#: path latencies by +-8 % from seed to seed, more than a regression bound
#: should have to absorb.
DATA_SEED = 11


def pin() -> int:
    """Pin this thread, and every thread and child process started from it,
    to one processor: the highest-numbered one it may use (on the reference
    box processor 0 takes the timer and network interrupts, and the disk's
    land on the last one). Returns the processor.

    Every workload is one interpreter, or two that wait for each other, so
    one processor is all it uses; left to the kernel, the in-process
    workloads moved between processors (``graph_update``: ten runs spread
    by 4-9 %, pinned by 1-3 %) and ``serve_mixed`` handed every request
    from one virtual processor to the other through the host (see there)."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Op(NamedTuple):
    """One operation of a workload's list, with its expected answer."""

    cls: str  # statement class, e.g. "point_read"
    kind: str  # end-to-end class: one of KINDS
    text: str  # SQL; with ``?`` placeholders when ``params`` is not None
    params: Optional[tuple]  # None: ad-hoc text; a tuple: prepared
    expect: Any  # what ``Instance.check`` compares the result against


class Tracer:
    """The benchmark's own span store, held in memory until the run ends.

    A span is ``(name, start, end, parent, op_id)``; ``parent`` is the
    index of the causing span, ``None`` for an operation's root span.
    """

    def __init__(self) -> None:
        self.spans: List[Optional[tuple]] = []

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "op_id")
        with open(path, "w") as handle:
            json.dump([dict(zip(keys, span)) for span in self.spans], handle)

    def self_time_by_layer(self) -> Dict[str, float]:
        """Seconds of self time (span minus its children) per layer; a
        span's layer is its name up to the first dot."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: Dict[str, float] = {}
        for (name, start, end, _parent, _op), children in zip(
            self.spans, child_time
        ):
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + (end - start) - children
        return totals


def make_issuer(
    execute: Callable[[str], Any], prepared: Dict[str, Any]
) -> Callable[[Op, int], Any]:
    """Issue operations the way the caller does: ad-hoc text through
    ``execute``, prepared statements through their handle. Works for a
    ``Database`` and for a ``Client`` alike."""

    def issue(op: Op, _op_id: int) -> Any:
        if op.params is None:
            return execute(op.text)
        return prepared[op.text].execute(*op.params)

    return issue


def make_staged_issuer(db, prepared: Dict[str, Any], tracer: Tracer):
    """In-process operations as the staged public calls, one span each:
    ``parse_statement`` -> ``Database.prepare`` -> ``PreparedQuery.execute``
    -> row materialisation; DML as ``parse_statement`` + ``Database.execute``
    (which parses again: the stage times are exact, their sum is not the
    untraced latency)."""
    spans = tracer.spans

    def issue(op: Op, op_id: int) -> Any:
        root = len(spans)
        spans.append(None)
        run_name = "graph.execute" if op.kind == "paths" else "executor.execute"
        t0 = now()
        if op.params is not None:
            result = prepared[op.text].execute(*op.params)
            t1 = now()
            spans.append((run_name, t0, t1, root, op_id))
        else:
            parse_statement(op.text)
            t1 = now()
            spans.append(("sql.parse", t0, t1, root, op_id))
            if op.kind == "write":
                result = db.execute(op.text)
                t2 = now()
                spans.append(("executor.dml", t1, t2, root, op_id))
                t1 = t2
            else:
                query = db.prepare(op.text)
                t2 = now()
                spans.append(("planner.prepare", t1, t2, root, op_id))
                result = query.execute()
                t1 = now()
                spans.append((run_name, t2, t1, root, op_id))
        list(result.rows or ())
        t_end = now()
        spans.append(("core.materialise", t1, t_end, root, op_id))
        spans[root] = ("harness.op." + op.cls, t0, t_end, None, op_id)
        return result

    return issue


class InProcessInstance:
    """A set-up workload whose engine lives in this process, one caller."""

    clients = 1

    def __init__(self, db, prepared_texts: Sequence[str], ops: List[Op],
                 block_len: int, check: Callable[[Op, Any], bool]):
        self.db = db
        self.prepared = {text: db.prepare(text) for text in prepared_texts}
        self.lanes = [ops]
        self.block_len = block_len
        self.check = check

    def issuer(self, _lane: int, tracer: Optional[Tracer]):
        if tracer is None:
            return make_issuer(self.db.execute, self.prepared)
        return make_staged_issuer(self.db, self.prepared, tracer)

    def digest(self) -> str:
        return combined_digest(self.db)

    def plan_shapes(self) -> Dict[str, str]:
        return plan_shapes(self.db, self.lanes)

    def restore(self) -> None:
        """Undo what a repetition left behind (nothing: lists are
        state-neutral)."""

    def peak_rss_mb(self) -> float:
        return peak_rss_mb("self")

    def lost_acked_writes(self) -> int:
        return 0

    def close(self) -> None:
        pass


def peak_rss_mb(pid) -> float:
    """``VmHWM`` of a process: the high-water mark of its own address space.
    (Not ``ru_maxrss``: on Linux that starts at the spawning process's
    size, so it would measure whoever launched the benchmark.)"""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


class Rep(NamedTuple):
    wall_s: float
    latencies: Dict[str, List[float]]  # seconds, per kind
    attempted: int
    failed: int
    errors: List[str]

    @property
    def ops_per_s(self) -> float:
        """Correct operations per second of wall time."""
        return (self.attempted - self.failed) / self.wall_s


def run_rep(instance, tracer: Optional[Tracer] = None,
            ops_per_lane: Optional[int] = None) -> Rep:
    """One closed-loop pass over the operation list (its first
    ``ops_per_lane`` operations when given): every lane issues its next
    operation when the previous one has answered. Answers are checked
    after the clock stops."""
    lanes = [lane[:ops_per_lane] for lane in instance.lanes]
    done: List[Optional[tuple]] = [None] * len(lanes)
    issuers = [instance.issuer(index, tracer) for index in range(len(lanes))]
    barrier = threading.Barrier(len(lanes))

    def run_lane(index: int) -> None:
        issue = issuers[index]
        latencies: Dict[str, List[float]] = {kind: [] for kind in KINDS}
        outcomes: List[Any] = []
        barrier.wait()
        start = now()
        for op_id, op in enumerate(lanes[index]):
            t0 = now()
            try:
                outcome = issue(op, op_id)
            except DatabaseError as error:  # refused or failed: counted
                outcome = error
            latencies[op.kind].append(now() - t0)
            outcomes.append(outcome)
        done[index] = (start, now(), latencies, outcomes)

    if len(lanes) == 1:
        run_lane(0)
    else:
        threads = [
            threading.Thread(target=run_lane, args=(i,)) for i in range(len(lanes))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    merged: Dict[str, List[float]] = {kind: [] for kind in KINDS}
    failed = 0
    errors: List[str] = []
    for lane, (_start, _end, latencies, outcomes) in zip(lanes, done):
        for kind in KINDS:
            merged[kind].extend(latencies[kind])
        for op, outcome in zip(lane, outcomes):
            if isinstance(outcome, Exception):
                failed += 1
                errors.append(f"{op.cls}: {outcome}")
            elif not instance.check(op, outcome):
                failed += 1
                errors.append(f"{op.cls}: wrong answer for {op.text} {op.params}")
    wall = max(d[1] for d in done) - min(d[0] for d in done)
    return Rep(wall, merged, sum(len(lane) for lane in lanes), failed, errors[:5])


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def rep_metrics(rep: Rep) -> Dict[str, float]:
    metrics = {"ops_per_s": rep.ops_per_s}
    for kind in KINDS:
        samples = rep.latencies[kind]
        metrics[f"{kind}_p50_us"] = statistics.median(samples) * 1e6
        metrics[f"{kind}_p95_us"] = percentile(samples, 0.95) * 1e6
    return metrics


def set_up(setup: Callable[[], Any]):
    """Build the instance and warm it with the first block of its list;
    returns ``(instance, seconds, failed, attempted)``."""
    start = now()
    instance = setup()
    if instance.clients > (os.cpu_count() or 1):
        instance.close()
        raise SystemExit(
            f"refusing to run {instance.clients} clients on "
            f"{os.cpu_count()} processors"
        )
    try:
        warm = run_rep(instance, ops_per_lane=instance.block_len)
        instance.restore()
    except BaseException:
        instance.close()
        raise
    return instance, now() - start, warm.failed, warm.attempted


def measure(setup: Callable[[], Any], seconds: Optional[float],
            reps: Optional[int], setups: int = SETUPS):
    """The untraced run of one workload: ``setups`` set-ups (the last one
    is kept), then timed repetitions until ``seconds`` have passed or
    ``reps`` are done. Returns ``(instance, record)``; the caller closes
    the instance."""
    setup_times: List[float] = []
    instance = None
    failed = attempted = 0
    per_rep: List[Dict[str, float]] = []
    errors: List[str] = []
    try:
        for _ in range(setups):
            if instance is not None:
                instance.close()
                instance = None
                gc.collect()
            instance, seconds_taken, warm_failed, warm_attempted = set_up(setup)
            setup_times.append(seconds_taken)
            failed += warm_failed
            attempted += warm_attempted
        digest = instance.digest()
        began = now()
        while True:
            if instance.digest() != digest:
                failed += 1
                errors.append("state digest differs at the start of a repetition")
            gc.collect()
            gc.freeze()
            rep = run_rep(instance)
            gc.unfreeze()
            instance.restore()
            per_rep.append(rep_metrics(rep))
            failed += rep.failed
            attempted += rep.attempted
            errors.extend(rep.errors)
            if reps is not None and len(per_rep) >= reps:
                break
            if seconds is not None and now() - began >= seconds:
                break
    except BaseException:
        if instance is not None:
            instance.close()  # never leave the server child behind
        raise
    values = {"setup_s": setup_times}
    for name in per_rep[0]:
        values[name] = [metrics[name] for metrics in per_rep]
    values["peak_rss_mb"] = [instance.peak_rss_mb()]
    return instance, {
        "clients": instance.clients,
        "ops_per_rep": sum(len(lane) for lane in instance.lanes),
        "samples_per_rep": {
            kind: sum(op.kind == kind for lane in instance.lanes for op in lane)
            for kind in KINDS
        },
        "reps": len(per_rep),
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:10],
        "end_to_end": {
            name: {"value": across_reps(name, series), "spread": spread(series),
                   "reps": series}
            for name, series in values.items()
        },
    }


def across_reps(name: str, series: Sequence[float]) -> float:
    """One value per run. ``setup_s`` is the median of the set-ups. The
    repetition metrics report their better quartile over the repetitions
    (upper for the rate, lower for a latency percentile): other tenants of
    the box only ever slow a repetition down, in episodes of 8-40 s that
    moved the median of the repetitions by +-5 % from run to run and the
    better quartile by 40 % less, while a single lucky repetition (the
    first one after a server start runs 15 % fast) does not reach it.
    Every repetition's value is kept beside it."""
    if name == "setup_s" or len(series) < 2:
        return statistics.median(series)
    quartiles = statistics.quantiles(series, n=4, method="inclusive")
    return quartiles[2] if name == "ops_per_s" else quartiles[0]


def spread(series: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median (the range
    when there are too few values for quartiles)."""
    if len(series) < 2:
        return 0.0
    if len(series) < 4:
        width = max(series) - min(series)
    else:
        first, _, third = statistics.quantiles(series, n=4)
        width = third - first
    return width / statistics.median(series)


def trace(instance, out_path: str) -> Dict[str, Any]:
    """One untraced and one traced repetition on a live instance. The
    spans go to ``out_path``; returns the self-time share of each layer,
    the tracing overhead and the failures seen."""
    gc.collect()
    plain = run_rep(instance)
    instance.restore()
    tracer = Tracer()
    gc.collect()
    traced = run_rep(instance, tracer)
    instance.restore()
    tracer.write(out_path)
    by_layer = tracer.self_time_by_layer()
    total = sum(by_layer.values())
    return {
        "file": out_path,
        "spans": len(tracer.spans),
        "self_time_share": {
            layer: seconds / total for layer, seconds in sorted(by_layer.items())
        },
        "trace_overhead_share": 1.0 - traced.ops_per_s / plain.ops_per_s,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "errors": plain.errors + traced.errors,
    }


def plan_shape(explained: str) -> str:
    """``Project>Filter>SeqScan`` from an ``explain`` plan."""
    return ">".join(
        line.strip().split("(", 1)[0].strip() for line in explained.splitlines()
    )


def plan_shapes(db, lanes: Sequence[Sequence[Op]]) -> Dict[str, str]:
    """The access-path record: the plan shape of each statement class, so
    that a silent fall-back to a scan shows in a diff of two result files."""
    shapes: Dict[str, str] = {}
    for op in (op for lane in lanes for op in lane):
        if op.cls not in shapes:
            shapes[op.cls] = (
                "DML" if op.kind == "write"
                else plan_shape(db.prepare(op.text).explain()))
    return shapes
