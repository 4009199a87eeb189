"""``kv_adhoc``: ad-hoc relational SQL text through ``Database.execute``.

Why: ``sql``, ``planner``, ``executor``, ``storage`` and the ``core`` façade
do all the work (every call parses and plans); ``graph`` and the wire do
next to none. This is where a PK-as-index, unqualified-column resolution, a
statement cache or a DML access path must show, and where a topology change
must not.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, List

from repro import Database
from repro.bench.workloads import adjacency_of
from repro.datasets import follower_network, load_into_grfusion

from .harness import DATA_SEED, InProcessInstance, Op
from .oracle import rows_checksum, sorted_first_column, hop_ends

NAME = "kv_adhoc"
WHY = ("ad-hoc SQL text in-process: parse, plan, execute and storage do the "
       "work, graph and wire do next to none")

ROWS = 2500
GROUPS = 100
RANGE = 100
BLOCKS = 8
#: Operations per block and class. The point read is the canonical
#: unqualified primary-key read that plans as Filter(SeqScan) today; the
#: group read is the control that already reaches IndexLookup.
#: Each class also has a heavier statement (range aggregate, range
#: update, 4-hop enumeration) holding its p95, so that no p95 sits in the
#: noise tail of a tight cluster.
MIX = {"point_read": 150, "group_read": 25, "range_agg": 25,
       "update": 20, "range_update": 4, "paths_2hop": 22, "paths_4hop": 4}
SIDE_GRAPH_VERTICES = 300
PATH_HOPS = {"paths_2hop": 2, "paths_4hop": 4}


def dataset():
    rng = random.Random(f"{NAME}:data:{DATA_SEED}")
    rows = [(k, k % GROUPS, rng.randrange(1_000_000)) for k in range(ROWS)]
    graph = follower_network(n=SIDE_GRAPH_VERTICES, out_degree=4, seed=DATA_SEED)
    return rows, graph


def build(rows, graph) -> Database:
    db = Database()
    db.execute("CREATE TABLE KV (k INTEGER PRIMARY KEY, g INTEGER, v INTEGER)")
    db.load_rows("KV", rows)
    db.execute("CREATE INDEX kv_g ON KV (g)")
    load_into_grfusion(graph, db, "F")
    return db


def operations(seed: int, scale: float, rows, graph) -> List[Op]:
    """``BLOCKS`` state-neutral blocks; expected answers follow the
    ``UPDATE``s in list order. Keys are Zipf(1.0), so texts repeat."""
    rng = random.Random(f"{NAME}:ops:{seed}")
    keys = list(range(ROWS))
    rng.shuffle(keys)
    zipf = list(itertools.accumulate(1.0 / rank for rank in range(1, ROWS + 1)))
    values = [v for _k, _g, v in rows]
    adjacency = adjacency_of(graph)
    ops: List[Op] = []
    for _ in range(BLOCKS):
        plan: List[tuple] = []
        for cls, count in MIX.items():
            count = max(2, round(count * scale))
            if cls == "update":
                # each v + 1 is paired with a v - 1 in the same block
                for key in rng.choices(keys, cum_weights=zipf, k=count // 2):
                    plan += [(cls, key, 1), (cls, key, -1)]
            elif cls == "range_update":
                for _ in range(count // 2):
                    low = rng.randrange(ROWS - RANGE)
                    plan += [(cls, low, 1), (cls, low, -1)]
            elif cls == "point_read":
                plan += [(cls, key, 0)
                         for key in rng.choices(keys, cum_weights=zipf, k=count)]
            elif cls == "group_read":
                plan += [(cls, rng.randrange(GROUPS), 0) for _ in range(count)]
            elif cls == "range_agg":
                plan += [(cls, rng.randrange(ROWS - RANGE), 0)
                         for _ in range(count)]
            else:
                plan += [(cls, rng.randrange(SIDE_GRAPH_VERTICES), 0)
                         for _ in range(count)]
        rng.shuffle(plan)
        for cls, arg, delta in plan:
            if cls == "point_read":
                ops.append(Op(cls, "read", f"SELECT v FROM KV WHERE k = {arg}",
                              None, [(values[arg],)]))
            elif cls == "group_read":
                members = range(arg, ROWS, GROUPS)
                ops.append(Op(
                    cls, "read",
                    f"SELECT KV.k, KV.v FROM KV WHERE KV.g = {arg}", None,
                    (len(members),
                     rows_checksum((k, values[k]) for k in members))))
            elif cls == "range_agg":
                ops.append(Op(
                    cls, "read",
                    "SELECT COUNT(*), SUM(v) FROM KV "
                    f"WHERE k >= {arg} AND k < {arg + RANGE}", None,
                    [(RANGE, sum(values[arg:arg + RANGE]))]))
            elif cls == "update":
                values[arg] += delta
                sign = "+" if delta > 0 else "-"
                ops.append(Op(cls, "write",
                              f"UPDATE KV SET v = v {sign} 1 WHERE k = {arg}",
                              None, 1))
            elif cls == "range_update":
                for key in range(arg, arg + RANGE):
                    values[key] += delta
                sign = "+" if delta > 0 else "-"
                ops.append(Op(
                    cls, "write",
                    f"UPDATE KV SET v = v {sign} 1 "
                    f"WHERE k >= {arg} AND k < {arg + RANGE}", None, RANGE))
            else:
                hops = PATH_HOPS[cls]
                ops.append(Op(
                    cls, "paths",
                    "SELECT PS.EndVertex.Id FROM F.Paths PS "
                    f"WHERE PS.StartVertex.Id = {arg} AND PS.Length = {hops}",
                    None, hop_ends(adjacency, arg, hops)))
    return ops


def check(op: Op, result: Any) -> bool:
    if op.kind == "write":
        return result.rowcount == op.expect
    if op.cls == "group_read":
        return (len(result.rows), rows_checksum(result.rows)) == op.expect
    if op.kind == "paths":
        return sorted_first_column(result) == op.expect
    return result.rows == op.expect


def setup(seed: int, scale: float = 1.0) -> InProcessInstance:
    rows, graph = dataset()
    ops = operations(seed, scale, rows, graph)
    return InProcessInstance(build(rows, graph), (), ops, len(ops) // BLOCKS, check)
