"""``graph_update``: online maintenance of a graph view (the paper's fig 11).

Why: the same ``graph`` layer used the other way round. Multi-row
``INSERT``s and range ``DELETE``s on the edge source dominate (DML
execution, ``storage``, topology maintenance); the reads only check that the
topology followed. A topology that wins ``graph_query`` by making updates
expensive loses here; a DML access-path fix shows here as well as in
``kv_adhoc``.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Dict, List

from repro import Database
from repro.bench.workloads import adjacency_of
from repro.datasets import follower_network, load_into_grfusion

from .harness import DATA_SEED, InProcessInstance, Op
from .oracle import sorted_first_column, hop_ends

NAME = "graph_update"
WHY = ("edge inserts and range deletes under a live graph view: DML, storage "
       "and topology maintenance dominate, traversal is minor")

FOLLOWERS = 2000
OUT_DEGREE = 5
BATCH = 16  # rows per INSERT; one DELETE removes two batches
BLOCKS = 16
ROUNDS = 9  # per block; a round is 2 INSERTs, 1 DELETE and 3 pairs of reads
CELEBRITIES = 10  # most-followed vertices, read by the heavier relational read
FIRST_NEW_EDGE = 1_000_000

HOP2 = ("SELECT PS.EndVertex.Id FROM G.Paths PS "
        "WHERE PS.StartVertex.Id = ? AND PS.Length = 2")
REACH = ("SELECT PS.Length FROM G.Paths PS "
         "WHERE PS.StartVertex.Id = ? AND PS.EndVertex.Id = ? LIMIT 1")
OUT_EDGES = "SELECT E.dst FROM twitter_e E WHERE E.src = ?"
IN_EDGES = "SELECT E.src FROM twitter_e E WHERE E.dst = ?"
PREPARED = (HOP2, REACH, OUT_EDGES, IN_EDGES)


def dataset():
    return follower_network(n=FOLLOWERS, out_degree=OUT_DEGREE, seed=DATA_SEED)


def build(graph) -> Database:
    db = Database()
    load_into_grfusion(graph, db, "G")
    db.execute("CREATE INDEX twitter_e_src ON twitter_e (src)")
    db.execute("CREATE INDEX twitter_e_dst ON twitter_e (dst)")
    return db


def operations(seed: int, scale: float, graph) -> List[Op]:
    """Each round inserts two batches of edges out of one hub vertex each,
    reads around the hubs while the edges exist, deletes both batches with
    one range predicate and reads again. Expected answers come from the
    adjacency lists kept here.

    The shares are fixed, not drawn, so that the percentiles fall inside a
    statement class on every seed: 2 in 3 writes are INSERTs (p50) and 1 in
    3 the slower range DELETE (p95); of the PATHS reads a third each are a
    1-hop reach, a 2-hop over the restored and a 2-hop over the widened
    hub; 1 in 9 relational reads lists the followers of a celebrity, the
    rest a hub's out-edges."""
    rng = random.Random(f"{NAME}:ops:{seed}")
    adjacency: Dict[Any, List[Any]] = adjacency_of(graph)
    followers: Dict[Any, List[Any]] = {}
    for source, targets in adjacency.items():
        for target in targets:
            followers.setdefault(target, []).append(source)
    # read in turn, so that every seed reads the same mix of result sizes
    celebrities = sorted(followers, key=lambda v: -len(followers[v]))[:CELEBRITIES]
    rng.shuffle(celebrities)
    celebrity_turn = itertools.cycle(celebrities)
    next_edge = FIRST_NEW_EDGE
    ops: List[Op] = []

    def out_edges(hub: int) -> Op:
        return Op("out_edges", "read", OUT_EDGES, (hub,), sorted(adjacency[hub]))

    def hop2(hub: int) -> Op:
        return Op("hop2", "paths", HOP2, (hub,), hop_ends(adjacency, hub))

    for _ in range(BLOCKS):
        for round_ in range(max(1, round(ROUNDS * scale))):
            first = next_edge
            hubs = rng.sample(range(FOLLOWERS), 2)
            for hub in hubs:
                taken = set(adjacency[hub]) | {hub}
                fresh = rng.sample(
                    [v for v in range(FOLLOWERS) if v not in taken], BATCH)
                rows = ", ".join(
                    f"({next_edge + i}, {hub}, {target}, 1.0, 'follows', "
                    f"{rng.randrange(100)})"
                    for i, target in enumerate(fresh))
                next_edge += BATCH
                adjacency[hub].extend(fresh)
                for target in fresh:
                    followers.setdefault(target, []).append(hub)
                ops.append(Op("insert_edges", "write",
                              f"INSERT INTO twitter_e VALUES {rows}", None, BATCH))
                if hub == hubs[0]:
                    ops += [out_edges(hub),
                            Op("reach_new", "paths", REACH,
                               (hub, rng.choice(fresh)), 1)]
                elif round_ % 3:
                    ops += [out_edges(hub), hop2(hub)]
                else:
                    celebrity = next(celebrity_turn)
                    ops += [Op("in_edges", "read", IN_EDGES, (celebrity,),
                               sorted(followers[celebrity])), hop2(hub)]
            for hub in hubs:
                for target in adjacency[hub][-BATCH:]:
                    followers[target].remove(hub)
                del adjacency[hub][-BATCH:]
            ops.append(Op(
                "delete_edges", "write",
                f"DELETE FROM twitter_e WHERE eid >= {first} AND eid < {next_edge}",
                None, 2 * BATCH))
            ops += [out_edges(hubs[0]), hop2(hubs[0])]
    return ops


def check(op: Op, result: Any) -> bool:
    if op.kind == "write":
        return result.rowcount == op.expect
    if op.cls == "reach_new":
        return bool(result.rows) and result.rows[0][0] >= op.expect
    return sorted_first_column(result) == op.expect


def setup(seed: int, scale: float = 1.0) -> InProcessInstance:
    graph = dataset()
    ops = operations(seed, scale, graph)
    return InProcessInstance(build(graph), PREPARED, ops, len(ops) // BLOCKS, check)
