"""``graph_query``: the paper's graph queries, prepared, in-process.

Why: ``graph`` (topology + traversal) does nearly all the work; ``sql``,
``planner``, ``server``, ``client`` and the command log do none. This is
where a CSR topology must show and where parse / plan / wire work must show
nothing. The mix is the paper's Section 7.1: reachability (fig 7),
reachability under edge selectivity (fig 8), shortest path (fig 9),
neighbourhood enumeration and triangle counting (fig 10); a tenth of the
operations are the ordinary SQL an embedding application issues next to
them, so that every end-to-end latency class has samples here too.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Dict, Iterator, List, Sequence, Tuple

from repro import Database
from repro.bench.workloads import (
    adjacency_of,
    bfs_distances,
    connected_pairs,
    selectivity_edge_filter,
)
from repro.datasets import (
    coauthorship_network,
    follower_network,
    load_into_grfusion,
    load_into_sqlgraph,
    road_network,
)

from .harness import DATA_SEED, InProcessInstance, Op
from .oracle import dijkstra_cost, sorted_first_column, hop_ends, weighted_adjacency

NAME = "graph_query"
WHY = ("prepared PATHS queries in-process: topology and traversal do nearly "
       "all the work, parse, plan and wire do none")

FOLLOWERS = 2000
OUT_DEGREE = 5
ROAD_SIDE = 40
COAUTHORS = 400
SELECTIVITY = 20
BLOCKS = 16
#: Operations per block and class: 45/20/23/10/2 % of the graph share, plus
#: the relational side (vertex reads, visit rows inserted and deleted again).
#: Half the reachability queries are 2 hops, a quarter each 4 and 6: with
#: that the median PATHS latency lies inside the 2-hop cluster, not in the
#: gap between two statement classes where it would jump from seed to seed.
#: Every class also holds a share of a heavier statement (6-hop reach and
#: triangles, ~100-row edge-tag reads, 8-row visits), so that its p95 lies in
#: that statement's body and not in the noise tail of a tight cluster.
MIX = {"reach_2": 57, "reach_4": 28, "reach_6": 28, "reach_sel_2": 25,
       "reach_sel_3": 25, "shortest": 57, "hop2": 25, "triangles": 5,
       "vertex_read": 11, "tag_read": 3, "visit": 6, "visit_batch": 1}
POOL = 150  # endpoint pairs per hop distance, used in turn
VISIT_BATCH = 8

REACH = ("SELECT PS.Length FROM G.Paths PS "
         "WHERE PS.StartVertex.Id = ? AND PS.EndVertex.Id = ? LIMIT 1")
REACH_SEL = ("SELECT PS.Length FROM G.Paths PS "
             "WHERE PS.StartVertex.Id = ? AND PS.EndVertex.Id = ? "
             f"AND PS.Edges[0..*].esel < {SELECTIVITY} LIMIT 1")
SHORTEST = ("SELECT PS.Cost FROM R.Paths PS HINT(SHORTESTPATH(w)) "
            "WHERE PS.StartVertex.Id = ? AND PS.EndVertex.Id = ? LIMIT 1")
HOP2 = ("SELECT PS.EndVertex.Id FROM G.Paths PS "
        "WHERE PS.StartVertex.Id = ? AND PS.Length = 2")
TRIANGLES = ("SELECT COUNT(P) FROM C.Paths P WHERE P.Length = 3 "
             f"AND P.Edges[0..*].esel < {SELECTIVITY} "
             "AND P.StartVertexId = P.EndVertexId")
VERTEX_READ = "SELECT V.vlabel FROM twitter_v V WHERE V.vid = ?"
TAG_READ = "SELECT E.eid FROM twitter_e E WHERE E.esel = ?"
PREPARED = (REACH, REACH_SEL, SHORTEST, HOP2, TRIANGLES, VERTEX_READ, TAG_READ)
#: ``{alias}`` is filled in by the SQLGraph store.
TRIANGLE_PREDICATE = f"{{alias}}.esel < {SELECTIVITY}"


def dataset() -> Dict[str, Any]:
    return {
        "followers": follower_network(
            n=FOLLOWERS, out_degree=OUT_DEGREE, seed=DATA_SEED),
        "road": road_network(width=ROAD_SIDE, height=ROAD_SIDE, seed=DATA_SEED),
        "coauthors": coauthorship_network(
            n=COAUTHORS, communities=10, seed=DATA_SEED),
    }


def build(data: Dict[str, Any]) -> Database:
    db = Database()
    load_into_grfusion(data["followers"], db, "G")
    load_into_grfusion(data["road"], db, "R")
    load_into_grfusion(data["coauthors"], db, "C")
    db.execute("CREATE INDEX twitter_v_vid ON twitter_v (vid)")
    db.execute("CREATE INDEX twitter_e_esel ON twitter_e (esel)")
    db.execute("CREATE TABLE Visits (id INTEGER PRIMARY KEY, vid INTEGER, "
               "note VARCHAR)")
    return db


def reach_pools(graph, rng: random.Random, distances: Sequence[int],
                edge_filter=None) -> Dict[int, Iterator[Tuple[Any, Any]]]:
    """Per hop distance, an endless cycle over ``POOL`` endpoint pairs at
    exactly that ``bfs_distances`` distance (over the filtered subgraph
    when a filter is given)."""
    adjacency = adjacency_of(graph, edge_filter)
    sources = [vid for vid, _label, _sel in graph.vertices]
    rng.shuffle(sources)
    pools: Dict[int, List[Tuple[Any, Any]]] = {d: [] for d in distances}
    for source in sources:
        at: Dict[int, List[Any]] = {}
        for vertex, hops in bfs_distances(
                adjacency, source, max_depth=max(distances)).items():
            at.setdefault(hops, []).append(vertex)
        for distance, pool in pools.items():
            if distance in at and len(pool) < POOL:
                pool.append((source, rng.choice(at[distance])))
        if all(len(pool) == POOL for pool in pools.values()):
            break
    return {d: itertools.cycle(pool) for d, pool in pools.items()}


def operations(seed: int, scale: float, data: Dict[str, Any]) -> List[Op]:
    rng = random.Random(f"{NAME}:ops:{seed}")
    followers, road = data["followers"], data["road"]
    adjacency = adjacency_of(followers)
    reach = reach_pools(followers, rng, (2, 4, 6))
    reach_sel = reach_pools(followers, rng, (2, 3),
                            selectivity_edge_filter(SELECTIVITY))
    road_costs = weighted_adjacency(road.edges, directed=False)
    shortest = itertools.cycle([
        (source, target, dijkstra_cost(road_costs, source, target))
        for source, target in connected_pairs(
            road, POOL, seed=seed, min_distance=2, max_distance=8)
    ])
    triangles = load_into_sqlgraph(data["coauthors"]).triangle_count(
        TRIANGLE_PREDICATE)
    by_tag: Dict[int, List[int]] = {}
    for eid, _src, _dst, _w, _label, esel in followers.edges:
        by_tag.setdefault(esel, []).append(eid)
    tags = sorted(by_tag)
    rng.shuffle(tags)
    tag_turn = itertools.cycle(tags)
    ops: List[Op] = []
    visit_id = 0
    for _ in range(BLOCKS):
        block: List[Op] = []
        visits: List[Tuple[Op, Op]] = []
        for cls, count in MIX.items():
            for _ in range(max(1, round(count * scale))):
                if cls.startswith("reach_sel_"):
                    hops = int(cls.rsplit("_", 1)[1])
                    block.append(Op(cls, "paths", REACH_SEL,
                                    next(reach_sel[hops]), hops))
                elif cls.startswith("reach_"):
                    hops = int(cls.rsplit("_", 1)[1])
                    block.append(Op(cls, "paths", REACH, next(reach[hops]), hops))
                elif cls == "shortest":
                    source, target, cost = next(shortest)
                    block.append(Op(cls, "paths", SHORTEST, (source, target), cost))
                elif cls == "hop2":
                    start = rng.randrange(FOLLOWERS)
                    block.append(Op(cls, "paths", HOP2, (start,),
                                    hop_ends(adjacency, start)))
                elif cls == "triangles":
                    block.append(Op(cls, "paths", TRIANGLES, (), triangles))
                elif cls == "vertex_read":
                    vid = rng.randrange(FOLLOWERS)
                    block.append(Op(cls, "read", VERTEX_READ, (vid,),
                                    [(f"user{vid}",)]))
                elif cls == "tag_read":
                    tag = next(tag_turn)
                    block.append(Op(cls, "read", TAG_READ, (tag,),
                                    sorted(by_tag[tag])))
                else:
                    rows = VISIT_BATCH if cls == "visit_batch" else 1
                    first, visit_id = visit_id, visit_id + rows
                    values = ", ".join(
                        f"({first + i}, {rng.randrange(FOLLOWERS)}, 'seen')"
                        for i in range(rows))
                    visits.append((
                        Op(cls, "write", f"INSERT INTO Visits VALUES {values}",
                           None, rows),
                        Op(cls, "write", "DELETE FROM Visits WHERE "
                           f"id >= {first} AND id < {visit_id}", None, rows)))
        rng.shuffle(block)
        # a visit is inserted and, later in the same block, deleted again
        for insert, delete in visits:
            at = rng.randrange(len(block) + 1)
            block.insert(at, insert)
            block.insert(rng.randrange(at + 1, len(block) + 1), delete)
        ops.extend(block)
    return ops


def check(op: Op, result: Any) -> bool:
    if op.cls.startswith("reach_"):
        # a path exists and is no shorter than the true hop distance
        return bool(result.rows) and result.rows[0][0] >= op.expect
    if op.cls == "shortest":
        return bool(result.rows) and abs(result.rows[0][0] - op.expect) < 1e-6
    if op.cls in ("hop2", "tag_read"):
        return sorted_first_column(result) == op.expect
    if op.cls == "triangles":
        return result.rows == [(op.expect,)]
    if op.kind == "write":
        return result.rowcount == op.expect
    return result.rows == op.expect


def setup(seed: int, scale: float = 1.0) -> InProcessInstance:
    data = dataset()
    ops = operations(seed, scale, data)
    return InProcessInstance(build(data), PREPARED, ops, len(ops) // BLOCKS, check)

