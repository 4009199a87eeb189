"""One plan shape for a PATHS statement, whatever binds its endpoints.

A literal start, a prepared ``?`` start and an ad-hoc text the statement
cache lifts into parameters must plan as the same ``PathScan`` and
return the same rows, for each of the four scans (DFScan, BFScan,
visited-once and SPScan). A NULL start or end matches no vertex, so it
returns no rows, in the literal and the ``?`` form alike.
"""

import pytest

from repro import Database
from repro.core.database import PreparedQuery

from .test_traversal_golden import GRAPHS

#: ``{s}`` / ``{e}`` are the start and end vertex ids (or ``?``).
STATEMENTS = {
    "dfs": (
        "SELECT PS.PathString FROM G.Paths PS HINT(DFS) "
        "WHERE PS.StartVertex.Id = {s} AND PS.Length <= 3"
    ),
    "bfs": (
        "SELECT PS.PathString FROM G.Paths PS HINT(BFS) "
        "WHERE PS.StartVertex.Id = {s} AND PS.Length <= 3"
    ),
    "visited_once": (
        "SELECT PS.PathString FROM G.Paths PS "
        "WHERE PS.StartVertex.Id = {s} AND PS.EndVertex.Id = {e} LIMIT 1"
    ),
    "shortest": (
        "SELECT PS.PathString, PS.Cost FROM G.Paths PS HINT(SHORTESTPATH(w)) "
        "WHERE PS.StartVertex.Id = {s} AND PS.EndVertex.Id = {e} LIMIT 2"
    ),
}

#: The same scans with a bound end, for the NULL-end cases.
BOUND_END = {
    "dfs": STATEMENTS["dfs"] + " AND PS.EndVertex.Id = {e}",
    "bfs": STATEMENTS["bfs"] + " AND PS.EndVertex.Id = {e}",
    "visited_once": STATEMENTS["visited_once"],
    "shortest": STATEMENTS["shortest"],
}

START, END = 0, 7


@pytest.fixture(scope="module")
def db():
    """The golden ``grid6`` graph (undirected 6x6 grid) as a graph view."""
    vertices, edges, _directed = GRAPHS["grid6"]
    db = Database()
    db.execute("CREATE TABLE V (id INTEGER PRIMARY KEY, name VARCHAR)")
    db.execute(
        "CREATE TABLE E (id INTEGER PRIMARY KEY, src INTEGER, dst INTEGER, "
        "w FLOAT, label VARCHAR)"
    )
    for vertex in vertices:
        db.execute(f"INSERT INTO V VALUES ({vertex}, 'v{vertex}')")
    for edge_id, src, dst, weight, label in edges:
        db.execute(
            f"INSERT INTO E VALUES ({edge_id}, {src}, {dst}, {weight}, '{label}')"
        )
    db.execute(
        "CREATE UNDIRECTED GRAPH VIEW G VERTEXES(ID = id, name = name) FROM V "
        "EDGES(ID = id, FROM = src, TO = dst, w = w, label = label) FROM E"
    )
    return db


def shape(explained):
    return ">".join(
        line.strip().split("(", 1)[0] for line in explained.splitlines()
    )


def arguments(template, start, end):
    return (start, end) if "{e}" in template else (start,)


def cached(db, text):
    """The statement cache's plan for ``text``: run it until a lookup
    returns a :class:`PreparedQuery` (a shape is planned for the cache
    on its second sighting)."""
    for _ in range(3):
        compiled = db.compile(text)
        if isinstance(compiled, PreparedQuery):
            return compiled
        db.execute_parsed(compiled, text)
    raise AssertionError(f"never cached: {text}")


@pytest.mark.parametrize("name", sorted(STATEMENTS))
def test_literal_prepared_and_cached_forms_share_one_plan(db, name):
    template = STATEMENTS[name]
    literal = template.format(s=START, e=END)
    prepared = db.prepare(template.format(s="?", e="?"))
    lifted = cached(db, literal)
    shapes = {shape(db.explain(literal)), shape(prepared.explain()),
              shape(lifted.explain())}
    assert len(shapes) == 1
    (only,) = shapes
    assert only in ("Project>PathScan", "Limit>Project>PathScan")

    rows = db.execute(literal).rows
    assert rows
    assert prepared.execute(*arguments(template, START, END)).rows == rows
    assert db.execute_parsed(lifted, literal).rows == rows


@pytest.mark.parametrize("name", sorted(STATEMENTS))
def test_rebound_start_returns_its_own_paths(db, name):
    template = STATEMENTS[name]
    prepared = db.prepare(template.format(s="?", e="?"))
    for start in (0, 14, 30, 0):
        rows = prepared.execute(*arguments(template, start, END)).rows
        assert rows == db.execute(template.format(s=start, e=END)).rows
        assert rows and all(row[0].startswith(f"{start}->") for row in rows)


@pytest.mark.parametrize("name", sorted(BOUND_END))
def test_null_endpoint_matches_nothing(db, name):
    template = BOUND_END[name]
    prepared = db.prepare(template.format(s="?", e="?"))
    assert db.execute(template.format(s=START, e=END)).rows
    assert db.execute(template.format(s=START, e="NULL")).rows == []
    assert db.execute(template.format(s="NULL", e=END)).rows == []
    assert prepared.execute(START, None).rows == []
    assert prepared.execute(None, END).rows == []
    assert prepared.execute(START, END).rows  # NULL left no state behind
