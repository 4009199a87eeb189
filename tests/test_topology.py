"""Unit tests for the graph topology structure."""

import pytest

from repro.errors import GraphViewError, IntegrityError
from repro.graph import GraphTopology


def diamond(directed=True):
    """1 -> 2 -> 4 and 1 -> 3 -> 4."""
    topology = GraphTopology(directed)
    for vertex_id in (1, 2, 3, 4):
        topology.add_vertex(vertex_id)
    topology.add_edge("a", 1, 2)
    topology.add_edge("b", 1, 3)
    topology.add_edge("c", 2, 4)
    topology.add_edge("d", 3, 4)
    return topology


class TestConstruction:
    def test_counts(self):
        topology = diamond()
        assert topology.vertex_count == 4
        assert topology.edge_count == 4

    def test_fan_out_fan_in_directed(self):
        topology = diamond()
        assert topology.vertex(1).fan_out == 2
        assert topology.vertex(1).fan_in == 0
        assert topology.vertex(4).fan_in == 2
        assert topology.vertex(4).fan_out == 0

    def test_fan_out_undirected_counts_both_directions(self):
        topology = diamond(directed=False)
        assert topology.vertex(1).fan_out == 2
        assert topology.vertex(4).fan_out == 2
        assert topology.vertex(2).fan_out == 2

    def test_duplicate_vertex_rejected(self):
        topology = diamond()
        with pytest.raises(GraphViewError):
            topology.add_vertex(1)

    def test_duplicate_edge_rejected(self):
        topology = diamond()
        with pytest.raises(GraphViewError):
            topology.add_edge("a", 2, 3)

    def test_edge_to_missing_vertex_rejected(self):
        topology = diamond()
        with pytest.raises(IntegrityError):
            topology.add_edge("z", 1, 99)

    def test_null_identifiers_rejected(self):
        topology = GraphTopology()
        with pytest.raises(GraphViewError):
            topology.add_vertex(None)
        topology.add_vertex(1)
        with pytest.raises(GraphViewError):
            topology.add_edge(None, 1, 1)


class TestAdjacency:
    def test_out_edges_directed(self):
        topology = diamond()
        targets = {e.to_id for e in topology.out_edges_of(1)}
        assert targets == {2, 3}

    def test_in_edges_directed(self):
        topology = diamond()
        sources = {e.from_id for e in topology.in_edges_of(4)}
        assert sources == {2, 3}

    def test_undirected_other_endpoint(self):
        topology = diamond(directed=False)
        neighbors = {
            e.other_endpoint(4) for e in topology.out_edges_of(4)
        }
        assert neighbors == {2, 3}

    def test_self_loop(self):
        topology = GraphTopology(directed=False)
        topology.add_vertex(1)
        topology.add_edge("loop", 1, 1)
        # a self loop in an undirected graph is registered once per side
        assert topology.vertex(1).fan_out == 1


class TestRemoval:
    def test_remove_edge(self):
        topology = diamond()
        topology.remove_edge("a")
        assert not topology.has_edge("a")
        assert topology.vertex(1).fan_out == 1
        assert topology.vertex(2).fan_in == 0

    def test_remove_missing_edge_raises(self):
        with pytest.raises(GraphViewError):
            diamond().remove_edge("nope")

    def test_remove_vertex_with_edges_refused(self):
        topology = diamond()
        with pytest.raises(IntegrityError):
            topology.remove_vertex(1)

    def test_remove_vertex_cascade(self):
        topology = diamond()
        topology.remove_vertex(1, cascade=True)
        assert not topology.has_vertex(1)
        assert not topology.has_edge("a")
        assert not topology.has_edge("b")
        assert topology.edge_count == 2

    def test_remove_isolated_vertex(self):
        topology = GraphTopology()
        topology.add_vertex(1)
        topology.remove_vertex(1)
        assert topology.vertex_count == 0

    def test_remove_edge_undirected_cleans_both_sides(self):
        topology = diamond(directed=False)
        topology.remove_edge("a")
        assert topology.vertex(2).fan_out == 1
        assert topology.vertex(1).fan_out == 1


class TestRenames:
    def test_rename_vertex_rewrites_edges(self):
        topology = diamond()
        topology.rename_vertex(1, 100)
        assert topology.has_vertex(100)
        assert not topology.has_vertex(1)
        assert topology.edge("a").from_id == 100
        assert {e.to_id for e in topology.out_edges_of(100)} == {2, 3}

    def test_rename_vertex_to_existing_rejected(self):
        topology = diamond()
        with pytest.raises(GraphViewError):
            topology.rename_vertex(1, 2)

    def test_rename_edge(self):
        topology = diamond()
        topology.rename_edge("a", "a2")
        assert topology.has_edge("a2")
        assert not topology.has_edge("a")
        out_ids = [e.id for e in topology.out_edges_of(1)]
        assert out_ids == ["a2", "b"]  # renamed in place, order kept
        assert [e.id for e in topology.in_edges_of(2)] == ["a2"]

    def test_rename_edge_to_existing_rejected(self):
        topology = diamond()
        with pytest.raises(GraphViewError):
            topology.rename_edge("a", "b")


class TestStatistics:
    def test_average_fan_out(self):
        topology = diamond()
        assert topology.average_fan_out() == pytest.approx(1.0)

    def test_average_fan_out_empty_graph(self):
        assert GraphTopology().average_fan_out() == 0.0

    def test_degree_histogram(self):
        histogram = diamond().degree_histogram()
        assert histogram == {2: 1, 1: 2, 0: 1}

    def test_memory_estimate_grows_with_graph(self):
        small = diamond().memory_estimate_bytes()
        larger = diamond()
        larger.add_vertex(5)
        larger.add_edge("e", 4, 5)
        assert larger.memory_estimate_bytes() > small


class TestSlots:
    def test_adjacency_holds_edge_and_target_slots(self):
        topology = diamond()
        one = topology.vertex(1)
        edge_a, two, edge_b, three = one.out_pairs
        assert topology.edge_at[edge_a] is topology.edge("a")
        assert topology.edge_at[edge_b] is topology.edge("b")
        assert (two, three) == (topology.vertex(2).slot, topology.vertex(3).slot)
        assert topology.out_pairs[one.slot] is one.out_pairs
        assert topology.vertex_at[one.slot] is one
        assert [topology.edge_at[e].id for e in topology.vertex(4).in_slots] == [
            "c", "d"]

    def test_undirected_edge_targets_the_other_endpoint(self):
        topology = diamond(directed=False)
        four = topology.vertex(4)
        targets = four.out_pairs[1::2]
        assert [topology.vertex_at[t].id for t in targets] == [2, 3]
        # every incident edge arrives as much as it leaves
        assert four.in_slots is None and four.fan_in == four.fan_out == 2
        assert [e.id for e in topology.in_edges_of(4)] == ["c", "d"]

    def test_removal_matches_pair_positions(self):
        # slot numbers repeat across the two roles: a search for a target
        # slot can hit an edge slot and the other way round
        topology = GraphTopology()
        for vertex_id in ("a", "b", "c"):  # slots 0, 1, 2
            topology.add_vertex(vertex_id)
        topology.add_edge("ac", "a", "c")  # slot 0
        topology.add_edge("ac2", "a", "c")  # slot 1
        topology.add_edge("ab", "a", "b")  # slot 2, targets slot 1
        assert topology.vertex("a").out_pairs == [0, 2, 1, 2, 2, 1]
        topology.remove_edge("ab")
        assert topology.vertex("a").out_pairs == [0, 2, 1, 2]
        assert topology.vertex("b").in_slots == []

    def test_undirected_removal_matches_edge_slots_only(self):
        # b holds [edge 0, target 2, edge 2, target 0]: removing edge slot
        # 2 must not take the pair that merely targets slot 2
        topology = GraphTopology(directed=False)
        for vertex_id in ("a", "b", "c"):  # slots 0, 1, 2
            topology.add_vertex(vertex_id)
        topology.add_edge("bc", "b", "c")  # slot 0
        topology.add_edge("ac", "a", "c")  # slot 1
        topology.add_edge("ab", "a", "b")  # slot 2
        assert topology.vertex("b").out_pairs == [0, 2, 2, 0]
        topology.remove_edge("ab")
        assert topology.vertex("b").out_pairs == [0, 2]
        assert [e.id for e in topology.out_edges_of("a")] == ["ac"]

    def test_removal_keeps_the_order_of_the_rest(self):
        topology = GraphTopology()
        for vertex_id in range(6):
            topology.add_vertex(vertex_id)
        for target in range(1, 6):
            topology.add_edge(f"e{target}", 0, target)
        topology.remove_edge("e3")
        assert [e.id for e in topology.out_edges_of(0)] == [
            "e1", "e2", "e4", "e5"]

    def test_freed_slots_are_reused(self):
        topology = diamond()
        freed = topology.edge_at.index(topology.edge("b"))
        topology.remove_edge("b")
        assert topology.edge_at[freed] is None
        assert topology.edge_at[freed:freed + 1] == [None]
        topology.add_edge("z", 2, 3)
        assert topology.edge_at[freed] is topology.edge("z")
        assert len(topology.edge_at) == 4
        topology.remove_edge("z")
        topology.remove_edge("d")
        vertex_slot = topology.vertex(3).slot
        topology.remove_vertex(3)
        assert topology.vertex_at[vertex_slot] is None
        assert topology.out_pairs[vertex_slot] is None
        assert topology.add_vertex(9).slot == vertex_slot

    def test_rename_edge_leaves_adjacency_alone(self):
        topology = diamond()
        before = list(topology.vertex(1).out_pairs)
        topology.rename_edge("a", "a2")
        assert topology.vertex(1).out_pairs == before
        assert topology.edge_at[before[0]].id == "a2"


def test_memory_estimate_does_not_depend_on_attribute_width():
    """Table 3's claim: the topology keeps no attributes."""
    from repro import Database

    def estimate(extra_columns):
        db = Database()
        extra = "".join(f", pad{i} VARCHAR" for i in range(extra_columns))
        db.execute(f"CREATE TABLE V (id INTEGER PRIMARY KEY{extra})")
        db.execute(f"CREATE TABLE E (id INTEGER PRIMARY KEY, s INTEGER, "
                   f"d INTEGER{extra})")
        pad = ("x" * 200,) * extra_columns
        db.load_rows("V", [(i,) + pad for i in range(4)])
        db.load_rows("E", [(i, i, (i + 1) % 4) + pad for i in range(4)])
        db.execute("CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id) FROM V "
                   "EDGES(ID = id, FROM = s, TO = d) FROM E")
        return db.graph_view("g").topology.memory_estimate_bytes()

    assert estimate(0) == estimate(6)
    # 4 vertices x 7 references + 4 edges x 5 + 3 adjacency entries per edge
    assert estimate(0) == 8 * (4 * 7 + 4 * 5 + 4 * 3)
