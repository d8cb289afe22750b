"""Unit tests for the directed-graph substrate."""

import pytest

from repro.graph.digraph import INFINITE_CAPACITY, DiGraph


class TestConstruction:
    def test_empty_graph(self):
        g = DiGraph()
        assert g.num_nodes() == 0
        assert g.num_links() == 0
        assert g.nodes == []
        assert g.links == []

    def test_add_node_idempotent(self):
        g = DiGraph()
        g.add_node("a")
        g.add_node("a")
        assert g.num_nodes() == 1

    def test_add_link_adds_endpoints(self):
        g = DiGraph()
        g.add_link("a", "b")
        assert g.has_node("a")
        assert g.has_node("b")
        assert g.has_link("a", "b")
        assert not g.has_link("b", "a")

    def test_default_capacity_is_one(self):
        g = DiGraph()
        g.add_link("a", "b")
        assert g.capacity("a", "b") == 1

    def test_explicit_capacity(self):
        g = DiGraph()
        g.add_link("a", "b", capacity=7)
        assert g.capacity("a", "b") == 7

    def test_infinite_capacity(self):
        g = DiGraph()
        g.add_link("a", "b", capacity=INFINITE_CAPACITY)
        assert g.capacity("a", "b") == float("inf")

    def test_readd_link_overwrites_capacity(self):
        g = DiGraph()
        g.add_link("a", "b", capacity=1)
        g.add_link("a", "b", capacity=3)
        assert g.capacity("a", "b") == 3
        assert g.num_links() == 1

    def test_remove_link(self):
        g = DiGraph()
        g.add_link("a", "b")
        g.remove_link("a", "b")
        assert not g.has_link("a", "b")
        assert g.has_node("a")

    def test_remove_missing_link_raises(self):
        g = DiGraph()
        g.add_node("a")
        with pytest.raises(KeyError):
            g.remove_link("a", "b")


class TestQueries:
    @pytest.fixture
    def diamond(self) -> DiGraph:
        g = DiGraph()
        g.add_link("s", "a")
        g.add_link("s", "b")
        g.add_link("a", "t")
        g.add_link("b", "t")
        return g

    def test_successors(self, diamond):
        assert sorted(diamond.successors("s")) == ["a", "b"]

    def test_predecessors(self, diamond):
        assert sorted(diamond.predecessors("t")) == ["a", "b"]

    def test_degrees(self, diamond):
        assert diamond.out_degree("s") == 2
        assert diamond.in_degree("s") == 0
        assert diamond.in_degree("t") == 2
        assert diamond.out_degree("t") == 0

    def test_capacity_of_missing_link_raises(self, diamond):
        with pytest.raises(KeyError):
            diamond.capacity("s", "t")

    def test_capacities_returns_copy(self, diamond):
        caps = diamond.capacities()
        caps[("s", "a")] = 99
        assert diamond.capacity("s", "a") == 1

    def test_contains(self, diamond):
        assert "s" in diamond
        assert "zz" not in diamond

    def test_missing_node_queries_raise(self, diamond):
        with pytest.raises(KeyError):
            list(diamond.successors("zz"))


class TestQueriesAfterMutation:
    """The adjacency queries scan the links, so every mutation shows."""

    @staticmethod
    def adjacency(g: DiGraph):
        return {
            node: (
                sorted(g.successors(node)),
                sorted(g.predecessors(node)),
                g.out_degree(node),
                g.in_degree(node),
            )
            for node in g.nodes
        }

    def test_queries_follow_each_mutation(self):
        g = DiGraph()
        g.add_link("a", "b")
        assert g.nodes == ["a", "b"]
        assert g.links == [("a", "b")]
        assert self.adjacency(g) == {
            "a": (["b"], [], 1, 0),
            "b": ([], ["a"], 0, 1),
        }

        g.add_links([("c", "a", 2), ("b", "c", 3), ("a", "b", 5)])
        assert g.nodes == ["a", "b", "c"]
        assert g.links == [("a", "b"), ("c", "a"), ("b", "c")]
        assert g.capacity("a", "b") == 5  # re-added: new capacity, old place
        assert self.adjacency(g) == {
            "a": (["b"], ["c"], 1, 1),
            "b": (["c"], ["a"], 1, 1),
            "c": (["a"], ["b"], 1, 1),
        }

        g.add_node("d")
        g.add_node("a")
        assert g.nodes == ["a", "b", "c", "d"]
        assert self.adjacency(g)["d"] == ([], [], 0, 0)

        g.add_link("d", "b")
        g.remove_link("a", "b")
        assert g.nodes == ["a", "b", "c", "d"]  # endpoints stay
        assert g.links == [("c", "a"), ("b", "c"), ("d", "b")]
        assert self.adjacency(g) == {
            "a": ([], ["c"], 0, 1),
            "b": (["c"], ["d"], 1, 1),
            "c": (["a"], ["b"], 1, 1),
            "d": (["b"], [], 1, 0),
        }

        g.add_link("a", "b", capacity=7)
        assert g.links == [("c", "a"), ("b", "c"), ("d", "b"), ("a", "b")]
        assert sorted(g.predecessors("b")) == ["a", "d"]
        assert g.in_degree("b") == 2

    def test_add_links_empty_and_generator(self):
        g = DiGraph()
        g.add_links([])
        assert g.num_nodes() == 0
        g.add_links((i, i + 1, i) for i in range(3))
        assert g.nodes == [0, 1, 2, 3]
        assert g.capacities() == {(0, 1): 0, (1, 2): 1, (2, 3): 2}

    @pytest.mark.parametrize(
        "query", ["successors", "predecessors", "out_degree", "in_degree"]
    )
    def test_every_query_raises_for_missing_node(self, query):
        g = DiGraph()
        g.add_node("a")
        getattr(g, query)("a")  # a node without links answers
        with pytest.raises(KeyError):
            getattr(g, query)("zz")


class TestPaths:
    @pytest.fixture
    def chain(self) -> DiGraph:
        g = DiGraph()
        g.add_link("a", "b")
        g.add_link("b", "c")
        return g

    def test_valid_path(self, chain):
        assert chain.is_path(["a", "b", "c"])

    def test_single_node_path(self, chain):
        assert chain.is_path(["a"])

    def test_single_missing_node_path(self, chain):
        assert not chain.is_path(["zz"])

    def test_empty_path_invalid(self, chain):
        assert not chain.is_path([])

    def test_broken_path(self, chain):
        assert not chain.is_path(["a", "c"])

    def test_reversed_path_invalid(self, chain):
        assert not chain.is_path(["c", "b", "a"])

    def test_path_links(self, chain):
        assert chain.path_links(["a", "b", "c"]) == [("a", "b"), ("b", "c")]

    def test_path_links_invalid_raises(self, chain):
        with pytest.raises(ValueError):
            chain.path_links(["a", "c"])
