"""Unit tests for Clos networks and macro-switches (§2.1's structure)."""

import numpy as np
import pytest

from repro.core.nodes import (
    Destination,
    InputSwitch,
    MiddleSwitch,
    OutputSwitch,
    Source,
)
from repro.core.topology import ClosNetwork, MacroSwitch
from repro.errors import InfeasibleRoutingError
from repro.graph.digraph import INFINITE_CAPACITY, DiGraph


class TestClosStructure:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_node_counts(self, n):
        clos = ClosNetwork(n)
        assert len(clos.input_switches) == 2 * n
        assert len(clos.output_switches) == 2 * n
        assert len(clos.middle_switches) == n
        assert len(clos.sources) == 2 * n * n
        assert len(clos.destinations) == 2 * n * n

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_link_counts(self, n):
        clos = ClosNetwork(n)
        # 2n^2 source links + 2n^2 destination links + 2n*n up + n*2n down.
        assert clos.graph.num_links() == 2 * n * n + 2 * n * n + 2 * n * n + 2 * n * n

    def test_all_links_unit_capacity(self):
        clos = ClosNetwork(3)
        assert all(c == 1 for c in clos.graph.capacities().values())

    def test_middle_switch_degree_is_twice_tor_degree(self):
        # §2.1: "the degree of each middle switch is twice that of each
        # ToR switch" (counting network-side links).
        clos = ClosNetwork(3)
        middle = MiddleSwitch(1)
        tor_up = clos.graph.out_degree(InputSwitch(1))  # ToR → middles
        assert clos.graph.in_degree(middle) + clos.graph.out_degree(middle) == (
            2 * 2 * tor_up
        )

    def test_graph_matches_per_link_build(self):
        clos = ClosNetwork(3, middle_count=4, interior_capacity=2)
        oracle = DiGraph()
        for src in clos.sources:
            oracle.add_link(src, InputSwitch(src.switch), capacity=1)
        for dst in clos.destinations:
            oracle.add_link(OutputSwitch(dst.switch), dst, capacity=1)
        for inp in clos.input_switches:
            for mid in clos.middle_switches:
                oracle.add_link(inp, mid, capacity=2)
        for mid in clos.middle_switches:
            for out in clos.output_switches:
                oracle.add_link(mid, out, capacity=2)
        # Link order matters: the array compile numbers links in this order.
        assert list(clos.graph.capacities().items()) == list(
            oracle.capacities().items()
        )
        assert clos.graph.nodes == oracle.nodes

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            ClosNetwork(0)
        with pytest.raises(ValueError):
            ClosNetwork(-1)

    def test_index_validation(self):
        clos = ClosNetwork(2)
        with pytest.raises(ValueError):
            clos.source(5, 1)  # ToR index > 2n
        with pytest.raises(ValueError):
            clos.source(1, 3)  # server index > n
        with pytest.raises(ValueError):
            clos.destination(0, 1)
        with pytest.raises(ValueError):
            clos.middle(3)


class TestIntegerIndices:
    """Node helpers take integer indices only: a float or bool index
    used to yield a node the graph does not have (``s1.5^1``, ``M1.0``,
    ``MTrue``)."""

    @pytest.mark.parametrize("network", [ClosNetwork(2), MacroSwitch(2)])
    @pytest.mark.parametrize(
        "i, j", [(1.5, 1), (1, 2.0), (True, 1), (1, True), ("1", 1), (None, 1)]
    )
    def test_server_helpers_reject_non_integers(self, network, i, j):
        with pytest.raises(InfeasibleRoutingError, match="not an integer"):
            network.source(i, j)
        with pytest.raises(InfeasibleRoutingError, match="not an integer"):
            network.destination(i, j)

    @pytest.mark.parametrize("m", [1.0, 2.5, True, "1"])
    def test_middle_rejects_non_integers(self, m):
        clos = ClosNetwork(2)
        with pytest.raises(InfeasibleRoutingError, match="not an integer"):
            clos.middle(m)
        with pytest.raises(InfeasibleRoutingError, match="not an integer"):
            clos.path_via(clos.source(1, 1), clos.destination(2, 1), m)

    def test_paths_reject_endpoints_with_non_integer_indices(self):
        clos, ms = ClosNetwork(2), MacroSwitch(2)
        bad = Source(1.5, 1)
        with pytest.raises(InfeasibleRoutingError, match="not an integer"):
            clos.path_via(bad, clos.destination(1, 1), 1)
        with pytest.raises(InfeasibleRoutingError, match="not an integer"):
            ms.path(ms.source(1, 1), Destination(1, 0.5))

    def test_numpy_integers_pass(self):
        clos, ms = ClosNetwork(3), MacroSwitch(3)
        i, j, m = np.int64(4), np.int32(2), np.int16(3)
        assert clos.source(i, j) is clos.source(4, 2)
        assert clos.destination(i, j) is clos.destination(4, 2)
        assert clos.middle(m) is clos.middle(3)
        assert ms.source(i, j) is ms.source(4, 2)
        path = clos.path_via(clos.source(i, j), clos.destination(i + 1, j), m)
        assert clos.graph.is_path(path)

    def test_every_returned_node_is_in_the_graph(self):
        clos = ClosNetwork(2)
        for node in (clos.source(4, 2), clos.destination(1, 1), clos.middle(2)):
            assert clos.graph.has_node(node)

    def test_foreign_endpoints_raise(self):
        clos = ClosNetwork(2)
        s, t = clos.source(1, 1), clos.destination(1, 1)
        with pytest.raises(InfeasibleRoutingError):
            clos.path_via(t, s, 1)  # endpoints swapped
        with pytest.raises(InfeasibleRoutingError, match="out of range"):
            clos.path_via(Source(3, 3), t, 1)


class TestSharedNodes:
    """Helpers and paths hand out the network's own node objects."""

    def test_helpers_return_the_listed_nodes(self):
        clos = ClosNetwork(3)
        assert clos.source(4, 2) is clos.sources[3 * 3 + 1]
        assert clos.destination(6, 3) is clos.destinations[-1]
        assert clos.middle(2) is clos.middle_switches[1]

    def test_path_via_uses_the_network_nodes(self):
        clos = ClosNetwork(3)
        # Equal but separately built endpoints map to the network's own.
        path = clos.path_via(Source(2, 3), Destination(5, 1), 3)
        expected = (
            clos.sources[1 * 3 + 2],
            clos.input_switches[1],
            clos.middle_switches[2],
            clos.output_switches[4],
            clos.destinations[4 * 3],
        )
        assert path == expected
        assert all(got is want for got, want in zip(path, expected))
        for other in clos.paths(Source(2, 3), Destination(5, 1)):
            assert all(got is want for got, want in zip(other[:2], expected))
            assert other[2] is clos.middle_switches[other[2].index - 1]

    def test_macro_path_uses_the_network_nodes(self):
        ms = MacroSwitch(2)
        path = ms.path(Source(3, 2), Destination(1, 1))
        expected = (
            ms.sources[2 * 2 + 1],
            ms.input_switches[2],
            ms.output_switches[0],
            ms.destinations[0],
        )
        assert path == expected
        assert all(got is want for got, want in zip(path, expected))

    def test_graph_links_use_the_network_nodes(self):
        clos = ClosNetwork(2)
        nodes = {
            id(node)
            for group in (
                clos.sources,
                clos.destinations,
                clos.input_switches,
                clos.output_switches,
                clos.middle_switches,
            )
            for node in group
        }
        assert all(
            id(u) in nodes and id(v) in nodes for u, v in clos.graph.links
        )


class TestClosPaths:
    def test_n_paths_per_pair(self):
        clos = ClosNetwork(3)
        paths = clos.paths(clos.source(1, 1), clos.destination(4, 2))
        assert len(paths) == 3
        middles = {clos.middle_of_path(p) for p in paths}
        assert middles == {MiddleSwitch(1), MiddleSwitch(2), MiddleSwitch(3)}

    def test_paths_are_link_disjoint_inside(self):
        clos = ClosNetwork(3)
        paths = clos.paths(clos.source(1, 1), clos.destination(2, 1))
        interiors = [set(zip(p[1:-1], p[2:-1])) for p in paths]
        for a in range(len(interiors)):
            for b in range(a + 1, len(interiors)):
                assert not interiors[a] & interiors[b]

    def test_path_via_shape(self):
        clos = ClosNetwork(2)
        s, t = clos.source(1, 2), clos.destination(3, 1)
        path = clos.path_via(s, t, 2)
        assert path == (s, InputSwitch(1), MiddleSwitch(2), OutputSwitch(3), t)
        assert clos.graph.is_path(path)

    def test_all_paths_valid_in_graph(self):
        clos = ClosNetwork(2)
        for s in clos.sources[:4]:
            for t in clos.destinations[:4]:
                for p in clos.paths(s, t):
                    assert clos.graph.is_path(p)

    def test_middle_of_path_validates(self):
        clos = ClosNetwork(2)
        with pytest.raises(ValueError):
            clos.middle_of_path((clos.source(1, 1), clos.destination(1, 1)))

    def test_path_via_invalid_middle(self):
        clos = ClosNetwork(2)
        with pytest.raises(ValueError):
            clos.path_via(clos.source(1, 1), clos.destination(1, 1), 3)


class TestMacroSwitch:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_node_counts(self, n):
        ms = MacroSwitch(n)
        assert len(ms.sources) == 2 * n * n
        assert len(ms.destinations) == 2 * n * n
        assert len(ms.input_switches) == 2 * n
        assert len(ms.output_switches) == 2 * n

    def test_interior_links_infinite(self):
        ms = MacroSwitch(2)
        for inp in ms.input_switches:
            for out in ms.output_switches:
                assert ms.graph.capacity(inp, out) == INFINITE_CAPACITY

    def test_server_links_unit(self):
        ms = MacroSwitch(2)
        for s in ms.sources:
            assert ms.graph.capacity(s, InputSwitch(s.switch)) == 1
        for t in ms.destinations:
            assert ms.graph.capacity(OutputSwitch(t.switch), t) == 1

    def test_unique_path(self):
        ms = MacroSwitch(2)
        s, t = ms.source(1, 1), ms.destination(4, 2)
        path = ms.path(s, t)
        assert path == (s, InputSwitch(1), OutputSwitch(4), t)
        assert ms.graph.is_path(path)

    def test_complete_bipartite_interior(self):
        ms = MacroSwitch(2)
        # every input switch reaches every output switch directly
        for inp in ms.input_switches:
            for out in ms.output_switches:
                assert ms.graph.has_link(inp, out)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            MacroSwitch(0)

    def test_graph_matches_per_link_build(self):
        ms = MacroSwitch(3)
        oracle = DiGraph()
        for src in ms.sources:
            oracle.add_link(src, InputSwitch(src.switch), capacity=1)
        for dst in ms.destinations:
            oracle.add_link(OutputSwitch(dst.switch), dst, capacity=1)
        for inp in ms.input_switches:
            for out in ms.output_switches:
                oracle.add_link(inp, out, capacity=INFINITE_CAPACITY)
        assert list(ms.graph.capacities().items()) == list(
            oracle.capacities().items()
        )
        assert ms.graph.nodes == oracle.nodes

    def test_same_server_names_as_clos(self):
        clos, ms = ClosNetwork(2), MacroSwitch(2)
        assert clos.sources == ms.sources
        assert clos.destinations == ms.destinations
