"""Unit tests for Clos networks and macro-switches (§2.1's structure)."""

import pytest

from repro.core.nodes import InputSwitch, MiddleSwitch, OutputSwitch
from repro.core.topology import ClosNetwork, MacroSwitch
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
