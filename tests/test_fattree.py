"""Tests for the k-ary fat-tree topology and its generic-machinery fit."""

import pytest

from repro.core.allocation import Allocation, is_feasible
from repro.core.bottleneck import certify_max_min_fair
from repro.core.maxmin import max_min_fair
from repro.core.routing import Routing
from repro.topologies.fattree import (
    AggSwitch,
    CoreSwitch,
    EdgeSwitch,
    FatTree,
    Host,
    ecmp_fat_tree_routing,
    host_macro_graph,
)
from repro.graph.digraph import DiGraph


@pytest.fixture
def ft4():
    return FatTree(4)


class TestStructure:
    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_component_counts(self, k):
        tree = FatTree(k)
        assert len(tree.hosts) == k**3 // 4
        assert len(tree.edge_switches) == k * k // 2
        assert len(tree.agg_switches) == k * k // 2
        assert len(tree.core_switches) == k * k // 4

    def test_link_count(self, ft4):
        k = 4
        hosts = k**3 // 4
        edge_agg = k * (k // 2) * (k // 2)
        agg_core = k * (k // 2) * (k // 2)
        # each adjacency contributes two directed links
        assert ft4.graph.num_links() == 2 * (hosts + edge_agg + agg_core)

    def test_unit_capacities(self, ft4):
        assert all(c == 1 for c in ft4.graph.capacities().values())

    def test_graph_matches_per_link_build(self, ft4):
        oracle = DiGraph()
        for host in ft4.hosts:
            edge = EdgeSwitch(host.pod, host.edge)
            oracle.add_link(host, edge, capacity=1)
            oracle.add_link(edge, host, capacity=1)
        for edge in ft4.edge_switches:
            for a in range(ft4.half):
                agg = AggSwitch(edge.pod, a)
                oracle.add_link(edge, agg, capacity=1)
                oracle.add_link(agg, edge, capacity=1)
        for agg in ft4.agg_switches:
            for i in range(ft4.half):
                core = CoreSwitch(agg.index, i)
                oracle.add_link(agg, core, capacity=1)
                oracle.add_link(core, agg, capacity=1)
        assert ft4.graph.capacities() == oracle.capacities()
        assert ft4.graph.links == oracle.links
        assert ft4.graph.nodes == oracle.nodes

    def test_core_connects_every_pod(self, ft4):
        core = CoreSwitch(0, 0)
        pods = {agg.pod for agg in ft4.graph.successors(core)}
        assert pods == set(range(4))

    def test_odd_arity_rejected(self):
        with pytest.raises(ValueError):
            FatTree(3)
        with pytest.raises(ValueError):
            FatTree(0)


class TestPaths:
    def test_same_edge_single_path(self, ft4):
        src, dst = Host(0, 0, 0), Host(0, 0, 1)
        paths = ft4.paths(src, dst)
        assert len(paths) == 1
        assert paths[0] == (src, EdgeSwitch(0, 0), dst)

    def test_same_pod_half_k_paths(self, ft4):
        src, dst = Host(0, 0, 0), Host(0, 1, 0)
        paths = ft4.paths(src, dst)
        assert len(paths) == 2
        for path in paths:
            assert isinstance(path[2], AggSwitch)
            assert ft4.graph.is_path(path)

    def test_cross_pod_quarter_k_squared_paths(self, ft4):
        src, dst = Host(0, 0, 0), Host(3, 1, 1)
        paths = ft4.paths(src, dst)
        assert len(paths) == 4
        for path in paths:
            assert isinstance(path[3], CoreSwitch)
            assert ft4.graph.is_path(path)

    def test_paths_are_distinct(self, ft4):
        src, dst = Host(0, 0, 0), Host(2, 0, 0)
        paths = ft4.paths(src, dst)
        assert len(set(paths)) == len(paths)

    def test_num_paths_matches(self, ft4):
        pairs = [
            (Host(0, 0, 0), Host(0, 0, 1)),
            (Host(0, 0, 0), Host(0, 1, 0)),
            (Host(0, 0, 0), Host(1, 0, 0)),
        ]
        for src, dst in pairs:
            assert ft4.num_paths(src, dst) == len(ft4.paths(src, dst))

    def test_self_pair_rejected(self, ft4):
        with pytest.raises(ValueError):
            ft4.paths(Host(0, 0, 0), Host(0, 0, 0))

    def test_cross_pod_paths_interior_disjoint(self, ft4):
        """The (k/2)² cross-pod paths pairwise share only endpoints' links."""
        src, dst = Host(0, 0, 0), Host(1, 0, 0)
        paths = ft4.paths(src, dst)
        interiors = [set(zip(p[1:-1], p[2:-1])) for p in paths]
        for i in range(len(interiors)):
            for j in range(i + 1, len(interiors)):
                shared = interiors[i] & interiors[j]
                # paths through the same agg share the edge-agg hop only
                for u, v in shared:
                    assert isinstance(u, EdgeSwitch) or isinstance(v, EdgeSwitch)


class TestGenericMachineryFit:
    def test_water_filling_on_fat_tree(self, ft4):
        flows = [
            (Host(0, 0, 0), Host(1, 0, 0), 0),
            (Host(0, 0, 1), Host(1, 0, 1), 1),
        ]
        paths = ecmp_fat_tree_routing(ft4, flows, seed=0)
        routing = Routing(paths)
        capacities = ft4.graph.capacities()
        alloc = max_min_fair(routing, capacities)
        assert is_feasible(routing, alloc, capacities)
        assert certify_max_min_fair(routing, alloc, capacities) is None

    def test_single_flow_full_rate(self, ft4):
        flows = [(Host(0, 0, 0), Host(3, 1, 1), 0)]
        routing = Routing(ecmp_fat_tree_routing(ft4, flows))
        alloc = max_min_fair(routing, ft4.graph.capacities())
        assert alloc.rate(flows[0]) == 1

    def test_ecmp_deterministic_and_valid(self, ft4):
        flows = [
            (Host(p, e, h), Host((p + 1) % 4, e, h), p * 4 + e * 2 + h)
            for p in range(4)
            for e in range(2)
            for h in range(2)
        ]
        a = ecmp_fat_tree_routing(ft4, flows, seed=1)
        b = ecmp_fat_tree_routing(ft4, flows, seed=1)
        assert a == b
        for flow, path in a.items():
            assert ft4.graph.is_path(path)
            assert path[0] == flow[0]
            assert path[-1] == flow[1]

    def test_ecmp_uses_multiple_paths(self, ft4):
        src = Host(0, 0, 0)
        dst = Host(2, 1, 1)
        flows = [(src, dst, tag) for tag in range(40)]
        paths = set(ecmp_fat_tree_routing(ft4, flows, seed=0).values())
        assert len(paths) > 1  # hashing spreads parallel flows


class TestHostMacroGraph:
    def test_star_shape(self, ft4):
        graph, macro_path = host_macro_graph(ft4)
        assert graph.num_links() == 2 * len(ft4.hosts)
        path = macro_path(Host(0, 0, 0), Host(1, 0, 0))
        assert graph.is_path(path)

    def test_access_capacity_binds(self, ft4):
        graph, macro_path = host_macro_graph(ft4)
        src = Host(0, 0, 0)
        flows = {
            (src, dst, tag): macro_path(src, dst)
            for tag, dst in enumerate(ft4.hosts[4:8])
        }
        routing = Routing(flows)
        alloc = max_min_fair(routing, graph.capacities())
        # four flows share the source access link
        assert all(rate == pytest.approx(0.25) for rate in
                   [float(r) for r in alloc.rates().values()])

    def test_host_as_both_endpoints_has_independent_capacity(self, ft4):
        """Full-duplex: h sending at 1 and receiving at 1 is feasible."""
        graph, macro_path = host_macro_graph(ft4)
        h, other = Host(0, 0, 0), Host(1, 0, 0)
        flows = {
            (h, other, 0): macro_path(h, other),
            (other, h, 1): macro_path(other, h),
        }
        routing = Routing(flows)
        alloc = max_min_fair(routing, graph.capacities())
        assert all(r == 1 for r in alloc.rates().values())
