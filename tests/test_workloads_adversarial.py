"""Tests for the paper's adversarial constructions (structure, not rates —
the rate claims live in the test_paper_* modules)."""

import pytest

from repro.core.allocation import Allocation, is_feasible
from repro.core.flows import Flow, FlowCollection
from repro.core.nodes import MiddleSwitch
from repro.core.routing import Routing
from repro.core.topology import ClosNetwork
from repro.workloads.adversarial import (
    example_2_3,
    example_2_3_routings,
    example_5_3,
    lemma_4_6_routing,
    theorem_3_4,
    theorem_4_2,
    theorem_4_3,
    theorem_5_4,
)


class TestExample23:
    def test_flow_counts(self):
        instance = example_2_3()
        assert len(instance.flows) == 6
        assert len(instance.types["type1"]) == 3
        assert len(instance.types["type2"]) == 2
        assert len(instance.types["type3"]) == 1

    def test_type1_share_source(self):
        instance = example_2_3()
        sources = {f.source for f in instance.types["type1"]}
        assert len(sources) == 1

    def test_network_size(self):
        instance = example_2_3()
        assert instance.clos.n == 2
        assert instance.macro.n == 2

    def test_routings_differ_only_on_one_flow(self):
        instance = example_2_3()
        routing_a, routing_b = example_2_3_routings(instance)
        middles_a = routing_a.middles(instance.clos)
        middles_b = routing_b.middles(instance.clos)
        differing = [f for f in instance.flows if middles_a[f] != middles_b[f]]
        assert len(differing) == 1
        assert differing[0] == instance.types["type1"][1]  # (s_1^2, t_2^1)

    def test_routings_valid(self):
        instance = example_2_3()
        for routing in example_2_3_routings(instance):
            routing.validate(instance.clos.graph)


class TestTheorem34:
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_flow_counts(self, k):
        instance = theorem_3_4(1, k)
        assert len(instance.types["type1"]) == 2
        assert len(instance.types["type2"]) == k
        assert len(instance.flows) == k + 2

    def test_type2_flows_parallel(self):
        instance = theorem_3_4(1, 4)
        pairs = {(f.source, f.dest) for f in instance.types["type2"]}
        assert len(pairs) == 1

    def test_type2_collides_with_both_type1(self):
        instance = theorem_3_4(1, 1)
        (type2,) = instance.types["type2"]
        type1_sources = {f.source for f in instance.types["type1"]}
        type1_dests = {f.dest for f in instance.types["type1"]}
        assert type2.source in type1_sources
        assert type2.dest in type1_dests

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            theorem_3_4(1, 0)

    def test_larger_network_sizes(self):
        instance = theorem_3_4(3, 2)
        assert instance.clos.n == 3
        assert len(instance.flows) == 4


class TestFigure3Constructions:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_theorem_4_2_counts(self, n):
        instance = theorem_4_2(n)
        assert len(instance.types["type1"]) == n * (n - 1)
        assert len(instance.types["type2a"]) == n
        assert len(instance.types["type2b"]) == n * (n - 1)
        assert len(instance.types["type3"]) == 1

    @pytest.mark.parametrize("n", [3, 4])
    def test_theorem_4_3_counts(self, n):
        instance = theorem_4_3(n)
        assert len(instance.types["type1"]) == (n + 1) * n * (n - 1)
        assert len(instance.types["type2"]) == n * n
        assert len(instance.types["type3"]) == 1

    def test_type2b_fan_in(self):
        """n type-2.b flows enter each of O_{n+1}'s first n−1 destinations."""
        n = 3
        instance = theorem_4_2(n)
        by_dest = {}
        for f in instance.types["type2b"]:
            by_dest.setdefault(f.dest, []).append(f)
        assert len(by_dest) == n - 1
        assert all(len(fs) == n for fs in by_dest.values())
        assert all(d.switch == n + 1 for d in by_dest)

    def test_type3_isolated_endpoints(self):
        instance = theorem_4_2(3)
        (type3,) = instance.types["type3"]
        others = [f for f in instance.flows if f != type3]
        assert all(f.source != type3.source for f in others)
        assert all(f.dest != type3.dest for f in others)

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            theorem_4_2(2)
        with pytest.raises(ValueError):
            theorem_4_3(2)

    @pytest.mark.parametrize("n", [3, 4])
    def test_lemma_4_6_routing_valid_and_feasible_at_posited_rates(self, n):
        from repro.core.theorems import theorem_4_3 as predict

        instance = theorem_4_3(n)
        routing = lemma_4_6_routing(instance)
        routing.validate(instance.clos.graph)
        prediction = predict(n)
        rates = {}
        for type_name in ("type1", "type2a", "type2b", "type3"):
            key = "type2" if type_name.startswith("type2") else type_name
            for f in instance.types[type_name]:
                rates[f] = prediction.lex_max_min_rates[key]
        assert is_feasible(
            routing, Allocation(rates), instance.clos.graph.capacities()
        )

    def test_lemma_4_6_type3_on_middle_n(self):
        instance = theorem_4_3(3)
        routing = lemma_4_6_routing(instance)
        (type3,) = instance.types["type3"]
        assert routing.middle_of(instance.clos, type3) == MiddleSwitch(3)

    def test_lemma_4_6_type2_per_input_switch(self):
        """All type-2 flows leaving I_i ride M_i (Claim 4.5's structure)."""
        instance = theorem_4_3(3)
        routing = lemma_4_6_routing(instance)
        for f in instance.types["type2"]:
            assert routing.middle_of(instance.clos, f).index == f.source.switch


def _per_flow_figure_3(n, multiplicity):
    """Figure 3 built one ``FlowCollection.add`` per flow, with Lemma 4.6's
    Step 1 routing as a flow → middle map through ``Routing.from_middles``:
    the oracle for the bulk builders."""
    clos = ClosNetwork(n)
    flows = FlowCollection()
    type1 = [
        flows.add(Flow(clos.source(i, j), clos.destination(i, j), tag))
        for i in range(1, n + 1)
        for j in range(2, n + 1)
        for tag in range(multiplicity)
    ]
    type2a = [
        flows.add(Flow(clos.source(i, 1), clos.destination(i, 1)))
        for i in range(1, n + 1)
    ]
    type2b = [
        flows.add(Flow(clos.source(i, 1), clos.destination(n + 1, j)))
        for i in range(1, n + 1)
        for j in range(1, n)
    ]
    type3 = [flows.add(Flow(clos.source(n + 1, n), clos.destination(n + 1, n)))]
    types = {
        "type1": type1,
        "type2a": type2a,
        "type2b": type2b,
        "type2": type2a + type2b,
        "type3": type3,
    }
    middles = {}
    for flow in type1:
        i, j = flow.source.switch, flow.source.server
        middles[flow] = ((i + j - 2) % n) + 1
    for flow in type2a + type2b:
        middles[flow] = flow.source.switch
    middles[type3[0]] = n
    return flows, types, Routing.from_middles(clos, flows, middles)


class TestFigure3MatchesPerFlowOracle:
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize(
        "build, multiplicity",
        [(theorem_4_2, lambda n: 1), (theorem_4_3, lambda n: n + 1)],
        ids=["theorem_4_2", "theorem_4_3"],
    )
    def test_flows_types_and_routing(self, build, multiplicity, n):
        instance = build(n)
        flows, types, oracle = _per_flow_figure_3(n, multiplicity(n))
        assert list(instance.flows) == list(flows)
        assert [f.tag for f in instance.flows] == [f.tag for f in flows]
        assert instance.types == types
        routing = lemma_4_6_routing(instance)
        assert list(routing.items()) == list(oracle.items())
        assert routing.flows() == list(instance.flows)
        # One shared path per type-1 pair; every other flow is alone.
        assert len(routing.routes()) == 2 * n * n - n + 1

    def test_each_call_builds_fresh_objects(self):
        first, second = theorem_4_3(3), theorem_4_3(3)
        assert first.clos is not second.clos
        assert first.macro is not second.macro
        assert first.clos.graph is not second.clos.graph
        assert first.flows is not second.flows


class TestTheorem54:
    @pytest.mark.parametrize("n,k", [(3, 1), (7, 1), (9, 3)])
    def test_flow_counts(self, n, k):
        instance = theorem_5_4(n, k)
        assert len(instance.types["type1"]) == n - 1
        assert len(instance.types["type2"]) == k * (n - 1) // 2
        assert len(instance.flows) == (n - 1) + k * (n - 1) // 2

    def test_all_flows_same_switch_pair(self):
        instance = theorem_5_4(7, 2)
        assert all(f.source.switch == 1 for f in instance.flows)
        assert all(f.dest.switch == 1 for f in instance.flows)

    def test_type2_connects_adjacent_gadget_servers(self):
        instance = theorem_5_4(7, 1)
        for f in instance.types["type2"]:
            assert f.source.server % 2 == 0
            assert f.dest.server == f.source.server - 1

    def test_even_n_rejected(self):
        with pytest.raises(ValueError):
            theorem_5_4(6, 1)

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            theorem_5_4(7, 0)

    def test_example_5_3_is_n7_k1(self):
        instance = example_5_3()
        assert instance.clos.n == 7
        assert len(instance.types["type1"]) == 6
        assert len(instance.types["type2"]) == 3
