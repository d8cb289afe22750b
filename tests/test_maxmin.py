"""Tests for the water-filling max-min fair allocator (Definition 2.1).

Correctness is checked four independent ways:

1. hand-derived allocations on small instances (incl. the paper's);
2. the bottleneck property (Lemma 2.2) on every output — a complete
   certificate of max-min fairness;
3. lexicographic dominance over randomly generated feasible allocations;
4. agreement with the LP-based progressive-filling solver.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.allocation import (
    Allocation,
    distinct_objects,
    is_feasible,
    lex_compare,
)
from repro.core.bottleneck import certify_max_min_fair, is_max_min_fair
from repro.core.flows import Flow, FlowCollection
from repro.core.maxmin import UnboundedRateError, max_min_fair
from repro.core.quotient import build_quotient
from repro.core.routing import Routing
from repro.core.topology import ClosNetwork, MacroSwitch
from repro.errors import CapacityValidationError
from repro.graph.digraph import DiGraph

from tests.helpers import random_flows, random_routing


class TestSmallCases:
    def test_empty(self):
        routing = Routing({})
        assert max_min_fair(routing, {}).flows() == []

    def test_single_flow_gets_capacity(self):
        clos = ClosNetwork(1)
        f = Flow(clos.source(1, 1), clos.destination(2, 1))
        routing = Routing.uniform(clos, FlowCollection([f]), 1)
        alloc = max_min_fair(routing, clos.graph.capacities())
        assert alloc.rate(f) == 1

    def test_equal_split_on_shared_link(self):
        clos = ClosNetwork(1)
        flows = FlowCollection()
        pair = flows.add_pair(clos.source(1, 1), clos.destination(2, 1), count=3)
        routing = Routing.uniform(clos, flows, 1)
        alloc = max_min_fair(routing, clos.graph.capacities())
        for f in pair:
            assert alloc.rate(f) == Fraction(1, 3)

    def test_two_level_waterfill(self):
        # Figure 2 shape: s2 sends two flows, one shares t1 with s1's flow.
        ms = MacroSwitch(1)
        flows = FlowCollection()
        f_a = flows.add(Flow(ms.source(1, 1), ms.destination(1, 1)))
        f_b = flows.add(Flow(ms.source(2, 1), ms.destination(2, 1)))
        f_c = flows.add(Flow(ms.source(2, 1), ms.destination(1, 1)))
        routing = Routing.for_macro_switch(ms, flows)
        alloc = max_min_fair(routing, ms.graph.capacities())
        assert alloc.rate(f_c) == Fraction(1, 2)
        assert alloc.rate(f_a) == Fraction(1, 2)
        assert alloc.rate(f_b) == Fraction(1, 2)

    def test_asymmetric_levels(self):
        # Three flows leave s1; one of them alone enters t2 — after the
        # source saturates at 1/3 nobody can rise further on this topology
        # except flows not sharing the source.
        ms = MacroSwitch(2)
        flows = FlowCollection()
        shared = flows.add_pair(ms.source(1, 1), ms.destination(1, 1), count=3)
        lone = flows.add(Flow(ms.source(2, 1), ms.destination(2, 1)))
        routing = Routing.for_macro_switch(ms, flows)
        alloc = max_min_fair(routing, ms.graph.capacities())
        for f in shared:
            assert alloc.rate(f) == Fraction(1, 3)
        assert alloc.rate(lone) == 1

    def test_interior_bottleneck_in_clos(self):
        # Two flows from different sources forced through one middle link.
        clos = ClosNetwork(2)
        flows = FlowCollection()
        f1 = flows.add(Flow(clos.source(1, 1), clos.destination(3, 1)))
        f2 = flows.add(Flow(clos.source(1, 2), clos.destination(3, 2)))
        routing = Routing.uniform(clos, flows, 1)  # both on M_1
        alloc = max_min_fair(routing, clos.graph.capacities())
        assert alloc.rate(f1) == Fraction(1, 2)
        assert alloc.rate(f2) == Fraction(1, 2)
        # Moving one flow to M_2 frees both.
        moved = routing.reassigned(clos, f2, 2)
        alloc2 = max_min_fair(moved, clos.graph.capacities())
        assert alloc2.rate(f1) == 1
        assert alloc2.rate(f2) == 1

    def test_unbounded_flow_raises(self):
        graph = DiGraph()
        graph.add_link("a", "b", capacity=float("inf"))
        ms = MacroSwitch(1)
        f = Flow(ms.source(1, 1), ms.destination(1, 1))
        routing = Routing({f: ("a", "b")})
        with pytest.raises(UnboundedRateError):
            max_min_fair(routing, graph.capacities())


class TestNumericModes:
    def test_exact_mode_returns_fractions(self):
        clos = ClosNetwork(1)
        flows = FlowCollection()
        flows.add_pair(clos.source(1, 1), clos.destination(2, 1), count=3)
        routing = Routing.uniform(clos, flows, 1)
        alloc = max_min_fair(routing, clos.graph.capacities(), exact=True)
        assert all(isinstance(r, Fraction) for r in alloc.rates().values())

    def test_float_mode_returns_floats(self):
        clos = ClosNetwork(1)
        flows = FlowCollection()
        flows.add_pair(clos.source(1, 1), clos.destination(2, 1), count=3)
        routing = Routing.uniform(clos, flows, 1)
        alloc = max_min_fair(routing, clos.graph.capacities(), exact=False)
        assert all(isinstance(r, float) for r in alloc.rates().values())

    def test_float_mode_failed_link_freezes_flows_at_zero(self):
        from repro.core.nodes import InputSwitch, MiddleSwitch
        from repro.failures import fail_links

        clos = ClosNetwork(2)
        f1 = Flow(clos.source(1, 1), clos.destination(3, 1))
        f2 = Flow(clos.source(2, 1), clos.destination(4, 1))
        routing = Routing.from_middles(
            clos, FlowCollection([f1, f2]), {f1: 1, f2: 2}
        )
        degraded = fail_links(
            clos.graph.capacities(), [(InputSwitch(1), MiddleSwitch(1))]
        )
        alloc = max_min_fair(routing, degraded, exact=False)
        assert alloc.rates() == {f1: 0.0, f2: 1.0}

    def test_float_mode_fractional_capacities(self):
        clos = ClosNetwork(2, interior_capacity=Fraction(1, 2))
        f1 = Flow(clos.source(1, 1), clos.destination(3, 1))
        routing = Routing.uniform(clos, FlowCollection([f1]), 1)
        alloc = max_min_fair(routing, clos.graph.capacities(), exact=False)
        assert alloc.rates() == {f1: 0.5}

    @pytest.mark.parametrize("scale", [Fraction(10**400), Fraction(1, 10**400)])
    def test_exact_levels_beyond_float_range(self, scale):
        # The exact heap keys levels by their float value, which is ∞ or
        # 0.0 here: every comparison must still be decided exactly.
        from repro.workloads.adversarial import lemma_4_6_routing, theorem_4_3

        instance = theorem_4_3(3)
        routing = lemma_4_6_routing(instance)
        capacities = instance.clos.graph.capacities()
        scaled = {link: scale * value for link, value in capacities.items()}
        unit = max_min_fair(routing, capacities)
        alloc = max_min_fair(routing, scaled)
        assert alloc.rates() == {f: scale * r for f, r in unit.items()}

    @pytest.mark.parametrize("seed", range(5))
    def test_modes_agree(self, seed):
        clos = ClosNetwork(2)
        flows = random_flows(clos, 10, seed)
        routing = random_routing(clos, flows, seed)
        exact = max_min_fair(routing, clos.graph.capacities(), exact=True)
        approx = max_min_fair(routing, clos.graph.capacities(), exact=False)
        for f in flows:
            assert abs(float(exact.rate(f)) - approx.rate(f)) < 1e-9


class TestInvariants:
    @pytest.mark.parametrize("seed", range(10))
    def test_feasible_and_bottlenecked(self, seed):
        clos = ClosNetwork(3)
        flows = random_flows(clos, 15, seed)
        routing = random_routing(clos, flows, seed)
        capacities = clos.graph.capacities()
        alloc = max_min_fair(routing, capacities)
        assert is_feasible(routing, alloc, capacities)
        assert certify_max_min_fair(routing, alloc, capacities) is None

    @pytest.mark.parametrize("seed", range(10))
    def test_macro_switch_feasible_and_bottlenecked(self, seed):
        clos = ClosNetwork(3)
        ms = MacroSwitch(3)
        flows = random_flows(clos, 15, seed)
        routing = Routing.for_macro_switch(ms, flows)
        capacities = ms.graph.capacities()
        alloc = max_min_fair(routing, capacities)
        assert is_feasible(routing, alloc, capacities)
        assert certify_max_min_fair(routing, alloc, capacities) is None

    @pytest.mark.parametrize("seed", range(8))
    def test_lex_dominates_random_feasible_allocations(self, seed):
        """No feasible allocation lex-exceeds the water-filling output."""
        clos = ClosNetwork(2)
        flows = random_flows(clos, 8, seed)
        routing = random_routing(clos, flows, seed)
        capacities = clos.graph.capacities()
        optimal = max_min_fair(routing, capacities)
        rng = random.Random(seed)
        for _ in range(30):
            # random feasible allocation: scale random rates down until
            # every finite link satisfies its capacity
            raw = {f: Fraction(rng.randint(0, 100), 100) for f in flows}
            loads = {}
            for f in flows:
                for link in routing.links_of(f):
                    loads[link] = loads.get(link, Fraction(0)) + raw[f]
            overload = max(
                (
                    loads[link] / capacities[link]
                    for link in loads
                    if capacities[link] != float("inf")
                ),
                default=Fraction(0),
            )
            if overload > 1:
                raw = {f: r / overload for f, r in raw.items()}
            candidate = Allocation(raw)
            assert is_feasible(routing, candidate, capacities)
            assert (
                lex_compare(
                    optimal.sorted_vector(), candidate.sorted_vector()
                )
                >= 0
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_single_rate_increase_infeasible_or_hurts_smaller(self, seed):
        """Raising any flow's rate breaks feasibility unless another flow
        with no greater rate is cut — the definitional max-min property."""
        clos = ClosNetwork(2)
        flows = random_flows(clos, 8, seed)
        routing = random_routing(clos, flows, seed)
        capacities = clos.graph.capacities()
        alloc = max_min_fair(routing, capacities)
        bump = Fraction(1, 1000)
        for f in flows:
            raised = dict(alloc.rates())
            raised[f] = raised[f] + bump
            # keeping everyone else fixed must violate some capacity,
            # because f has a saturated bottleneck link
            assert not is_feasible(routing, Allocation(raised), capacities)


class TestCapacityValidation:
    """NaN passes ``capacity < 0`` as well as ``capacity >= 0`` fails:
    a NaN capacity must be rejected, not water-filled."""

    SOLVERS = {
        "exact": lambda routing, caps: max_min_fair(routing, caps, exact=True),
        "float": lambda routing, caps: max_min_fair(routing, caps, exact=False),
        "quotient": build_quotient,
    }

    @staticmethod
    def _instance():
        ms = MacroSwitch(1)
        flows = FlowCollection.from_pairs(
            [(ms.source(1, 1), ms.destination(1, 1)),
             (ms.source(2, 1), ms.destination(1, 1))]
        )
        routing = Routing.for_macro_switch(ms, flows)
        return ms, flows, routing, ms.graph.capacities()

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_nan_source_link_rejected(self, solver):
        _, flows, routing, capacities = self._instance()
        uplink = routing.links_of(flows[0])[0]
        capacities[uplink] = float("nan")
        with pytest.raises(CapacityValidationError) as info:
            self.SOLVERS[solver](routing, capacities)
        assert repr(uplink) in str(info.value)

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_every_offending_link_listed(self, solver):
        # One NaN object on both source links plus a negative
        # destination link: each of the three is named.
        _, flows, routing, capacities = self._instance()
        nan = float("nan")
        offending = [routing.links_of(flow)[0] for flow in flows]
        for link in offending:
            capacities[link] = nan
        downlink = routing.links_of(flows[0])[-1]
        capacities[downlink] = -1
        offending.append(downlink)
        with pytest.raises(CapacityValidationError) as info:
            self.SOLVERS[solver](routing, capacities)
        for link in offending:
            assert repr(link) in str(info.value)


class TestRateObjects:
    """Exact solves hand one rate object to every flow frozen at the
    same level, and build one per level: the per-object scoring of
    ``Allocation`` and ``compare_to_macro`` relies on it."""

    @pytest.mark.parametrize("seed", range(8))
    def test_one_rate_object_per_round(self, seed):
        rng = random.Random(seed)
        clos = ClosNetwork(2 + seed % 3)
        flows = random_flows(clos, 10 + 5 * seed, seed)
        routing = random_routing(clos, flows, seed)
        capacities = clos.graph.capacities()
        if seed % 2:
            capacities = {
                link: Fraction(rng.randint(1, 6), rng.randint(1, 4))
                for link in capacities
            }
        obs.reset()
        obs.enable()
        try:
            alloc = max_min_fair(routing, capacities)
            rounds = obs.metrics_snapshot()["maxmin.rounds"]
        finally:
            obs.reset()
            obs.disable()
        rates = alloc.rates().values()
        assert len(distinct_objects(rates)) == rounds
        assert len(set(rates)) == rounds


class TestAgainstLP:
    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_progressive_filling_lp(self, seed):
        from repro.lp.progressive_filling import max_min_fair_lp

        clos = ClosNetwork(2)
        flows = random_flows(clos, 6, seed)
        routing = random_routing(clos, flows, seed)
        capacities = clos.graph.capacities()
        exact = max_min_fair(routing, capacities)
        lp = max_min_fair_lp(routing, capacities)
        for f in flows:
            assert abs(float(exact.rate(f)) - lp.rate(f)) < 1e-6


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_hypothesis_waterfill_certificate(data):
    """Any routing of any flow collection yields a certified max-min
    allocation (Lemma 2.2 iff-direction exercised end-to-end)."""
    n = data.draw(st.integers(1, 3), label="n")
    clos = ClosNetwork(n)
    num_flows = data.draw(st.integers(1, 10), label="num_flows")
    flows = FlowCollection()
    for _ in range(num_flows):
        i = data.draw(st.integers(1, 2 * n))
        j = data.draw(st.integers(1, n))
        oi = data.draw(st.integers(1, 2 * n))
        oj = data.draw(st.integers(1, n))
        flows.add_pair(clos.source(i, j), clos.destination(oi, oj))
    middles = {
        f: data.draw(st.integers(1, n), label="middle") for f in flows
    }
    routing = Routing.from_middles(clos, flows, middles)
    capacities = clos.graph.capacities()
    alloc = max_min_fair(routing, capacities)
    assert is_max_min_fair(routing, alloc, capacities)
