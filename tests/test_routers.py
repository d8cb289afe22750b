"""Tests for the data-center routing algorithms (§6)."""

from fractions import Fraction

import pytest

from repro.core.maxmin import max_min_fair
from repro.experiments.ecmp_simulation import _routers
from repro.core.objectives import macro_switch_max_min
from repro.core.routing import Routing
from repro.core.topology import ClosNetwork, MacroSwitch
from repro.routers.congestion_local_search import (
    local_search_congestion,
    max_congestion,
)
from repro.routers.ecmp import ecmp_routing, random_routing
from repro.routers.greedy import greedy_least_congested, macro_switch_demands
from repro.workloads.stochastic import hotspot, permutation, uniform_random

from tests.helpers import random_flows


@pytest.fixture
def clos():
    return ClosNetwork(3)


class TestECMP:
    def test_routes_every_flow(self, clos):
        flows = uniform_random(clos, 20, seed=0)
        routing = ecmp_routing(clos, flows)
        assert len(routing) == 20
        routing.validate(clos.graph)

    def test_deterministic_given_seed(self, clos):
        flows = uniform_random(clos, 20, seed=0)
        a = ecmp_routing(clos, flows, seed=7).middles(clos)
        b = ecmp_routing(clos, flows, seed=7).middles(clos)
        assert a == b

    def test_seed_changes_hashes(self, clos):
        flows = uniform_random(clos, 30, seed=0)
        a = ecmp_routing(clos, flows, seed=1).middles(clos)
        b = ecmp_routing(clos, flows, seed=2).middles(clos)
        assert a != b

    def test_order_independence(self, clos):
        """ECMP hashes flow identity, so presentation order is irrelevant."""
        from repro.core.flows import FlowCollection

        flows = uniform_random(clos, 10, seed=3)
        reversed_flows = FlowCollection(reversed(flows.flows))
        a = ecmp_routing(clos, flows, seed=0).middles(clos)
        b = ecmp_routing(clos, reversed_flows, seed=0).middles(clos)
        assert a == b

    def test_spreads_over_middles(self, clos):
        flows = uniform_random(clos, 120, seed=0)
        middles = ecmp_routing(clos, flows).middles(clos)
        used = set(middles.values())
        assert used == {1, 2, 3}

    def test_random_routing_valid(self, clos):
        flows = uniform_random(clos, 15, seed=1)
        routing = random_routing(clos, flows, seed=1)
        routing.validate(clos.graph)


class TestGreedy:
    def test_routes_every_flow(self, clos):
        flows = uniform_random(clos, 20, seed=0)
        routing = greedy_least_congested(clos, flows)
        assert len(routing) == 20
        routing.validate(clos.graph)

    def test_deterministic(self, clos):
        flows = uniform_random(clos, 20, seed=0)
        a = greedy_least_congested(clos, flows).middles(clos)
        b = greedy_least_congested(clos, flows).middles(clos)
        assert a == b

    def test_permutation_traffic_perfectly_spread(self, clos):
        """On permutation traffic greedy must find a congestion-1 routing
        is not guaranteed, but it must keep per-link demand ≤ 1 achievable
        ... we check it at least achieves macro rates for every flow."""
        flows = permutation(clos, seed=0)
        routing = greedy_least_congested(clos, flows)
        alloc = max_min_fair(routing, clos.graph.capacities())
        macro = macro_switch_max_min(MacroSwitch(clos.n), flows)
        for f in flows:
            assert alloc.rate(f) == macro.rate(f)

    def test_demands_default_to_macro_rates(self, clos):
        flows = uniform_random(clos, 12, seed=2)
        demands = macro_switch_demands(clos, flows)
        macro = macro_switch_max_min(MacroSwitch(clos.n), flows)
        assert demands == macro.rates()

    def test_beats_worst_case_single_switch(self, clos):
        flows = uniform_random(clos, 30, seed=3)
        demands = macro_switch_demands(clos, flows)
        greedy = greedy_least_congested(clos, flows, demands=demands)
        uniform = Routing.uniform(clos, flows, 1)
        assert max_congestion(clos, greedy, demands) <= max_congestion(
            clos, uniform, demands
        )


class TestCongestionLocalSearch:
    def test_improves_or_matches_start(self, clos):
        flows = uniform_random(clos, 25, seed=0)
        demands = macro_switch_demands(clos, flows)
        start = Routing.uniform(clos, flows, 1)
        result = local_search_congestion(clos, flows, initial=start, demands=demands)
        assert max_congestion(clos, result, demands) <= max_congestion(
            clos, start, demands
        )

    def test_greedy_warm_start(self, clos):
        flows = uniform_random(clos, 25, seed=1)
        demands = macro_switch_demands(clos, flows)
        greedy = greedy_least_congested(clos, flows, demands=demands)
        result = local_search_congestion(
            clos, flows, initial=greedy, demands=demands
        )
        assert max_congestion(clos, result, demands) <= max_congestion(
            clos, greedy, demands
        )

    def test_default_initial_is_single_switch(self, clos):
        flows = uniform_random(clos, 6, seed=2)
        result = local_search_congestion(clos, flows, max_rounds=0)
        assert result.middles(clos) == {f: 1 for f in flows}

    def test_max_congestion_empty(self, clos):
        from repro.core.flows import FlowCollection

        routing = Routing({})
        assert max_congestion(clos, routing, {}) == 0


class TestRouterComparison:
    def test_congestion_aware_beats_ecmp_on_average(self, clos):
        """The §6 claim, statistically: greedy ≤ ECMP max congestion."""
        wins = ties = losses = 0
        for seed in range(6):
            flows = uniform_random(clos, 30, seed=seed)
            demands = macro_switch_demands(clos, flows)
            g = max_congestion(
                clos, greedy_least_congested(clos, flows, demands=demands), demands
            )
            e = max_congestion(clos, ecmp_routing(clos, flows, seed=seed), demands)
            if g < e:
                wins += 1
            elif g == e:
                ties += 1
            else:
                losses += 1
        assert wins + ties > losses

    def test_greedy_approaches_macro_rates_stochastically(self, clos):
        """§6: congestion-aware routing approximates macro-switch rates
        well on stochastic inputs (mean per-flow ratio near 1)."""
        flows = uniform_random(clos, 30, seed=4)
        routing = greedy_least_congested(clos, flows)
        alloc = max_min_fair(routing, clos.graph.capacities())
        macro = macro_switch_max_min(MacroSwitch(clos.n), flows)
        ratios = [
            float(alloc.rate(f) / macro.rate(f))
            for f in flows
            if macro.rate(f) > 0
        ]
        assert sum(ratios) / len(ratios) > 0.9


class TestCongestionLowerBound:
    """Known answers for E6's routers: no routing beats the trivial bound.

    A flow's whole demand crosses one uplink and one downlink, and a
    ToR's total load spreads over at most its ``n`` uplinks (or
    downlinks), so every routing's max congestion is at least
    ``max(largest demand, max ToR load / n)``.
    """

    @staticmethod
    def _lower_bound(network, demands):
        up, down = {}, {}
        for flow, demand in demands.items():
            up[flow.source.switch] = up.get(flow.source.switch, 0) + demand
            down[flow.dest.switch] = down.get(flow.dest.switch, 0) + demand
        tor_load = max(list(up.values()) + list(down.values()))
        return max(max(demands.values()), tor_load / network.num_middles)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("seed", range(5))
    def test_every_router_respects_the_bound(self, n, seed):
        network = ClosNetwork(n)
        families = [permutation(network, seed=seed)] + [
            family(network, num_flows, seed=seed)
            for family in (uniform_random, hotspot)
            for num_flows in (30, 40)
        ]
        for flows in families:
            demands = macro_switch_demands(network, flows)
            bound = self._lower_bound(network, demands)
            assert isinstance(bound, Fraction)
            routers = _routers(network, flows, seed)
            assert sorted(routers) == [
                "ecmp", "greedy", "local_search", "two_choice"
            ]
            for name, routing in routers.items():
                congestion = max_congestion(network, routing, demands)
                assert congestion >= bound, (name, congestion, bound)
