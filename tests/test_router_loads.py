"""The demand-aware routers on integer link loads match the Fraction loops.

``local_search_congestion`` judges each candidate move from the four
links it changes, and ``greedy_least_congested``/``two_choice_routing``
read a shared table of scaled-integer loads.  The reference routers
below are the full-profile and ``Fraction``-dict loops those replaced,
kept verbatim as oracles: the fast routers must return the same
routings and, for the search, bump the same counters.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, Tuple

import pytest

from repro import obs
from repro.core.flows import Flow, FlowCollection
from repro.core.routing import Routing
from repro.core.topology import ClosNetwork
from repro.errors import InfeasibleRoutingError
from repro.routers.congestion_local_search import (
    _MOVES,
    _ROUNDS,
    _congestion_profile,
    local_search_congestion,
)
from repro.routers.greedy import greedy_least_congested, macro_switch_demands
from repro.routers.two_choice import two_choice_routing
from repro.workloads.adversarial import theorem_4_3
from repro.workloads.stochastic import hotspot, permutation, rack_local, uniform_random


# ----------------------------------------------------------------------
# Reference routers
# ----------------------------------------------------------------------
def reference_local_search(network, flows, initial=None, demands=None, max_rounds=100):
    """The full-profile search: rebuild the profile for every candidate.

    Returns ``(middles, rounds, moves)``.
    """
    if demands is None:
        demands = macro_switch_demands(network, flows)
    if initial is None:
        initial = Routing.uniform(network, flows, 1)
    rounds = moves = 0
    middles = dict(initial.middles(network))
    best_profile = _congestion_profile(network, middles, demands)
    for _ in range(max_rounds):
        rounds += 1
        improved = False
        for flow in list(middles):
            here = middles[flow]
            for m in range(1, network.num_middles + 1):
                if m == here:
                    continue
                middles[flow] = m
                profile = _congestion_profile(network, middles, demands)
                if profile < best_profile:
                    best_profile = profile
                    improved = True
                    moves += 1
                    break
                middles[flow] = here
            if improved:
                break
        if not improved:
            break
    return Routing.from_middles(network, flows, middles).middles(network), rounds, moves


def _fraction_tables(network):
    up: Dict[Tuple[int, int], Fraction] = {}
    down: Dict[Tuple[int, int], Fraction] = {}
    for i in range(1, 2 * network.n + 1):
        for m in range(1, network.num_middles + 1):
            up[(i, m)] = Fraction(0)
            down[(m, i)] = Fraction(0)
    return up, down


def reference_greedy(network, flows, demands):
    """First-fit-decreasing on ``Fraction`` up/down dicts."""
    up, down = _fraction_tables(network)
    order = sorted(flows, key=lambda f: (-demands[f], f.source, f.dest, f.tag))
    middles = {}
    for flow in order:
        demand = Fraction(demands[flow])
        i, o = flow.source.switch, flow.dest.switch
        best_m, best_congestion = 1, None
        for m in range(1, network.num_middles + 1):
            congestion = max(up[(i, m)], down[(m, o)])
            if best_congestion is None or congestion < best_congestion:
                best_m, best_congestion = m, congestion
        middles[flow] = best_m
        up[(i, best_m)] += demand
        down[(best_m, o)] += demand
    return Routing.from_middles(network, flows, middles).middles(network)


def reference_two_choice(network, flows, demands, choices=2, seed=0):
    """Sampled least-congested placement on ``Fraction`` up/down dicts."""
    rng = random.Random(seed)
    num_middles = network.num_middles
    up, down = _fraction_tables(network)
    middles = {}
    for flow in flows:
        demand = Fraction(demands[flow])
        i, o = flow.source.switch, flow.dest.switch
        candidates = rng.sample(range(1, num_middles + 1), min(choices, num_middles))
        best_m, best_congestion = None, None
        for m in candidates:
            congestion = max(up[(i, m)], down[(m, o)])
            if best_congestion is None or congestion < best_congestion:
                best_m, best_congestion = m, congestion
        middles[flow] = best_m
        up[(i, best_m)] += demand
        down[(best_m, o)] += demand
    return Routing.from_middles(network, flows, middles).middles(network)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _families(network, seed):
    n = network.n
    return {
        "uniform": uniform_random(network, 3 * n, seed=seed),
        "permutation": permutation(network, seed=seed),
        "hotspot": hotspot(network, 3 * n, seed=seed),
        "rack_local": rack_local(network, 3 * n, seed=seed),
    }


def _mixed_demands(flows):
    """Zeros, plain ints and Fractions: zero-load links still count."""
    values = [0, 1, Fraction(1, 3), 2, Fraction(3, 4), 0, Fraction(5, 6)]
    return {f: values[k % len(values)] for k, f in enumerate(flows)}


STOCHASTIC = [
    (n, family, seed)
    for n in (3, 4, 5)
    for family in ("uniform", "permutation", "hotspot", "rack_local")
    for seed in (0, 1)
]


@pytest.fixture
def counting():
    """Observability on, so the search's counters move."""
    obs.reset()
    obs.enable()
    yield
    obs.reset()
    obs.disable()


def _assert_search_matches(network, flows, **kwargs):
    expected = reference_local_search(network, flows, **kwargs)
    rounds, moves = _ROUNDS.value, _MOVES.value
    result = local_search_congestion(network, flows, **kwargs)
    assert result.flows() == list(flows)
    actual = (result.middles(network), _ROUNDS.value - rounds, _MOVES.value - moves)
    assert actual == expected


# ----------------------------------------------------------------------
# Local search equivalence
# ----------------------------------------------------------------------
class TestSearchMatchesFullProfile:
    @pytest.mark.parametrize("n,family,seed", STOCHASTIC)
    def test_greedy_start(self, counting, n, family, seed):
        network = ClosNetwork(n)
        flows = _families(network, seed)[family]
        demands = macro_switch_demands(network, flows)
        greedy = greedy_least_congested(network, flows, demands=demands)
        _assert_search_matches(network, flows, initial=greedy, demands=demands)

    @pytest.mark.parametrize("n,family", [(3, "uniform"), (3, "hotspot"), (4, "rack_local")])
    def test_default_initial_and_demands(self, counting, n, family):
        network = ClosNetwork(n)
        flows = _families(network, 0)[family]
        _assert_search_matches(network, flows)

    def test_theorem_4_3_flows(self, counting):
        instance = theorem_4_3(3)
        _assert_search_matches(instance.clos, instance.flows)
        greedy = greedy_least_congested(instance.clos, instance.flows)
        _assert_search_matches(instance.clos, instance.flows, initial=greedy)

    @pytest.mark.parametrize("max_rounds", [0, 1, 2, 5])
    def test_small_max_rounds(self, counting, max_rounds):
        network = ClosNetwork(3)
        flows = uniform_random(network, 12, seed=4)
        _assert_search_matches(network, flows, max_rounds=max_rounds)

    @pytest.mark.parametrize("n,seed", [(3, 0), (3, 1), (4, 2)])
    def test_zero_and_int_demands(self, counting, n, seed):
        network = ClosNetwork(n)
        for flows in _families(network, seed).values():
            demands = _mixed_demands(flows)
            _assert_search_matches(network, flows, demands=demands)
            greedy = greedy_least_congested(network, flows, demands=demands)
            _assert_search_matches(network, flows, initial=greedy, demands=demands)

    def test_zero_demand_flows_only(self, counting):
        """Every load is 0: only which links carry flows can change."""
        network = ClosNetwork(3)
        flows = uniform_random(network, 9, seed=5)
        _assert_search_matches(network, flows, demands={f: 0 for f in flows})


class TestPlacementRoutersMatchFractionTables:
    @pytest.mark.parametrize("n,family,seed", STOCHASTIC)
    def test_macro_demands(self, n, family, seed):
        network = ClosNetwork(n)
        flows = _families(network, seed)[family]
        demands = macro_switch_demands(network, flows)
        greedy = greedy_least_congested(network, flows, demands=demands)
        assert greedy.middles(network) == reference_greedy(network, flows, demands)
        for choices in (1, 2, network.num_middles):
            routing = two_choice_routing(
                network, flows, demands=demands, choices=choices, seed=seed
            )
            assert routing.middles(network) == reference_two_choice(
                network, flows, demands, choices=choices, seed=seed
            )

    @pytest.mark.parametrize("n,seed", [(3, 0), (4, 1), (5, 2)])
    def test_zero_and_int_demands(self, n, seed):
        network = ClosNetwork(n)
        for flows in _families(network, seed).values():
            demands = _mixed_demands(flows)
            greedy = greedy_least_congested(network, flows, demands=demands)
            assert greedy.middles(network) == reference_greedy(network, flows, demands)
            routing = two_choice_routing(network, flows, demands=demands, seed=seed)
            assert routing.middles(network) == reference_two_choice(
                network, flows, demands, seed=seed
            )

    def test_theorem_4_3_flows(self):
        instance = theorem_4_3(3)
        network, flows = instance.clos, instance.flows
        demands = macro_switch_demands(network, flows)
        greedy = greedy_least_congested(network, flows)
        assert greedy.middles(network) == reference_greedy(network, flows, demands)
        routing = two_choice_routing(network, flows, seed=3)
        assert routing.middles(network) == reference_two_choice(
            network, flows, demands, seed=3
        )


# ----------------------------------------------------------------------
# Input checks
# ----------------------------------------------------------------------
@pytest.fixture
def clos():
    return ClosNetwork(3)


@pytest.fixture
def flows(clos):
    return uniform_random(clos, 10, seed=0)


def _partial_demands(clos, flows):
    demands = macro_switch_demands(clos, flows)
    del demands[flows[3]]
    return demands


class TestUndemandedFlows:
    def test_greedy(self, clos, flows):
        with pytest.raises(InfeasibleRoutingError, match="no demand given"):
            greedy_least_congested(clos, flows, demands=_partial_demands(clos, flows))

    def test_two_choice(self, clos, flows):
        with pytest.raises(InfeasibleRoutingError, match="no demand given"):
            two_choice_routing(clos, flows, demands=_partial_demands(clos, flows))

    def test_local_search(self, clos, flows):
        with pytest.raises(InfeasibleRoutingError, match="no demand given"):
            local_search_congestion(clos, flows, demands=_partial_demands(clos, flows))


class TestInitialMustRouteExactlyTheFlows:
    def test_initial_routes_extra_flows(self, clos, flows):
        fewer = FlowCollection(flows.flows[:6])
        initial = Routing.uniform(clos, flows, 1)
        demands = macro_switch_demands(clos, flows)
        with pytest.raises(InfeasibleRoutingError, match="not in flows"):
            local_search_congestion(clos, fewer, initial=initial, demands=demands)

    def test_initial_misses_flows(self, clos, flows, counting):
        initial = Routing.uniform(clos, FlowCollection(flows.flows[:6]), 1)
        with pytest.raises(InfeasibleRoutingError, match="unrouted"):
            local_search_congestion(clos, flows, initial=initial)
        assert _ROUNDS.value == 0  # rejected before searching

    def test_foreign_flow(self, clos):
        big = ClosNetwork(4)
        foreign = FlowCollection([Flow(big.source(7, 1), big.destination(7, 1))])
        with pytest.raises(InfeasibleRoutingError):
            local_search_congestion(clos, foreign, demands={foreign[0]: 1})
