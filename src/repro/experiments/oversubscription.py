"""Experiment E15 — breaking the full-bisection premise.

Everything positive the paper says about Clos networks rides on *full
bisection bandwidth* (§1): demand satisfaction for splittable flows and
throughput preservation for matchings (Lemma 5.2).  Production fabrics
are routinely *oversubscribed* — interior links thinner than server
links.  This experiment sweeps the interior capacity ``c`` from 1 (the
paper's premise) downward and measures which guarantees survive:

- **Lemma 5.2's equality** ``T^{T-MT} = T^MT``: at ``c < 1`` a matched
  flow can no longer run at server-link rate through a single middle
  switch, so the Clos network's maximum throughput falls below the
  macro-switch's — the folklore lemma is *sharp* in its premise.
- **Splittable demand satisfaction**: macro-switch max-min rates stop
  being splittably routable once total per-ToR demand exceeds the
  shrunken uplink capacity.
- **Throughput and fairness under greedy routing**: graceful decay of
  throughput fraction and worst-flow ratio as oversubscription grows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Sequence

from repro.core.maxmin import max_min_fair
from repro.core.objectives import macro_switch_max_min
from repro.core.throughput import max_throughput_value
from repro.core.topology import ClosNetwork, MacroSwitch
from repro.lp.feasibility import splittable_feasible
from repro.lp.maxthroughput import max_throughput_lp
from repro.routers.greedy import greedy_least_congested
from repro.workloads.stochastic import permutation, uniform_random


class OversubscriptionRow(NamedTuple):
    """One interior-capacity level."""

    interior_capacity: Fraction
    oversubscription: Fraction  # n·1 / (n·c) = 1/c
    #: Lemma 5.2 check: best throughput achievable inside the Clos
    #: network for the greedy routing (LP upper bound) vs T^MT.
    t_mt_macro: int
    t_clos_lp: float
    lemma_5_2_equality: bool
    #: are the macro-switch max-min rates still splittably routable?
    splittable_ok: bool
    #: greedy routing + water-filling vs the macro-switch allocation
    throughput_fraction: float
    min_rate_ratio: float


def _sweep_point(
    n: int, capacity: Fraction, num_flows: int, seed: int
) -> OversubscriptionRow:
    """One interior-capacity level of E15.

    Rebuilds the reference network/workload from ``(n, num_flows, seed)``
    — deterministic, so every capacity level sees identical flows and
    macro rates.
    """
    macro_network = MacroSwitch(n)
    reference = ClosNetwork(n)
    flows = uniform_random(reference, num_flows, seed=seed)
    macro_alloc = macro_switch_max_min(macro_network, flows)
    t_mt = max_throughput_value(flows)

    network = ClosNetwork(n, interior_capacity=capacity)
    routing = greedy_least_congested(network, flows)
    graph_capacities = network.graph.capacities()

    # LP max throughput for the greedy routing inside this fabric —
    # an achievable value; with c = 1 and a matching-aware routing it
    # reaches T^MT (Lemma 5.2), below 1 it cannot.
    from repro.core.throughput import throughput_max_throughput

    try:
        disjoint_routing, _ = throughput_max_throughput(reference, flows)
        # re-cost the link-disjoint routing in the degraded fabric
        t_clos, _ = max_throughput_lp(disjoint_routing, graph_capacities)
    except Exception:  # pragma: no cover - degree > n instances
        t_clos, _ = max_throughput_lp(routing, graph_capacities)

    alloc = max_min_fair(routing, graph_capacities)
    ratios = [
        float(alloc.rate(f) / macro_alloc.rate(f))
        for f in flows
        if macro_alloc.rate(f) > 0
    ]
    return OversubscriptionRow(
        interior_capacity=capacity,
        oversubscription=Fraction(1, 1) / capacity,
        t_mt_macro=t_mt,
        t_clos_lp=t_clos,
        lemma_5_2_equality=abs(t_clos - t_mt) < 1e-9,
        splittable_ok=splittable_feasible(
            network, flows, macro_alloc.rates()
        ),
        throughput_fraction=float(
            alloc.throughput() / macro_alloc.throughput()
        ),
        min_rate_ratio=min(ratios),
    )


def sweep(
    n: int = 3,
    capacities: Sequence[Fraction] = (
        Fraction(1),
        Fraction(3, 4),
        Fraction(1, 2),
        Fraction(1, 4),
    ),
    num_flows: int = 24,
    seed: int = 0,
) -> List[OversubscriptionRow]:
    """The E15 sweep on a uniform-random workload."""
    return [
        _sweep_point(n, capacity, num_flows, seed) for capacity in capacities
    ]


class PermutationRow(NamedTuple):
    """Permutation traffic: the cleanest oversubscription victim."""

    interior_capacity: Fraction
    per_flow_rate: Fraction  # uniform max-min rate under greedy
    expected: Fraction  # min(c, 1): uplinks cap each server's flow


def _permutation_point(
    n: int, capacity: Fraction, seed: int
) -> PermutationRow:
    """One capacity level of the permutation sweep."""
    reference = ClosNetwork(n)
    flows = permutation(reference, seed=seed)
    network = ClosNetwork(n, interior_capacity=capacity)
    from repro.core.throughput import link_disjoint_routing

    routing = link_disjoint_routing(network, flows)
    alloc = max_min_fair(routing, network.graph.capacities())
    rates = set(alloc.rates().values())
    assert len(rates) == 1, rates
    return PermutationRow(
        interior_capacity=capacity,
        per_flow_rate=rates.pop(),
        expected=min(capacity, Fraction(1)),
    )


def permutation_sweep(
    n: int = 3,
    capacities: Sequence[Fraction] = (
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 4),
    ),
    seed: int = 0,
) -> List[PermutationRow]:
    """Permutation traffic under oversubscription has a closed form:
    a perfect matching of unit demands gets exactly ``min(c, 1)`` per
    flow when routed link-disjointly (each flow alone on its uplink)."""
    return [_permutation_point(n, capacity, seed) for capacity in capacities]
