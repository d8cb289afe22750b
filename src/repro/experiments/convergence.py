"""Experiment E11 — from protocol to idealization: convergence dynamics.

The paper's model hands every routing a max-min fair allocation "for
free" (§2.2's congestion-control idealization).  This experiment closes
the gap to a mechanism: a distributed explicit-rate iteration
(Bertsekas–Gallager-style link fair shares) run on the paper's own
constructions converges to *exactly* the allocations the theorems talk
about, and quickly; an AIMD caricature converges only roughly.

Shape to expect:

- fair-share dynamics reach the oracle allocation (≤ 1e-9) within a
  handful of rounds — about one round per distinct bottleneck level;
- rounds grow slowly with network size on the Theorem 4.3 construction;
- AIMD's time-average rates track the max-min shares loosely (right
  ordering, sawtooth-deflated magnitudes).
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence

from repro.core.maxmin import max_min_fair
from repro.core.routing import Routing
from repro.core.topology import ClosNetwork
from repro.dynamics.waterlevel import AimdDynamics, LinkFairShareDynamics
from repro.workloads.adversarial import (
    example_2_3,
    example_2_3_routings,
    lemma_4_6_routing,
    theorem_4_3,
)
from repro.workloads.stochastic import uniform_random
from repro.routers.ecmp import ecmp_routing


class ConvergenceRow(NamedTuple):
    """One instance's convergence report."""

    instance: str
    num_flows: int
    rounds: int
    converged: bool
    max_error: float  # vs the centralized water-filling oracle
    distinct_levels: int  # number of distinct max-min rates


def _measure(name: str, routing: Routing, capacities) -> ConvergenceRow:
    oracle = max_min_fair(routing, capacities, exact=False)
    trace = LinkFairShareDynamics(routing, capacities).run(max_rounds=300)
    max_error = max(
        abs(trace.rates[f] - oracle.rate(f)) for f in routing.flows()
    )
    return ConvergenceRow(
        instance=name,
        num_flows=len(routing),
        rounds=trace.rounds,
        converged=trace.converged,
        max_error=max_error,
        distinct_levels=len(set(round(r, 9) for r in oracle.rates().values())),
    )


def paper_instances() -> List[ConvergenceRow]:
    """E11 part 1: the paper's worked constructions."""
    instance = example_2_3()
    routing_a, routing_b = example_2_3_routings(instance)
    clos_capacities = instance.clos.graph.capacities()
    rows = [
        _measure("example_2_3/routing_a", routing_a, clos_capacities),
        _measure("example_2_3/routing_b", routing_b, clos_capacities),
        _measure(
            "example_2_3/macro",
            Routing.for_macro_switch(instance.macro, instance.flows),
            instance.macro.graph.capacities(),
        ),
    ]
    for n in (3, 4, 5):
        inst = theorem_4_3(n)
        rows.append(
            _measure(
                f"theorem_4_3(n={n})",
                lemma_4_6_routing(inst),
                inst.clos.graph.capacities(),
            )
        )
    return rows


def _stochastic_point(n: int, num_flows: int, seed: int) -> ConvergenceRow:
    """One seeded ECMP workload measurement."""
    network = ClosNetwork(n)
    capacities = network.graph.capacities()
    flows = uniform_random(network, num_flows, seed=seed)
    routing = ecmp_routing(network, flows, seed=seed)
    return _measure(f"uniform/seed{seed}", routing, capacities)


def stochastic_instances(
    n: int = 3,
    num_flows: int = 30,
    seeds: Sequence[int] = range(4),
) -> List[ConvergenceRow]:
    """E11 part 2: random workloads under ECMP routing."""
    return [_stochastic_point(n, num_flows, seed) for seed in seeds]


class AimdRow(NamedTuple):
    """AIMD time-average vs the ideal share on a shared bottleneck."""

    num_flows: int
    ideal_share: float
    aimd_mean: float
    relative_gap: float


def aimd_gap(flow_counts: Sequence[int] = (2, 4, 8)) -> List[AimdRow]:
    """E11 part 3: how far TCP-shaped control sits from the idealization."""
    from repro.core.flows import FlowCollection

    rows: List[AimdRow] = []
    for count in flow_counts:
        network = ClosNetwork(max(1, (count + 1) // 2))
        flows = FlowCollection()
        members = flows.add_pair(
            network.sources[0], network.destinations[-1], count=count
        )
        routing = Routing.uniform(network, flows, 1)
        averages = AimdDynamics(routing, network.graph.capacities()).run(
            rounds=4000, warmup=1000
        )
        mean = sum(averages[f] for f in members) / count
        ideal = 1.0 / count
        rows.append(
            AimdRow(
                num_flows=count,
                ideal_share=ideal,
                aimd_mean=mean,
                relative_gap=abs(mean - ideal) / ideal,
            )
        )
    return rows
