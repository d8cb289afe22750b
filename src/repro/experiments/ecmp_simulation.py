"""Experiment E6 — the §6 simulation study: routers vs the macro-switch.

The paper's §6 summarizes the extended version's evaluation: on
*stochastic inputs*, algorithms that "first calculate the macro-switch
rates, and then borrow these rates to assign flows based on path
congestion, can approximate well the macro-switch rates", while on
*worst-case inputs* some flows' rates fall arbitrarily below their
macro-switch rates.  This harness reproduces both halves:

- :func:`stochastic_comparison` runs ECMP, greedy least-congested, and
  congestion local search over several workload families and reports
  how each router's max-min fair allocation compares against the
  macro-switch allocation (min/mean rate ratio, throughput fraction,
  lexicographic gap).
- :func:`adversarial_comparison` runs the same routers on the Theorem
  4.3 construction, where even the *optimal* routing starves a flow by
  ``1/n`` — stochastic success does not contradict the impossibility.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

from repro.analysis.metrics import compare_to_macro, summarize_rates
from repro.core.allocation import Allocation, lex_compare
from repro.core.flows import Flow, FlowCollection
from repro.core.maxmin import max_min_fair
from repro.core.objectives import macro_switch_max_min
from repro.core.routing import Routing
from repro.core.topology import ClosNetwork, MacroSwitch
from repro.routers.congestion_local_search import local_search_congestion
from repro.routers.ecmp import ecmp_routing
from repro.routers.greedy import greedy_least_congested
from repro.routers.two_choice import two_choice_routing
from repro.workloads.adversarial import theorem_4_3
from repro.workloads.stochastic import hotspot, permutation, rack_local, uniform_random


class RouterComparisonRow(NamedTuple):
    """One (workload, router) cell of the E6 table."""

    workload: str
    router: str
    seed: int
    num_flows: int
    throughput_fraction: Fraction  # router throughput / macro throughput
    min_rate_ratio: Fraction  # worst flow vs its macro rate
    mean_rate_ratio: float
    lex_at_most_macro: bool  # router's sorted vector ≤ macro's (must hold)


def _routers(
    network: ClosNetwork,
    flows: FlowCollection,
    seed: int,
    demands: Mapping[Flow, Fraction],
) -> Dict[str, Routing]:
    """The four routers' routings; ``demands`` are the macro-switch rates
    the caller has already solved for ``flows``."""
    greedy = greedy_least_congested(network, flows, demands=demands)
    return {
        "ecmp": ecmp_routing(network, flows, seed=seed),
        "two_choice": two_choice_routing(network, flows, demands=demands, seed=seed),
        "greedy": greedy,
        "local_search": local_search_congestion(
            network, flows, initial=greedy, demands=demands
        ),
    }


def _score(
    name: str,
    router: str,
    seed: int,
    macro_alloc: Allocation,
    routing: Routing,
    alloc: Allocation,
    lex_tol: float,
) -> RouterComparisonRow:
    """Score a solved allocation against the macro-switch allocation."""
    comparison = compare_to_macro(alloc, macro_alloc)
    mean_ratio = sum(float(v) for v in comparison.ratios.values()) / len(
        comparison.ratios
    )
    return RouterComparisonRow(
        workload=name,
        router=router,
        seed=seed,
        num_flows=len(routing),
        throughput_fraction=alloc.throughput() / macro_alloc.throughput(),
        min_rate_ratio=comparison.min_ratio,
        mean_rate_ratio=mean_ratio,
        lex_at_most_macro=(
            lex_compare(
                alloc.sorted_vector(), macro_alloc.sorted_vector(), tol=lex_tol
            )
            <= 0
        ),
    )


def _compare(
    name: str,
    router: str,
    seed: int,
    network: ClosNetwork,
    macro_alloc: Allocation,
    routing: Routing,
    backend: str = None,
) -> RouterComparisonRow:
    """Solve the routing's allocation and score it against the macro.

    ``backend`` optionally selects a solver from
    :data:`repro.core.solve.BACKENDS`.  Float backends (``vectorized``,
    ``streaming``) compare against the exact macro allocation with a
    1e-9 lexicographic tolerance; exact backends compare exactly.
    """
    if backend is not None:
        from repro.core.solve import solve_max_min, EXACT_BACKENDS

        alloc = solve_max_min(
            routing, network.graph.capacities(), backend=backend
        )
        lex_tol = 0.0 if backend in EXACT_BACKENDS else 1e-9
    else:
        alloc = max_min_fair(routing, network.graph.capacities())
        lex_tol = 0.0
    return _score(name, router, seed, macro_alloc, routing, alloc, lex_tol)


def _batch_compare(
    cells: List[Tuple[str, str, int, Routing]],
    capacities,
    macro_allocs: Dict[Tuple[str, int], Allocation],
) -> List[RouterComparisonRow]:
    """Solve every (workload, router) cell's allocation in one batch.

    All candidate routings share the same Clos capacities, so the whole
    comparison table becomes one block-diagonal float batch — one
    solver invocation instead of |workloads|·|routers| — scored against
    the exact macro allocations with the float backends' 1e-9
    lexicographic tolerance.
    """
    from repro.core.batched import solve_max_min_batch

    allocations = solve_max_min_batch(
        [(routing, capacities) for _, _, _, routing in cells]
    )
    return [
        _score(
            name, router, seed, macro_allocs[(name, seed)], routing, alloc,
            lex_tol=1e-9,
        )
        for (name, router, seed, routing), alloc in zip(cells, allocations)
    ]


def stochastic_comparison(
    n: int = 3,
    num_flows: int = 30,
    seeds: Sequence[int] = range(3),
    backend: str = None,
) -> List[RouterComparisonRow]:
    """E6, stochastic half: three routers across three workload families.

    ``backend="vectorized"`` (or ``"streaming"``) solves the per-router
    allocations in floats, the right trade for large ``num_flows``; the
    macro-switch reference allocation stays exact either way.
    ``backend="batched"`` solves *all* (workload, router, seed) cells'
    allocations in one block-diagonal float batch — one solver
    invocation for the whole table.
    """
    network = ClosNetwork(n)
    macro_network = MacroSwitch(n)
    rows: List[RouterComparisonRow] = []
    cells: List[Tuple[str, str, int, Routing]] = []
    macro_allocs: Dict[Tuple[str, int], Allocation] = {}
    for seed in seeds:
        workloads: Dict[str, FlowCollection] = {
            "uniform": uniform_random(network, num_flows, seed=seed),
            "permutation": permutation(network, seed=seed),
            "hotspot": hotspot(network, num_flows, seed=seed),
        }
        for name, flows in workloads.items():
            macro_alloc = macro_switch_max_min(macro_network, flows)
            routers = _routers(network, flows, seed, macro_alloc.rates())
            if backend == "batched":
                macro_allocs[(name, seed)] = macro_alloc
                for router, routing in routers.items():
                    cells.append((name, router, seed, routing))
                continue
            for router, routing in routers.items():
                rows.append(
                    _compare(
                        name, router, seed, network, macro_alloc, routing,
                        backend=backend,
                    )
                )
    if backend == "batched":
        return _batch_compare(cells, network.graph.capacities(), macro_allocs)
    return rows


def adversarial_comparison(
    n: int = 3, backend: str = None
) -> List[RouterComparisonRow]:
    """E6, worst-case half: the same routers on the Theorem 4.3 flows."""
    instance = theorem_4_3(n)
    macro_alloc = macro_switch_max_min(instance.macro, instance.flows)
    routers = _routers(
        instance.clos, instance.flows, seed=0, demands=macro_alloc.rates()
    )
    if backend == "batched":
        cells = [
            ("theorem_4_3", router, 0, routing)
            for router, routing in routers.items()
        ]
        return _batch_compare(
            cells,
            instance.clos.graph.capacities(),
            {("theorem_4_3", 0): macro_alloc},
        )
    rows: List[RouterComparisonRow] = []
    for router, routing in routers.items():
        rows.append(
            _compare(
                "theorem_4_3", router, 0, instance.clos, macro_alloc, routing,
                backend=backend,
            )
        )
    return rows


def allocation_summaries(
    n: int = 3, num_flows: int = 30, seed: int = 0, backend: str = None
) -> Dict[str, Dict[str, float]]:
    """Scalar summaries (throughput/min/median/max/Jain) per router, one workload."""
    network = ClosNetwork(n)
    macro_network = MacroSwitch(n)
    flows = uniform_random(network, num_flows, seed=seed)
    macro_alloc = macro_switch_max_min(macro_network, flows)
    result: Dict[str, Dict[str, float]] = {
        "macro_switch": summarize_rates(macro_alloc)
    }
    routers = _routers(network, flows, seed, macro_alloc.rates())
    for router, routing in routers.items():
        if backend is not None:
            from repro.core.solve import solve_max_min

            alloc = solve_max_min(
                routing, network.graph.capacities(), backend=backend
            )
        else:
            alloc = max_min_fair(routing, network.graph.capacities())
        result[router] = summarize_rates(alloc)
    return result


class LocalitySweepRow(NamedTuple):
    """Router quality as traffic locality varies."""

    locality: float
    router: str
    throughput_fraction: Fraction
    min_rate_ratio: Fraction
    interior_bound_fraction: float  # flows bottlenecked only inside


def locality_sweep(
    n: int = 3,
    num_flows: int = 30,
    localities: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    seed: int = 0,
) -> List[LocalitySweepRow]:
    """E6c: rack locality vs macro-abstraction fidelity.

    In the paper's three-stage model a "rack-local" flow (input and
    output ToR share an index) still crosses a middle switch, so —
    unlike in a folded fabric — locality does **not** relieve the
    interior; it *concentrates* traffic onto a single (I_i, O_i) switch
    pair whose n interior paths must then be shared precisely.
    Measured shape: demand-aware greedy stays at the macro-switch
    allocation across the whole sweep, while ECMP degrades *more* as
    locality rises (hash collisions on the concentrated pair), with the
    fraction of interior-bottlenecked flows growing alongside.
    """
    from repro.core.bottleneck import bottleneck_links
    from repro.core.nodes import Source, Destination

    network = ClosNetwork(n)
    macro_network = MacroSwitch(n)
    rows: List[LocalitySweepRow] = []
    for locality in localities:
        flows = rack_local(network, num_flows, locality=locality, seed=seed)
        macro_alloc = macro_switch_max_min(macro_network, flows)
        routers = _routers(network, flows, seed, macro_alloc.rates())
        for router, routing in routers.items():
            if router == "local_search":
                continue  # greedy is representative; keep the sweep fast
            alloc = max_min_fair(routing, network.graph.capacities())
            comparison = compare_to_macro(alloc, macro_alloc)
            capacities = network.graph.capacities()
            interior = 0
            for flow in flows:
                links = bottleneck_links(routing, alloc, capacities, flow)
                if links and all(
                    not isinstance(u, (Source,)) and not isinstance(v, (Destination,))
                    for u, v in links
                ):
                    interior += 1
            rows.append(
                LocalitySweepRow(
                    locality=locality,
                    router=router,
                    throughput_fraction=alloc.throughput()
                    / macro_alloc.throughput(),
                    min_rate_ratio=comparison.min_ratio,
                    interior_bound_fraction=interior / len(flows),
                )
            )
    return rows
