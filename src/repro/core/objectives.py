"""Exact routing objectives (Definitions 2.4 and 2.5).

- A **lex-max-min fair allocation** is a max-min fair allocation (for
  some routing) whose sorted vector is lexicographically maximum over
  all routings — the fairest rates a Clos network can offer.
- A **throughput-max-min fair allocation** is a max-min fair allocation
  (for some routing) with maximum throughput over all routings — what a
  throughput-first routing layer aims for while congestion control keeps
  per-routing fairness.

Both solvers enumerate the middle-switch-symmetry-reduced routing space
exactly (see :mod:`repro.search.enumeration`); both objectives are
invariant under middle-switch relabeling, so optimizing over orbit
representatives is lossless.  They are exponential-time and intended for
the small instances used in tests and worked examples — for the paper's
parametric constructions we instead verify the closed-form optimal
allocations the way the proofs do (bottleneck certificates + local
optimality + counting arguments; see :mod:`repro.core.theorems`).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.core.allocation import Allocation, lex_compare
from repro.core.flows import FlowCollection
from repro.core.maxmin import max_min_fair
from repro.core.routing import Routing
from repro.core.throughput import max_throughput_value
from repro.core.topology import ClosNetwork, MacroSwitch
from repro.search.enumeration import enumerate_routings


class OptimalAllocation(NamedTuple):
    """A routing together with its max-min fair allocation."""

    routing: Routing
    allocation: Allocation
    #: Number of routings examined by the solver (orbit representatives).
    examined: int


def macro_switch_max_min(
    network: MacroSwitch, flows: FlowCollection, exact: bool = True,
    backend: Optional[str] = None,
) -> Allocation:
    """``a^MmF``: the (unique) max-min fair allocation in the macro-switch.

    ``backend`` optionally selects a solver from
    :data:`repro.core.solve.BACKENDS` (e.g. ``"quotient"`` for large
    symmetric instances); the default keeps the reference solver with
    the requested ``exact`` mode.
    """
    routing = Routing.for_macro_switch(network, flows)
    if backend is not None:
        from repro.core.solve import solve_max_min

        return solve_max_min(
            routing, network.graph.capacities(), backend=backend
        )
    return max_min_fair(routing, network.graph.capacities(), exact=exact)


def lex_max_min_fair(
    network: ClosNetwork,
    flows: FlowCollection,
    exact: bool = True,
    use_symmetry: bool = True,
) -> OptimalAllocation:
    """``a^{L-MmF}``: an exact lex-max-min fair allocation (Definition 2.4).

    Exhaustive over symmetry-orbit representatives; exponential in
    ``|F|`` — use on small instances only.  Terminates early when the
    incumbent reaches the macro-switch max-min sorted vector, which
    upper-bounds every Clos routing's vector (§2.3) — on instances where
    the macro abstraction *is* attainable this prunes most of the space.
    """
    if not len(flows):
        raise ValueError("cannot optimize over an empty flow collection")
    capacities = network.graph.capacities()
    macro_bound = macro_switch_max_min(
        MacroSwitch(network.n), flows, exact=exact
    ).sorted_vector()
    best: Optional[OptimalAllocation] = None
    examined = 0
    for routing in enumerate_routings(network, flows, use_symmetry=use_symmetry):
        allocation = max_min_fair(routing, capacities, exact=exact)
        examined += 1
        if best is None or (
            lex_compare(
                allocation.sorted_vector(), best.allocation.sorted_vector()
            )
            > 0
        ):
            best = OptimalAllocation(routing, allocation, examined)
            if lex_compare(best.allocation.sorted_vector(), macro_bound) == 0:
                break  # §2.3: nothing can lex-exceed the macro-switch
    return OptimalAllocation(best.routing, best.allocation, examined)


def throughput_max_min_fair(
    network: ClosNetwork,
    flows: FlowCollection,
    exact: bool = True,
    use_symmetry: bool = True,
    stop_at_max_throughput: bool = False,
) -> OptimalAllocation:
    """``a^{T-MmF}``: an exact throughput-max-min fair allocation (Def. 2.5).

    Ties on throughput are broken toward the lexicographically larger
    sorted vector, making the result deterministic.  ``stop_at_max_
    throughput=True`` terminates as soon as the incumbent's throughput
    reaches ``T^MT`` (which upper-bounds every allocation, §5) — exact
    on throughput but forfeits the lexicographic tie-break refinement.
    """
    if not len(flows):
        raise ValueError("cannot optimize over an empty flow collection")
    capacities = network.graph.capacities()
    throughput_bound = max_throughput_value(flows) if stop_at_max_throughput else None
    best: Optional[OptimalAllocation] = None
    examined = 0
    for routing in enumerate_routings(network, flows, use_symmetry=use_symmetry):
        allocation = max_min_fair(routing, capacities, exact=exact)
        examined += 1
        if best is None:
            best = OptimalAllocation(routing, allocation, examined)
        else:
            incumbent = best.allocation
            if allocation.throughput() > incumbent.throughput() or (
                allocation.throughput() == incumbent.throughput()
                and lex_compare(
                    allocation.sorted_vector(), incumbent.sorted_vector()
                )
                > 0
            ):
                best = OptimalAllocation(routing, allocation, examined)
        if (
            throughput_bound is not None
            and best.allocation.throughput() >= throughput_bound
        ):
            break  # §5: T(a) <= T^MT for every allocation
    return OptimalAllocation(best.routing, best.allocation, examined)
