"""Local-search congestion minimization (§6's local-search family).

Starting from any routing (typically greedy or ECMP), repeatedly move a
single flow to a different middle switch whenever the move reduces the
network's congestion profile, where the *congestion* of a link is total
demand / capacity and profiles are compared by their sorted vectors in
decreasing order (so reducing the most congested link matters first —
the standard "min-max congestion, then next, ..." refinement).

This is the demand-oblivious counterpart of
:mod:`repro.search.local_search` (which optimizes actual max-min-fair
rate vectors): it only sees demands, like real traffic-engineering
systems, and is therefore much cheaper per move.

A single-flow move changes exactly four interior-link loads, so each
candidate is judged in O(1) on a :class:`~repro.routers.greedy.LinkLoads`
table instead of by rebuilding the profile (see :func:`_lowers_profile`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import InfeasibleRoutingError
from repro.core.flows import Flow, FlowCollection
from repro.core.routing import Routing
from repro.core.topology import ClosNetwork
from repro.obs import counter, trace_span
from repro.routers.greedy import LinkLoads, check_flows_in_network, resolve_demands

#: Observability instruments (no-ops unless ``repro.obs`` is enabled).
_ROUNDS = counter("router.congestion_search.rounds")
_MOVES = counter("router.congestion_search.moves_accepted")


def _congestion_profile(
    network: ClosNetwork,
    middles: Mapping[Flow, int],
    demands: Mapping[Flow, Fraction],
) -> List[Fraction]:
    """Interior-link congestions, sorted descending (unit capacities)."""
    n = network.num_middles
    up: Dict[Tuple[int, int], Fraction] = {}
    down: Dict[Tuple[int, int], Fraction] = {}
    for flow, m in middles.items():
        demand = Fraction(demands[flow])
        i, o = flow.source.switch, flow.dest.switch
        up[(i, m)] = up.get((i, m), Fraction(0)) + demand
        down[(m, o)] = down.get((m, o), Fraction(0)) + demand
    return sorted(list(up.values()) + list(down.values()), reverse=True)


def max_congestion(
    network: ClosNetwork,
    routing: Routing,
    demands: Mapping[Flow, Fraction],
) -> Fraction:
    """The maximum interior-link congestion of ``routing`` under ``demands``."""
    profile = _congestion_profile(network, routing.middles(network), demands)
    return profile[0] if profile else Fraction(0)


def _lowers_profile(removed: List[int], added: List[int]) -> bool:
    """Whether swapping ``removed`` for ``added`` lowers a sorted profile.

    Both are multisets of link congestions.  After cancelling equal
    values, the descending profile becomes lexicographically smaller iff
    the largest value left is a removed one: every larger entry is
    unchanged, and the profile now holds one copy fewer of that value.
    """
    left = list(removed)
    extra = []
    for value in added:
        if value in left:
            left.remove(value)
        else:
            extra.append(value)
    return bool(left) and (not extra or max(left) > max(extra))


def local_search_congestion(
    network: ClosNetwork,
    flows: FlowCollection,
    initial: Optional[Routing] = None,
    demands: Optional[Mapping[Flow, Fraction]] = None,
    max_rounds: int = 100,
) -> Routing:
    """Hill-climb on the sorted congestion profile with single-flow moves.

    ``initial`` defaults to routing every flow through middle switch 1
    (so the search's progress is visible even without a greedy warm
    start); pass a greedy routing for the production configuration.  It
    must route exactly ``flows``.

    Each round takes the first improving move, scanning flows in
    ``initial``'s order and middles ascending, and the next round starts
    over; the search stops after a round without one or after
    ``max_rounds`` rounds.
    """
    check_flows_in_network(network, flows)
    demands = resolve_demands(network, flows, demands)
    if initial is None:
        initial = Routing.uniform(network, flows, 1)
    middles = dict(initial.middles(network))
    extra = [f for f in middles if f not in flows]
    missing = [f for f in flows if f not in middles]
    if extra or missing:
        raise InfeasibleRoutingError(
            f"initial routing must route exactly the given flows; "
            f"unrouted: {missing!r}, not in flows: {extra!r}"
        )

    loads = LinkLoads(network, flows, demands)
    for flow, m in middles.items():
        loads.place(flow, m)
    weight, num_middles = loads.weight, network.num_middles
    with trace_span("router.congestion_search", flows=len(middles)):
        for _ in range(max_rounds):
            _ROUNDS.inc()
            improved = False
            for flow, here in middles.items():
                d = weight[flow]
                i, o = flow.source.switch, flow.dest.switch
                up, down = loads.up[i], loads.down[o]
                up_count, down_count = loads.up_count[i], loads.down_count[o]
                # Leaving ``here`` takes d off two links; a link left
                # without flows drops out of the profile.
                removed_here = [up[here], down[here]]
                added_here = []
                if up_count[here] > 1:
                    added_here.append(up[here] - d)
                if down_count[here] > 1:
                    added_here.append(down[here] - d)
                # For d > 0, max(up[m], down[m]) + d is above both old
                # loads via m, so only the links left behind can cancel
                # it: if it tops those too, the profile rises.
                ceiling = max(removed_here) - d if d > 0 else math.inf
                for m in range(1, num_middles + 1):
                    if m == here or max(up[m], down[m]) > ceiling:
                        continue
                    removed = removed_here.copy()
                    if up_count[m]:
                        removed.append(up[m])
                    if down_count[m]:
                        removed.append(down[m])
                    added = added_here + [up[m] + d, down[m] + d]
                    if _lowers_profile(removed, added):
                        loads.place(flow, here, -1)
                        loads.place(flow, m)
                        middles[flow] = m
                        improved = True
                        _MOVES.inc()
                        break
                if improved:
                    break
            if not improved:
                break
    return Routing.from_middles(network, flows, middles)
