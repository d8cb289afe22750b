"""Greedy congestion-aware routing (§6's Hedera/CONGA family).

State-of-the-art data-center routing algorithms "assume that flows are
offered to the data-center with their macro-switch rates, and their goal
is to minimize maximum link congestion", assigning each flow to the path
of least congestion (§6).  This module implements that family:

1. Compute each flow's macro-switch max-min rate (its *demand*).
2. Process flows in decreasing demand order (elephants first — the
   first-fit-decreasing heuristic the multirate-rearrangeability
   literature uses).
3. Assign each flow to the middle switch minimizing the resulting *path
   congestion* — the maximum over the path's links of (total demand on
   the link) / capacity.

The router returns a routing; callers then apply the *actual* congestion
control (water-filling) to see what rates materialize.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, List, Mapping, Optional

from repro.errors import InfeasibleRoutingError
from repro.core.flows import Flow, FlowCollection
from repro.core.objectives import macro_switch_max_min
from repro.core.routing import Routing
from repro.core.topology import ClosNetwork, MacroSwitch
from repro.obs import counter, trace_span

#: Observability instruments (no-ops unless ``repro.obs`` is enabled).
_DECISIONS = counter("router.greedy.path_decisions")


def check_flows_in_network(network: ClosNetwork, flows: FlowCollection) -> None:
    """Reject flows whose endpoints lie outside ``network``.

    Demand-ordered routers index per-ToR congestion tables directly, so
    a foreign flow would otherwise surface as a bare ``KeyError`` deep
    in the placement loop.
    """
    for flow in flows:
        network._check_server_indices(flow.source.switch, flow.source.server)
        network._check_server_indices(flow.dest.switch, flow.dest.server)


def macro_switch_demands(
    network: ClosNetwork, flows: FlowCollection
) -> Dict[Flow, Fraction]:
    """Each flow's macro-switch max-min fair rate (the demand greedy uses)."""
    macro = MacroSwitch(network.n)
    allocation = macro_switch_max_min(macro, flows)
    return allocation.rates()


def resolve_demands(
    network: ClosNetwork,
    flows: FlowCollection,
    demands: Optional[Mapping[Flow, Fraction]],
) -> Mapping[Flow, Fraction]:
    """``demands``, defaulting to the macro-switch rates when ``None``.

    A given map must cover every flow: the demand-aware routers would
    otherwise fail with a bare ``KeyError`` partway through placement.
    """
    if demands is None:
        return macro_switch_demands(network, flows)
    undemanded = [f for f in flows if f not in demands]
    if undemanded:
        raise InfeasibleRoutingError(f"no demand given for flows: {undemanded!r}")
    return demands


class LinkLoads:
    """Interior-link loads of a Clos routing as exact scaled integers.

    Every demand is multiplied by the LCM of the demand denominators, so
    each flow's ``weight`` is an ``int`` and link loads add and compare
    exactly like the ``Fraction`` sums they stand for (the scale is
    positive, so order is kept).  ``up[i][m]`` is the load of the ToR
    ``i`` → middle ``m`` link, ``down[o][m]`` that of middle ``m`` → ToR
    ``o``; ``up_count``/``down_count`` count the flows on each link, so a
    link carrying only zero-demand flows is still told apart from an
    unused one.
    """

    def __init__(
        self,
        network: ClosNetwork,
        flows: FlowCollection,
        demands: Mapping[Flow, Fraction],
    ) -> None:
        exact = {f: Fraction(demands[f]) for f in flows}
        scale = lcm(*(q.denominator for q in exact.values()))
        self.weight: Dict[Flow, int] = {
            f: q.numerator * (scale // q.denominator) for f, q in exact.items()
        }
        rows, cols = 2 * network.n + 1, network.num_middles + 1
        self.up: List[List[int]] = [[0] * cols for _ in range(rows)]
        self.down: List[List[int]] = [[0] * cols for _ in range(rows)]
        self.up_count: List[List[int]] = [[0] * cols for _ in range(rows)]
        self.down_count: List[List[int]] = [[0] * cols for _ in range(rows)]

    def place(self, flow: Flow, m: int, sign: int = 1) -> None:
        """Add ``flow`` to its two links via middle ``m`` (``sign=-1`` removes it)."""
        i, o = flow.source.switch, flow.dest.switch
        d = sign * self.weight[flow]
        self.up[i][m] += d
        self.down[o][m] += d
        self.up_count[i][m] += sign
        self.down_count[o][m] += sign


def greedy_least_congested(
    network: ClosNetwork,
    flows: FlowCollection,
    demands: Optional[Mapping[Flow, Fraction]] = None,
) -> Routing:
    """First-fit-decreasing assignment to the least-congested path.

    ``demands`` defaults to the macro-switch max-min rates.  Ties between
    equally congested paths break toward the lowest middle-switch index,
    making the router deterministic.
    """
    check_flows_in_network(network, flows)
    demands = resolve_demands(network, flows, demands)
    loads = LinkLoads(network, flows, demands)
    weight = loads.weight

    n = network.num_middles
    order = sorted(flows, key=lambda f: (-weight[f], f.source, f.dest, f.tag))
    middles: Dict[Flow, int] = {}
    with trace_span("router.greedy", flows=len(order)):
        for flow in order:
            up, down = loads.up[flow.source.switch], loads.down[flow.dest.switch]
            best_m, best_congestion = 1, None
            for m in range(1, n + 1):
                # max(up + d, down + d) = max(up, down) + d: the flow's
                # own demand shifts every candidate equally, so compare
                # without it.
                congestion = up[m]
                downlink = down[m]
                if downlink > congestion:
                    congestion = downlink
                if best_congestion is None or congestion < best_congestion:
                    best_m, best_congestion = m, congestion
            middles[flow] = best_m
            _DECISIONS.inc()
            loads.place(flow, best_m)

    return Routing.from_middles(network, flows, middles)
