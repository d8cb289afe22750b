"""Power-of-two-choices routing — distributed load balancing, localized.

ECMP hashes blindly; the greedy router needs global congestion state.
The classic middle ground from randomized load balancing (Azar et al.'s
"power of two choices") samples ``d`` random paths per flow and picks
the least congested among them — a *constant amount* of state probing
per flow that captures most of the benefit of full greedy placement.
We include it as a third point on §6's spectrum of routers: blind
(ECMP) → sampled (two-choice) → global greedy.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, Mapping, Optional

from repro.errors import InfeasibleRoutingError
from repro.core.flows import Flow, FlowCollection
from repro.core.routing import Routing
from repro.core.topology import ClosNetwork
from repro.obs import counter
from repro.routers.greedy import LinkLoads, check_flows_in_network, resolve_demands

#: Observability instruments (no-ops unless ``repro.obs`` is enabled).
_DECISIONS = counter("router.two_choice.path_decisions")
_PROBES = counter("router.two_choice.probes")


def two_choice_routing(
    network: ClosNetwork,
    flows: FlowCollection,
    demands: Optional[Mapping[Flow, Fraction]] = None,
    choices: int = 2,
    seed: int = 0,
) -> Routing:
    """Sample ``choices`` middle switches per flow; take the least congested.

    Congestion of a candidate is the resulting maximum of the flow's two
    interior-link loads (demand-weighted, like the greedy router).
    ``demands`` defaults to the macro-switch max-min rates.  With
    ``choices = 1`` this degenerates to random routing; with
    ``choices = num_middles`` it becomes the greedy router in arrival
    order.
    """
    if choices < 1:
        raise InfeasibleRoutingError(f"choices must be >= 1, got {choices}")
    check_flows_in_network(network, flows)
    demands = resolve_demands(network, flows, demands)
    loads = LinkLoads(network, flows, demands)

    rng = random.Random(seed)
    num_middles = network.num_middles
    middles: Dict[Flow, int] = {}
    for flow in flows:
        up, down = loads.up[flow.source.switch], loads.down[flow.dest.switch]
        sample_size = min(choices, num_middles)
        candidates = rng.sample(range(1, num_middles + 1), sample_size)
        best_m, best_congestion = None, None
        for m in candidates:
            _PROBES.inc()
            # max(up + d, down + d) = max(up, down) + d: comparing
            # without the flow's own demand picks the same candidate.
            congestion = max(up[m], down[m])
            if best_congestion is None or congestion < best_congestion:
                best_m, best_congestion = m, congestion
        middles[flow] = best_m
        _DECISIONS.inc()
        loads.place(flow, best_m)

    return Routing.from_middles(network, flows, middles)
