"""repro — a reproduction of *Impossibility Results for Data-Center Routing
with Congestion Control and Unsplittable Flows* (PODC 2024).

The library models Clos networks and their macro-switch abstractions,
computes max-min fair allocations under arbitrary routings, implements
the paper's Doom-Switch algorithm, and regenerates every worked example
and theorem bound computationally.  See ``README.md`` for a tour and
``DESIGN.md`` for the system inventory.

Quickstart::

    from repro import ClosNetwork, FlowCollection, Flow, Routing, max_min_fair

    clos = ClosNetwork(2)
    flows = FlowCollection([Flow(clos.source(1, 1), clos.destination(2, 1))])
    routing = Routing.from_middles(clos, flows, {flows[0]: 1})
    alloc = max_min_fair(routing, clos.graph.capacities())
    print(alloc.sorted_vector())
"""

from repro.errors import (
    CapacityValidationError,
    DisconnectedFlowError,
    ExperimentError,
    InfeasibleRoutingError,
    ReproError,
    StepTimeoutError,
    UnknownFlowError,
    UnknownLinkError,
)
from repro.core import (
    Allocation,
    ClosNetwork,
    Destination,
    DoomSwitchResult,
    Flow,
    FlowCollection,
    InputSwitch,
    MacroSwitch,
    MiddleSwitch,
    OptimalAllocation,
    OutputSwitch,
    Routing,
    Source,
    UnboundedRateError,
    doom_switch,
    is_feasible,
    is_max_min_fair,
    lex_compare,
    lex_max_min_fair,
    macro_switch_max_min,
    max_min_fair,
    max_throughput_allocation,
    max_throughput_value,
    throughput_max_min_fair,
    throughput_max_throughput,
)

__version__ = "1.0.0"

__all__ = [
    "Allocation",
    "CapacityValidationError",
    "ClosNetwork",
    "Destination",
    "DisconnectedFlowError",
    "DoomSwitchResult",
    "ExperimentError",
    "Flow",
    "FlowCollection",
    "InfeasibleRoutingError",
    "InputSwitch",
    "MacroSwitch",
    "MiddleSwitch",
    "OptimalAllocation",
    "OutputSwitch",
    "ReproError",
    "Routing",
    "Source",
    "StepTimeoutError",
    "UnboundedRateError",
    "UnknownFlowError",
    "UnknownLinkError",
    "__version__",
    "doom_switch",
    "is_feasible",
    "is_max_min_fair",
    "lex_compare",
    "lex_max_min_fair",
    "macro_switch_max_min",
    "max_min_fair",
    "max_throughput_allocation",
    "max_throughput_value",
    "throughput_max_min_fair",
    "throughput_max_throughput",
]
