"""Routing feasibility for flows with *fixed demanded rates* (§4.1).

Example 4.1 asks: if every flow is offered to the data-center at its
macro-switch max-min rate, is there a *feasible routing* — an assignment
of each flow to a middle switch under which all link capacities hold?

Two solvers:

- :func:`find_feasible_routing` — exact backtracking over middle-switch
  assignments with residual-capacity pruning and a largest-rate-first
  ordering.  Returns a routing or ``None`` (a certified infeasibility
  when the search space is exhausted).  This is an NP-hard bin-packing
  style problem in general; the adversarial instances it must decide are
  small and heavily pruned.

- :func:`splittable_feasible` — the LP relaxation where flows may split
  across middle switches.  For any demands that satisfy the server-link
  capacities this LP is always feasible in a Clos network (the classic
  "demand satisfaction" property quoted in §1), which isolates
  *unsplittability* as the culprit in Theorem 4.2: the LP says yes while
  the exact search proves no.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.flows import Flow, FlowCollection
from repro.core.nodes import InputSwitch, MiddleSwitch, OutputSwitch
from repro.core.routing import Routing
from repro.core.topology import ClosNetwork

Rate = Fraction


def find_feasible_routing(
    network: ClosNetwork,
    flows: FlowCollection,
    demands: Mapping[Flow, Rate],
    use_symmetry: bool = True,
) -> Optional[Routing]:
    """Search for a routing carrying every flow at its demanded rate.

    Backtracking over flows in decreasing demand order; a partial
    assignment is pruned as soon as any ``I_i M_m`` or ``M_m O_i``
    residual capacity would go negative.  Two symmetry reductions (both
    enabled by ``use_symmetry=True``) keep the adversarial instances
    tractable:

    - *middle-switch symmetry*: the search only opens middle-switch
      indices up to one beyond the highest index used so far;
    - *identical-flow symmetry*: flows with the same (source switch,
      destination switch, demand) signature are interchangeable, so
      consecutive identical flows are forced onto non-decreasing middle
      indices.

    Returns a feasible :class:`Routing`, or ``None`` if none exists
    (exhaustive, hence a proof of infeasibility).
    """
    n = network.num_middles
    num_tors = 2 * network.n

    # Server-link loads are routing-independent: reject demands that
    # overload them before searching the interior.
    server_caps = network.graph.capacities()
    for source, members in flows.by_source().items():
        capacity = Fraction(server_caps[(source, InputSwitch(source.switch))])
        if sum(Fraction(demands[f]) for f in members) > capacity:
            return None
    for dest, members in flows.by_destination().items():
        capacity = Fraction(server_caps[(OutputSwitch(dest.switch), dest)])
        if sum(Fraction(demands[f]) for f in members) > capacity:
            return None

    order: List[Flow] = sorted(
        flows, key=lambda f: (-demands[f], f.source, f.dest, f.tag)
    )

    def signature(flow: Flow) -> Tuple[int, int, Rate]:
        return (flow.source.switch, flow.dest.switch, demands[flow])

    graph_capacities = network.graph.capacities()
    up: Dict[Tuple[int, int], Rate] = {}  # (input switch, middle) residual
    down: Dict[Tuple[int, int], Rate] = {}  # (middle, output switch) residual
    for i in range(1, num_tors + 1):
        for m in range(1, n + 1):
            up[(i, m)] = Fraction(
                graph_capacities[(InputSwitch(i), MiddleSwitch(m))]
            )
            down[(m, i)] = Fraction(
                graph_capacities[(MiddleSwitch(m), OutputSwitch(i))]
            )

    assignment: Dict[Flow, int] = {}

    def recurse(position: int, highest: int, prev_floor: int) -> bool:
        """``prev_floor``: minimum middle index allowed for this flow when
        it shares its predecessor's signature (identical-flow symmetry)."""
        if position == len(order):
            return True
        flow = order[position]
        demand = Fraction(demands[flow])
        i, o = flow.source.switch, flow.dest.switch
        limit = min(n, highest + 1) if use_symmetry else n
        start = prev_floor if use_symmetry else 1
        for m in range(start, limit + 1):
            if up[(i, m)] < demand or down[(m, o)] < demand:
                continue
            up[(i, m)] -= demand
            down[(m, o)] -= demand
            assignment[flow] = m
            next_floor = 1
            if position + 1 < len(order) and signature(
                order[position + 1]
            ) == signature(flow):
                next_floor = m
            if recurse(position + 1, max(highest, m), next_floor):
                return True
            del assignment[flow]
            up[(i, m)] += demand
            down[(m, o)] += demand
        return False

    if not recurse(0, 0, 1):
        return None
    return Routing.from_middles(network, flows, assignment)


def iter_feasible_routings(
    network: ClosNetwork,
    flows: FlowCollection,
    demands: Mapping[Flow, Rate],
    limit: Optional[int] = None,
):
    """Yield *every* feasible routing for the demands (up to symmetries).

    Same pruned backtracking as :func:`find_feasible_routing`, but
    instead of stopping at the first witness it enumerates all feasible
    assignments modulo middle-switch and identical-flow symmetry — the
    tool for verifying universally-quantified routing claims such as
    Claim 4.5 ("for all feasible routings...").  ``limit`` caps the
    number of yielded routings (None = exhaustive).
    """
    n = network.num_middles

    server_caps = network.graph.capacities()
    for source, members in flows.by_source().items():
        capacity = Fraction(server_caps[(source, InputSwitch(source.switch))])
        if sum(Fraction(demands[f]) for f in members) > capacity:
            return
    for dest, members in flows.by_destination().items():
        capacity = Fraction(server_caps[(OutputSwitch(dest.switch), dest)])
        if sum(Fraction(demands[f]) for f in members) > capacity:
            return

    order: List[Flow] = sorted(
        flows, key=lambda f: (-demands[f], f.source, f.dest, f.tag)
    )

    def signature(flow: Flow) -> Tuple[int, int, Rate]:
        return (flow.source.switch, flow.dest.switch, demands[flow])

    up: Dict[Tuple[int, int], Rate] = {}
    down: Dict[Tuple[int, int], Rate] = {}
    for i in range(1, 2 * network.n + 1):
        for m in range(1, n + 1):
            up[(i, m)] = Fraction(
                server_caps[(InputSwitch(i), MiddleSwitch(m))]
            )
            down[(m, i)] = Fraction(
                server_caps[(MiddleSwitch(m), OutputSwitch(i))]
            )

    assignment: Dict[Flow, int] = {}
    yielded = 0

    def recurse(position: int, highest: int, prev_floor: int):
        nonlocal yielded
        if limit is not None and yielded >= limit:
            return
        if position == len(order):
            yielded += 1
            yield Routing.from_middles(network, flows, assignment)
            return
        flow = order[position]
        demand = Fraction(demands[flow])
        i, o = flow.source.switch, flow.dest.switch
        limit_m = min(n, highest + 1)
        for m in range(prev_floor, limit_m + 1):
            if up[(i, m)] < demand or down[(m, o)] < demand:
                continue
            up[(i, m)] -= demand
            down[(m, o)] -= demand
            assignment[flow] = m
            next_floor = 1
            if position + 1 < len(order) and signature(
                order[position + 1]
            ) == signature(flow):
                next_floor = m
            yield from recurse(position + 1, max(highest, m), next_floor)
            del assignment[flow]
            up[(i, m)] += demand
            down[(m, o)] += demand

    yield from recurse(0, 0, 1)


def splittable_feasible(
    network: ClosNetwork,
    flows: FlowCollection,
    demands: Mapping[Flow, Rate],
    tol: float = 1e-9,
) -> bool:
    """LP feasibility when flows may split across middle switches.

    Variables ``x[f, m] ≥ 0`` with ``Σ_m x[f, m] = demand(f)`` and the
    interior link capacities as inequalities.  (Server-link constraints
    involve no routing choice and are checked directly.)
    """
    from scipy.optimize import linprog

    n = network.num_middles
    flow_list = list(flows)
    if not flow_list:
        return True

    graph_capacities = network.graph.capacities()

    # Server links: demands through each are routing-independent.
    for source, members in flows.by_source().items():
        capacity = graph_capacities[(source, InputSwitch(source.switch))]
        if float(sum(demands[f] for f in members)) > float(capacity) + tol:
            return False
    for dest, members in flows.by_destination().items():
        capacity = graph_capacities[(OutputSwitch(dest.switch), dest)]
        if float(sum(demands[f] for f in members)) > float(capacity) + tol:
            return False

    var: Dict[Tuple[Flow, int], int] = {}
    counter = 0
    for f in flow_list:
        for m in range(1, n + 1):
            var[(f, m)] = counter
            counter += 1

    a_eq = np.zeros((len(flow_list), counter))
    b_eq = np.zeros(len(flow_list))
    for row, f in enumerate(flow_list):
        for m in range(1, n + 1):
            a_eq[row, var[(f, m)]] = 1.0
        b_eq[row] = float(demands[f])

    rows = []
    b_ub = []
    for i in range(1, 2 * network.n + 1):
        for m in range(1, n + 1):
            up_row = np.zeros(counter)
            down_row = np.zeros(counter)
            up_any = down_any = False
            for f in flow_list:
                if f.source.switch == i:
                    up_row[var[(f, m)]] = 1.0
                    up_any = True
                if f.dest.switch == i:
                    down_row[var[(f, m)]] = 1.0
                    down_any = True
            if up_any:
                rows.append(up_row)
                b_ub.append(
                    float(
                        graph_capacities[(InputSwitch(i), MiddleSwitch(m))]
                    )
                )
            if down_any:
                rows.append(down_row)
                b_ub.append(
                    float(
                        graph_capacities[(MiddleSwitch(m), OutputSwitch(i))]
                    )
                )

    result = linprog(
        np.zeros(counter),
        A_ub=np.vstack(rows) if rows else None,
        b_ub=np.array(b_ub) if rows else None,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
    )
    return bool(result.success)
