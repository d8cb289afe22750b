"""LP formulations of maximum throughput (cross-checks for Lemma 3.2).

``maximize  Σ_f a(f)``  subject to per-link capacity constraints for a
fixed routing, with ``a(f) ≥ 0``.

For the macro-switch the binding constraints are exactly the per-source
and per-destination unit capacities, so the LP is the fractional
relaxation of bipartite matching on ``G^MS`` — which is *integral*
(Birkhoff–von Neumann / König), hence the LP optimum equals the maximum
matching size.  The test suite uses this to validate the combinatorial
path of :mod:`repro.core.throughput` against ``scipy.optimize.linprog``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.allocation import Allocation
from repro.core.flows import Flow, FlowCollection
from repro.core.routing import Link, Routing

_INF = float("inf")


class LPError(RuntimeError):
    """Raised when scipy fails to solve an LP that should be feasible."""


def max_throughput_lp(
    routing: Routing, capacities: Dict[Link, float]
) -> Tuple[float, Allocation]:
    """Maximum throughput for a *fixed* routing, via LP.

    Returns ``(optimal throughput, an optimal allocation)``.  Rates are
    floats (scipy); use the combinatorial solvers for exact results.
    """
    from scipy.optimize import linprog

    flows: List[Flow] = routing.flows()
    if not flows:
        return 0.0, Allocation({})
    index = {flow: i for i, flow in enumerate(flows)}

    rows: List[np.ndarray] = []
    bounds_b: List[float] = []
    per_link = routing.flows_per_link()
    for link, members in per_link.items():
        capacity = capacities[link]
        if capacity == _INF:
            continue
        row = np.zeros(len(flows))
        for flow in members:
            row[index[flow]] = 1.0
        rows.append(row)
        bounds_b.append(float(capacity))

    c = -np.ones(len(flows))  # maximize total rate
    a_ub = np.vstack(rows) if rows else None
    b_ub = np.array(bounds_b) if rows else None
    result = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if not result.success:
        raise LPError(f"max-throughput LP failed: {result.message}")
    rates = {flow: max(0.0, float(result.x[index[flow]])) for flow in flows}
    return -float(result.fun), Allocation(rates)


def max_throughput_lp_macro(flows: FlowCollection) -> float:
    """The macro-switch maximum throughput via the matching-relaxation LP.

    Variables are flow rates; constraints are the unit capacities of each
    source's and each destination's server link.  By LP integrality of
    bipartite matching the optimum equals ``T^MT`` (Lemma 3.2).
    """
    from scipy.optimize import linprog

    flow_list = list(flows)
    if not flow_list:
        return 0.0
    index = {flow: i for i, flow in enumerate(flow_list)}

    rows: List[np.ndarray] = []
    for _, members in flows.by_source().items():
        row = np.zeros(len(flow_list))
        for flow in members:
            row[index[flow]] = 1.0
        rows.append(row)
    for _, members in flows.by_destination().items():
        row = np.zeros(len(flow_list))
        for flow in members:
            row[index[flow]] = 1.0
        rows.append(row)

    c = -np.ones(len(flow_list))
    result = linprog(
        c,
        A_ub=np.vstack(rows),
        b_ub=np.ones(len(rows)),
        bounds=(0, 1),
        method="highs",
    )
    if not result.success:
        raise LPError(f"macro max-throughput LP failed: {result.message}")
    return -float(result.fun)
