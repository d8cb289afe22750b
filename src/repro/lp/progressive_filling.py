"""LP-based progressive filling — an independent max-min fairness solver.

The water-filling algorithm of :mod:`repro.core.maxmin` exploits the
structure of single-path routings.  This module computes the same
allocation through a sequence of LPs, the standard "progressive filling
by LP" scheme that works on any convex feasible region:

1. Maximize the common rate ``t`` of all unfrozen flows subject to
   capacities (frozen flows keep their rates).
2. A flow is *saturated* at the optimum if its rate cannot exceed ``t``
   while everyone else stays at ``≥ t``; test each unfrozen flow with a
   second LP maximizing that flow alone.
3. Freeze saturated flows at ``t`` and repeat until all flows frozen.

It is slower than water-filling by a large factor and returns floats,
but shares no code with it — the test suite uses agreement between the
two (within an epsilon) as a strong correctness check on both.
"""

from __future__ import annotations

from typing import Dict, List, Set

import numpy as np

from repro.core.allocation import Allocation
from repro.core.flows import Flow
from repro.core.routing import Link, Routing
from repro.obs import counter, trace_span

_INF = float("inf")

#: Observability instruments (no-ops unless ``repro.obs`` is enabled).
_ROUNDS = counter("lp.progressive.rounds")
_LP_SOLVES = counter("lp.progressive.lp_solves")
_FORCED = counter("lp.progressive.forced_freezes")
#: Saturation slack: a flow is frozen when its max individual rate is
#: within this tolerance of the common level.  Must sit comfortably above
#: the solver's own optimality tolerance (HiGHS: ~1e-9) or saturated
#: flows fail the freeze test and the algorithm mis-freezes a grower.
_EPS = 1e-7


class LPError(RuntimeError):
    """Raised when scipy fails to solve an LP that should be feasible."""


def _finite_link_rows(
    routing: Routing,
    capacities: Dict[Link, float],
    index: Dict[Flow, int],
) -> List:
    """(coefficient row over flows, capacity) for each finite link."""
    rows = []
    for link, members in routing.flows_per_link().items():
        capacity = capacities[link]
        if capacity == _INF:
            continue
        row = np.zeros(len(index))
        for flow in members:
            row[index[flow]] = 1.0
        rows.append((row, float(capacity)))
    return rows


def max_min_fair_lp(
    routing: Routing, capacities: Dict[Link, float]
) -> Allocation:
    """The max-min fair allocation via iterated LPs (float rates)."""
    flows: List[Flow] = routing.flows()
    if not flows:
        return Allocation({})
    index = {flow: i for i, flow in enumerate(flows)}
    link_rows = _finite_link_rows(routing, capacities, index)

    frozen: Dict[Flow, float] = {}
    with trace_span("lp.progressive_filling", flows=len(flows)) as span:
        rounds = 0
        while len(frozen) < len(flows):
            rounds += 1
            _ROUNDS.inc()
            unfrozen = [f for f in flows if f not in frozen]
            level = _max_common_level(flows, index, link_rows, frozen, unfrozen)
            newly: Set[Flow] = set()
            headroom: Dict[Flow, float] = {}
            for flow in unfrozen:
                best = _max_single_flow(
                    flows, index, link_rows, frozen, unfrozen, level, flow
                )
                headroom[flow] = best
                if best <= level + _EPS:
                    newly.add(flow)
            if not newly:
                # Numerical edge: freeze the most-blocked flow to guarantee
                # progress (its max rate is closest to the common level).
                newly = {min(unfrozen, key=lambda f: headroom[f])}
                _FORCED.inc()
            for flow in newly:
                frozen[flow] = level
        span.set(rounds=rounds)
    return Allocation({f: max(0.0, r) for f, r in frozen.items()})


def _max_common_level(flows, index, link_rows, frozen, unfrozen) -> float:
    """LP: maximize t s.t. unfrozen rates = t, frozen rates fixed."""
    from scipy.optimize import linprog

    # Variables: one rate per flow, plus t (last).  Equality a_f = t for
    # unfrozen via two inequalities folded into bounds/equalities: we use
    # substitution instead — unfrozen flows' coefficient contributes to t.
    num_links = len(link_rows)
    c = np.zeros(1)
    c[0] = -1.0  # maximize t
    a_ub = np.zeros((num_links, 1))
    b_ub = np.zeros(num_links)
    for row_index, (row, capacity) in enumerate(link_rows):
        unfrozen_coeff = sum(row[index[f]] for f in unfrozen)
        frozen_load = sum(row[index[f]] * frozen[f] for f in frozen)
        a_ub[row_index, 0] = unfrozen_coeff
        b_ub[row_index] = capacity - frozen_load
    _LP_SOLVES.inc()
    result = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if not result.success:
        raise LPError(f"common-level LP failed: {result.message}")
    return float(result.x[0])


def _max_single_flow(
    flows, index, link_rows, frozen, unfrozen, level, target: Flow
) -> float:
    """LP: maximize target's rate with other unfrozen flows at ≥ level."""
    from scipy.optimize import linprog

    # Variables: rate of each unfrozen flow.  Others bounded below by
    # `level`, target unbounded above; frozen flows contribute constants.
    unfrozen_index = {f: i for i, f in enumerate(unfrozen)}
    n = len(unfrozen)
    c = np.zeros(n)
    c[unfrozen_index[target]] = -1.0
    rows = []
    b_ub = []
    for row, capacity in link_rows:
        coeffs = np.zeros(n)
        for flow in unfrozen:
            coeffs[unfrozen_index[flow]] = row[index[flow]]
        frozen_load = sum(row[index[f]] * frozen[f] for f in frozen)
        rows.append(coeffs)
        b_ub.append(capacity - frozen_load)
    bounds = [(max(0.0, level - _EPS), None)] * n
    _LP_SOLVES.inc()
    result = linprog(
        c,
        A_ub=np.vstack(rows) if rows else None,
        b_ub=np.array(b_ub) if rows else None,
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        raise LPError(f"single-flow LP failed for {target!r}: {result.message}")
    return float(result.x[unfrozen_index[target]])
