"""Max-min fairness for *splittable* flows (the §1 premise, verified).

The paper's introduction recalls that with splittable flows a Clos
network is equivalent to its macro-switch: "arbitrary flow demands can
be routed inside the network such that the capacities of these links
are satisfied", so the inside of the network "can be abstracted away".
Every impossibility in the paper stems from dropping that splittability.

This module computes the max-min fair allocation when each flow may
split across all middle switches — progressive filling over a convex
region, solved by LPs with per-(flow, middle) path variables:

1. maximize the common rate ``t`` of all unfrozen flows, where a flow's
   rate is the *sum* of its path variables, subject to interior and
   server link capacities;
2. freeze the flows that cannot individually exceed ``t`` (tested per
   flow with a second LP);
3. repeat.

The headline theorem it verifies (experiment E16): the splittable
max-min rates in ``C_n`` equal the macro-switch max-min rates exactly —
including on the Theorem 4.3 construction, where unsplittable routing
provably starves the type-3 flow to 1/n but splitting restores rate 1.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.allocation import Allocation
from repro.core.flows import Flow, FlowCollection
from repro.core.nodes import InputSwitch, MiddleSwitch, OutputSwitch
from repro.core.topology import ClosNetwork

#: Freeze tolerance; must exceed the LP solver's optimality tolerance.
_EPS = 1e-7


class LPError(RuntimeError):
    """Raised when scipy fails on an LP that should be solvable."""


def _build_constraints(
    network: ClosNetwork, flows: FlowCollection
) -> Tuple[Dict[Tuple[Flow, int], int], List[Tuple[np.ndarray, float]]]:
    """Path variables x[f, m] and the capacity rows over them."""
    n = network.num_middles
    var: Dict[Tuple[Flow, int], int] = {}
    for flow in flows:
        for m in range(1, n + 1):
            var[(flow, m)] = len(var)
    size = len(var)
    capacities = network.graph.capacities()

    rows: List[Tuple[np.ndarray, float]] = []
    # server links (sum over the flow's middles)
    for source, members in flows.by_source().items():
        row = np.zeros(size)
        for flow in members:
            for m in range(1, n + 1):
                row[var[(flow, m)]] = 1.0
        capacity = float(capacities[(source, InputSwitch(source.switch))])
        rows.append((row, capacity))
    for dest, members in flows.by_destination().items():
        row = np.zeros(size)
        for flow in members:
            for m in range(1, n + 1):
                row[var[(flow, m)]] = 1.0
        capacity = float(capacities[(OutputSwitch(dest.switch), dest)])
        rows.append((row, capacity))
    # interior links
    for i in range(1, 2 * network.n + 1):
        for m in range(1, n + 1):
            up_row = np.zeros(size)
            down_row = np.zeros(size)
            up_used = down_used = False
            for flow in flows:
                if flow.source.switch == i:
                    up_row[var[(flow, m)]] = 1.0
                    up_used = True
                if flow.dest.switch == i:
                    down_row[var[(flow, m)]] = 1.0
                    down_used = True
            if up_used:
                rows.append(
                    (up_row, float(capacities[(InputSwitch(i), MiddleSwitch(m))]))
                )
            if down_used:
                rows.append(
                    (
                        down_row,
                        float(capacities[(MiddleSwitch(m), OutputSwitch(i))]),
                    )
                )
    return var, rows


def splittable_max_min_fair(
    network: ClosNetwork, flows: FlowCollection
) -> Allocation:
    """The max-min fair allocation with flows splittable across middles.

    Float rates (LP-based); compare against exact references with a
    small tolerance.
    """
    from scipy.optimize import linprog

    flow_list = list(flows)
    if not flow_list:
        return Allocation({})
    var, rows = _build_constraints(network, flows)
    n = network.num_middles
    size = len(var)

    frozen: Dict[Flow, float] = {}

    def solve_common_level() -> Tuple[float, np.ndarray]:
        """max t s.t. unfrozen flows' rates = t, frozen fixed at their rate."""
        unfrozen = [f for f in flow_list if f not in frozen]
        # variables: all path vars + t (last)
        c = np.zeros(size + 1)
        c[-1] = -1.0
        a_ub = []
        b_ub = []
        for row, capacity in rows:
            a_ub.append(np.concatenate([row, [0.0]]))
            b_ub.append(capacity)
        a_eq = []
        b_eq = []
        for flow in flow_list:
            row = np.zeros(size + 1)
            for m in range(1, n + 1):
                row[var[(flow, m)]] = 1.0
            if flow in frozen:
                a_eq.append(row)
                b_eq.append(frozen[flow])
            else:
                row[-1] = -1.0  # rate − t = 0
                a_eq.append(row)
                b_eq.append(0.0)
        result = linprog(
            c,
            A_ub=np.vstack(a_ub),
            b_ub=np.array(b_ub),
            A_eq=np.vstack(a_eq),
            b_eq=np.array(b_eq),
            bounds=(0, None),
            method="highs",
        )
        if not result.success:
            raise LPError(f"common-level LP failed: {result.message}")
        return float(result.x[-1]), result.x

    def max_single(target: Flow, level: float) -> float:
        """max rate(target) with other unfrozen at ≥ level, frozen fixed."""
        c = np.zeros(size)
        for m in range(1, n + 1):
            c[var[(target, m)]] = -1.0
        a_ub = []
        b_ub = []
        for row, capacity in rows:
            a_ub.append(row)
            b_ub.append(capacity)
        # other unfrozen flows: rate ≥ level  →  −rate ≤ −level
        for flow in flow_list:
            if flow is target or flow in frozen:
                continue
            row = np.zeros(size)
            for m in range(1, n + 1):
                row[var[(flow, m)]] = -1.0
            a_ub.append(row)
            b_ub.append(-(level - _EPS))
        a_eq = []
        b_eq = []
        for flow, rate in frozen.items():
            row = np.zeros(size)
            for m in range(1, n + 1):
                row[var[(flow, m)]] = 1.0
            a_eq.append(row)
            b_eq.append(rate)
        result = linprog(
            c,
            A_ub=np.vstack(a_ub),
            b_ub=np.array(b_ub),
            A_eq=np.vstack(a_eq) if a_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=(0, None),
            method="highs",
        )
        if not result.success:
            raise LPError(f"single-flow LP failed: {result.message}")
        return -float(result.fun)

    while len(frozen) < len(flow_list):
        level, _ = solve_common_level()
        unfrozen = [f for f in flow_list if f not in frozen]
        newly = []
        headroom = {}
        for flow in unfrozen:
            best = max_single(flow, level)
            headroom[flow] = best
            if best <= level + _EPS:
                newly.append(flow)
        if not newly:
            newly = [min(unfrozen, key=lambda f: headroom[f])]
        for flow in newly:
            frozen[flow] = level

    return Allocation({f: max(0.0, r) for f, r in frozen.items()})
