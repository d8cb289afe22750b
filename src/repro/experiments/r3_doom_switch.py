"""Experiment E5 — Figure 4 / Theorem 5.4 (R3): Doom-Switch throughput.

Sweeps the Figure 4 construction over network size ``n`` (odd) and
parallel-flow count ``k`` and reports, for each point:

- ``T^MmF`` — the macro-switch max-min throughput, measured;
- the Doom-Switch routing's max-min throughput (a lower bound on
  ``T^{T-MmF}``), measured;
- the gain and the paper's prediction ``2(1 − ε)``,
  ``ε = (k+n)/((n−1)(k+2))``;
- the number of flows whose rates the gain sacrifices (rate below their
  macro rate) — the paper's "zeroing the rates of most flows" caveat
  made quantitative.

Also checks the universal upper bound ``T^{T-MmF} ≤ 2 · T^MmF`` exactly
on small instances by exhaustive search, and statistically (via the
Doom-Switch lower bound) on the sweep.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Sequence, Tuple

from repro.analysis.metrics import compare_to_macro
from repro.core.doom_switch import doom_switch
from repro.core.objectives import macro_switch_max_min, throughput_max_min_fair
from repro.core.theorems import theorem_5_4 as predict
from repro.workloads.adversarial import theorem_5_4
from repro.workloads.stochastic import uniform_random
from repro.core.topology import ClosNetwork, MacroSwitch


class DoomSwitchRow(NamedTuple):
    """One sweep point of E5."""

    n: int
    k: int
    t_macro_max_min: Fraction
    t_doom: Fraction
    gain: Fraction
    predicted_gain: Fraction
    upper_bound_holds: bool  # gain ≤ 2
    num_flows: int
    num_degraded: int  # flows below their macro-switch rate
    min_rate_ratio: Fraction  # worst flow's (network rate / macro rate)


def _sweep_point(n: int, k: int, backend: str = None) -> DoomSwitchRow:
    """One (n, k) of the Theorem 5.4 sweep.

    ``backend="quotient"`` solves both allocations by symmetry
    reduction, extending the exact sweep to n ≥ 64.
    """
    instance = theorem_5_4(n, k)
    macro = macro_switch_max_min(instance.macro, instance.flows, backend=backend)
    result = doom_switch(instance.clos, instance.flows, backend=backend)
    prediction = predict(n, k)
    comparison = compare_to_macro(result.allocation, macro)
    gain = result.allocation.throughput() / macro.throughput()
    return DoomSwitchRow(
        n=n,
        k=k,
        t_macro_max_min=macro.throughput(),
        t_doom=result.allocation.throughput(),
        gain=gain,
        predicted_gain=prediction.gain,
        upper_bound_holds=bool(gain <= 2),
        num_flows=len(instance.flows),
        num_degraded=comparison.num_degraded,
        min_rate_ratio=comparison.min_ratio,
    )


def _sweep_rows_batched(
    points: Sequence[Tuple[int, int]]
) -> List[DoomSwitchRow]:
    """E5 with every point's two solves stacked into one float batch.

    The macro-switch and Doom-Switch allocations of all (n, k) points
    become one block-diagonal batch solved by
    :func:`repro.core.batched.solve_max_min_batch`; throughputs, gains,
    and degradation counts are then computed from the float rates (the
    ``upper_bound_holds`` check gains a 1e-9 slack for rounding).
    """
    from repro.core.batched import solve_max_min_batch
    from repro.core.doom_switch import doom_switch_routing
    from repro.core.routing import Routing

    instances = [theorem_5_4(n, k) for n, k in points]
    pairs = []
    for instance in instances:
        macro_routing = Routing.for_macro_switch(
            instance.macro, instance.flows
        )
        pairs.append((macro_routing, instance.macro.graph.capacities()))
        pairs.append(
            (
                doom_switch_routing(instance.clos, instance.flows),
                instance.clos.graph.capacities(),
            )
        )
    allocations = solve_max_min_batch(pairs)

    rows: List[DoomSwitchRow] = []
    for index, ((n, k), instance) in enumerate(zip(points, instances)):
        macro = allocations[2 * index]
        alloc = allocations[2 * index + 1]
        prediction = predict(n, k)
        comparison = compare_to_macro(alloc, macro)
        gain = alloc.throughput() / macro.throughput()
        rows.append(
            DoomSwitchRow(
                n=n,
                k=k,
                t_macro_max_min=macro.throughput(),
                t_doom=alloc.throughput(),
                gain=gain,
                predicted_gain=prediction.gain,
                upper_bound_holds=bool(gain <= 2 + 1e-9),
                num_flows=len(instance.flows),
                num_degraded=comparison.num_degraded,
                min_rate_ratio=comparison.min_ratio,
            )
        )
    return rows


def sweep(
    points: Sequence[Tuple[int, int]] = (
        (5, 1),
        (7, 1),
        (9, 1),
        (7, 4),
        (9, 4),
        (11, 8),
        (13, 16),
    ),
    backend: str = None,
) -> List[DoomSwitchRow]:
    """The (n, k) sweep of Theorem 5.4's tight construction.

    Pass ``backend="quotient"`` to extend the exact sweep to n ≥ 64
    (e.g. ``points=((65, 8),)`` — n must be odd), or
    ``backend="batched"`` to solve every point's allocations in one
    block-diagonal float batch (fastest for wide sweeps).
    """
    if backend == "batched":
        return _sweep_rows_batched(points)
    return [_sweep_point(n, k, backend=backend) for n, k in points]


class ExactBoundRow(NamedTuple):
    """Exhaustive T-MmF vs macro MmF on one small random instance."""

    n: int
    num_flows: int
    seed: int
    t_macro_max_min: Fraction
    t_t_mmf: Fraction  # exact optimum over all routings
    gain: Fraction
    upper_bound_holds: bool


def _exact_bound_point(n: int, num_flows: int, seed: int) -> ExactBoundRow:
    """One seeded instance of the exact bound check."""
    clos = ClosNetwork(n)
    macro_network = MacroSwitch(n)
    flows = uniform_random(clos, num_flows, seed=seed)
    macro = macro_switch_max_min(macro_network, flows)
    optimum = throughput_max_min_fair(clos, flows)
    gain = optimum.allocation.throughput() / macro.throughput()
    return ExactBoundRow(
        n=n,
        num_flows=num_flows,
        seed=seed,
        t_macro_max_min=macro.throughput(),
        t_t_mmf=optimum.allocation.throughput(),
        gain=gain,
        upper_bound_holds=bool(gain <= 2),
    )


def exact_bound_check(
    n: int = 2,
    num_flows: int = 6,
    seeds: Sequence[int] = range(4),
) -> List[ExactBoundRow]:
    """Exact verification of ``T^{T-MmF} ≤ 2 T^MmF`` on random instances."""
    return [_exact_bound_point(n, num_flows, seed) for seed in seeds]
