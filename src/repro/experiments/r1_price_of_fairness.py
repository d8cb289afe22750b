"""Experiment E2 — Figure 2 / Theorem 3.4 (R1): the price of fairness.

Sweeps the adversarial parameter ``k`` (number of parallel type-2 flows)
and reports, for each ``k``:

- ``T^MT`` — maximum throughput (matching), measured;
- ``T^MmF`` — max-min fair throughput (water-filling), measured;
- the ratio and the paper's closed-form prediction ``(1 + 1/(k+1))/2``;

and additionally validates the theorem's *universal* lower bound
``T^MmF ≥ T^MT / 2`` on random workloads, where the paper gives a proof
but no experiment.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Sequence

from repro.core.objectives import macro_switch_max_min
from repro.core.theorems import theorem_3_4 as predict
from repro.core.throughput import max_throughput_value
from repro.core.topology import ClosNetwork, MacroSwitch
from repro.workloads.adversarial import theorem_3_4
from repro.workloads.stochastic import hotspot, uniform_random


class PriceOfFairnessRow(NamedTuple):
    """One sweep point of E2."""

    k: int
    t_max_throughput: Fraction
    t_max_min: Fraction
    ratio: Fraction
    predicted_ratio: Fraction
    matches: bool


def _sweep_point(k: int) -> PriceOfFairnessRow:
    """One k of the Theorem 3.4 sweep."""
    instance = theorem_3_4(1, k)
    t_mt = Fraction(max_throughput_value(instance.flows))
    t_mmf = macro_switch_max_min(instance.macro, instance.flows).throughput()
    prediction = predict(k)
    return PriceOfFairnessRow(
        k=k,
        t_max_throughput=t_mt,
        t_max_min=t_mmf,
        ratio=t_mmf / t_mt,
        predicted_ratio=prediction.ratio,
        matches=(
            t_mt == prediction.max_throughput
            and t_mmf == prediction.max_min_throughput
        ),
    )


def sweep(
    ks: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
) -> List[PriceOfFairnessRow]:
    """The adversarial sweep of Theorem 3.4's tight construction."""
    return [_sweep_point(k) for k in ks]


class RandomBoundRow(NamedTuple):
    """One random-workload validation of ``T^MmF ≥ T^MT / 2``."""

    workload: str
    seed: int
    t_max_throughput: Fraction
    t_max_min: Fraction
    bound_holds: bool


def _random_bound_point(
    n: int, num_flows: int, name: str, seed: int
) -> RandomBoundRow:
    """One (workload, seed) check."""
    clos = ClosNetwork(n)
    macro = MacroSwitch(n)
    generator = uniform_random if name == "uniform" else hotspot
    flows = generator(clos, num_flows, seed=seed)
    t_mt = Fraction(max_throughput_value(flows))
    t_mmf = macro_switch_max_min(macro, flows).throughput()
    return RandomBoundRow(
        workload=name,
        seed=seed,
        t_max_throughput=t_mt,
        t_max_min=t_mmf,
        bound_holds=bool(2 * t_mmf >= t_mt),
    )


def random_bound_check(
    n: int = 3,
    num_flows: int = 40,
    seeds: Sequence[int] = range(5),
) -> List[RandomBoundRow]:
    """Validate Theorem 3.4's lower bound on stochastic macro-switch inputs."""
    return [
        _random_bound_point(n, num_flows, name, seed)
        for seed in seeds
        for name in ("uniform", "hotspot")
    ]
