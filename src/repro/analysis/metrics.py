"""Performance metrics connecting the paper's three results.

- **Price of fairness** (R1, footnote 2): ``1 − T^MmF / T^MT`` — the
  throughput fraction forfeited by max-min fairness.
- **Rate ratios / starvation** (R2): per-flow ``network rate /
  macro-switch rate``; the minimum ratio is the worst starvation and the
  paper's relative-max-min-fairness discussion (§7) asks whether it can
  be bounded below by a constant.
- **Throughput gain** (R3): ``T(clos allocation) / T^MmF`` — how much
  routing "perverts" fairness into throughput.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Tuple

from repro.core.allocation import Allocation, Rate
from repro.core.flows import Flow


def price_of_fairness(t_max_min: Rate, t_max_throughput: Rate) -> Rate:
    """``1 − T^MmF / T^MT`` (0 when fairness costs nothing; ≤ 1/2 by Thm 3.4)."""
    if t_max_throughput == 0:
        return Fraction(0) if isinstance(t_max_min, Fraction) else 0.0
    return 1 - t_max_min / t_max_throughput


def throughput_gain(t_network: Rate, t_macro_max_min: Rate) -> Rate:
    """``T(network) / T^MmF`` (≤ 2 by Theorem 5.4)."""
    if t_macro_max_min == 0:
        raise ValueError("macro-switch max-min throughput is zero")
    return t_network / t_macro_max_min


class RateComparison(NamedTuple):
    """Per-flow comparison of a network allocation against the macro-switch."""

    ratios: Dict[Flow, Rate]  # network rate / macro rate, per flow
    min_ratio: Rate  # the worst-off flow's ratio (starvation factor)
    max_ratio: Rate  # the best-off flow's ratio
    num_degraded: int  # flows strictly below their macro rate
    num_starved: int  # flows at ratio 0


def compare_to_macro(
    network_alloc: Allocation, macro_alloc: Allocation
) -> RateComparison:
    """Per-flow rate ratios of a Clos allocation vs. the macro-switch one.

    Flows whose macro rate is zero are skipped in the ratio map (the
    macro-switch max-min allocation never assigns zero to a flow with a
    path, so this only triggers for degenerate inputs).

    Exact allocations share a few rate objects among many flows, so
    each distinct (network rate, macro rate) object pair is divided
    once, and the summaries run over the distinct ratios weighted by
    how many flows hold them.
    """
    ratios: Dict[Flow, Rate] = {}
    # (id(network rate), id(macro rate)) -> [ratio, flows]; both
    # allocations hold their rate objects, so the ids stay unique.
    pairs: Dict[Tuple[int, int], List] = {}
    for flow, macro_rate in macro_alloc.items():
        if macro_rate == 0:
            continue
        rate = network_alloc.rate(flow)
        key = (id(rate), id(macro_rate))
        entry = pairs.get(key)
        if entry is None:
            entry = pairs[key] = [rate / macro_rate, 0]
        ratios[flow] = entry[0]
        entry[1] += 1
    if not ratios:
        raise ValueError("no comparable flows")
    distinct = list(pairs.values())
    values = [ratio for ratio, _ in distinct]
    return RateComparison(
        ratios=ratios,
        min_ratio=min(values),
        max_ratio=max(values),
        num_degraded=sum(count for ratio, count in distinct if ratio < 1),
        num_starved=sum(count for ratio, count in distinct if ratio == 0),
    )


def relative_max_min_floor(comparison: RateComparison) -> Rate:
    """The relative-max-min-fairness value of an allocation (§7, R2).

    An allocation is *relative-max-min fair with floor α* when every
    flow keeps at least an ``α`` fraction of its macro-switch rate; the
    achieved floor is simply the minimum ratio.
    """
    return comparison.min_ratio


def jain_fairness_index(allocation: Allocation) -> float:
    """Jain's index ``(Σx)² / (n·Σx²)`` — 1.0 means perfectly equal rates.

    A standard summary the simulation harness reports alongside the
    paper's lexicographic comparisons (which are exact but not scalar).
    """
    values = [float(r) for r in allocation.rates().values()]
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0:
        return 1.0
    return (total * total) / (len(values) * squares)


def summarize_rates(allocation: Allocation) -> Dict[str, float]:
    """Scalar summary of an allocation: throughput, min/median/max rate, Jain."""
    vector = [float(r) for r in allocation.sorted_vector()]
    if not vector:
        return {
            "throughput": 0.0,
            "min_rate": 0.0,
            "median_rate": 0.0,
            "max_rate": 0.0,
            "jain": 1.0,
        }
    return {
        "throughput": float(allocation.throughput()),
        "min_rate": vector[0],
        "median_rate": vector[len(vector) // 2],
        "max_rate": vector[-1],
        "jain": jain_fairness_index(allocation),
    }
