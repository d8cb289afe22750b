"""Allocations, throughput, and lexicographic order over sorted vectors (§2.2).

Given a routing, an *allocation* assigns each flow a non-negative rate.
An allocation is *feasible* when the total rate over each link does not
exceed its capacity.  Max-min fairness compares allocations through
their *sorted vectors* (rates sorted ascending) in lexicographic order;
this module provides that comparison both exactly (for ``Fraction``
rates) and with an explicit tolerance (for float rates).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.flows import Flow
from repro.core.routing import Routing

Rate = Union[int, float, Fraction]


class Allocation:
    """A per-flow rate assignment.

    >>> from repro.core.nodes import Source, Destination
    >>> f = Flow(Source(1, 1), Destination(1, 1))
    >>> a = Allocation({f: Fraction(1, 3)})
    >>> a.throughput()
    Fraction(1, 3)
    >>> a.sorted_vector()
    [Fraction(1, 3)]
    """

    def __init__(self, rates: Mapping[Flow, Rate]) -> None:
        self._rates: Dict[Flow, Rate] = dict(rates)
        # Flows of one route usually share one rate object: test each
        # distinct object once, and name the first offending flow.
        values = self._rates.values()
        distinct = dict(zip(map(id, values), values)).values()
        if any(rate < 0 for rate in distinct):
            flow, rate = next(
                (flow, rate) for flow, rate in self._rates.items() if rate < 0
            )
            raise ValueError(f"negative rate {rate!r} for flow {flow!r}")
        # Sorted vector and throughput, computed once on demand:
        # allocations are immutable, and the search layers compare the
        # same incumbent's sorted vector against every candidate.
        self._sorted: Optional[Tuple[Rate, ...]] = None
        self._throughput: Optional[Rate] = None

    def rate(self, flow: Flow) -> Rate:
        """The rate assigned to ``flow``."""
        return self._rates[flow]

    def __getitem__(self, flow: Flow) -> Rate:
        return self._rates[flow]

    def __contains__(self, flow: Flow) -> bool:
        return flow in self._rates

    def __len__(self) -> int:
        return len(self._rates)

    def items(self) -> Iterable[Tuple[Flow, Rate]]:
        return self._rates.items()

    def flows(self) -> List[Flow]:
        return list(self._rates)

    def rates(self) -> Dict[Flow, Rate]:
        """A copy of the flow → rate map."""
        return dict(self._rates)

    def throughput(self) -> Rate:
        """Total rate over all flows — ``t(a)`` in the paper."""
        if self._throughput is None:
            self._throughput = sum(self._rates.values())
        return self._throughput

    def sorted_vector(self) -> List[Rate]:
        """Rates sorted from lowest to highest — ``a↑`` in the paper."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self._rates.values()))
        return list(self._sorted)

    def as_float(self) -> "Allocation":
        """A copy with every rate converted to float."""
        return Allocation({f: float(r) for f, r in self._rates.items()})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Allocation({len(self._rates)} flows, t={self.throughput()})"


def lex_compare(
    left: Sequence[Rate], right: Sequence[Rate], tol: float = 0.0
) -> int:
    """Lexicographic three-way comparison of two sorted vectors.

    Returns ``-1`` if ``left < right``, ``0`` if equal, ``1`` if
    ``left > right`` — all in lexicographic order with per-component
    tolerance ``tol`` (use ``tol=0`` with exact ``Fraction`` rates).

    Following the convention for max-min comparisons over allocations of
    different sizes, a missing component compares as *larger* than any
    present one (a strict prefix is lexicographically smaller only if a
    differing component is found first; equal-prefix shorter vectors are
    treated as smaller).
    """
    for a, b in zip(left, right):
        if a < (b - tol if tol else b):
            return -1
        if a > (b + tol if tol else b):
            return 1
    if len(left) == len(right):
        return 0
    return -1 if len(left) < len(right) else 1


def lex_greater_or_equal(
    left: Sequence[Rate], right: Sequence[Rate], tol: float = 0.0
) -> bool:
    """True if ``left ≥ right`` in lexicographic order (``a↑ ⪰ a'↑``)."""
    return lex_compare(left, right, tol=tol) >= 0


def is_feasible(
    routing: Routing,
    allocation: Allocation,
    capacities: Mapping[Tuple, Rate],
    tol: float = 0.0,
) -> bool:
    """Feasibility check: per-link total rate ≤ capacity (+ ``tol``).

    ``capacities`` maps links to capacities (see
    ``DiGraph.capacities()``); infinite capacities always pass.
    """
    loads: Dict[Tuple, Rate] = {}
    for flow in routing.flows():
        rate = allocation.rate(flow)
        for link in routing.links_of(flow):
            loads[link] = loads.get(link, 0) + rate
    for link, load in loads.items():
        capacity = capacities[link]
        if capacity == float("inf"):
            continue
        if load > (capacity + tol if tol else capacity):
            return False
    return True


def link_utilizations(
    routing: Routing,
    allocation: Allocation,
    capacities: Mapping[Tuple, Rate],
) -> Dict[Tuple, Rate]:
    """Per-link load / capacity ratios (finite-capacity links only)."""
    loads: Dict[Tuple, Rate] = {}
    for flow in routing.flows():
        rate = allocation.rate(flow)
        for link in routing.links_of(flow):
            loads[link] = loads.get(link, 0) + rate
    result: Dict[Tuple, Rate] = {}
    for link, load in loads.items():
        capacity = capacities[link]
        if capacity != float("inf"):
            result[link] = load / capacity
    return result
