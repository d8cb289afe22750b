"""Allocations, throughput, and lexicographic order over sorted vectors (§2.2).

Given a routing, an *allocation* assigns each flow a non-negative rate.
An allocation is *feasible* when the total rate over each link does not
exceed its capacity.  Max-min fairness compares allocations through
their *sorted vectors* (rates sorted ascending) in lexicographic order;
this module provides that comparison both exactly (for ``Fraction``
rates) and with an explicit tolerance (for float rates).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from operator import itemgetter
from typing import (
    Collection,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.flows import Flow
from repro.core.routing import Routing

Rate = Union[int, float, Fraction]


def distinct_objects(values: Collection[Rate]) -> Dict[int, Rate]:
    """The distinct objects in ``values``, keyed by ``id``, in order of
    first appearance.

    The exact solvers hand one rate object to every flow frozen at the
    same level, so work done once per object is done once per level.
    The ids stay unique only while ``values`` holds its objects.
    """
    return dict(zip(map(id, values), values))


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
        # ``rate >= 0`` is false for NaN as well as for negative rates.
        distinct = distinct_objects(self._rates.values()).values()
        if not all(rate >= 0 for rate in distinct):
            flow, rate = next(
                (flow, rate)
                for flow, rate in self._rates.items()
                if not rate >= 0
            )
            kind = "negative" if rate < 0 else "NaN"
            raise ValueError(f"{kind} rate {rate!r} for flow {flow!r}")
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

    def _groups(self) -> List[Tuple[Rate, int]]:
        """Each distinct rate object with the number of flows holding it,
        in order of first appearance."""
        values = self._rates.values()
        counts = Counter(map(id, values))
        return list(zip(distinct_objects(values).values(), counts.values()))

    def throughput(self) -> Rate:
        """Total rate over all flows — ``t(a)`` in the paper."""
        if self._throughput is None:
            values = self._rates.values()
            if all(isinstance(rate, (int, Fraction)) for rate in values):
                # Exact sums do not depend on order: Σ rate · count.
                self._throughput = sum(
                    rate if count == 1 else rate * count
                    for rate, count in self._groups()
                )
            else:
                # Float sums do: keep the left-to-right sum over flows.
                self._throughput = sum(values)
        return self._throughput

    def sorted_vector(self) -> List[Rate]:
        """Rates sorted from lowest to highest — ``a↑`` in the paper."""
        if self._sorted is None:
            # Sort the distinct objects, then expand each to its
            # multiplicity (a stable sort, so equal rates keep their
            # order of first appearance).
            vector: List[Rate] = []
            for rate, count in sorted(self._groups(), key=itemgetter(0)):
                vector += [rate] * count
            self._sorted = tuple(vector)
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

    Vectors of different sizes compare component by component first;
    when one is a prefix of the other (within ``tol``), the shorter one
    is the smaller.
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
