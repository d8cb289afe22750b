"""The bottleneck property — certifying max-min fairness (Lemma 2.2).

A link is a *bottleneck* for a flow crossing it when (1) the link is
saturated, and (2) the flow's rate is maximum among all flows crossing
the link.  Lemma 2.2 (Bertsekas & Gallager): a feasible allocation is
max-min fair **iff every flow has a bottleneck link**.

This gives an independent certificate for the water-filling output, and
is the verification route the paper itself uses ("the proof follows from
the routine application of the bottleneck property", Lemmas 4.4/4.6) —
so our theorem tests certify the paper's posited allocations exactly the
way the proofs do.

Every check here rests on one scan that walks each route
(:meth:`Routing.routes`: a run of flows sharing one path object) once,
over the routing's int link ids (:meth:`Routing.link_ids`), filling
each link's load and maximum member rate together.  A route whose flows
all hold one rate object is read as that value once.  With
``tol == 0`` and only ``int``/``Fraction`` rates and finite capacities,
the scan first multiplies every value by the LCM of their denominators
(:func:`common_scale`), so loads, saturation and max-member tests are
exact integer operations equivalent to the ``Fraction`` ones, and a
route adds its flows' total once per link; otherwise it runs on the raw
values, flow by flow, with the same summation order and absolute
``tol`` tests as a direct per-link sum.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, repeat
from operator import is_
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
)

from repro.core.allocation import Allocation, Rate
from repro.core.flows import Flow
from repro.core.routing import Link, Routing

_INF = float("inf")


def _bump(value: Rate, tol: float) -> Rate:
    """``value + tol`` without coercing exact rates to float when ``tol == 0``."""
    return value + tol if tol else value


def common_scale(values: Iterable[Rate]) -> Optional[int]:
    """The LCM of the denominators of ``values``; ``None`` if one is inexact.

    Multiplying each ``int``/``Fraction`` value by the result puts it on
    the integers, where sums and comparisons are exact and cheap.  The
    denominators are collected as ints: hashing a ``Fraction`` costs
    more than the arithmetic it would save.

    >>> common_scale([Fraction(1, 4), 2, Fraction(5, 6)])
    12
    >>> common_scale([Fraction(1, 2), 0.5]) is None
    True
    """
    denominators = set()
    for value in values:
        cls = value.__class__
        if cls is Fraction:
            denominators.add(value.denominator)
        elif cls is not int:
            return None
    return math.lcm(*denominators)


class _Scan(NamedTuple):
    """What one walk over the routes found, in scan units."""

    scale: Optional[int]  # None: the raw values
    # Per route: its flows' values, or a single value when every flow of
    # the route holds the same rate object.  None = no rate.
    values: List[Sequence[Optional[Rate]]]
    missing: List[Flow]  # routed flows without a rate
    overloaded: List[Link]  # beyond capacity (+ tol), first-traversal order
    bars: List[Optional[Rate]]  # link id -> max member value if saturated


def _scaled(value: Rate, scale: Optional[int]) -> Rate:
    if scale is None:
        return value
    return value.numerator * (scale // value.denominator)


def _scan(
    routing: Routing,
    allocation: Allocation,
    capacities: Mapping[Link, Rate],
    tol: float,
) -> _Scan:
    routes = routing.routes()
    link_id, route_links = routing.link_ids()
    rates = allocation.rates()
    get = rates.get
    # Flows of one route usually share one rate object: such a route
    # keeps that object alone, and each distinct object is inspected
    # (and scaled) once.
    values: List[Sequence[Optional[Rate]]] = []
    distinct: Dict[int, Optional[Rate]] = {}
    for _, members in routes:
        first = get(members[0])
        if len(members) == 1 or all(map(is_, map(get, members), repeat(first))):
            values.append((first,))
            distinct[id(first)] = first
        else:
            mine = list(map(get, members))
            values.append(mine)
            distinct.update(zip(map(id, mine), mine))
    missing: List[Flow] = []
    if id(None) in distinct:
        missing = [flow for flow in routing.flows() if flow not in rates]
    scale = None
    if not tol:
        scale = common_scale(chain(
            (value for value in distinct.values() if value is not None),
            (c for c in capacities.values() if c != _INF),
        ))
        if scale is not None:
            scaled = {
                key: None if value is None else _scaled(value, scale)
                for key, value in distinct.items()
            }
            values = [
                list(map(scaled.__getitem__, map(id, mine))) for mine in values
            ]
    load: List[Rate] = [0] * len(link_id)
    top: List[Optional[Rate]] = [None] * len(link_id)  # max member value
    for (_, members), mine, ids in zip(routes, values, route_links):
        # A route holding one rate object is that value, ``weight`` times.
        weight = 1
        if len(mine) == 1:
            weight = len(members)
        elif missing:
            mine = [value for value in mine if value is not None]
        if not mine or mine[0] is None:
            continue
        if scale is not None:
            # Exact ints: a route adds its total and its maximum once.
            total, peak = sum(mine) * weight, max(mine)
            for j in ids:
                load[j] += total
                if top[j] is None or peak > top[j]:
                    top[j] = peak
            continue
        # Raw values: add flow by flow, in flow order (routes are runs of
        # consecutive flows), so float loads match a direct per-link sum.
        for value in mine * weight:
            for j in ids:
                load[j] += value
                if top[j] is None or value > top[j]:
                    top[j] = value
    # Links no route with a rate crosses have no max member and are
    # skipped.
    overloaded: List[Link] = []
    bars: List[Optional[Rate]] = [None] * len(link_id)
    for j, (link, total, peak) in enumerate(zip(link_id, load, top)):
        if peak is None:
            continue
        capacity = capacities[link]
        if capacity == _INF:
            continue
        capacity = _scaled(capacity, scale)
        if total > _bump(capacity, tol):
            overloaded.append(link)
        if not abs(total - capacity) > tol:
            bars[j] = peak
    return _Scan(scale, values, missing, overloaded, bars)


def _without_bottleneck(
    routing: Routing, scan: _Scan, tol: float
) -> List[Flow]:
    """Flows with no saturated link on which their rate is maximal.

    Whether a rate is maximal on a link depends only on the link's
    maximum, so each saturated link carries just that, and a route
    only its lowest such bar: a flow has a bottleneck iff its rate
    (+ ``tol``) reaches its route's bar.  A NaN bar is never reached,
    so it is left out.  A flow without a rate has no bottleneck either.
    """
    bars = scan.bars
    result: List[Flow] = []
    for (_, members), mine, ids in zip(
        routing.routes(), scan.values, routing.link_ids()[1]
    ):
        bar = None
        for j in ids:
            here = bars[j]
            if here is not None and here == here and (bar is None or here < bar):
                bar = here
        if bar is None:
            result.extend(members)
        elif len(mine) == 1:
            (value,) = mine
            if value is None or not bar <= _bump(value, tol):
                result.extend(members)
        else:
            result.extend(
                flow
                for flow, value in zip(members, mine)
                if value is None or not bar <= _bump(value, tol)
            )
    return result


def link_loads(routing: Routing, allocation: Allocation) -> Dict[Link, Rate]:
    """Total allocated rate per traversed link."""
    loads: Dict[Link, Rate] = {}
    for flow in routing.flows():
        rate = allocation.rate(flow)
        for link in routing.links_of(flow):
            loads[link] = loads.get(link, 0) + rate
    return loads


def bottleneck_links(
    routing: Routing,
    allocation: Allocation,
    capacities: Mapping[Link, Rate],
    flow: Flow,
    tol: float = 0.0,
) -> List[Link]:
    """All bottleneck links of ``flow`` under the allocation.

    A link ``(u, v)`` on the flow's path qualifies when the total rate
    across it equals the capacity (within ``tol``) and the flow's rate is
    maximal among the flows crossing it (within ``tol``).
    """
    scan = _scan(routing, allocation, capacities, tol)
    if scan.missing:
        raise KeyError(scan.missing[0])
    rate = allocation.rate(flow)
    path = routing.links_of(flow)
    level = _bump(_scaled(rate, scan.scale), tol)
    link_id = routing.link_ids()[0]
    bars = [scan.bars[link_id[link]] for link in path]
    return [
        link
        for link, bar in zip(path, bars)
        if bar is not None and bar <= level
    ]


def flows_without_bottleneck(
    routing: Routing,
    allocation: Allocation,
    capacities: Mapping[Link, Rate],
    tol: float = 0.0,
) -> List[Flow]:
    """Flows that have **no** bottleneck link (empty iff max-min fair).

    Routed flows the allocation assigns no rate are listed too.
    """
    return _without_bottleneck(
        routing, _scan(routing, allocation, capacities, tol), tol
    )


def is_max_min_fair(
    routing: Routing,
    allocation: Allocation,
    capacities: Mapping[Link, Rate],
    tol: float = 0.0,
) -> bool:
    """Lemma 2.2 check: feasible and every flow has a bottleneck link.

    ``False`` when a routed flow has no rate.
    """
    scan = _scan(routing, allocation, capacities, tol)
    return not (
        scan.missing
        or scan.overloaded
        or _without_bottleneck(routing, scan, tol)
    )


def certify_max_min_fair(
    routing: Routing,
    allocation: Allocation,
    capacities: Mapping[Link, Rate],
    tol: float = 0.0,
) -> Optional[str]:
    """Return ``None`` if max-min fair, else a human-readable defect report.

    The report names, in this order of precedence: routed flows with no
    rate, overloaded links (with loads in the allocation's units), or
    flows without a bottleneck link.
    """
    scan = _scan(routing, allocation, capacities, tol)
    if scan.missing:
        return f"no rate assigned to routed flows: {scan.missing!r}"
    if scan.overloaded:
        loads = link_loads(routing, allocation)
        violated = [
            (link, loads[link], capacities[link]) for link in scan.overloaded
        ]
        return f"infeasible allocation; overloaded links: {violated!r}"
    missing = _without_bottleneck(routing, scan, tol)
    if missing:
        return f"flows without a bottleneck link: {missing!r}"
    return None
