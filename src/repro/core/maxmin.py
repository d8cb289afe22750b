"""Water-filling computation of max-min fair allocations (Definition 2.1).

Progressive filling raises the rates of all flows simultaneously and at
the same pace; when a link saturates, the flows crossing it freeze at the
current water level, and the remaining flows continue to rise.  The
resulting allocation is the unique max-min fair allocation for the given
routing (Bertsekas & Gallager 1992; Radunović & Le Boudec 2007 — the
paper's references [6, 28]).

Implementation notes:

- All unfrozen flows always share a common rate (the *water level*), so
  each round only needs, per link, the level at which that link would
  saturate: ``(capacity − frozen rate on the link) / #unfrozen flows on
  the link``.  The minimum of these over all links is the next freeze
  level.
- The problem is built once per route (:meth:`Routing.routes`): links
  are int ids in order of first traversal (:meth:`Routing.link_ids`,
  compiled once per routing), and each route carries the ids of its
  finite links and its weight (its number of flows).
  Parallel flows share every link, so they always freeze together, and
  a round does per-route work.
- The next freeze level is selected with a lazy-deletion min-heap of
  ``(key, link id)`` entries.  Freezing flows can only *raise* a link's
  saturation level, so freeze levels come out in non-decreasing order
  and the reported round count is the number of distinct levels.
- Exact mode (``exact=True``, the default: every theorem check uses it)
  keeps each link's residual as an integer ``num/den`` pair and keys the
  heap on the float ``num / (den · count)``.  CPython divides two ints
  with correct rounding, so the key is a monotone function of the exact
  level: a strictly smaller key always means a strictly smaller level,
  and equal levels get equal keys.  The float keys can only merge
  distinct levels, never reorder them.  Each pop therefore takes every
  fresh entry that shares the minimum key, picks the exact minimum among
  them by integer cross-multiplication, freezes every link at that level
  as one round and pushes the others back.  After a round, each touched
  link whose key changed is pushed again; an entry is fresh exactly
  when its key equals the link's current key.  One normalized
  :class:`~fractions.Fraction` is built per level and handed to every
  flow frozen at it.
- Float mode (``exact=False``, the large stochastic simulations) keys
  the heap on the float level itself, breaks ties in push order, and
  subtracts the freeze level once per frozen flow, so its rates do not
  depend on how the flows group into routes.  Levels within one
  saturation band (``_BAND``) count as one round, so an exact tie that
  rounding splits by an ulp is still one round.
- Infinite-capacity links (macro-switch interior) never constrain and
  are left out of the routes' link lists.  A flow crossing only
  infinite-capacity links would have an unbounded rate; this cannot
  happen in the paper's topologies (every path starts and ends on a
  unit-capacity server link) and raises :class:`UnboundedRateError` if
  constructed by hand.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from math import gcd
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import (
    CapacityValidationError,
    UnboundedRateError,
    UnknownLinkError,
)
from repro.core.allocation import Allocation, Rate, distinct_objects
from repro.core.flows import Flow
from repro.core.routing import Link, Routing
from repro.obs import counter, trace_span

_INF = float("inf")

#: Relative width of the float saturation band: levels within
#: ``level + _BAND·(1 + level)`` of a round's first level belong to that
#: round.  Wide enough to absorb divide rounding, narrow enough (≪ the
#: 1e-12 agreement contract) not to move any rate observably.  Shared by
#: every float water-fill, so they count rounds alike.
_BAND = 1e-14

#: Observability instruments (no-ops unless ``repro.obs`` is enabled).
_SOLVES = counter("maxmin.solves")
_ROUNDS = counter("maxmin.rounds")
_SATURATIONS = counter("maxmin.saturated_links")
_FREEZES = counter("maxmin.flows_frozen")


__all__ = [
    "UnboundedRateError",
    "max_min_fair",
    "max_min_fair_for_network",
    "validate_capacities",
]


def validate_capacities(
    link_flows: Mapping[Link, object],
    capacities: Mapping[Link, Rate],
) -> List[Rate]:
    """Reject capacity maps the water-filling algorithms cannot consume.

    ``link_flows`` is keyed by the traversed links; only its keys are
    read.  Returns the capacity of each of those links, in their order.

    Raises :class:`~repro.errors.UnknownLinkError` naming *every*
    traversed link absent from ``capacities``, or
    :class:`~repro.errors.CapacityValidationError` naming every link
    whose capacity is negative, NaN or not a number — instead of a bare
    ``KeyError``/``TypeError`` deep inside the solver loop.
    """
    try:
        raw = [capacities[link] for link in link_flows]
    except KeyError:
        raise UnknownLinkError(
            [link for link in link_flows if link not in capacities]
        ) from None
    # Links share a few capacity objects: judge each distinct one once.
    # ``capacity >= 0`` is false for NaN as well as for negatives.
    rejected = set()
    for key, capacity in distinct_objects(raw).items():
        try:
            valid = capacity >= 0
        except TypeError:
            valid = False
        if not valid:
            rejected.add(key)
    if rejected:
        bad = {
            link: capacity
            for link, capacity in zip(link_flows, raw)
            if id(capacity) in rejected
        }
        raise CapacityValidationError(
            f"capacities must be non-negative numbers: {bad!r}"
        )
    return raw


def max_min_fair(
    routing: Routing,
    capacities: Mapping[Link, Rate],
    exact: bool = True,
) -> Allocation:
    """The max-min fair allocation for ``routing`` (water-filling).

    ``capacities`` maps every link traversed by the routing to its
    capacity.  With ``exact=True`` (default) all arithmetic is exact and
    the returned rates are :class:`~fractions.Fraction`.

    >>> from repro.core.topology import MacroSwitch
    >>> from repro.core.flows import FlowCollection
    >>> ms = MacroSwitch(1)
    >>> flows = FlowCollection.from_pairs(
    ...     [(ms.source(1, 1), ms.destination(1, 1)),
    ...      (ms.source(2, 1), ms.destination(1, 1))])
    >>> routing = Routing.for_macro_switch(ms, flows)
    >>> alloc = max_min_fair(routing, ms.graph.capacities())
    >>> alloc.sorted_vector()
    [Fraction(1, 2), Fraction(1, 2)]
    """
    routes = routing.routes()
    if not routes:
        return Allocation({})

    # Link ids in order of first traversal; one id tuple per route.
    link_id, route_links = routing.link_ids()
    raw = validate_capacities(link_id, capacities)

    # Links share a few capacity objects: coerce each distinct one once
    # (None for ∞).  Infinite links constrain nothing, so routes drop them.
    coerced = {
        key: None if value == _INF else (Fraction(value) if exact else float(value))
        for key, value in distinct_objects(raw).items()
    }
    capacity = [coerced[id(value)] for value in raw]
    if any(value is None for value in coerced.values()):
        route_links = [
            [link for link in links if capacity[link] is not None]
            for links in route_links
        ]
    route_flows = [members for _, members in routes]

    # Flows constrained by no finite link would rise forever.
    unbounded = [
        flow
        for members, links in zip(route_flows, route_links)
        if not links
        for flow in members
    ]
    if unbounded:
        raise UnboundedRateError(
            f"flows with no finite-capacity link on their path: {unbounded!r}"
        )

    rates: Dict[Flow, Rate] = {}
    _SOLVES.inc()
    with trace_span(
        "maxmin.water_fill", flows=len(routing), exact=exact
    ) as span:
        rounds = _fill(route_flows, route_links, capacity, rates, exact)
        span.set(rounds=rounds)

    from repro.validate import validate_structure, validation_level

    level = validation_level()
    if level != "off":
        validate_structure(
            routing.flows_per_link(),
            {flow: routing.links_of(flow) for flow in routing.flows()},
            rates, capacities, level=level,
            context="maxmin.reference",
        )
    return Allocation(rates)


def _fill(
    route_flows: Sequence[Sequence[Flow]],
    route_links: Sequence[Sequence[int]],
    capacity: Sequence[Rate],
    rates: Dict[Flow, Rate],
    exact: bool,
) -> int:
    """The water-filling loop over routes; writes each flow's rate into
    ``rates`` (in route order) and returns the number of rounds
    (distinct freeze levels, up to the float saturation band).

    ``route_links[r]`` lists the finite link ids of route ``r``, whose
    flows are ``route_flows[r]``; ``capacity[i]`` is link ``i``'s
    capacity, a ``Fraction`` when ``exact`` and a float otherwise
    (links that no route lists are never read).  Every route must
    cross at least one link.
    """
    weight = [len(flows) for flows in route_flows]
    count = [0] * len(capacity)
    link_routes: List[List[int]] = [[] for _ in capacity]
    for route, links in enumerate(route_links):
        w = weight[route]
        for link in links:
            count[link] += w
            link_routes[link].append(route)

    fill = _fill_exact if exact else _fill_float
    levels, rounds = fill(route_links, weight, capacity, count, link_routes)
    _FREEZES.inc(sum(weight))
    for flows, level in zip(route_flows, levels):
        for flow in flows:
            rates[flow] = level
    return rounds


def _fill_exact(
    route_links: Sequence[Sequence[int]],
    weight: List[int],
    capacity: Sequence[Fraction],
    count: List[int],
    link_routes: List[List[int]],
) -> Tuple[List[Fraction], int]:
    """Exact water-fill on integer residuals (see the module notes);
    returns each route's level and the round count."""
    size = len(capacity)
    num = [0] * size
    den = [1] * size
    key_of = [0.0] * size
    heap: List[Tuple[float, int]] = []
    for link, c in enumerate(count):
        if c:
            value = capacity[link]
            n = num[link] = value.numerator
            d = den[link] = value.denominator
            key = key_of[link] = _key(n, d * c)
            heap.append((key, link))
    heapq.heapify(heap)

    levels: List[Optional[Fraction]] = [None] * len(route_links)
    remaining = len(route_links)
    rounds = 0
    pop, push = heapq.heappop, heapq.heappush
    while remaining:
        if not heap:
            # Cannot happen: every unfrozen route crosses at least one
            # link with a positive unfrozen count (its own).
            raise AssertionError("water-filling invariant violated")
        key, link = pop(heap)
        if not count[link] or key_of[link] != key:
            continue  # stale: fully frozen, or raised since the push
        tied = [link]
        while heap and heap[0][0] == key:
            other = pop(heap)[1]
            if count[other] and key_of[other] == key:
                tied.append(other)

        # The exact minimum among links sharing the minimum key.
        ln, ld = num[link], den[link] * count[link]
        saturated = tied
        if len(tied) > 1:
            exact_levels = [(i, num[i], den[i] * count[i]) for i in tied]
            for _, n, d in exact_levels:
                if n * ld < ln * d:
                    ln, ld = n, d
            saturated = []
            for i, n, d in exact_levels:
                if n * ld == ln * d:
                    saturated.append(i)
                else:
                    push(heap, (key, i))

        rounds += 1
        level = Fraction(ln, ld)
        curn, curd = level.numerator, level.denominator
        # Freeze every route on the saturated links at `level`, then
        # take the frozen weight off every link those routes cross.
        dropped: Dict[int, int] = {}
        for i in saturated:
            for route in link_routes[i]:
                if levels[route] is None:
                    levels[route] = level
                    remaining -= 1
                    w = weight[route]
                    for other in route_links[route]:
                        dropped[other] = dropped.get(other, 0) + w
        for other, w in dropped.items():
            c = count[other] - w
            count[other] = c
            if not c:
                continue
            d = den[other]
            n = num[other] * curd - curn * w * d
            d *= curd
            g = gcd(n, d)
            if g > 1:
                n //= g
                d //= g
            num[other] = n
            den[other] = d
            key = _key(n, d * c)
            if key != key_of[other]:
                key_of[other] = key
                push(heap, (key, other))
        _SATURATIONS.inc(len(saturated))
    _ROUNDS.inc(rounds)
    return levels, rounds


def _key(num: int, den: int) -> float:
    """``num / den`` correctly rounded; ∞ past the float range (still
    monotone, and ties among keys are decided exactly)."""
    try:
        return num / den
    except OverflowError:
        return _INF


def _fill_float(
    route_links: Sequence[Sequence[int]],
    weight: List[int],
    capacity: Sequence[float],
    count: List[int],
    link_routes: List[List[int]],
) -> Tuple[List[float], int]:
    """Float water-fill; returns each route's level and the round count."""
    residual = list(capacity)
    # (level, tiebreak, link): equal levels pop in push order.
    tiebreak = itertools.count()
    heap: List[Tuple[float, int, int]] = [
        (residual[link] / c, next(tiebreak), link)
        for link, c in enumerate(count)
        if c
    ]
    heapq.heapify(heap)

    levels: List[Optional[float]] = [None] * len(route_links)
    remaining = len(route_links)
    rounds = 0
    last_level = None
    while remaining:
        if not heap:
            # Cannot happen: every unfrozen route crosses at least one
            # link with a positive unfrozen count (its own).
            raise AssertionError("water-filling invariant violated")
        level, _, link = heapq.heappop(heap)
        c = count[link]
        if not c:
            continue  # stale: the link fully froze after the push
        current = residual[link] / c
        if current > level:
            # Stale: freezes since the push raised this link's level.
            heapq.heappush(heap, (current, next(tiebreak), link))
            continue
        if current < 0.0:
            # Float rounding can leave a residual at -1e-16; clamp so
            # the resulting rates stay non-negative.
            current = 0.0

        if last_level is None or current > last_level + _BAND * (
            1 + last_level
        ):
            # A new round only once the level leaves the previous
            # round's saturation band (the vectorized kernel's rule),
            # so an exact tie split by an ulp stays one round.
            rounds += 1
            _ROUNDS.inc()
            last_level = current
        _SATURATIONS.inc()

        # Freeze every unfrozen route on the saturating link at
        # `current`, subtracting it once per flow.
        for route in link_routes[link]:
            if levels[route] is None:
                levels[route] = current
                remaining -= 1
                w = weight[route]
                for other in route_links[route]:
                    value = residual[other]
                    for _ in range(w):
                        value -= current
                    residual[other] = value
                    count[other] -= w
    return levels, rounds


def max_min_fair_for_network(
    network,
    routing: Routing,
    exact: bool = True,
) -> Allocation:
    """Convenience wrapper taking a topology object with a ``graph`` attribute."""
    return max_min_fair(routing, network.graph.capacities(), exact=exact)
