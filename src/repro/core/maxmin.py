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
- The next freeze level is selected with a lazy-deletion min-heap of
  per-link saturation levels rather than an O(links) scan per round.
  Lazy deletion is sound because freezing flows can only *raise* a
  link's saturation level: a popped stale entry is always ≤ the link's
  true level and can be re-pushed without missing the global minimum.
  Freeze levels therefore come out in non-decreasing order, and the
  reported round count is the number of distinct levels — the same
  quantity the historical per-round min-scan reported.  Float mode
  counts levels within one saturation band (``_BAND``) as one, so an
  exact tie that rounding splits by an ulp is still one round.
- The algorithm is generic over the rate type.  With ``exact=True``
  capacities are coerced to :class:`fractions.Fraction` and the result is
  exact — this is what every theorem-verification path uses, since the
  paper's claims are exact rational numbers.  With ``exact=False`` the
  computation runs in floats (used by the large stochastic simulations).
- Infinite-capacity links (macro-switch interior) never constrain and
  are skipped.  A flow crossing only infinite-capacity links would have
  an unbounded rate; this cannot happen in the paper's topologies (every
  path starts and ends on a unit-capacity server link) and raises
  :class:`UnboundedRateError` if constructed by hand.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from math import gcd
from typing import Dict, List, Mapping, Set, Tuple, Union

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


class _Rat:
    """A minimal unnormalized rational used as a heap key.

    :class:`~fractions.Fraction` pays gcd normalization on construction
    and ABC dispatch on every comparison — per profile, most of the
    exact-mode water-fill.  Heap keys only ever need ``<`` (and ties
    fall through to the tiebreak counter), so a bare cross-multiplied
    comparison on a slotted pair suffices.  Denominators are positive by
    construction.
    """

    __slots__ = ("n", "d")

    def __init__(self, n: int, d: int) -> None:
        self.n = n
        self.d = d

    def __lt__(self, other: "_Rat") -> bool:
        return self.n * other.d < other.n * self.d


__all__ = [
    "UnboundedRateError",
    "max_min_fair",
    "max_min_fair_for_network",
    "validate_capacities",
]


def validate_capacities(
    link_flows: Mapping[Link, object],
    capacities: Mapping[Link, Rate],
) -> None:
    """Reject capacity maps the water-filling algorithms cannot consume.

    ``link_flows`` is keyed by the traversed links; only its keys are read.

    Raises :class:`~repro.errors.UnknownLinkError` naming *every*
    traversed link absent from ``capacities``, or
    :class:`~repro.errors.CapacityValidationError` on negative or
    non-numeric capacities — instead of a bare ``KeyError``/``TypeError``
    deep inside the solver loop.
    """
    missing = [link for link in link_flows if link not in capacities]
    if missing:
        raise UnknownLinkError(missing)
    bad: Dict[Link, Rate] = {}
    for link in link_flows:
        capacity = capacities[link]
        try:
            negative = capacity < 0
        except TypeError:
            negative = True
        if negative:
            bad[link] = capacity
    if bad:
        raise CapacityValidationError(
            f"capacities must be non-negative numbers: {bad!r}"
        )


def max_min_fair(
    routing: Routing,
    capacities: Mapping[Link, Rate],
    exact: bool = True,
) -> Allocation:
    """The max-min fair allocation for ``routing`` (water-filling).

    ``capacities`` maps every link traversed by the routing to its
    capacity.  With ``exact=True`` (default) all arithmetic is done in
    :class:`~fractions.Fraction` and the returned rates are exact.

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
    flows = routing.flows()
    if not flows:
        return Allocation({})

    link_flows: Dict[Link, List[Flow]] = routing.flows_per_link()
    validate_capacities(link_flows, capacities)

    # Links share a few capacity objects: coerce each distinct one once
    # (None for ∞).
    raw = [capacities[link] for link in link_flows]
    coerced = {
        key: None if value == _INF else (Fraction(value) if exact else float(value))
        for key, value in distinct_objects(raw).items()
    }
    finite_links: Dict[Link, Rate] = {}
    for link, value in zip(link_flows, raw):
        capacity = coerced[id(value)]
        if capacity is not None:
            finite_links[link] = capacity

    # Flows constrained by no finite link would rise forever.
    constrained: Set[Flow] = set()
    for link in finite_links:
        constrained.update(link_flows[link])
    unbounded = [f for f in flows if f not in constrained]
    if unbounded:
        raise UnboundedRateError(
            f"flows with no finite-capacity link on their path: {unbounded!r}"
        )

    zero: Rate = Fraction(0) if exact else 0.0
    rates: Dict[Flow, Rate] = {f: zero for f in flows}
    # Per finite link: residual capacity after frozen flows, count of
    # unfrozen flows.  Both are maintained incrementally.
    residual: Dict[Link, Rate] = dict(finite_links)
    unfrozen_count: Dict[Link, int] = {
        link: len(link_flows[link]) for link in finite_links
    }
    flow_links: Dict[Flow, List[Link]] = {
        f: routing.links_of(f) for f in flows
    }

    _SOLVES.inc()
    with trace_span(
        "maxmin.water_fill", flows=len(flows), exact=exact
    ) as span:
        rounds = _fill(
            flows, link_flows, flow_links, rates, residual, unfrozen_count,
            zero,
        )
        span.set(rounds=rounds)

    from repro.validate import validate_structure

    validate_structure(
        link_flows, flow_links, rates, capacities,
        context="maxmin.reference",
    )
    return Allocation(rates)


def _fill(
    flows,
    link_flows: Mapping[Link, List[Flow]],
    flow_links: Mapping[Flow, List[Link]],
    rates: Dict[Flow, Rate],
    residual: Dict[Link, Rate],
    unfrozen_count: Dict[Link, int],
    zero: Rate,
) -> int:
    """The water-filling loop; mutates ``rates`` (and the bookkeeping
    dicts) in place and returns the number of rounds (distinct freeze
    levels, up to the float saturation band).

    Saturation levels are tracked in a lazy-deletion min-heap.  An entry
    is stale when the link has fully frozen (count 0) or when freezes
    since the push raised its level; in the latter case the current
    level is re-pushed.  Because freezing can never *lower* a link's
    level, the popped minimum is always trustworthy once fresh, and the
    sequence of freeze levels is non-decreasing — the allocation is the
    same (exactly, in ``Fraction`` mode) as the historical per-round
    min-scan computed.

    Exact mode runs on raw numerator/denominator integer pairs and
    builds one normalized :class:`~fractions.Fraction` per freeze level;
    the resulting rates are identical (``Fraction`` normalizes on
    construction) at a fraction of the arithmetic cost.
    """
    if isinstance(zero, Fraction):
        return _fill_exact(
            flows, link_flows, flow_links, rates, residual, unfrozen_count
        )
    return _fill_generic(
        flows, link_flows, flow_links, rates, residual, unfrozen_count, zero
    )


def _fill_exact(
    flows,
    link_flows: Mapping[Link, List[Flow]],
    flow_links: Mapping[Flow, List[Link]],
    rates: Dict[Flow, Rate],
    residual: Dict[Link, Rate],
    unfrozen_count: Dict[Link, int],
) -> int:
    """Exact-mode water-fill over integer numerator/denominator pairs."""
    # Rate values here are Fractions (or ints), both of which expose
    # numerator/denominator directly — no wrapping needed.
    rnum: Dict[Link, int] = {}
    rden: Dict[Link, int] = {}
    for link, capacity in residual.items():
        rnum[link] = capacity.numerator
        rden[link] = capacity.denominator

    # (level, tiebreak, link): links are heterogeneous tuples that do
    # not compare with each other, so a counter breaks level ties.
    tiebreak = itertools.count()
    heap: List[Tuple] = [
        (_Rat(rnum[link], rden[link] * count), next(tiebreak), link)
        for link, count in unfrozen_count.items()
        if count
    ]
    heapq.heapify(heap)

    frozen: Set[Flow] = set()
    rounds = 0
    last_n, last_d = None, 1
    while len(frozen) < len(flows):
        if not heap:
            # All remaining flows cross only saturated... cannot happen:
            # every unfrozen flow sits on at least one finite link with
            # a positive unfrozen count (itself).
            raise AssertionError("water-filling invariant violated")
        level, _, link = heapq.heappop(heap)
        count = unfrozen_count[link]
        if count == 0:
            continue  # stale: the link fully froze after the push
        cn, cd = rnum[link], rden[link] * count
        if cn * level.d > level.n * cd:
            # Stale: freezes since the push raised this link's level.
            heapq.heappush(heap, (_Rat(cn, cd), next(tiebreak), link))
            continue

        if last_n is None or cn * last_d > last_n * cd:
            rounds += 1
            _ROUNDS.inc()
            last_n, last_d = cn, cd
            # One normalized Fraction per distinct level; consecutive
            # saturations at the same level (levels are non-decreasing)
            # reuse it.
            current = Fraction(cn, cd)
            curn, curd = current.numerator, current.denominator
        _SATURATIONS.inc()
        newly_frozen = [f for f in link_flows[link] if f not in frozen]
        _FREEZES.inc(len(newly_frozen))
        for flow in newly_frozen:
            rates[flow] = current
            frozen.add(flow)
            for other in flow_links[flow]:
                if other in rnum:
                    n = rnum[other] * curd - curn * rden[other]
                    d = rden[other] * curd
                    g = gcd(n, d)
                    if g > 1:
                        n //= g
                        d //= g
                    rnum[other] = n
                    rden[other] = d
                    unfrozen_count[other] -= 1

    return rounds


def _fill_generic(
    flows,
    link_flows: Mapping[Link, List[Flow]],
    flow_links: Mapping[Flow, List[Link]],
    rates: Dict[Flow, Rate],
    residual: Dict[Link, Rate],
    unfrozen_count: Dict[Link, int],
    zero: Rate,
) -> int:
    """Float-mode water-fill on the rate type itself (see :func:`_fill`)."""
    # (level, tiebreak, link): links are heterogeneous tuples that do
    # not compare with each other, so a monotone counter breaks ties.
    tiebreak = itertools.count()
    heap: List[Tuple] = [
        (residual[link] / count, next(tiebreak), link)
        for link, count in unfrozen_count.items()
        if count
    ]
    heapq.heapify(heap)

    frozen: Set[Flow] = set()
    total = len(flows)
    rounds = 0
    last_level = None
    while len(frozen) < total:
        if not heap:
            # Cannot happen: every unfrozen flow sits on at least one
            # finite link with a positive unfrozen count (itself).
            raise AssertionError("water-filling invariant violated")
        level, _, link = heapq.heappop(heap)
        count = unfrozen_count[link]
        if count == 0:
            continue  # stale: the link fully froze after the push
        current = residual[link] / count
        if current > level:
            # Stale: freezes since the push raised this link's level.
            heapq.heappush(heap, (current, next(tiebreak), link))
            continue
        if current < zero:
            # Float rounding can leave a residual at -1e-16; clamp so
            # the resulting rates stay non-negative.
            current = zero

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

        # Freeze every unfrozen flow on the saturating link at `current`.
        newly_frozen = [f for f in link_flows[link] if f not in frozen]
        _FREEZES.inc(len(newly_frozen))
        for flow in newly_frozen:
            rates[flow] = current
            frozen.add(flow)
            for other in flow_links[flow]:
                if other in residual:
                    residual[other] -= current
                    unfrozen_count[other] -= 1

    return rounds


def max_min_fair_for_network(
    network,
    routing: Routing,
    exact: bool = True,
) -> Allocation:
    """Convenience wrapper taking a topology object with a ``graph`` attribute."""
    return max_min_fair(routing, network.graph.capacities(), exact=exact)
