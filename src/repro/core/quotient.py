"""Exact symmetry-quotient water-filling (the ``quotient`` backend).

The paper's adversarial instances are highly symmetric: permuting the
servers within a ToR, or the middle switches of a Clos network, maps the
instance onto itself.  Water-filling respects such symmetries — flows
related by an automorphism receive equal rates — so the allocation can
be computed on the *quotient* of the instance under its symmetries and
lifted back, turning the O(n³)-flow constructions of Theorems 4.3/5.4
into solves over a handful of equivalence classes.

Rather than enumerate automorphisms, the quotient is found by **color
refinement** (1-dimensional Weisfeiler–Leman) on the bipartite
flow–link incidence structure over the finite-capacity links:

- initial link color = its capacity; initial flow color = uniform;
- each round, a flow's color becomes (its old color, the multiset of
  its links' colors) and symmetrically for links;
- iterate to a fixpoint.

The fixpoint is an *equitable partition*: every flow in a class crosses
the same number ``d(F, L)`` of links from each link class, and every
link in a class carries the same number ``c(L, F)`` of flows from each
flow class.  That is exactly the invariant progressive filling needs —
by induction on freeze rounds, all members of a class have equal rates
and all links of a class equal residuals/counts, so the quotient
dynamics (one variable per class, weighted by ``c`` and ``d``) replay
the per-flow dynamics verbatim.  Arithmetic is pure ``Fraction``:
lifted rates are **identical** (not approximately equal) to
:func:`repro.core.maxmin.max_min_fair` with ``exact=True``, which the
property tests assert class-by-class.

Color refinement never merges flows the automorphism group keeps apart,
and refining *too little* is impossible at a fixpoint — so correctness
never depends on finding the full symmetry group; a worst-case
asymmetric instance simply degenerates to one class per flow and costs
the same as the reference solver plus the refinement passes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Tuple

from repro.errors import UnboundedRateError
from repro.core.allocation import Allocation, Rate
from repro.core.flows import Flow
from repro.core.maxmin import validate_capacities
from repro.core.routing import Link, Routing
from repro.obs import counter, trace_span

_INF = float("inf")

#: Observability instruments (no-ops unless ``repro.obs`` is enabled).
_SOLVES = counter("quotient.solves")
_REFINEMENTS = counter("quotient.refinement_rounds")
_FLOW_CLASSES = counter("quotient.flow_classes")
_LINK_CLASSES = counter("quotient.link_classes")
_ROUTES = counter("quotient.routes")

__all__ = ["QuotientInstance", "build_quotient", "quotient_max_min"]


class QuotientInstance:
    """The quotient of a routing instance under color refinement.

    ``flow_classes[i]`` lists the flows of class ``i``;
    ``link_classes[j]`` the links of class ``j`` with ``capacity[j]``
    their common capacity.  ``crossing[j][i]`` is ``c(L_j, F_i)``: how
    many class-``i`` flows cross each *single* class-``j`` link.
    ``adjacency[i]`` lists ``(j, d)`` pairs: a class-``i`` flow crosses
    ``d`` class-``j`` links.
    """

    __slots__ = (
        "flow_classes",
        "link_classes",
        "capacity",
        "crossing",
        "adjacency",
    )

    def __init__(
        self,
        flow_classes: List[List[Flow]],
        link_classes: List[List[Link]],
        capacity: List[Fraction],
        crossing: List[Dict[int, int]],
        adjacency: List[List[Tuple[int, int]]],
    ) -> None:
        self.flow_classes = flow_classes
        self.link_classes = link_classes
        self.capacity = capacity
        self.crossing = crossing
        self.adjacency = adjacency

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuotientInstance({len(self.flow_classes)} flow classes, "
            f"{len(self.link_classes)} link classes)"
        )


def build_quotient(
    routing: Routing, capacities: Mapping[Link, Rate]
) -> QuotientInstance:
    """Color-refine ``routing`` into an equitable quotient instance.

    Only finite-capacity links participate (infinite links never
    constrain any rate).  Raises
    :class:`~repro.errors.UnboundedRateError` if some flow crosses only
    infinite links.
    """
    # Routes and links as int ids, in first-traversal order
    # (:meth:`Routing.link_ids`).  Flows on one route get equal colors in
    # every round, so refinement runs on the routes, each weighted by its
    # flow count, with int ids and int colors instead of hashing flows
    # and paths.
    routes = routing.routes()
    weight = [len(members) for _, members in routes]  # route id -> flows
    link_id, route_links = routing.link_ids()
    _ROUTES.inc(len(routes))
    raw = validate_capacities(link_id, capacities)

    # Finite links, renumbered 0.. in the same order.
    links: List[Link] = []
    capacity_of: List[Rate] = []
    finite_id: List[int] = []
    for link, capacity in zip(link_id, raw):
        if capacity == _INF:
            finite_id.append(-1)
        else:
            finite_id.append(len(links))
            links.append(link)
            capacity_of.append(capacity)
    path_links = route_links  # route id -> finite link ids along it
    if len(links) < len(raw):
        path_links = [
            [finite_id[j] for j in ids if finite_id[j] >= 0]
            for ids in route_links
        ]
    unbounded = [
        flow
        for (_, members), ids in zip(routes, path_links)
        if not ids
        for flow in members
    ]
    if unbounded:
        raise UnboundedRateError(
            f"flows with no finite-capacity link on their path: {unbounded!r}"
        )
    link_paths: List[List[int]] = [[] for _ in links]  # link -> route ids
    for p, ids in enumerate(path_links):
        for k in ids:
            link_paths[k].append(p)

    # --- color refinement to a fixpoint -----------------------------------
    # Colors are small ints numbered by first appearance; each round
    # re-canonicalizes the (old color, neighbor-color multiset)
    # signatures through a dict.  A link's multiset is kept as sorted
    # (color, flow count) pairs; most links carry a single route, whose
    # pair is the whole multiset.  Equal capacities of different numeric
    # types are equal and hash alike, so they share a color.
    palette: Dict[Rate, int] = {}
    link_color = [
        palette.setdefault(capacity, len(palette)) for capacity in capacity_of
    ]
    link_count = len(palette)
    path_color = [0] * len(path_links)
    path_count = 1 if path_links else 0
    single = [
        crossing[0] if len(crossing) == 1 else -1 for crossing in link_paths
    ]

    rounds = 0
    while True:
        _REFINEMENTS.inc()
        rounds += 1
        sig_pal: Dict[tuple, int] = {}
        setdefault, colors = sig_pal.setdefault, link_color.__getitem__
        path_color = [
            setdefault((color, tuple(sorted(map(colors, mine)))), len(sig_pal))
            for color, mine in zip(path_color, path_links)
        ]
        path_stable = len(sig_pal) == path_count
        path_count = len(sig_pal)
        if path_stable and rounds > 1:
            # The link colors were refined by this same route partition
            # last round, so the link pass would split nothing either.
            break

        sig_pal = {}
        setdefault = sig_pal.setdefault
        link_color = [
            setdefault(
                (
                    color,
                    ((path_color[p], weight[p]),)
                    if p >= 0
                    else tuple(sorted(
                        _class_counts(crossing, path_color, weight).items()
                    )),
                ),
                len(sig_pal),
            )
            for color, p, crossing in zip(link_color, single, link_paths)
        ]
        link_stable = len(sig_pal) == link_count
        link_count = len(sig_pal)

        if path_stable and link_stable:
            break

    # --- assemble the quotient --------------------------------------------
    # Routes are runs of consecutive flows in flow order, so colors number
    # classes by first appearance in flow order (color == class index) and
    # each class lists its flows in flow order.
    flow_classes: List[List[Flow]] = [[] for _ in range(path_count)]
    for (_, members), color in zip(routes, path_color):
        flow_classes[color].extend(members)
    link_classes: List[List[Link]] = [[] for _ in range(link_count)]
    for link, color in zip(links, link_color):
        link_classes[color].append(link)

    link_rep = {}
    for k, color in enumerate(link_color):
        link_rep.setdefault(color, k)
    path_rep = {}
    for p, color in enumerate(path_color):
        path_rep.setdefault(color, p)
    capacity = [Fraction(capacity_of[k]) for k in link_rep.values()]
    crossing = [
        _class_counts(link_paths[k], path_color, weight)
        for k in link_rep.values()
    ]
    adjacency = [
        sorted(_class_counts(path_links[p], link_color).items())
        for p in path_rep.values()
    ]

    _FLOW_CLASSES.inc(len(flow_classes))
    _LINK_CLASSES.inc(len(link_classes))
    return QuotientInstance(
        flow_classes, link_classes, capacity, crossing, adjacency
    )


def _class_counts(
    members: List[int], color: List[int], weight: List[int] = None
) -> Dict[int, int]:
    """Color -> total weight of ``members``, in first-appearance order."""
    counts: Dict[int, int] = {}
    for m in members:
        c = color[m]
        counts[c] = counts.get(c, 0) + (1 if weight is None else weight[m])
    return counts


def _fill_quotient(quotient: QuotientInstance) -> List[Fraction]:
    """Exact water-fill on the quotient; returns one rate per flow class.

    One *representative link* per link class suffices: its residual and
    unfrozen-member count evolve identically across the class (the
    equitable-partition invariant).  The loop is the textbook min-scan —
    with tens of classes, asymptotics are irrelevant.
    """
    n_classes = len(quotient.flow_classes)
    rates: List[Fraction] = [Fraction(0)] * n_classes
    frozen = [False] * n_classes
    residual = list(quotient.capacity)
    count = [
        sum(members.values()) for members in quotient.crossing
    ]
    remaining = n_classes

    while remaining > 0:
        lam = None
        for j, n in enumerate(count):
            if n <= 0:
                continue
            level = residual[j] / n
            if lam is None or level < lam:
                lam = level
        if lam is None:
            raise AssertionError("water-filling invariant violated")
        if lam < 0:
            lam = Fraction(0)
        # Freeze every unfrozen flow class crossing a saturated class.
        newly: List[int] = []
        for j, n in enumerate(count):
            if n > 0 and residual[j] == lam * n:
                for i in quotient.crossing[j]:
                    if not frozen[i]:
                        frozen[i] = True
                        newly.append(i)
        for i in newly:
            rates[i] = lam
            remaining -= 1
            for j, d in quotient.adjacency[i]:
                crossing = quotient.crossing[j][i]
                residual[j] -= lam * crossing
                count[j] -= crossing
    return rates


def quotient_max_min(
    routing: Routing,
    capacities: Mapping[Link, Rate],
    quotient: QuotientInstance = None,
) -> Allocation:
    """Exact max-min fair allocation via symmetry quotient.

    Rates are :class:`~fractions.Fraction` and identical to
    :func:`repro.core.maxmin.max_min_fair` with ``exact=True``.  Pass a
    pre-built ``quotient`` to skip refinement when re-solving (the
    quotient depends on capacities, so it is only reusable while
    capacities are unchanged).

    >>> from repro.core.topology import MacroSwitch
    >>> from repro.core.flows import FlowCollection
    >>> ms = MacroSwitch(1)
    >>> flows = FlowCollection.from_pairs(
    ...     [(ms.source(1, 1), ms.destination(1, 1)),
    ...      (ms.source(2, 1), ms.destination(1, 1))])
    >>> routing = Routing.for_macro_switch(ms, flows)
    >>> alloc = quotient_max_min(routing, ms.graph.capacities())
    >>> alloc.sorted_vector()
    [Fraction(1, 2), Fraction(1, 2)]
    """
    if not len(routing):
        return Allocation({})
    _SOLVES.inc()
    with trace_span(
        "maxmin.water_fill_quotient", flows=len(routing)
    ) as span:
        if quotient is None:
            quotient = build_quotient(routing, capacities)
        class_rates = _fill_quotient(quotient)
        span.set(
            flow_classes=len(quotient.flow_classes),
            link_classes=len(quotient.link_classes),
        )
    rates: Dict[Flow, Fraction] = {}
    for members, rate in zip(quotient.flow_classes, class_rates):
        rates.update(dict.fromkeys(members, rate))
    allocation = Allocation(rates)
    from repro.validate import (
        record_check,
        validate_allocation,
        validation_level,
    )

    level = validation_level()
    if level == "full":
        # The independent certificate: re-derive feasibility and the
        # bottleneck condition on the *lifted* instance.
        validate_allocation(
            routing, capacities, allocation,
            level="full", tol=0.0, context="maxmin.quotient",
        )
    elif level == "cheap":
        # Certify feasibility at quotient granularity: rates are
        # constant on flow classes by construction, and every class-j
        # link is crossed by exactly crossing[j][i] class-i flows, so
        # class-level loads equal per-link loads.  O(quotient nnz) —
        # validating the lifted instance instead would cost O(full nnz)
        # and forfeit the quotient backend's entire speedup.
        failures = []
        for i, rate in enumerate(class_rates):
            if rate < 0:
                failures.append(
                    f"negative rate {rate!r} for flow class {i}"
                )
        if not failures:
            for j, cap in enumerate(quotient.capacity):
                load = sum(
                    class_rates[i] * c
                    for i, c in quotient.crossing[j].items()
                )
                if load > cap:
                    failures.append(
                        f"link class {j} overloaded: load {load!r} > "
                        f"capacity {cap!r}"
                    )
        record_check("cheap", "maxmin.quotient", failures)
    return allocation
