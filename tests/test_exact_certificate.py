"""The one-scan certificate and the int-id quotient match the old loops.

``certify_max_min_fair`` and its siblings now walk each routed path once
on scaled integers, and ``build_quotient`` refines colors on int ids.
The reference functions below are the two-pass ``Fraction`` certificate
and the flow/link-hashing quotient builder those replaced, kept verbatim
as oracles: the new code must return the same values, defect strings
and ``QuotientInstance`` fields, raise the same errors, and bump the
same ``quotient.*`` counters.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

import pytest

from repro import obs
from repro.core.allocation import Allocation, Rate, is_feasible
from repro.core.bottleneck import (
    bottleneck_links,
    certify_max_min_fair,
    common_scale,
    flows_without_bottleneck,
    is_max_min_fair,
    link_loads,
)
from repro.core.flows import Flow, FlowCollection
from repro.core.maxmin import max_min_fair, validate_capacities
from repro.core.quotient import (
    _FLOW_CLASSES,
    _LINK_CLASSES,
    _REFINEMENTS,
    QuotientInstance,
    build_quotient,
    quotient_max_min,
)
from repro.core.routing import Link, Routing
from repro.core.topology import ClosNetwork, MacroSwitch
from repro.errors import UnboundedRateError, UnknownLinkError
from repro.topologies.fattree import FatTree, ecmp_fat_tree_routing
from repro.validate import structure_failures
from repro.workloads.adversarial import lemma_4_6_routing, theorem_4_3

from tests.helpers import random_flows, random_routing

_INF = float("inf")


# ----------------------------------------------------------------------
# Reference certificate (two passes over Fraction loads)
# ----------------------------------------------------------------------
def _ref_bump(value: Rate, tol: float) -> Rate:
    return value + tol if tol else value


def ref_link_loads(routing: Routing, allocation: Allocation) -> Dict[Link, Rate]:
    loads: Dict[Link, Rate] = {}
    for flow in routing.flows():
        rate = allocation.rate(flow)
        for link in routing.links_of(flow):
            loads[link] = loads.get(link, 0) + rate
    return loads


def ref_bottleneck_links(routing, allocation, capacities, flow, tol=0.0):
    loads = ref_link_loads(routing, allocation)
    members = routing.flows_per_link()
    rate = allocation.rate(flow)
    result: List[Link] = []
    for link in routing.links_of(flow):
        capacity = capacities[link]
        if capacity == _INF:
            continue
        if abs(loads[link] - capacity) > tol:
            continue
        if all(allocation.rate(g) <= _ref_bump(rate, tol) for g in members[link]):
            result.append(link)
    return result


def ref_flows_without_bottleneck(routing, allocation, capacities, tol=0.0):
    loads = ref_link_loads(routing, allocation)
    members = routing.flows_per_link()
    link_max: Dict[Link, Rate] = {
        link: max(allocation.rate(g) for g in flows_on)
        for link, flows_on in members.items()
        if flows_on
    }
    missing: List[Flow] = []
    for flow in routing.flows():
        rate = allocation.rate(flow)
        has_bottleneck = False
        for link in routing.links_of(flow):
            capacity = capacities[link]
            if capacity == _INF:
                continue
            if abs(loads[link] - capacity) > tol:
                continue
            if link_max[link] <= _ref_bump(rate, tol):
                has_bottleneck = True
                break
        if not has_bottleneck:
            missing.append(flow)
    return missing


def ref_is_max_min_fair(routing, allocation, capacities, tol=0.0) -> bool:
    if not is_feasible(routing, allocation, capacities, tol=tol):
        return False
    return not ref_flows_without_bottleneck(routing, allocation, capacities, tol=tol)


def ref_certify(routing, allocation, capacities, tol=0.0) -> Optional[str]:
    if not is_feasible(routing, allocation, capacities, tol=tol):
        loads = ref_link_loads(routing, allocation)
        violated = [
            (link, loads[link], capacities[link])
            for link in loads
            if capacities[link] != _INF
            and loads[link] > _ref_bump(capacities[link], tol)
        ]
        return f"infeasible allocation; overloaded links: {violated!r}"
    missing = ref_flows_without_bottleneck(routing, allocation, capacities, tol=tol)
    if missing:
        return f"flows without a bottleneck link: {missing!r}"
    return None


# ----------------------------------------------------------------------
# Reference quotient builder (colors keyed by Flow and Link objects)
# ----------------------------------------------------------------------
def ref_build_quotient(
    routing: Routing, capacities: Mapping[Link, Rate]
) -> QuotientInstance:
    link_flows = routing.flows_per_link()
    validate_capacities(link_flows, capacities)
    flows = routing.flows()

    finite: Dict[Link, Fraction] = {}
    for link in link_flows:
        capacity = capacities[link]
        if float(capacity) != _INF:
            finite[link] = Fraction(capacity)

    flow_links: Dict[Flow, List[Link]] = {}
    unbounded: List[Flow] = []
    for flow in flows:
        mine = [l for l in routing.links_of(flow) if l in finite]
        if not mine:
            unbounded.append(flow)
        flow_links[flow] = mine
    if unbounded:
        raise UnboundedRateError(
            f"flows with no finite-capacity link on their path: {unbounded!r}"
        )

    link_color: Dict[Link, int] = {}
    palette: Dict[Fraction, int] = {}
    for link, capacity in finite.items():
        link_color[link] = palette.setdefault(capacity, len(palette))
    flow_color: Dict[Flow, int] = {flow: 0 for flow in flows}

    while True:
        _REFINEMENTS.inc()
        sig_pal: Dict[tuple, int] = {}
        new_flow = {
            flow: sig_pal.setdefault(
                (flow_color[flow],
                 tuple(sorted(link_color[l] for l in flow_links[flow]))),
                len(sig_pal),
            )
            for flow in flows
        }
        flow_stable = len(sig_pal) == len(set(flow_color.values()))

        sig_pal = {}
        new_link = {
            link: sig_pal.setdefault(
                (link_color[link],
                 tuple(sorted(new_flow[f] for f in link_flows[link]))),
                len(sig_pal),
            )
            for link in finite
        }
        link_stable = len(sig_pal) == len(set(link_color.values()))

        flow_color, link_color = new_flow, new_link
        if flow_stable and link_stable:
            break

    flow_classes: List[List[Flow]] = []
    flow_class_of: Dict[Flow, int] = {}
    index: Dict[int, int] = {}
    for flow in flows:
        color = flow_color[flow]
        if color not in index:
            index[color] = len(flow_classes)
            flow_classes.append([])
        flow_class_of[flow] = index[color]
        flow_classes[index[color]].append(flow)

    link_classes: List[List[Link]] = []
    link_class_of: Dict[Link, int] = {}
    index = {}
    for link in finite:
        color = link_color[link]
        if color not in index:
            index[color] = len(link_classes)
            link_classes.append([])
        link_class_of[link] = index[color]
        link_classes[index[color]].append(link)

    capacity = [finite[cls[0]] for cls in link_classes]
    crossing: List[Dict[int, int]] = []
    for cls in link_classes:
        counts: Dict[int, int] = {}
        for f in link_flows[cls[0]]:
            i = flow_class_of[f]
            counts[i] = counts.get(i, 0) + 1
        crossing.append(counts)
    adjacency: List[List[Tuple[int, int]]] = []
    for cls in flow_classes:
        counts = {}
        for l in flow_links[cls[0]]:
            j = link_class_of[l]
            counts[j] = counts.get(j, 0) + 1
        adjacency.append(sorted(counts.items()))

    _FLOW_CLASSES.inc(len(flow_classes))
    _LINK_CLASSES.inc(len(link_classes))
    return QuotientInstance(
        flow_classes, link_classes, capacity, crossing, adjacency
    )


# ----------------------------------------------------------------------
# Instances
# ----------------------------------------------------------------------
def _theorem(n: int):
    instance = theorem_4_3(n)
    clos = lemma_4_6_routing(instance), instance.clos.graph.capacities()
    macro = (
        Routing.for_macro_switch(instance.macro, instance.flows),
        instance.macro.graph.capacities(),
    )
    return clos, macro


def _random_clos(seed: int):
    rng = random.Random(seed)
    network = ClosNetwork(rng.randint(2, 4))
    flows = random_flows(network, rng.randint(1, 30), seed)
    return random_routing(network, flows, seed), network.graph.capacities()


def _random_fat_tree(seed: int):
    rng = random.Random(seed)
    tree = FatTree(4)
    flows = []
    for tag in range(rng.randint(1, 24)):
        src, dst = rng.sample(tree.hosts, 2)
        flows.append((src, dst, tag))
    routing = Routing(ecmp_fat_tree_routing(tree, flows, seed=seed))
    return routing, tree.graph.capacities()


def _perturbed(allocation: Allocation, index: int, delta: Rate) -> Allocation:
    rates = allocation.rates()
    flow = list(rates)[index]
    rates[flow] = rates[flow] + delta
    return Allocation(rates)


def _allocations(routing: Routing, capacities):
    """The solved allocation plus the defect-bearing variants of it."""
    exact = max_min_fair(routing, capacities)
    first = exact.rates()[routing.flows()[0]]
    yield "exact", exact, (0.0,)
    yield "lowered", _perturbed(exact, 0, -first / 2), (0.0,)
    yield "raised", _perturbed(exact, -1, Fraction(1, 7)), (0.0,)
    floats = exact.as_float()
    yield "float", floats, (0.0, 1e-9)
    yield "float-raised", _perturbed(floats, -1, 1 / 7), (0.0, 1e-9)
    yield "zero", Allocation({f: 0 for f in routing.flows()}), (0.0,)


def _assert_certificate_identical(routing, allocation, capacities, tol):
    assert certify_max_min_fair(
        routing, allocation, capacities, tol
    ) == ref_certify(routing, allocation, capacities, tol)
    assert is_max_min_fair(
        routing, allocation, capacities, tol
    ) == ref_is_max_min_fair(routing, allocation, capacities, tol)
    assert flows_without_bottleneck(
        routing, allocation, capacities, tol
    ) == ref_flows_without_bottleneck(routing, allocation, capacities, tol)
    loads = link_loads(routing, allocation)
    reference = ref_link_loads(routing, allocation)
    assert list(loads.items()) == list(reference.items())
    assert [repr(v) for v in loads.values()] == [repr(v) for v in reference.values()]
    for flow in routing.flows()[:12]:
        assert bottleneck_links(
            routing, allocation, capacities, flow, tol
        ) == ref_bottleneck_links(routing, allocation, capacities, flow, tol)


def _quotient_fields(quotient: QuotientInstance):
    return (
        quotient.flow_classes,
        quotient.link_classes,
        [(type(c), c) for c in quotient.capacity],
        [list(c.items()) for c in quotient.crossing],
        quotient.adjacency,
    )


def _assert_quotient_identical(routing, capacities):
    obs.enable()
    try:
        obs.metrics().reset()
        got = build_quotient(routing, capacities)
        got_counters = obs.metrics().snapshot()
        obs.metrics().reset()
        want = ref_build_quotient(routing, capacities)
        want_counters = obs.metrics().snapshot()
    finally:
        obs.disable()
        obs.metrics().reset()
    assert _quotient_fields(got) == _quotient_fields(want)
    # The per-flow reference indexes no routes; the counter must count
    # the routing's route runs.
    assert got_counters.pop("quotient.routes", 0) == len(routing.routes())
    assert got_counters == want_counters


# ----------------------------------------------------------------------
# Certificate equivalence
# ----------------------------------------------------------------------
class TestCertificateMatchesReference:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_theorem_4_3_lemma_4_6(self, n):
        (routing, capacities), _ = _theorem(n)
        allocation = quotient_max_min(routing, capacities)
        assert certify_max_min_fair(routing, allocation, capacities) is None
        _assert_certificate_identical(routing, allocation, capacities, 0.0)
        for delta, index in ((Fraction(-1, 1000), 0), (Fraction(1, 1000), -1)):
            changed = _perturbed(allocation, index, delta)
            assert certify_max_min_fair(routing, changed, capacities) is not None
            _assert_certificate_identical(routing, changed, capacities, 0.0)

    @pytest.mark.parametrize("n", [3, 4])
    def test_variants_on_clos_and_macro_switch(self, n):
        for routing, capacities in _theorem(n):
            for _, allocation, tols in _allocations(routing, capacities):
                for tol in tols:
                    _assert_certificate_identical(
                        routing, allocation, capacities, tol
                    )

    @pytest.mark.parametrize("seed", range(12))
    def test_random_clos(self, seed):
        routing, capacities = _random_clos(seed)
        for _, allocation, tols in _allocations(routing, capacities):
            for tol in tols:
                _assert_certificate_identical(routing, allocation, capacities, tol)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_fat_tree(self, seed):
        routing, capacities = _random_fat_tree(seed)
        for _, allocation, tols in _allocations(routing, capacities):
            for tol in tols:
                _assert_certificate_identical(routing, allocation, capacities, tol)

    def test_all_int_rates_report_int_loads(self):
        """One flow per path at rate 1: integer loads, overload printed as int."""
        clos = ClosNetwork(2)
        flows = FlowCollection()
        flows.add_pair(clos.source(1, 1), clos.destination(3, 1), count=2)
        routing = Routing.uniform(clos, flows, 1)
        capacities = clos.graph.capacities()
        over = Allocation({f: 1 for f in routing.flows()})
        report = certify_max_min_fair(routing, over, capacities)
        assert "2, 1)" in report
        _assert_certificate_identical(routing, over, capacities, 0.0)
        fair = Allocation({flows[0]: 1, flows[1]: 0})
        _assert_certificate_identical(routing, fair, capacities, 0.0)

    def test_mixed_capacity_types(self):
        """int and Fraction capacities, and a float one beside Fraction rates."""
        for seed in range(6):
            routing, capacities = _random_clos(seed)
            mixed = dict(capacities)
            for k, link in enumerate(mixed):
                if k % 3 == 0:
                    mixed[link] = Fraction(3, 2)
                elif k % 3 == 1:
                    mixed[link] = Fraction(mixed[link])
            with_float = dict(mixed)
            with_float[next(iter(with_float))] = 1.5
            for caps in (mixed, with_float):
                for _, allocation, tols in _allocations(routing, caps):
                    for tol in tols:
                        _assert_certificate_identical(
                            routing, allocation, caps, tol
                        )

    def test_mixed_int_and_fraction_rates(self):
        clos = ClosNetwork(2)
        flows = FlowCollection()
        flows.add_pair(clos.source(1, 1), clos.destination(3, 1), count=2)
        flows.add_pair(clos.source(2, 1), clos.destination(4, 1))
        routing = Routing.from_middles(
            clos, flows, {flows[0]: 1, flows[1]: 1, flows[2]: 2}
        )
        capacities = clos.graph.capacities()
        for rates in (
            [Fraction(1, 2), Fraction(1, 2), 1],
            [1, Fraction(1, 2), 2],
            [Fraction(2), 0, Fraction(3, 1)],
        ):
            allocation = Allocation(dict(zip(flows, rates)))
            _assert_certificate_identical(routing, allocation, capacities, 0.0)

    def test_empty_routing(self):
        _assert_certificate_identical(Routing({}), Allocation({}), {}, 0.0)

    def test_nan_bar_is_never_reached(self):
        """A NaN rate makes the shared source link's bar NaN; the other
        flow still finds its bottleneck on the next link of its path.

        ``Allocation`` rejects NaN rates, so the rates reach the
        certificate through a bare object with the two reads it makes.
        """
        clos = ClosNetwork(2)
        flows = FlowCollection()
        first, second = flows.add_pair(
            clos.source(1, 1), clos.destination(3, 1), count=2
        )
        routing = Routing.from_middles(clos, flows, {first: 1, second: 2})
        rates = {first: float("nan"), second: 1.0}
        with pytest.raises(ValueError, match="NaN rate"):
            Allocation(rates)
        allocation = _UncheckedRates(rates)
        capacities = clos.graph.capacities()
        for tol in (0.0, 1e-9):
            assert flows_without_bottleneck(
                routing, allocation, capacities, tol
            ) == [first] == ref_flows_without_bottleneck(
                routing, allocation, capacities, tol
            )
            assert certify_max_min_fair(
                routing, allocation, capacities, tol
            ) == ref_certify(routing, allocation, capacities, tol)
            assert bottleneck_links(
                routing, allocation, capacities, second, tol
            ) == ref_bottleneck_links(
                routing, allocation, capacities, second, tol
            ) != []


class _UncheckedRates:
    """An allocation's ``rate``/``rates`` reads over a raw map, with no
    check on the rates."""

    def __init__(self, rates: Mapping[Flow, Rate]) -> None:
        self._rates = dict(rates)

    def rate(self, flow: Flow) -> Rate:
        return self._rates[flow]

    def rates(self) -> Dict[Flow, Rate]:
        return dict(self._rates)


def _separate_paths(routing: Routing) -> Routing:
    """``routing`` with every flow on an equal but separate path object."""
    copied = Routing({flow: tuple(list(path)) for flow, path in routing.items()})
    assert all(copied.path(f) is not routing.path(f) for f in routing.flows())
    return copied


class TestSharedPathsChangeNothing:
    """Shared path objects only change the work: a routing rebuilt with
    equal paths that are separate objects gives the same quotient, the
    same rates and byte-identical certificates."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_quotient_and_rates(self, n):
        for routing, capacities in _theorem(n):
            copied = _separate_paths(routing)
            assert len(copied.routes()) == len(routing) > len(routing.routes())
            assert _quotient_fields(
                build_quotient(routing, capacities)
            ) == _quotient_fields(build_quotient(copied, capacities))
            shared = quotient_max_min(routing, capacities)
            separate = quotient_max_min(copied, capacities)
            assert list(shared.items()) == list(separate.items())
            assert shared.rates() == max_min_fair(routing, capacities).rates()

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("tol", [0.0, 1e-9])
    def test_certificates(self, n, tol):
        (type3,) = theorem_4_3(n).types["type3"]
        reports = []
        for routing, capacities in _theorem(n):
            copied = _separate_paths(routing)
            allocation = quotient_max_min(routing, capacities)
            rates = allocation.rates()
            rates[type3] /= 2
            lowered = Allocation(rates)
            for alloc in (allocation, lowered):
                for other in (routing, copied):
                    _assert_certificate_identical(other, alloc, capacities, tol)
                report = certify_max_min_fair(routing, alloc, capacities, tol)
                assert report == certify_max_min_fair(
                    copied, alloc, capacities, tol
                )
                reports.append(report)
        missing = f"flows without a bottleneck link: {[type3]!r}"
        # Clos: passing, then the halved type-3 flow has no bottleneck;
        # the macro-switch likewise.
        assert reports == [None, missing, None, missing]

    @pytest.mark.parametrize("seed", range(4))
    def test_shuffled_flow_order(self, seed):
        """Shared paths on non-consecutive flows split into more routes
        and still match the per-flow oracles, floats included."""
        (routing, capacities), _ = _theorem(3)
        items = list(routing.items())
        random.Random(seed).shuffle(items)
        shuffled = Routing(dict(items))
        assert len(routing.routes()) < len(shuffled.routes())
        _assert_quotient_identical(shuffled, capacities)
        for _, allocation, tols in _allocations(shuffled, capacities):
            for tol in tols:
                _assert_certificate_identical(
                    shuffled, allocation, capacities, tol
                )


class TestMissingRate:
    def _instance(self):
        (routing, capacities), _ = _theorem(3)
        allocation = quotient_max_min(routing, capacities)
        rates = allocation.rates()
        dropped = routing.flows()[5]
        del rates[dropped]
        return routing, Allocation(rates), capacities, dropped

    def test_certificate_reports_flows_without_rate(self):
        routing, allocation, capacities, dropped = self._instance()
        report = certify_max_min_fair(routing, allocation, capacities)
        assert report == f"no rate assigned to routed flows: {[dropped]!r}"

    def test_is_max_min_fair_is_false(self):
        routing, allocation, capacities, _ = self._instance()
        assert is_max_min_fair(routing, allocation, capacities) is False

    def test_flows_without_bottleneck_lists_the_flow(self):
        routing, allocation, capacities, dropped = self._instance()
        assert dropped in flows_without_bottleneck(routing, allocation, capacities)

    def test_bottleneck_links_still_raises_key_error(self):
        routing, allocation, capacities, dropped = self._instance()
        with pytest.raises(KeyError):
            bottleneck_links(routing, allocation, capacities, routing.flows()[0])


class TestReportsWithUnratedAndOverloadedFlows:
    """A route whose flows hold one rate object is read as one value;
    the reports stay those of the per-flow reading.  Overloaded links
    are reported in first-traversal order once every flow has a rate;
    until then the unrated flows are reported, in flow order."""

    def _instance(self, n=4):
        (routing, capacities), _ = _theorem(n)
        return routing, quotient_max_min(routing, capacities).rates(), capacities

    @staticmethod
    def _overload(routing, rates):
        # Whole routes on one rate object, and one route split between
        # two objects, spread over the routing.
        for k, (_, members) in enumerate(routing.routes()[1::5]):
            rate = Fraction(1, 1 + k % 3)
            for index, flow in enumerate(members):
                rates[flow] = rate if index % 2 or k % 4 else Fraction(1, 1)
        return rates

    @staticmethod
    def _rated_only(routing, rates):
        return Routing({f: routing.path(f) for f in routing.flows() if f in rates})

    def test_overloaded_links_match_the_reference_order(self):
        routing, rates, capacities = self._instance()
        allocation = Allocation(self._overload(routing, rates))
        report = certify_max_min_fair(routing, allocation, capacities)
        assert report.startswith("infeasible allocation; overloaded links:")
        assert report.count("), (") > 3  # several links, order matters
        _assert_certificate_identical(routing, allocation, capacities, 0.0)
        floats = allocation.as_float()
        _assert_certificate_identical(routing, floats, capacities, 1e-9)

    @pytest.mark.parametrize("drop", ["route", "partial", "both"])
    def test_unrated_flows_are_reported_first(self, drop):
        routing, rates, capacities = self._instance()
        rates = self._overload(routing, rates)
        routes = routing.routes()
        dropped = []
        if drop in ("route", "both"):
            dropped += routes[1][1]  # a whole overloaded route
        if drop in ("partial", "both"):
            dropped += routes[-1][1][:1] + routes[6][1][::2]
        for flow in dropped:
            del rates[flow]
        allocation = Allocation(rates)
        missing = [f for f in routing.flows() if f not in rates]
        report = certify_max_min_fair(routing, allocation, capacities)
        assert report == f"no rate assigned to routed flows: {missing!r}"
        assert is_max_min_fair(routing, allocation, capacities) is False
        # Rated flows are judged on the rated flows' loads alone.
        judged = set(
            ref_flows_without_bottleneck(
                self._rated_only(routing, rates), allocation, capacities
            )
        )
        assert flows_without_bottleneck(routing, allocation, capacities) == [
            f for f in routing.flows() if f not in rates or f in judged
        ]

    def test_equal_rates_on_separate_objects_change_nothing(self):
        routing, rates, capacities = self._instance(3)
        rates = self._overload(routing, rates)
        copies = {f: Fraction(r.numerator, r.denominator) for f, r in rates.items()}
        for tol in (0.0, 1e-9):
            assert certify_max_min_fair(
                routing, Allocation(copies), capacities, tol
            ) == certify_max_min_fair(routing, Allocation(rates), capacities, tol)
        # One float among a route's equal Fractions: the raw path decides.
        _, members = next(r for r in routing.routes() if len(r[1]) > 1)
        copies[members[-1]] = float(copies[members[-1]])
        _assert_certificate_identical(
            routing, Allocation(copies), capacities, 0.0
        )


class TestCommonScale:
    def test_lcm_of_denominators(self):
        assert common_scale([Fraction(1, 4), Fraction(1, 6), 3]) == 12
        assert common_scale([]) == 1
        assert common_scale([1, 2]) == 1

    @pytest.mark.parametrize("value", [0.5, True, float("inf")])
    def test_inexact_values_opt_out(self, value):
        assert common_scale([Fraction(1, 2), value]) is None


# ----------------------------------------------------------------------
# validate.structure_failures on the shared scaling
# ----------------------------------------------------------------------
class TestStructureFailuresLoads:
    def _failures(self, routing, rates, capacities, level="cheap", tol=0.0):
        flow_links = {f: routing.links_of(f) for f in routing.flows()}
        return structure_failures(
            routing.flows_per_link(), flow_links, rates, capacities, level, tol
        )

    def _expected(self, routing, rates, capacities):
        """Overload failures with the loads a direct sum from 0 has."""
        loads = ref_link_loads(routing, Allocation(rates))
        return [
            f"link {link!r} overloaded: load {load!r} > "
            f"capacity {capacities[link]!r}"
            for link, load in loads.items()
            if load > capacities[link]
        ]

    @pytest.mark.parametrize(
        "rates",
        [
            (1, 1, 2),
            (Fraction(1), Fraction(1), Fraction(3, 2)),
            (Fraction(1), Fraction(1), 2),
            (1, Fraction(1, 2), 2),
        ],
        ids=["int", "fraction", "fraction-and-int", "mixed-on-one-link"],
    )
    def test_overloaded_loads_print_like_direct_sums(self, rates):
        """int-only links print int loads, links with a Fraction print Fractions."""
        clos = ClosNetwork(2)
        flows = FlowCollection()
        flows.add_pair(clos.source(1, 1), clos.destination(3, 1), count=2)
        flows.add_pair(clos.source(2, 1), clos.destination(4, 1))
        routing = Routing.from_middles(
            clos, flows, {flows[0]: 1, flows[1]: 1, flows[2]: 2}
        )
        capacities = clos.graph.capacities()
        rates = dict(zip(flows, rates))
        failures = self._failures(routing, rates, capacities)
        assert failures
        assert failures == self._expected(routing, rates, capacities)

    def test_float_capacity_compares_exactly(self):
        clos = ClosNetwork(1)
        flows = FlowCollection()
        flows.add_pair(clos.source(1, 1), clos.destination(2, 1), count=3)
        routing = Routing.uniform(clos, flows, 1)
        capacities = {link: 1.0 for link in clos.graph.capacities()}
        third = {f: Fraction(1, 3) for f in flows}
        assert self._failures(routing, third, capacities, level="full") == []
        over = dict(third)
        over[flows[0]] = Fraction(1, 3) + Fraction(1, 10**30)
        assert self._failures(routing, over, capacities)


# ----------------------------------------------------------------------
# Quotient equivalence
# ----------------------------------------------------------------------
class TestQuotientMatchesReference:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_theorem_4_3(self, n):
        for routing, capacities in _theorem(n):
            _assert_quotient_identical(routing, capacities)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_clos(self, seed):
        _assert_quotient_identical(*_random_clos(seed))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_fat_tree(self, seed):
        _assert_quotient_identical(*_random_fat_tree(seed))

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_after_other_consumers_compiled_the_routing(self, n):
        # The route compile is cached on the routing: a quotient built
        # after the water-fill and the certificate read it is the same.
        for routing, capacities in _theorem(n):
            allocation = max_min_fair(routing, capacities)
            assert certify_max_min_fair(routing, allocation, capacities) is None
            _assert_quotient_identical(routing, capacities)

    def test_mixed_and_fraction_capacities(self):
        routing, capacities = _random_clos(3)
        mixed = {
            link: Fraction(3, 2) if k % 2 else capacity
            for k, (link, capacity) in enumerate(capacities.items())
        }
        _assert_quotient_identical(routing, mixed)

    def test_empty_routing(self):
        _assert_quotient_identical(Routing({}), {})

    def test_unknown_links_raise_the_same_error(self):
        routing, capacities = _random_clos(1)
        links = list(routing.flows_per_link())
        partial = {l: c for l, c in capacities.items() if l not in links[1::3]}
        with pytest.raises(UnknownLinkError) as got:
            build_quotient(routing, partial)
        with pytest.raises(UnknownLinkError) as want:
            ref_build_quotient(routing, partial)
        assert got.value.links == want.value.links
        assert str(got.value) == str(want.value)

    def test_unbounded_flows_raise_the_same_error(self):
        ms = MacroSwitch(2)
        flows = FlowCollection()
        flows.add_pair(ms.source(1, 1), ms.destination(2, 1))
        flows.add_pair(ms.source(2, 2), ms.destination(1, 2))
        routing = Routing.for_macro_switch(ms, flows)
        capacities = {link: _INF for link in ms.graph.capacities()}
        capacities[routing.links_of(flows[0])[0]] = 1
        with pytest.raises(UnboundedRateError) as got:
            build_quotient(routing, capacities)
        with pytest.raises(UnboundedRateError) as want:
            ref_build_quotient(routing, capacities)
        assert str(got.value) == str(want.value)
