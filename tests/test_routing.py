"""Unit tests for routings and middle-switch assignments."""

import pytest

from repro.core.flows import Flow, FlowCollection
from repro.core.nodes import MiddleSwitch
from repro.core.routing import Routing, all_middle_assignments
from repro.core.topology import ClosNetwork, MacroSwitch

from tests.helpers import random_flows


@pytest.fixture
def clos():
    return ClosNetwork(2)


@pytest.fixture
def two_flows(clos):
    return FlowCollection(
        [
            Flow(clos.source(1, 1), clos.destination(3, 1)),
            Flow(clos.source(1, 2), clos.destination(3, 2)),
        ]
    )


class TestConstructors:
    def test_from_middles(self, clos, two_flows):
        f1, f2 = list(two_flows)
        routing = Routing.from_middles(clos, two_flows, {f1: 1, f2: 2})
        assert routing.middle_of(clos, f1) == MiddleSwitch(1)
        assert routing.middle_of(clos, f2) == MiddleSwitch(2)

    def test_from_middles_missing_flow_raises(self, clos, two_flows):
        f1, _ = list(two_flows)
        with pytest.raises(ValueError, match="no middle switch"):
            Routing.from_middles(clos, two_flows, {f1: 1})

    def test_uniform(self, clos, two_flows):
        routing = Routing.uniform(clos, two_flows, 2)
        for f in two_flows:
            assert routing.middle_of(clos, f) == MiddleSwitch(2)

    def test_macro_switch_routing(self, two_flows):
        ms = MacroSwitch(2)
        routing = Routing.for_macro_switch(ms, two_flows)
        for f in two_flows:
            assert routing.path(f)[0] == f.source
            assert routing.path(f)[-1] == f.dest
            assert len(routing.path(f)) == 4

    def test_len_and_contains(self, clos, two_flows):
        routing = Routing.uniform(clos, two_flows, 1)
        assert len(routing) == 2
        assert two_flows[0] in routing
        outsider = Flow(clos.source(2, 1), clos.destination(2, 1))
        assert outsider not in routing


class TestSharedPaths:
    """Parallel flows get one path object, and routes() groups them."""

    def test_from_middles_shares_one_path_per_middle(self, clos):
        flows = FlowCollection()
        a, b, c = flows.add_pair(clos.source(1, 1), clos.destination(3, 1), count=3)
        (d,) = flows.add_pair(clos.source(2, 1), clos.destination(3, 1))
        routing = Routing.from_middles(clos, flows, {a: 1, b: 1, c: 2, d: 1})
        assert routing.path(a) is routing.path(b)
        assert routing.path(c) is not routing.path(a)
        assert routing.path(d) is not routing.path(a)
        assert routing.path(a) == clos.path_via(a.source, a.dest, 1)
        assert routing.path(c) == clos.path_via(c.source, c.dest, 2)

    def test_for_macro_switch_shares_one_path_per_pair(self):
        ms = MacroSwitch(2)
        flows = FlowCollection()
        a, b = flows.add_pair(ms.source(1, 1), ms.destination(2, 1), count=2)
        (c,) = flows.add_pair(ms.source(1, 2), ms.destination(2, 1))
        (d,) = flows.add_pair(ms.source(1, 1), ms.destination(2, 1))
        routing = Routing.for_macro_switch(ms, flows)
        assert routing.path(a) is routing.path(b)
        assert routing.path(c) is not routing.path(a)
        assert routing.path(d) is routing.path(a)  # not adjacent to a, b
        assert routing.path(c) == ms.path(c.source, c.dest)

    def test_sharing_is_local_to_one_call(self, clos):
        flows = FlowCollection()
        flows.add_pair(clos.source(1, 1), clos.destination(3, 1), count=2)
        first = Routing.uniform(clos, flows, 1)
        second = Routing.uniform(clos, flows, 1)
        assert first.path(flows[0]) is not second.path(flows[0])
        assert dict(first.items()) == dict(second.items())

    def test_theorem_4_3_has_one_route_per_distinct_path(self):
        from repro.workloads.adversarial import lemma_4_6_routing, theorem_4_3

        n = 4
        instance = theorem_4_3(n)
        for routing in (
            lemma_4_6_routing(instance),
            Routing.for_macro_switch(instance.macro, instance.flows),
        ):
            routes = routing.routes()
            # n(n-1) type-1 pairs of n+1 flows, n type-2.a, n(n-1)
            # type-2.b and one type-3 flow, each pair on its own path.
            assert len(routes) == 2 * n * (n - 1) + n + 1
            assert len({id(path) for path, _ in routes}) == len(routes)
            assert {len(members) for _, members in routes} == {1, n + 1}

    def test_routes_are_runs_in_flow_order(self, clos):
        flows = FlowCollection()
        a, b, c = flows.add_pair(clos.source(1, 1), clos.destination(3, 1), count=3)
        (d,) = flows.add_pair(clos.source(2, 1), clos.destination(3, 2))
        shared = Routing.from_middles(clos, flows, {a: 1, b: 1, c: 1, d: 2})
        assert [members for _, members in shared.routes()] == [(a, b, c), (d,)]
        # The same path object on non-consecutive flows: one run each.
        interleaved = Routing({f: shared.path(f) for f in (a, d, b, c)})
        assert [members for _, members in interleaved.routes()] == [
            (a,), (d,), (b, c),
        ]
        # Equal paths that are separate objects: one run per object.
        copies = Routing({f: tuple(list(shared.path(f))) for f in flows})
        assert [members for _, members in copies.routes()] == [
            (a,), (b,), (c,), (d,),
        ]
        for routing in (shared, interleaved, copies):
            assert [f for _, m in routing.routes() for f in m] == routing.flows()
            for path, members in routing.routes():
                assert all(routing.path(f) is path for f in members)

    def test_empty_routing_has_no_routes(self):
        assert Routing({}).routes() == ()


def _zip_links(routing):
    """The per-route ``zip`` compile the solvers used to do themselves."""
    ids = {}
    route_links = [
        tuple(ids.setdefault(link, len(ids)) for link in zip(path, path[1:]))
        for path, _ in routing.routes()
    ]
    return list(ids), route_links


class TestLinkIds:
    def _routings(self):
        from repro.workloads.adversarial import lemma_4_6_routing, theorem_4_3

        instance = theorem_4_3(3)
        clos = ClosNetwork(3)
        flows = random_flows(clos, 25, seed=4)
        middles = {f: 1 + k % 3 for k, f in enumerate(flows)}
        yield lemma_4_6_routing(instance)
        yield Routing.for_macro_switch(instance.macro, instance.flows)
        yield Routing.from_middles(clos, flows, middles)
        # Equal paths as separate objects, interleaved with shared ones.
        yield Routing(
            {f: tuple(list(p)) if k % 2 else p
             for k, (f, p) in enumerate(Routing.from_middles(
                 clos, flows, middles).items())}
        )

    def test_matches_the_zip_compile_in_first_traversal_order(self):
        for routing in self._routings():
            ids, route_links = routing.link_ids()
            links, want = _zip_links(routing)
            assert list(ids) == links
            assert list(ids.values()) == list(range(len(links)))
            assert list(route_links) == want
            for (path, _), mine in zip(routing.routes(), route_links):
                assert [links[j] for j in mine] == list(zip(path, path[1:]))

    def test_computed_once(self):
        from repro.core.bottleneck import certify_max_min_fair
        from repro.core.maxmin import max_min_fair
        from repro.core.quotient import build_quotient

        routing = next(self._routings())
        compiled = routing.link_ids()
        assert routing.link_ids() is compiled
        capacities = ClosNetwork(3).graph.capacities()
        allocation = max_min_fair(routing, capacities)
        build_quotient(routing, capacities)
        assert certify_max_min_fair(routing, allocation, capacities) is None
        assert routing.link_ids() is compiled

    def test_solvers_compile_through_it(self, monkeypatch):
        from repro.core.bottleneck import certify_max_min_fair
        from repro.core.maxmin import max_min_fair
        from repro.core.quotient import build_quotient

        routing = next(self._routings())
        capacities = ClosNetwork(3).graph.capacities()
        allocation = max_min_fair(routing, capacities)
        calls = []
        compile_links = Routing.link_ids

        def counted(self):
            calls.append(self)
            return compile_links(self)

        monkeypatch.setattr(Routing, "link_ids", counted)
        for consumer in (
            lambda: max_min_fair(routing, capacities),
            lambda: build_quotient(routing, capacities),
            lambda: certify_max_min_fair(routing, allocation, capacities),
        ):
            calls.clear()
            consumer()
            assert calls and all(r is routing for r in calls)

    def test_empty_routing(self):
        assert Routing({}).link_ids() == ({}, ())


class TestQueries:
    def test_middles_roundtrip(self, clos, two_flows):
        f1, f2 = list(two_flows)
        middles = {f1: 2, f2: 1}
        routing = Routing.from_middles(clos, two_flows, middles)
        assert routing.middles(clos) == middles

    def test_links_of(self, clos, two_flows):
        f1, _ = list(two_flows)
        routing = Routing.uniform(clos, two_flows, 1)
        links = routing.links_of(f1)
        assert len(links) == 4
        assert links[0] == (f1.source, clos.input_switches[0])

    def test_flows_per_link_shared_source_link(self, clos):
        # two parallel flows share every link of their common path
        flows = FlowCollection()
        flows.add_pair(clos.source(1, 1), clos.destination(3, 1), count=2)
        routing = Routing.uniform(clos, flows, 1)
        loads = routing.flows_per_link()
        for link, members in loads.items():
            assert len(members) == 2

    def test_validate_passes_for_consistent_routing(self, clos, two_flows):
        routing = Routing.uniform(clos, two_flows, 1)
        routing.validate(clos.graph)  # should not raise

    def test_validate_rejects_foreign_path(self, clos, two_flows):
        f1, f2 = list(two_flows)
        bad_paths = {
            f1: clos.path_via(f1.source, f1.dest, 1),
            # path belongs to f1's endpoints, not f2's
            f2: clos.path_via(f1.source, f1.dest, 1),
        }
        routing = Routing(bad_paths)
        with pytest.raises(ValueError, match="endpoints"):
            routing.validate(clos.graph)


class TestReassigned:
    def test_moves_single_flow(self, clos, two_flows):
        f1, f2 = list(two_flows)
        routing = Routing.uniform(clos, two_flows, 1)
        moved = routing.reassigned(clos, f1, 2)
        assert moved.middle_of(clos, f1) == MiddleSwitch(2)
        assert moved.middle_of(clos, f2) == MiddleSwitch(1)

    def test_original_untouched(self, clos, two_flows):
        f1, _ = list(two_flows)
        routing = Routing.uniform(clos, two_flows, 1)
        routing.reassigned(clos, f1, 2)
        assert routing.middle_of(clos, f1) == MiddleSwitch(1)

    def test_unknown_flow_raises(self, clos, two_flows):
        routing = Routing.uniform(clos, two_flows, 1)
        outsider = Flow(clos.source(2, 1), clos.destination(2, 1))
        with pytest.raises(KeyError):
            routing.reassigned(clos, outsider, 1)


class TestAllMiddleAssignments:
    def test_counts(self, clos, two_flows):
        assignments = list(all_middle_assignments(two_flows, clos.n))
        assert len(assignments) == clos.n ** len(two_flows)

    def test_all_distinct(self, clos, two_flows):
        assignments = list(all_middle_assignments(two_flows, clos.n))
        as_tuples = {tuple(sorted((repr(f), m) for f, m in a.items())) for a in assignments}
        assert len(as_tuples) == len(assignments)

    def test_empty_collection(self):
        assert list(all_middle_assignments(FlowCollection(), 3)) == [{}]

    def test_random_instance_counts(self, clos):
        flows = random_flows(clos, 3, seed=7)
        assert len(list(all_middle_assignments(flows, 2))) == 8
