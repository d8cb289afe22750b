"""Unit tests for flows, flow collections, and demand multigraphs."""

import pytest

from repro.core.flows import Flow, FlowCollection
from repro.core.nodes import Destination, InputSwitch, OutputSwitch, Source
from repro.core.topology import ClosNetwork


@pytest.fixture
def clos():
    return ClosNetwork(2)


class TestFlow:
    def test_fields(self):
        f = Flow(Source(1, 2), Destination(3, 1), tag=4)
        assert f.source == Source(1, 2)
        assert f.dest == Destination(3, 1)
        assert f.tag == 4

    def test_default_tag_zero(self):
        assert Flow(Source(1, 1), Destination(1, 1)).tag == 0

    def test_parallel_flows_distinct(self):
        a = Flow(Source(1, 1), Destination(1, 1), tag=0)
        b = Flow(Source(1, 1), Destination(1, 1), tag=1)
        assert a != b
        assert len({a, b}) == 2


class TestFlowCollection:
    def test_empty(self):
        assert len(FlowCollection()) == 0
        assert list(FlowCollection()) == []

    def test_add_and_iterate_in_order(self, clos):
        f1 = Flow(clos.source(1, 1), clos.destination(1, 1))
        f2 = Flow(clos.source(2, 1), clos.destination(2, 1))
        flows = FlowCollection([f1, f2])
        assert list(flows) == [f1, f2]
        assert flows[0] == f1

    def test_duplicate_rejected(self, clos):
        f = Flow(clos.source(1, 1), clos.destination(1, 1))
        flows = FlowCollection([f])
        with pytest.raises(ValueError, match="duplicate"):
            flows.add(f)

    def test_add_pair_auto_tags(self, clos):
        flows = FlowCollection()
        added = flows.add_pair(clos.source(1, 1), clos.destination(1, 1), count=3)
        assert [f.tag for f in added] == [0, 1, 2]

    def test_add_pair_builds_plain_flows(self, clos):
        s, t = clos.source(2, 1), clos.destination(3, 2)
        added = FlowCollection().add_pair(s, t, count=3)
        want = [Flow(s, t, tag) for tag in range(3)]
        assert added == want
        for got, ref in zip(added, want):
            assert type(got) is Flow
            assert (got.source, got.dest, got.tag) == (ref.source, ref.dest, ref.tag)
            assert got.source is s and got.dest is t
            assert hash(got) == hash(ref) and repr(got) == repr(ref)

    def test_add_pair_continues_tags(self, clos):
        flows = FlowCollection()
        flows.add_pair(clos.source(1, 1), clos.destination(1, 1), count=2)
        more = flows.add_pair(clos.source(1, 1), clos.destination(1, 1), count=2)
        assert [f.tag for f in more] == [2, 3]

    def test_add_pair_clash_leaves_collection_unchanged(self, clos):
        s, t = clos.source(1, 1), clos.destination(1, 1)
        flows = FlowCollection()
        flows.add(Flow(s, t, tag=2))
        with pytest.raises(ValueError, match=r"duplicate flow: Flow\(s1\^1->t1\^1#2\)"):
            flows.add_pair(s, t, count=3)  # tags 1, 2, 3: tag 2 clashes
        assert len(flows) == 1
        assert flows.flows == [Flow(s, t, tag=2)]
        assert Flow(s, t, tag=1) not in flows
        # The pair's next tag is still 1: nothing of the failed call stuck.
        assert flows.add_pair(s, t) == [Flow(s, t, tag=1)]

    def test_add_pair_zero_count_adds_nothing(self, clos):
        s, t = clos.source(1, 1), clos.destination(1, 1)
        flows = FlowCollection()
        assert flows.add_pair(s, t, count=0) == []
        assert len(flows) == 0
        assert flows.add_pair(s, t) == [Flow(s, t, tag=0)]

    def test_from_pairs_tags_duplicates(self, clos):
        s, t = clos.source(1, 1), clos.destination(1, 1)
        flows = FlowCollection.from_pairs([(s, t), (s, t), (s, t)])
        assert len(flows) == 3
        assert sorted(f.tag for f in flows) == [0, 1, 2]

    def test_contains(self, clos):
        f = Flow(clos.source(1, 1), clos.destination(1, 1))
        flows = FlowCollection([f])
        assert f in flows
        assert Flow(clos.source(1, 2), clos.destination(1, 1)) not in flows

    def test_flows_returns_copy(self, clos):
        f = Flow(clos.source(1, 1), clos.destination(1, 1))
        flows = FlowCollection([f])
        flows.flows.clear()  # mutating the returned copy must not leak
        assert len(flows) == 1


class TestGroupings:
    @pytest.fixture
    def flows(self, clos):
        collection = FlowCollection()
        collection.add_pair(clos.source(1, 1), clos.destination(1, 1), count=2)
        collection.add_pair(clos.source(1, 1), clos.destination(2, 1))
        collection.add_pair(clos.source(2, 2), clos.destination(2, 1))
        return collection

    def test_by_source(self, flows, clos):
        groups = flows.by_source()
        assert len(groups[clos.source(1, 1)]) == 3
        assert len(groups[clos.source(2, 2)]) == 1

    def test_by_destination(self, flows, clos):
        groups = flows.by_destination()
        assert len(groups[clos.destination(1, 1)]) == 2
        assert len(groups[clos.destination(2, 1)]) == 2

    def test_by_switch_pair(self, flows):
        groups = flows.by_switch_pair()
        assert len(groups[(1, 1)]) == 2
        assert len(groups[(1, 2)]) == 1
        assert len(groups[(2, 2)]) == 1


class TestDemandGraphs:
    def test_gms_structure(self, clos):
        flows = FlowCollection()
        flows.add_pair(clos.source(1, 1), clos.destination(1, 1), count=2)
        g = flows.demand_graph_ms()
        assert g.num_edges() == 2
        assert g.degree(clos.source(1, 1)) == 2
        # edges keyed by flows themselves
        assert set(g.edge_keys) == set(flows)

    def test_gc_aggregates_by_switch(self, clos):
        flows = FlowCollection()
        # two flows from different servers of the same input switch
        flows.add_pair(clos.source(1, 1), clos.destination(2, 1))
        flows.add_pair(clos.source(1, 2), clos.destination(2, 2))
        g = flows.demand_graph_clos()
        assert g.degree(InputSwitch(1)) == 2
        assert g.degree(OutputSwitch(2)) == 2

    def test_gc_degree_bound_for_full_fanout(self, clos):
        # Each input switch has n servers; a permutation-style workload
        # gives G^C degree at most n... here: one flow per server.
        flows = FlowCollection()
        for j in range(1, clos.n + 1):
            flows.add_pair(clos.source(1, j), clos.destination(j, 1))
        g = flows.demand_graph_clos()
        assert g.degree(InputSwitch(1)) == clos.n
