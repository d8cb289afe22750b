"""The array-native Clos compile (:mod:`repro.core.vectorized`).

A Clos routing is a middle switch per flow, so its incidence can be
built from int arrays alone: :func:`clos_link_ids` derives each flow's
four link ids by arithmetic, :class:`LinkTable` drops the infinite
links, :func:`compile_link_ids` builds the CSR.  The contract is that
this path is interchangeable with the generic
``compile_routing(Routing.from_middles(...))``: the same link ids as
the network's own link order, float-bit-identical water-fill rates,
and the same errors for the same inputs.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from repro.core.batched import compile_batch
from repro.core.flows import FlowCollection
from repro.core.routing import Routing
from repro.core.topology import ClosNetwork
from repro.core.vectorized import (
    LinkTable,
    _csr_transpose,
    capacity_vector,
    clos_link_ids,
    compile_link_ids,
    compile_routing,
    waterfill,
)
from repro.errors import (
    CapacityValidationError,
    InfeasibleRoutingError,
    UnboundedRateError,
    UnknownLinkError,
)
from repro.workloads.stochastic import uniform_random

INF = float("inf")


def _ids(clos, flows, middles):
    return clos_link_ids(
        clos,
        [f.source.switch for f in flows],
        [f.source.server for f in flows],
        [f.dest.switch for f in flows],
        [f.dest.server for f in flows],
        [middles[f] for f in flows],
    )


def _both(clos, flows, middles, capacities):
    """(array-compile rates, compile_routing rates), flow-aligned."""
    flow_list = list(flows)
    array = compile_link_ids(
        _ids(clos, flow_list, middles),
        LinkTable(clos.graph.capacities(), capacities),
        flow_list,
    )
    routing = Routing.from_middles(clos, flows, middles)
    generic = compile_routing(routing, capacities)
    assert array.flows == generic.flows == flow_list
    return (
        waterfill(array, capacity_vector(array, capacities)),
        waterfill(generic, capacity_vector(generic, capacities)),
    )


def _random_instance(seed, **network_kwargs):
    rng = random.Random(seed)
    clos = ClosNetwork(
        rng.randint(1, 4), middle_count=rng.randint(1, 5), **network_kwargs
    )
    flows = uniform_random(clos, rng.randint(1, 80), seed=seed)
    middles = {f: rng.randint(1, clos.num_middles) for f in flows}
    return rng, clos, flows, middles


class TestLinkIds:
    @pytest.mark.parametrize(
        "n, middles",
        [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (2, 3), (3, 1), (4, 7)],
    )
    def test_ids_are_positions_in_the_network_link_order(self, n, middles):
        clos = ClosNetwork(n, middle_count=middles)
        position = {link: g for g, link in enumerate(clos.graph.capacities())}
        src = [(s, d, m) for s in clos.sources for d in clos.destinations
               for m in range(1, middles + 1)]
        ids = clos_link_ids(
            clos,
            [s.switch for s, _, _ in src],
            [s.server for s, _, _ in src],
            [d.switch for _, d, _ in src],
            [d.server for _, d, _ in src],
            [m for _, _, m in src],
        )
        expected = []
        for s, d, m in src:
            path = clos.path_via(s, d, m)
            expected.append([position[link] for link in zip(path, path[1:])])
        assert ids.tolist() == expected
        # Every link of the network is some path's link.
        assert set(ids.ravel().tolist()) == set(range(len(position)))

    @pytest.mark.parametrize(
        "field, value", [(0, 5), (1, 0), (2, 0), (3, 3), (4, 3)]
    )
    def test_out_of_range_index_is_infeasible(self, field, value):
        clos = ClosNetwork(2)
        args = [[1], [1], [1], [1], [1]]
        args[field] = [value]
        with pytest.raises(InfeasibleRoutingError):
            clos_link_ids(clos, *args)


class TestRatesMatchGenericCompile:
    @pytest.mark.parametrize("seed", range(12))
    def test_unit_capacities(self, seed):
        _, clos, flows, middles = _random_instance(seed)
        array, generic = _both(
            clos, flows, middles, clos.graph.capacities()
        )
        assert array.tobytes() == generic.tobytes()

    @pytest.mark.parametrize("seed", range(12))
    def test_brownouts_and_failed_links(self, seed):
        rng, clos, flows, middles = _random_instance(seed)
        capacities = clos.graph.capacities()
        for link in rng.sample(list(capacities), len(capacities) // 3):
            capacities[link] = rng.choice([0, 0.25, 0.5, 3])
        array, generic = _both(clos, flows, middles, capacities)
        assert array.tobytes() == generic.tobytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_fraction_capacities(self, seed):
        rng, clos, flows, middles = _random_instance(seed)
        capacities = {
            link: Fraction(rng.randint(0, 7), rng.randint(1, 5))
            for link in clos.graph.capacities()
        }
        array, generic = _both(clos, flows, middles, capacities)
        assert array.tobytes() == generic.tobytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_infinite_interior_drops_interior_links(self, seed):
        _, clos, flows, middles = _random_instance(
            seed, interior_capacity=INF
        )
        capacities = clos.graph.capacities()
        table = LinkTable(capacities, capacities)
        # Only the server links stay finite, and they still bound each
        # flow: the interior links are dropped from the incidence.
        assert len(table.finite_links) == 4 * clos.n * clos.n
        flow_list = list(flows)
        compiled = compile_link_ids(
            _ids(clos, flow_list, middles), table, flow_list
        )
        assert np.diff(compiled.flow_ptr).tolist() == [2] * len(flow_list)
        array, generic = _both(clos, flows, middles, capacities)
        assert array.tobytes() == generic.tobytes()


class TestErrorsMatchGenericCompile:
    def _flows(self, clos):
        flows = FlowCollection()
        flows.add_pair(clos.source(1, 1), clos.destination(3, 2))
        flows.add_pair(clos.source(2, 1), clos.destination(4, 1))
        return flows, {f: m for f, m in zip(flows, (1, 2))}

    def _raised(self, clos, flows, middles, capacities):
        flow_list = list(flows)
        table = LinkTable(list(clos.graph.capacities()), capacities)
        with pytest.raises(Exception) as array:
            compile_link_ids(_ids(clos, flow_list, middles), table, flow_list)
        routing = Routing.from_middles(clos, flows, middles)
        with pytest.raises(Exception) as generic:
            compile_routing(routing, capacities)
        assert type(array.value) is type(generic.value)
        assert str(array.value) == str(generic.value)
        return array.value

    def test_all_infinite_path_is_unbounded(self):
        clos = ClosNetwork(2, interior_capacity=INF)
        flows, middles = self._flows(clos)
        capacities = clos.graph.capacities()
        first = next(iter(flows))
        capacities[(first.source, clos.input_switches[0])] = INF
        capacities[(clos.output_switches[2], first.dest)] = INF
        error = self._raised(clos, flows, middles, capacities)
        assert isinstance(error, UnboundedRateError)

    def test_missing_links_are_unknown(self):
        clos = ClosNetwork(2)
        flows, middles = self._flows(clos)
        capacities = clos.graph.capacities()
        # Two traversed links and one untraversed link go missing; only
        # the traversed ones are named, in first-traversal order.
        del capacities[(clos.middle_switches[1], clos.output_switches[3])]
        del capacities[(clos.sources[0], clos.input_switches[0])]
        del capacities[(clos.sources[-1], clos.input_switches[-1])]
        error = self._raised(clos, flows, middles, capacities)
        assert isinstance(error, UnknownLinkError)

    def test_negative_capacity_is_rejected(self):
        clos = ClosNetwork(2)
        flows, middles = self._flows(clos)
        capacities = clos.graph.capacities()
        capacities[(clos.middle_switches[0], clos.output_switches[2])] = -1
        error = self._raised(clos, flows, middles, capacities)
        assert isinstance(error, CapacityValidationError)

    def test_untraversed_bad_links_are_ignored(self):
        clos = ClosNetwork(2)
        flows, middles = self._flows(clos)
        capacities = clos.graph.capacities()
        capacities[(clos.sources[-1], clos.input_switches[-1])] = -1
        del capacities[(clos.middle_switches[1], clos.output_switches[0])]
        array, generic = _both(clos, flows, middles, capacities)
        assert array.tobytes() == generic.tobytes()


class TestGenericTranspose:
    """The one link → flows transpose left, :func:`compile_batch`'s."""

    @pytest.mark.parametrize("seed", range(4))
    def test_link_rows_list_flows_in_routing_order(self, seed):
        routings, pairs = [], []
        for part in range(3):
            _, clos, flows, middles = _random_instance(4 * seed + part)
            routing = Routing.from_middles(clos, flows, middles)
            routings.append(routing)
            pairs.append((routing, clos.graph.capacities()))
        batch = compile_batch(pairs)
        ptr_parts, flow_parts, nnz = [np.zeros(1, dtype=np.int64)], [], 0
        for s, (routing, compiled) in enumerate(zip(routings, batch.parts)):
            per_link = routing.flows_per_link()
            assert compiled.links == list(per_link)
            first_flow = batch.scn_flow_ptr[s]
            for j, link in enumerate(compiled.links):
                g = batch.scn_link_ptr[s] + j
                row = batch.link_flow[batch.link_ptr[g]:batch.link_ptr[g + 1]]
                assert [
                    compiled.flows[i] for i in row - first_flow
                ] == per_link[link]
            link_ptr, link_flow = _csr_transpose(
                compiled.flow_ptr, compiled.flow_link, len(compiled.links)
            )
            ptr_parts.append(link_ptr[1:] + nnz)
            flow_parts.append(link_flow + first_flow)
            nnz += compiled.flow_link.size
        assert np.array_equal(batch.link_ptr, np.concatenate(ptr_parts))
        assert np.array_equal(batch.link_flow, np.concatenate(flow_parts))


def test_policy_consults_build_no_routing_objects(monkeypatch):
    """The vectorized policy compiles from its cached link-id rows: no
    ``Routing``/``Path`` objects and no generic compile per event."""
    from repro.core import routing as routing_module
    from repro.core import vectorized
    from repro.sim.flowsim import simulate
    from repro.sim.policies import MaxMinCongestionControl
    from repro.workloads.stochastic import churn_workload

    clos = ClosNetwork(3)
    jobs = churn_workload(clos, rate=6.0, horizon=4.0, seed=2)
    baseline = simulate(jobs, MaxMinCongestionControl(clos, backend="streaming"))

    def forbidden(*args, **kwargs):
        raise AssertionError("consult path built a generic routing")

    monkeypatch.setattr(vectorized, "compile_routing", forbidden)
    monkeypatch.setattr(routing_module.Routing, "from_middles", forbidden)
    result = simulate(jobs, MaxMinCongestionControl(clos, backend="vectorized"))
    assert result == baseline
