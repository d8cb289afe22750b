"""Tests for routing-space enumeration and local search."""

import pytest

from repro.core.allocation import lex_compare
from repro.core.flows import Flow, FlowCollection
from repro.core.maxmin import max_min_fair
from repro.core.nodes import InputSwitch, MiddleSwitch
from repro.core.objectives import lex_max_min_fair, throughput_max_min_fair
from repro.core.routing import Routing
from repro.core.topology import ClosNetwork
from repro.errors import CapacityValidationError
from repro.search.enumeration import (
    all_assignments,
    canonical_assignments,
    enumerate_routings,
    routing_space_size,
)
from repro.search.local_search import improve_routing, is_local_optimum
from repro.workloads.adversarial import lemma_4_6_routing, theorem_4_3

from tests.helpers import random_flows, random_routing


class TestEnumeration:
    def test_empty_yields_empty_assignment(self):
        assert list(canonical_assignments(FlowCollection(), 3)) == [{}]
        assert list(all_assignments(FlowCollection(), 3)) == [{}]

    def test_counts_match_formula(self):
        clos = ClosNetwork(3)
        flows = random_flows(clos, 4, seed=0)
        full = list(all_assignments(flows, 3))
        reduced = list(canonical_assignments(flows, 3))
        assert len(full) == routing_space_size(4, 3, use_symmetry=False) == 81
        assert len(reduced) == routing_space_size(4, 3, use_symmetry=True)
        assert len(reduced) < len(full)

    def test_canonical_assignments_are_restricted_growth(self):
        clos = ClosNetwork(3)
        flows = random_flows(clos, 4, seed=1)
        order = list(flows)
        for assignment in canonical_assignments(flows, 3):
            highest = 0
            for f in order:
                assert assignment[f] <= highest + 1
                highest = max(highest, assignment[f])

    def test_every_orbit_has_a_representative(self):
        """Each full assignment is a middle-switch relabeling of some
        canonical one."""
        clos = ClosNetwork(2)
        flows = random_flows(clos, 3, seed=2)
        order = list(flows)

        def canonical_form(assignment):
            relabel = {}
            form = []
            for f in order:
                m = assignment[f]
                if m not in relabel:
                    relabel[m] = len(relabel) + 1
                form.append(relabel[m])
            return tuple(form)

        canon = {
            canonical_form(a) for a in canonical_assignments(flows, 2)
        }
        for assignment in all_assignments(flows, 2):
            assert canonical_form(assignment) in canon

    def test_enumerate_routings_yields_routings(self):
        clos = ClosNetwork(2)
        flows = random_flows(clos, 3, seed=3)
        for routing in enumerate_routings(clos, flows):
            routing.validate(clos.graph)

    def test_routing_space_size_edge_cases(self):
        assert routing_space_size(0, 3, use_symmetry=True) == 1
        assert routing_space_size(0, 3, use_symmetry=False) == 1
        assert routing_space_size(1, 5, use_symmetry=True) == 1
        assert routing_space_size(2, 5, use_symmetry=True) == 2
        assert routing_space_size(3, 2, use_symmetry=True) == 4


class TestLocalSearch:
    def test_already_optimal_stays(self):
        clos = ClosNetwork(2)
        flows = FlowCollection()
        f1 = flows.add(Flow(clos.source(1, 1), clos.destination(3, 1)))
        f2 = flows.add(Flow(clos.source(1, 2), clos.destination(3, 2)))
        routing = Routing.from_middles(clos, flows, {f1: 1, f2: 2})
        improved, alloc = improve_routing(clos, routing, objective="lex")
        assert alloc.sorted_vector() == [1, 1]
        assert is_local_optimum(clos, improved, objective="lex")

    def test_improves_bad_start(self):
        clos = ClosNetwork(2)
        flows = FlowCollection()
        f1 = flows.add(Flow(clos.source(1, 1), clos.destination(3, 1)))
        f2 = flows.add(Flow(clos.source(1, 2), clos.destination(3, 2)))
        bad = Routing.uniform(clos, flows, 1)
        assert not is_local_optimum(clos, bad, objective="lex")
        _, alloc = improve_routing(clos, bad, objective="lex")
        assert alloc.sorted_vector() == [1, 1]

    @pytest.mark.parametrize("objective", ["lex", "throughput"])
    def test_result_is_local_optimum(self, objective):
        clos = ClosNetwork(2)
        flows = random_flows(clos, 6, seed=4)
        start = random_routing(clos, flows, seed=4)
        routing, _ = improve_routing(clos, start, objective=objective)
        assert is_local_optimum(clos, routing, objective=objective)

    @pytest.mark.parametrize("seed", range(3))
    def test_never_worse_than_start(self, seed):
        clos = ClosNetwork(2)
        flows = random_flows(clos, 6, seed=seed)
        start = random_routing(clos, flows, seed=seed)
        capacities = clos.graph.capacities()
        start_alloc = max_min_fair(start, capacities)
        _, lex_alloc = improve_routing(clos, start, objective="lex")
        assert (
            lex_compare(lex_alloc.sorted_vector(), start_alloc.sorted_vector())
            >= 0
        )
        _, thr_alloc = improve_routing(clos, start, objective="throughput")
        assert thr_alloc.throughput() >= start_alloc.throughput()

    @pytest.mark.parametrize("seed", range(3))
    def test_bounded_by_exact_optimum(self, seed):
        clos = ClosNetwork(2)
        flows = random_flows(clos, 5, seed=seed)
        start = random_routing(clos, flows, seed=seed)
        _, lex_local = improve_routing(clos, start, objective="lex")
        lex_exact = lex_max_min_fair(clos, flows)
        assert (
            lex_compare(
                lex_exact.allocation.sorted_vector(), lex_local.sorted_vector()
            )
            >= 0
        )
        _, thr_local = improve_routing(clos, start, objective="throughput")
        thr_exact = throughput_max_min_fair(clos, flows)
        assert thr_exact.allocation.throughput() >= thr_local.throughput()

    def test_max_rounds_caps_work(self):
        clos = ClosNetwork(2)
        flows = random_flows(clos, 6, seed=5)
        start = Routing.uniform(clos, flows, 1)
        routing, _ = improve_routing(clos, start, objective="lex", max_rounds=1)
        # at most one move applied
        moves = sum(
            1
            for f in flows
            if routing.middles(clos)[f] != start.middles(clos)[f]
        )
        assert moves <= 1

    def test_unknown_objective_rejected(self):
        clos = ClosNetwork(2)
        flows = random_flows(clos, 2, seed=6)
        start = Routing.uniform(clos, flows, 1)
        with pytest.raises(ValueError, match="objective"):
            improve_routing(clos, start, objective="nope")
        # C_1 has one middle switch, so there is no move to score: the
        # objective must still be checked.
        c1 = ClosNetwork(1)
        single = Routing.uniform(c1, random_flows(c1, 1, seed=0), 1)
        with pytest.raises(ValueError, match="objective"):
            improve_routing(c1, single, objective="nope")
        with pytest.raises(ValueError, match="objective"):
            is_local_optimum(c1, single, objective="nope")

    def test_lemma_4_6_routing_is_lex_local_optimum(self):
        """The paper's posited optimum survives single-flow probing."""
        instance = theorem_4_3(3)
        routing = lemma_4_6_routing(instance)
        assert is_local_optimum(instance.clos, routing, objective="lex")

    @pytest.mark.parametrize("exact", [True, False])
    def test_nan_capacity_reached_only_by_a_move_rejected(self, exact):
        # Both flows start on M_1; only a move onto M_2 crosses the NaN
        # link, and it must be rejected as any solve would reject it.
        clos = ClosNetwork(2)
        clos.graph.add_link(InputSwitch(1), MiddleSwitch(2), float("nan"))
        flows = FlowCollection()
        flows.add(Flow(clos.source(1, 1), clos.destination(3, 1)))
        flows.add(Flow(clos.source(1, 2), clos.destination(3, 2)))
        start = Routing.uniform(clos, flows, 1)
        with pytest.raises(CapacityValidationError):
            is_local_optimum(clos, start, exact=exact)
        with pytest.raises(CapacityValidationError):
            improve_routing(clos, start, exact=exact)

    @pytest.mark.parametrize("objective", ["lex", "throughput"])
    def test_float_moves_beat_rounding_noise(self, objective):
        """A float climb accepts a move only if it wins by more than the
        1e-9 rule: on this instance the first lex move used to change
        the sorted vector by 5.55e-17."""
        clos = ClosNetwork(2)
        flows = random_flows(clos, 7, seed=1)
        start = random_routing(clos, flows, seed=1)
        steps = [max_min_fair(start, clos.graph.capacities(), exact=False)]
        improve_routing(
            clos, start, objective=objective, exact=False,
            on_improvement=lambda routing, alloc: steps.append(alloc),
        )
        for old, new in zip(steps, steps[1:]):
            gain = new.throughput() - old.throughput()
            if objective == "throughput" and gain > 1e-9 * (
                1 + abs(old.throughput())
            ):
                continue
            assert lex_compare(
                new.sorted_vector(), old.sorted_vector(), tol=1e-9
            ) > 0

    def test_improvement_callback_invoked(self):
        clos = ClosNetwork(2)
        flows = FlowCollection()
        flows.add(Flow(clos.source(1, 1), clos.destination(3, 1)))
        flows.add(Flow(clos.source(1, 2), clos.destination(3, 2)))
        bad = Routing.uniform(clos, flows, 1)
        calls = []
        improve_routing(
            clos,
            bad,
            objective="lex",
            on_improvement=lambda r, a: calls.append(a.throughput()),
        )
        assert calls  # at least one improvement recorded
