"""The typed exception hierarchy, and that every solver/router entry
point raises a :class:`ReproError` subclass — never a bare builtin or a
silent wrong answer — on infeasible routings, disconnected flows, and
malformed capacities."""

import pytest

from repro.errors import (
    CapacityValidationError,
    DisconnectedFlowError,
    ExperimentError,
    InfeasibleRoutingError,
    ReproError,
    StepTimeoutError,
    UnboundedRateError,
    UnknownFlowError,
    UnknownLinkError,
)
from repro.core.flows import Flow, FlowCollection
from repro.core.maxmin import max_min_fair
from repro.core.routing import Routing
from repro.core.topology import ClosNetwork, MacroSwitch

from tests.helpers import random_flows


class TestHierarchy:
    def test_everything_is_a_repro_error(self):
        for cls in (
            CapacityValidationError,
            DisconnectedFlowError,
            ExperimentError,
            InfeasibleRoutingError,
            StepTimeoutError,
            UnboundedRateError,
            UnknownFlowError,
            UnknownLinkError,
        ):
            assert issubclass(cls, ReproError)

    def test_backwards_compatible_builtin_parents(self):
        # Code written before the typed hierarchy caught builtins.
        assert issubclass(CapacityValidationError, ValueError)
        assert issubclass(InfeasibleRoutingError, ValueError)
        assert issubclass(UnknownLinkError, KeyError)
        assert issubclass(UnknownFlowError, KeyError)
        assert issubclass(UnboundedRateError, ValueError)

    def test_unknown_link_message_is_not_keyerror_quoted(self):
        error = UnknownLinkError([("a", "b")])
        assert str(error) == "unknown links: [('a', 'b')]"

    def test_repro_import_surface(self):
        import repro

        assert repro.ReproError is ReproError
        assert repro.CapacityValidationError is CapacityValidationError


@pytest.fixture
def clos():
    return ClosNetwork(2)


def _one_flow_routing(clos):
    flows = FlowCollection([Flow(clos.source(1, 1), clos.destination(3, 1))])
    return flows, Routing.uniform(clos, flows, 1)


class TestSolverEntryPoints:
    def test_maxmin_missing_links_all_reported(self, clos):
        flows, routing = _one_flow_routing(clos)
        with pytest.raises(UnknownLinkError) as excinfo:
            max_min_fair(routing, {})
        assert len(excinfo.value.links) == 4  # every traversed link named

    def test_maxmin_negative_capacity(self, clos):
        flows, routing = _one_flow_routing(clos)
        capacities = clos.graph.capacities()
        capacities[next(iter(routing.links_of(flows[0])))] = -1
        with pytest.raises(CapacityValidationError):
            max_min_fair(routing, capacities)

    def test_maxmin_non_numeric_capacity(self, clos):
        flows, routing = _one_flow_routing(clos)
        capacities = clos.graph.capacities()
        capacities[routing.links_of(flows[0])[0]] = "fast"
        with pytest.raises(CapacityValidationError):
            max_min_fair(routing, capacities)

    def test_unbounded_rate_is_typed(self, clos):
        flows, routing = _one_flow_routing(clos)
        infinite = {
            link: float("inf")
            for link in routing.flows_per_link()
        }
        with pytest.raises(UnboundedRateError):
            max_min_fair(routing, infinite)


class TestRoutingEntryPoints:
    def test_from_middles_unassigned_flow(self, clos):
        flows = FlowCollection(
            [Flow(clos.source(1, 1), clos.destination(3, 1))]
        )
        with pytest.raises(InfeasibleRoutingError):
            Routing.from_middles(clos, flows, {})

    def test_from_middles_bad_middle_index(self, clos):
        flows = FlowCollection(
            [Flow(clos.source(1, 1), clos.destination(3, 1))]
        )
        with pytest.raises(InfeasibleRoutingError):
            Routing.from_middles(clos, flows, {flows[0]: 99})

    def test_path_unknown_flow(self, clos):
        flows, routing = _one_flow_routing(clos)
        outsider = Flow(clos.source(2, 1), clos.destination(4, 1))
        with pytest.raises(UnknownFlowError):
            routing.path(outsider)

    def test_reassigned_unknown_flow(self, clos):
        flows, routing = _one_flow_routing(clos)
        outsider = Flow(clos.source(2, 1), clos.destination(4, 1))
        with pytest.raises(UnknownFlowError):
            routing.reassigned(clos, outsider, 1)

    def test_foreign_endpoints_rejected_at_path_construction(self, clos):
        from repro.core.nodes import Destination, Source

        with pytest.raises(InfeasibleRoutingError):
            clos.path_via(Source(99, 1), Destination(1, 1), 1)
        with pytest.raises(InfeasibleRoutingError):
            MacroSwitch(2).path(Source(99, 1), Destination(1, 1))


class TestRouterEntryPoints:
    def test_routers_reject_foreign_flows(self, clos):
        from repro.core.nodes import Destination, Source
        from repro.routers import (
            ecmp_routing,
            greedy_least_congested,
            random_routing,
            two_choice_routing,
        )

        big = ClosNetwork(4)
        foreign = FlowCollection(
            [Flow(big.source(7, 1), big.destination(7, 1))]
        )
        demands = {foreign[0]: 1}
        for router in (
            lambda: ecmp_routing(clos, foreign),
            lambda: random_routing(clos, foreign),
            lambda: greedy_least_congested(clos, foreign, demands=demands),
            lambda: two_choice_routing(clos, foreign, demands=demands),
        ):
            with pytest.raises(InfeasibleRoutingError):
                router()

    def test_greedy_missing_demand(self, clos):
        from repro.routers import greedy_least_congested

        flows = FlowCollection(
            [Flow(clos.source(1, 1), clos.destination(3, 1))]
        )
        with pytest.raises(InfeasibleRoutingError):
            greedy_least_congested(clos, flows, demands={})

    def test_two_choice_bad_choices(self, clos):
        from repro.routers import two_choice_routing

        with pytest.raises(InfeasibleRoutingError):
            two_choice_routing(clos, FlowCollection(), choices=0)

    def test_resilient_router_strict_disconnection(self, clos):
        from repro.failures import fail_middle_switch, route_with_failures

        flows = FlowCollection(
            [Flow(clos.source(1, 1), clos.destination(3, 1))]
        )
        capacities = clos.graph.capacities()
        for m in range(1, clos.num_middles + 1):
            capacities = fail_middle_switch(clos, capacities, m)
        with pytest.raises(DisconnectedFlowError) as excinfo:
            route_with_failures(clos, flows, capacities, strict=True)
        assert excinfo.value.flows == [flows[0]]


class TestFailureEntryPoints:
    def test_fail_links_reports_every_unknown_link(self, clos):
        from repro.failures import fail_links

        good = list(clos.graph.capacities())[0]
        with pytest.raises(UnknownLinkError) as excinfo:
            fail_links(
                clos.graph.capacities(), [("x", "y"), good, ("p", "q")]
            )
        assert excinfo.value.links == [("x", "y"), ("p", "q")]

    def test_negative_failure_count(self, clos):
        from repro.failures import random_link_failures

        with pytest.raises(CapacityValidationError):
            random_link_failures(clos, clos.graph.capacities(), -1)

    def test_all_middles_failed_is_disconnection(self, clos):
        from repro.failures import surviving_network

        with pytest.raises(DisconnectedFlowError):
            surviving_network(clos, range(1, clos.num_middles + 1))

    def test_degrade_rejects_out_of_range_factor(self, clos):
        from repro.failures import degrade_links

        capacities = clos.graph.capacities()
        link = next(iter(capacities))
        with pytest.raises(CapacityValidationError):
            degrade_links(capacities, {link: 2})


class TestLargeEntryPointsStayHealthy:
    def test_random_instances_raise_nothing(self, clos):
        """Typed validation must not reject legitimate inputs."""
        from repro.routers import greedy_least_congested

        flows = random_flows(clos, 10, seed=5)
        routing = greedy_least_congested(clos, flows)
        allocation = max_min_fair(routing, clos.graph.capacities())
        assert min(allocation.sorted_vector()) > 0
