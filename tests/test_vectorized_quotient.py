"""Property tests for the ``vectorized`` and ``quotient`` backends.

The two contracts from the backend design:

- ``quotient_max_min`` returns rates **identical** (``Fraction``
  equality, not approximate) to the exact reference solver on any
  instance — symmetry reduction is an optimization, never a relaxation;
- ``waterfill`` agrees with the exact reference solver to within 1e-12
  on random instances.

Plus the ``solve_max_min`` dispatch surface: backend names and
exact-mode mismatches.
"""

import pytest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.doom_switch import doom_switch_routing
from repro.core.flows import Flow, FlowCollection
from repro.core.maxmin import max_min_fair
from repro.core.nodes import InputSwitch, OutputSwitch
from repro.core.quotient import build_quotient, quotient_max_min
from repro.core.routing import Routing
from repro.core.solve import BACKENDS, EXACT_BACKENDS, solve_max_min
from repro.core.topology import ClosNetwork
from repro.errors import UnboundedRateError
from repro.workloads.adversarial import (
    lemma_4_6_routing,
    theorem_4_3,
    theorem_5_4,
)

from tests.helpers import random_flows, random_routing


@st.composite
def clos_instances(draw, max_n=3, max_flows=12):
    """A Clos network with random flows and a random routing."""
    n = draw(st.integers(1, max_n), label="n")
    clos = ClosNetwork(n)
    num_flows = draw(st.integers(1, max_flows), label="num_flows")
    flows = FlowCollection()
    for _ in range(num_flows):
        i = draw(st.integers(1, 2 * n))
        j = draw(st.integers(1, n))
        oi = draw(st.integers(1, 2 * n))
        oj = draw(st.integers(1, n))
        flows.add_pair(clos.source(i, j), clos.destination(oi, oj))
    middles = {f: draw(st.integers(1, n), label="middle") for f in flows}
    return clos, Routing.from_middles(clos, flows, middles)


class TestQuotientExactIdentity:
    @settings(max_examples=60, deadline=None)
    @given(clos_instances())
    def test_identical_to_reference_on_random_clos(self, instance):
        """Fraction-for-Fraction identity on arbitrary routings."""
        clos, routing = instance
        capacities = clos.graph.capacities()
        reference = max_min_fair(routing, capacities, exact=True)
        quotient = quotient_max_min(routing, capacities)
        assert len(quotient) == len(reference)
        for flow in routing.flows():
            rate = quotient.rate(flow)
            assert isinstance(rate, Fraction)
            assert rate == reference.rate(flow)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_identical_on_theorem_4_3(self, n):
        """The adversarial construction — and the symmetry pays off."""
        instance = theorem_4_3(n)
        capacities = instance.clos.graph.capacities()
        routing = lemma_4_6_routing(instance)
        reference = max_min_fair(routing, capacities, exact=True)
        q = build_quotient(routing, capacities)
        alloc = quotient_max_min(routing, capacities, quotient=q)
        for flow in routing.flows():
            assert alloc.rate(flow) == reference.rate(flow)
        # Color refinement must actually collapse the instance: the
        # construction has O(n³) flows but O(1) orbit types.
        assert len(q.flow_classes) < len(routing)

    @pytest.mark.parametrize("n, k", [(3, 1), (5, 2), (7, 1), (7, 3)])
    def test_identical_on_theorem_5_4(self, n, k):
        """The Doom-Switch routing of Figure 4."""
        instance = theorem_5_4(n, k)
        capacities = instance.clos.graph.capacities()
        routing = doom_switch_routing(instance.clos, instance.flows)
        reference = max_min_fair(routing, capacities, exact=True)
        alloc = quotient_max_min(routing, capacities)
        assert alloc.rates() == reference.rates()

    @pytest.mark.parametrize("epsilon_on", ["uplink", "downlink"])
    def test_near_tie_decided_exactly(self, epsilon_on):
        """Two saturation levels, 1/6 and 1/6 + ε/2, that are one float:
        the exact minimum must freeze first, whichever link carries ε."""
        epsilon = Fraction(1, 10**30)
        clos = ClosNetwork(2)
        s11, s21 = clos.source(1, 1), clos.source(2, 1)
        t11, t21 = clos.destination(1, 1), clos.destination(2, 1)
        flows = FlowCollection()
        a = flows.add(Flow(s11, t11))
        b = flows.add(Flow(s11, t21))
        c = flows.add(Flow(s21, t21))
        routing = Routing.uniform(clos, flows, 1)
        uplink, downlink = (s11, InputSwitch(1)), (OutputSwitch(2), t21)
        capacities = clos.graph.capacities()
        capacities[uplink] = Fraction(1, 3)
        capacities[downlink] = Fraction(1, 3)
        if epsilon_on == "uplink":
            capacities[uplink] += epsilon
        else:
            capacities[downlink] += epsilon
        up_level, down_level = capacities[uplink] / 2, capacities[downlink] / 2
        assert up_level != down_level
        assert float(up_level) == float(down_level)

        sixth = Fraction(1, 6)
        if epsilon_on == "uplink":
            expected = {a: sixth + epsilon, b: sixth, c: sixth}
        else:
            expected = {a: sixth, b: sixth, c: sixth + epsilon}
        assert max_min_fair(routing, capacities).rates() == expected
        assert quotient_max_min(routing, capacities).rates() == expected

    def test_prebuilt_quotient_reused(self):
        clos = ClosNetwork(2)
        routing = random_routing(clos, random_flows(clos, 8, seed=1), seed=1)
        capacities = clos.graph.capacities()
        q = build_quotient(routing, capacities)
        direct = quotient_max_min(routing, capacities)
        reused = quotient_max_min(routing, capacities, quotient=q)
        assert direct.rates() == reused.rates()

    def test_empty_routing(self):
        assert len(quotient_max_min(Routing({}), {})) == 0

    def test_unbounded_flow_raises(self):
        clos = ClosNetwork(1)
        routing = random_routing(clos, random_flows(clos, 2, seed=0), seed=0)
        infinite = {
            link: float("inf") for link in clos.graph.capacities()
        }
        with pytest.raises(UnboundedRateError):
            quotient_max_min(routing, infinite)


class TestVectorizedAgreement:
    @settings(max_examples=60, deadline=None)
    @given(clos_instances())
    def test_agrees_with_exact_reference_within_1e12(self, instance):
        clos, routing = instance
        capacities = clos.graph.capacities()
        exact = max_min_fair(routing, capacities)
        from repro.core.vectorized import max_min_fair_vectorized

        vectorized = max_min_fair_vectorized(routing, capacities)
        for flow in routing.flows():
            assert vectorized.rate(flow) == pytest.approx(
                exact.rate(flow), abs=1e-12
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_on_dense_instances(self, seed):
        """Hundreds of flows over Clos(3) — the kernel's target regime."""
        clos = ClosNetwork(3)
        routing = random_routing(
            clos, random_flows(clos, 400, seed=seed), seed=seed
        )
        capacities = clos.graph.capacities()
        exact = max_min_fair(routing, capacities)
        from repro.core.vectorized import max_min_fair_vectorized

        vectorized = max_min_fair_vectorized(routing, capacities)
        for flow in routing.flows():
            assert vectorized.rate(flow) == pytest.approx(
                exact.rate(flow), abs=1e-12
            )

    def test_compiled_incidence_reusable_across_capacities(self):
        """One compile, many capacity vectors — the flowsim usage."""
        from repro.core.vectorized import (
            capacity_vector,
            compile_routing,
            max_min_fair_vectorized,
            waterfill,
        )

        clos = ClosNetwork(2)
        routing = random_routing(clos, random_flows(clos, 20, seed=3), seed=3)
        capacities = clos.graph.capacities()
        compiled = compile_routing(routing, capacities)

        degraded = dict(capacities)
        some_link = compiled.links[0]
        degraded[some_link] = float(capacities[some_link]) / 2
        for caps in (capacities, degraded):
            reused = max_min_fair_vectorized(routing, caps, compiled=compiled)
            fresh = max_min_fair_vectorized(routing, caps)
            assert reused.rates() == fresh.rates()
            rates = waterfill(compiled, capacity_vector(compiled, caps))
            assert list(rates) == [
                reused.rate(flow) for flow in compiled.flows
            ]

    def test_unbounded_flow_raises(self):
        from repro.core.vectorized import compile_routing

        clos = ClosNetwork(1)
        routing = random_routing(clos, random_flows(clos, 2, seed=0), seed=0)
        infinite = {
            link: float("inf") for link in clos.graph.capacities()
        }
        with pytest.raises(UnboundedRateError):
            compile_routing(routing, infinite)


class TestSolveDispatch:
    def test_unknown_backend(self):
        clos = ClosNetwork(1)
        routing = random_routing(clos, random_flows(clos, 2, seed=0), seed=0)
        with pytest.raises(ValueError, match="unknown backend"):
            solve_max_min(routing, clos.graph.capacities(), backend="magic")

    @pytest.mark.parametrize("backend", ["heap", "auto"])
    def test_retired_backends_are_unknown(self, backend):
        clos = ClosNetwork(1)
        routing = random_routing(clos, random_flows(clos, 2, seed=0), seed=0)
        with pytest.raises(ValueError, match="unknown backend"):
            solve_max_min(routing, clos.graph.capacities(), backend=backend)

    @pytest.mark.parametrize("backend", ["vectorized"])
    def test_float_backend_rejects_exact(self, backend):
        clos = ClosNetwork(1)
        routing = random_routing(clos, random_flows(clos, 2, seed=0), seed=0)
        with pytest.raises(ValueError, match="float"):
            solve_max_min(
                routing, clos.graph.capacities(), backend=backend, exact=True
            )

    def test_quotient_rejects_float_mode(self):
        clos = ClosNetwork(1)
        routing = random_routing(clos, random_flows(clos, 2, seed=0), seed=0)
        with pytest.raises(ValueError, match="exact"):
            solve_max_min(
                routing, clos.graph.capacities(), backend="quotient",
                exact=False,
            )

    def test_all_backends_agree(self):
        clos = ClosNetwork(2)
        routing = random_routing(clos, random_flows(clos, 15, seed=7), seed=7)
        capacities = clos.graph.capacities()
        reference = solve_max_min(routing, capacities, backend="reference")
        for backend in BACKENDS:
            alloc = solve_max_min(routing, capacities, backend=backend)
            for flow in routing.flows():
                if backend in EXACT_BACKENDS:
                    assert alloc.rate(flow) == reference.rate(flow)
                else:
                    assert alloc.rate(flow) == pytest.approx(
                        float(reference.rate(flow)), abs=1e-12
                    )
