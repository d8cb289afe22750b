"""Paper reproduction — Theorem 4.3 (R2, part 2): 1/n starvation.

We verify each stepping stone the proof uses:

- Lemma 4.4 (macro-switch rates) by direct water-filling;
- Claim 4.5 (the integer-solutions argument) by enumeration, plus its
  second condition on a feasibility witness;
- Lemma 4.6 Step 1 (the posited allocation is max-min fair for the
  constructed routing) via the bottleneck certificate;
- Lemma 4.6 Step 2's *necessary* condition (no single-flow move
  improves the sorted vector) via local search;
- the headline 1/n factor across network sizes.
"""

from fractions import Fraction

import pytest

from repro.core.bottleneck import certify_max_min_fair
from repro.core.maxmin import max_min_fair
from repro.core.objectives import macro_switch_max_min
from repro.core.solve import solve_max_min
from repro.core.theorems import theorem_4_3 as predict
from repro.experiments.r2_starvation import claim_4_5_integer_solutions
from repro.search.local_search import is_local_optimum
from repro.workloads.adversarial import lemma_4_6_routing, theorem_4_3


@pytest.fixture(scope="module", params=[3, 4, 5])
def sized(request):
    n = request.param
    instance = theorem_4_3(n)
    return n, instance


class TestLemma44:
    def test_macro_rates(self, sized):
        n, instance = sized
        prediction = predict(n)
        alloc = macro_switch_max_min(instance.macro, instance.flows)
        for f in instance.types["type1"]:
            assert alloc.rate(f) == prediction.macro_rates["type1"]
        for f in instance.types["type2"]:
            assert alloc.rate(f) == prediction.macro_rates["type2"]
        (type3,) = instance.types["type3"]
        assert alloc.rate(type3) == 1

    def test_macro_allocation_certified(self, sized):
        from repro.core.routing import Routing

        _, instance = sized
        routing = Routing.for_macro_switch(instance.macro, instance.flows)
        capacities = instance.macro.graph.capacities()
        alloc = max_min_fair(routing, capacities)
        assert certify_max_min_fair(routing, alloc, capacities) is None


class TestClaim45:
    @pytest.mark.parametrize("n", [3, 4, 5, 7, 10])
    def test_only_two_integer_solutions(self, n):
        """x/(n+1) + y/n = 1 admits exactly (0, n) and (n+1, 0)."""
        assert claim_4_5_integer_solutions(n) == [(0, n), (n + 1, 0)]

    def test_condition_2_on_witness_routing(self, sized):
        """On the Lemma 4.6 routing, each middle switch carries exactly
        n−1 type-2.b flows (Claim 4.5's second condition)."""
        n, instance = sized
        routing = lemma_4_6_routing(instance)
        counts = {m: 0 for m in range(1, n + 1)}
        for f in instance.types["type2b"]:
            counts[routing.middle_of(instance.clos, f).index] += 1
        assert all(count == n - 1 for count in counts.values())

    def test_condition_1_on_witness_routing(self, sized):
        """Per (input switch, middle): either n+1 type-1 and no type-2
        flows, or 0 type-1 and n type-2 flows."""
        n, instance = sized
        routing = lemma_4_6_routing(instance)
        per_cell = {}
        for f in instance.types["type1"]:
            cell = (f.source.switch, routing.middle_of(instance.clos, f).index)
            x, y = per_cell.get(cell, (0, 0))
            per_cell[cell] = (x + 1, y)
        for f in instance.types["type2"]:
            cell = (f.source.switch, routing.middle_of(instance.clos, f).index)
            x, y = per_cell.get(cell, (0, 0))
            per_cell[cell] = (x, y + 1)
        for (i, m), (x, y) in per_cell.items():
            if i <= n:  # the type-3 flow's switch n+1 is exempt
                assert (x, y) in {(n + 1, 0), (0, n)}, (i, m, x, y)


class TestLemma46:
    def test_step1_posited_allocation_is_max_min_for_routing(self, sized):
        n, instance = sized
        prediction = predict(n)
        routing = lemma_4_6_routing(instance)
        capacities = instance.clos.graph.capacities()
        alloc = max_min_fair(routing, capacities)
        for f in instance.types["type1"]:
            assert alloc.rate(f) == prediction.lex_max_min_rates["type1"]
        for f in instance.types["type2"]:
            assert alloc.rate(f) == prediction.lex_max_min_rates["type2"]
        (type3,) = instance.types["type3"]
        assert alloc.rate(type3) == prediction.lex_max_min_rates["type3"]
        assert certify_max_min_fair(routing, alloc, capacities) is None

    def test_type3_bottleneck_moves_inside(self, sized):
        """'its bottleneck link in the Clos network is M_n O_{n+1}'."""
        from repro.core.bottleneck import bottleneck_links
        from repro.core.nodes import MiddleSwitch, OutputSwitch

        n, instance = sized
        routing = lemma_4_6_routing(instance)
        capacities = instance.clos.graph.capacities()
        alloc = max_min_fair(routing, capacities)
        (type3,) = instance.types["type3"]
        links = bottleneck_links(routing, alloc, capacities, type3)
        assert links == [(MiddleSwitch(n), OutputSwitch(n + 1))]

    def test_step2_necessary_condition_local_optimality(self):
        """No single-flow reroute lex-improves the posited optimum
        (n = 3 only: each probe is a full water-filling)."""
        instance = theorem_4_3(3)
        routing = lemma_4_6_routing(instance)
        assert is_local_optimum(instance.clos, routing, objective="lex")


class TestFloatKernelsKnownAnswer:
    """Every float water-fill reproduces Lemma 4.6's exact per-type
    rates on the posited routing: the float error of each kernel,
    bounded against a known answer rather than another kernel."""

    @pytest.fixture(scope="class", params=[8, 16, 24, 32])
    def large(self, request):
        n = request.param
        instance = theorem_4_3(n)
        routing = lemma_4_6_routing(instance)
        return n, instance, routing, instance.clos.graph.capacities()

    @pytest.mark.parametrize(
        "solve",
        [
            lambda r, c: max_min_fair(r, c, exact=False),
            lambda r, c: solve_max_min(r, c, backend="vectorized"),
            lambda r, c: solve_max_min(r, c, backend="streaming"),
        ],
        ids=["reference", "vectorized", "streaming"],
    )
    def test_rates_match_lemma_4_6(self, large, solve):
        n, instance, routing, capacities = large
        alloc = solve(routing, capacities)
        expected = predict(n).lex_max_min_rates
        for kind in ("type1", "type2", "type3"):
            want = float(expected[kind])
            for flow in instance.types[kind]:
                rate = alloc.rate(flow)
                assert isinstance(rate, float)
                assert rate == pytest.approx(want, rel=1e-12, abs=0), (
                    kind, flow,
                )


class TestHeadline:
    def test_starvation_factor_one_over_n(self, sized):
        n, instance = sized
        macro = macro_switch_max_min(instance.macro, instance.flows)
        alloc = max_min_fair(
            lemma_4_6_routing(instance), instance.clos.graph.capacities()
        )
        (type3,) = instance.types["type3"]
        assert alloc.rate(type3) / macro.rate(type3) == Fraction(1, n)

    def test_starvation_worsens_with_size(self):
        factors = []
        for n in (3, 5, 7):
            instance = theorem_4_3(n)
            macro = macro_switch_max_min(instance.macro, instance.flows)
            alloc = max_min_fair(
                lemma_4_6_routing(instance), instance.clos.graph.capacities()
            )
            (type3,) = instance.types["type3"]
            factors.append(alloc.rate(type3) / macro.rate(type3))
        assert factors == sorted(factors, reverse=True)
        assert factors[-1] == Fraction(1, 7)


class TestClaim45Exhaustive:
    def test_all_feasible_routings_satisfy_both_conditions(self):
        """Claim 4.5 verified over the COMPLETE set of feasible routings
        (modulo interior-preserving symmetries) at n = 3 — at this size
        exactly one canonical routing carries the macro rates at all."""
        from repro.experiments.r2_starvation import claim_4_5_all_routings

        verification = claim_4_5_all_routings(3)
        assert verification.exhausted
        assert verification.num_routings == 1
        assert verification.condition_1_holds
        assert verification.condition_2_holds
