"""Paper reproduction — Theorem 5.4 / Example 5.3 (R3).

Upper bound ``T^{T-MmF} ≤ 2 T^MmF`` (exactly, by exhaustive search on
small instances; via the chain of lemmas on hypothesis-generated ones)
and the tightness construction driven by the Doom-Switch algorithm.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batched import solve_max_min_batch
from repro.core.doom_switch import doom_switch
from repro.core.flows import FlowCollection
from repro.core.maxmin import max_min_fair
from repro.core.objectives import macro_switch_max_min, throughput_max_min_fair
from repro.core.solve import solve_max_min
from repro.core.theorems import theorem_5_4 as predict
from repro.core.throughput import max_throughput_value
from repro.core.topology import ClosNetwork, MacroSwitch
from repro.workloads.adversarial import example_5_3, theorem_5_4

from tests.helpers import random_flows


class TestExample53:
    def test_macro_max_min_nine_halves(self):
        instance = example_5_3()
        alloc = macro_switch_max_min(instance.macro, instance.flows)
        assert set(alloc.rates().values()) == {Fraction(1, 2)}
        assert alloc.throughput() == Fraction(9, 2)

    def test_doom_switch_reaches_five(self):
        instance = example_5_3()
        result = doom_switch(instance.clos, instance.flows)
        assert result.allocation.throughput() == 5

    def test_type1_rates_rise_to_two_thirds(self):
        instance = example_5_3()
        result = doom_switch(instance.clos, instance.flows)
        for f in instance.types["type1"]:
            assert result.allocation.rate(f) == Fraction(2, 3)

    def test_type2_rates_fall_to_one_third(self):
        instance = example_5_3()
        result = doom_switch(instance.clos, instance.flows)
        for f in instance.types["type2"]:
            assert result.allocation.rate(f) == Fraction(1, 3)

    def test_type1_matched_on_distinct_middles(self):
        """'the algorithm, for instance, assigns type 1 flow ... to M_j'."""
        instance = example_5_3()
        result = doom_switch(instance.clos, instance.flows)
        middles = result.routing.middles(instance.clos)
        type1_middles = [middles[f] for f in instance.types["type1"]]
        assert len(set(type1_middles)) == len(type1_middles)

    def test_type2_all_on_the_doom_switch(self):
        instance = example_5_3()
        result = doom_switch(instance.clos, instance.flows)
        middles = result.routing.middles(instance.clos)
        assert {middles[f] for f in instance.types["type2"]} == {
            result.doom_switch
        }


class TestTightness:
    @pytest.mark.parametrize(
        "n,k", [(5, 1), (7, 1), (7, 4), (9, 1), (9, 8), (11, 3), (13, 16)]
    )
    def test_measured_matches_prediction(self, n, k):
        instance = theorem_5_4(n, k)
        prediction = predict(n, k)
        macro = macro_switch_max_min(instance.macro, instance.flows)
        assert macro.throughput() == prediction.macro_max_min_throughput
        result = doom_switch(instance.clos, instance.flows)
        assert result.allocation.throughput() == prediction.doom_throughput
        for f in instance.types["type1"]:
            assert result.allocation.rate(f) == prediction.type1_rate
        for f in instance.types["type2"]:
            assert result.allocation.rate(f) == prediction.type2_rate

    def test_gain_approaches_two(self):
        gains = []
        for n, k in ((5, 4), (9, 8), (13, 16), (21, 32), (31, 64)):
            instance = theorem_5_4(n, k)
            macro = macro_switch_max_min(instance.macro, instance.flows)
            result = doom_switch(instance.clos, instance.flows)
            gains.append(result.allocation.throughput() / macro.throughput())
        assert gains == sorted(gains)
        assert all(g < 2 for g in gains)
        assert gains[-1] > Fraction(9, 5)  # within 10% of the bound

    def test_epsilon_matches_formula(self):
        for n, k in ((7, 1), (9, 5), (11, 2)):
            instance = theorem_5_4(n, k)
            macro = macro_switch_max_min(instance.macro, instance.flows)
            result = doom_switch(instance.clos, instance.flows)
            gain = result.allocation.throughput() / macro.throughput()
            epsilon = 1 - gain / 2
            assert epsilon == Fraction(k + n, (n - 1) * (k + 2))

    def test_doubling_zeroes_most_rates_in_the_limit(self):
        """'doubling the throughput requires zeroing the rates of most
        flows': the doomed flows' total share vanishes as k grows."""
        shares = []
        for k in (1, 8, 64):
            instance = theorem_5_4(9, k)
            result = doom_switch(instance.clos, instance.flows)
            doomed_rate = sum(result.allocation.rate(f) for f in result.doomed)
            shares.append(doomed_rate / result.allocation.throughput())
        assert shares == sorted(shares, reverse=True)
        # per-flow doomed rate tends to zero
        instance = theorem_5_4(9, 64)
        result = doom_switch(instance.clos, instance.flows)
        assert max(
            result.allocation.rate(f) for f in result.doomed
        ) == Fraction(2, 64 * 8)


class TestFloatKernelsKnownAnswer:
    """Every float water-fill reproduces Theorem 5.4's per-type rates on
    the Doom-Switch routing: each kernel's float error, bounded against
    the closed form rather than another kernel."""

    CASES = [(3, 2), (5, 1), (7, 4), (9, 8), (11, 3), (13, 16)]

    @pytest.fixture(scope="class")
    def routed(self):
        cases = []
        for n, k in self.CASES:
            instance = theorem_5_4(n, k)
            routing = doom_switch(instance.clos, instance.flows).routing
            cases.append((n, k, instance, routing, instance.clos.graph.capacities()))
        return cases

    @pytest.mark.parametrize("kernel", ["reference", "vectorized", "batched"])
    def test_rates_match_theorem_5_4(self, routed, kernel):
        if kernel == "batched":
            # One block-diagonal batch over every case.
            allocations = solve_max_min_batch([(r, c) for *_, r, c in routed])
        elif kernel == "vectorized":
            allocations = [
                solve_max_min(r, c, backend="vectorized") for *_, r, c in routed
            ]
        else:
            allocations = [max_min_fair(r, c, exact=False) for *_, r, c in routed]
        for (n, k, instance, _, _), alloc in zip(routed, allocations):
            prediction = predict(n, k)
            for kind, want in (
                ("type1", prediction.type1_rate),
                ("type2", prediction.type2_rate),
            ):
                for flow in instance.types[kind]:
                    rate = alloc.rate(flow)
                    assert isinstance(rate, float)
                    assert rate == pytest.approx(float(want), rel=1e-12, abs=0), (
                        n, k, kind, flow,
                    )
            assert alloc.throughput() == pytest.approx(
                float(prediction.doom_throughput), rel=1e-12, abs=0
            )


class TestUpperBound:
    """T^{T-MmF} ≤ 2 T^MmF for every collection of flows."""

    @pytest.mark.parametrize("seed", range(5))
    def test_exact_on_small_instances(self, seed):
        clos = ClosNetwork(2)
        ms = MacroSwitch(2)
        flows = random_flows(clos, 5, seed=seed)
        t_mmf = macro_switch_max_min(ms, flows).throughput()
        optimal = throughput_max_min_fair(clos, flows)
        assert optimal.allocation.throughput() <= 2 * t_mmf

    @pytest.mark.parametrize("seed", range(5))
    def test_doom_switch_respects_bound(self, seed):
        """The lower-bounding algorithm also never exceeds 2x."""
        clos = ClosNetwork(3)
        ms = MacroSwitch(3)
        flows = random_flows(clos, 20, seed=seed)
        t_mmf = macro_switch_max_min(ms, flows).throughput()
        result = doom_switch(clos, flows)
        assert result.allocation.throughput() <= 2 * t_mmf

    def test_proof_chain_on_adversarial_instances(self):
        """T^{T-MmF} ≤ T^{T-MT} = T^MT ≤ 2 T^MmF, each link measured."""
        for n, k in ((5, 1), (7, 2)):
            instance = theorem_5_4(n, k)
            macro = macro_switch_max_min(instance.macro, instance.flows)
            t_mt = max_throughput_value(instance.flows)
            result = doom_switch(instance.clos, instance.flows)
            assert result.allocation.throughput() <= t_mt
            assert t_mt <= 2 * macro.throughput()

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_hypothesis_bound_via_doom_switch(self, data):
        n = data.draw(st.integers(1, 3), label="n")
        clos = ClosNetwork(n)
        ms = MacroSwitch(n)
        num_flows = data.draw(st.integers(1, 10), label="num_flows")
        flows = FlowCollection()
        for _ in range(num_flows):
            i = data.draw(st.integers(1, 2 * n))
            j = data.draw(st.integers(1, n))
            oi = data.draw(st.integers(1, 2 * n))
            oj = data.draw(st.integers(1, n))
            flows.add_pair(clos.source(i, j), clos.destination(oi, oj))
        t_mmf = macro_switch_max_min(ms, flows).throughput()
        result = doom_switch(clos, flows)
        assert result.allocation.throughput() <= 2 * t_mmf
