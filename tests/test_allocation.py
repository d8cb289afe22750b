"""Unit and property tests for allocations and lexicographic order."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import (
    Allocation,
    is_feasible,
    lex_compare,
    lex_greater_or_equal,
    link_utilizations,
)
from repro.core.flows import Flow, FlowCollection
from repro.core.routing import Routing
from repro.core.topology import ClosNetwork, MacroSwitch


@pytest.fixture
def clos():
    return ClosNetwork(2)


def _flow(clos, i=1, j=1, oi=1, oj=1, tag=0):
    return Flow(clos.source(i, j), clos.destination(oi, oj), tag)


class TestAllocation:
    def test_negative_rate_rejected(self, clos):
        with pytest.raises(ValueError, match="negative"):
            Allocation({_flow(clos): -1})

    def test_negative_rate_names_first_offending_flow(self, clos):
        """Rate objects shared by several flows are tested once, and the
        error still names the first negative flow in insertion order."""
        flows = [_flow(clos, tag=tag) for tag in range(5)]
        good, bad, worse = Fraction(1, 2), Fraction(-1, 3), Fraction(-2)
        for rates, first in (
            ([good, bad, good, worse, bad], 1),
            ([good, good, worse, bad, worse], 2),
            ([good, good, good, good, -0.5], 4),
        ):
            with pytest.raises(ValueError) as error:
                Allocation(dict(zip(flows, rates)))
            assert str(error.value) == (
                f"negative rate {rates[first]!r} for flow {flows[first]!r}"
            )

    @pytest.mark.parametrize("first", [True, False])
    def test_nan_rate_rejected(self, clos, first):
        """NaN passes a ``rate < 0`` test; left in, it would make the
        sorted vector depend on insertion order."""
        f, g = _flow(clos), _flow(clos, tag=1)
        rates = [(f, math.nan), (g, 0.5)]
        with pytest.raises(ValueError) as error:
            Allocation(dict(rates if first else rates[::-1]))
        assert str(error.value) == f"NaN rate nan for flow {f!r}"

    def test_zero_rate_allowed(self, clos):
        a = Allocation({_flow(clos): 0})
        assert a.throughput() == 0

    def test_throughput_sums(self, clos):
        a = Allocation(
            {_flow(clos): Fraction(1, 3), _flow(clos, tag=1): Fraction(2, 3)}
        )
        assert a.throughput() == 1

    def test_sorted_vector_ascending(self, clos):
        a = Allocation(
            {
                _flow(clos): Fraction(2, 3),
                _flow(clos, tag=1): Fraction(1, 3),
                _flow(clos, tag=2): Fraction(1, 2),
            }
        )
        assert a.sorted_vector() == [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]

    def test_rates_copy(self, clos):
        f = _flow(clos)
        a = Allocation({f: 1})
        a.rates()[f] = 99
        assert a.rate(f) == 1

    def test_as_float(self, clos):
        a = Allocation({_flow(clos): Fraction(1, 3)}).as_float()
        assert isinstance(a.rate(_flow(clos)), float)

    def test_getitem_and_contains(self, clos):
        f = _flow(clos)
        a = Allocation({f: 1})
        assert a[f] == 1
        assert f in a
        assert _flow(clos, tag=9) not in a


class TestLexCompare:
    def test_equal(self):
        assert lex_compare([1, 2], [1, 2]) == 0

    def test_first_component_decides(self):
        assert lex_compare([1, 5], [2, 0]) == -1
        assert lex_compare([2, 0], [1, 5]) == 1

    def test_later_component_decides(self):
        assert lex_compare([1, 3], [1, 2]) == 1

    def test_prefix_is_smaller(self):
        assert lex_compare([1], [1, 2]) == -1
        assert lex_compare([1, 2], [1]) == 1

    def test_exact_fractions(self):
        assert lex_compare([Fraction(1, 3)], [Fraction(1, 3)]) == 0
        assert lex_compare([Fraction(1, 3)], [Fraction(1, 3) + Fraction(1, 10**12)]) == -1

    def test_tolerance(self):
        assert lex_compare([0.3333333], [1 / 3], tol=1e-6) == 0
        assert lex_compare([0.3333333], [1 / 3], tol=1e-9) == -1

    def test_greater_or_equal(self):
        assert lex_greater_or_equal([2], [1])
        assert lex_greater_or_equal([1], [1])
        assert not lex_greater_or_equal([0], [1])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 5), max_size=6),
        st.lists(st.integers(0, 5), max_size=6),
    )
    def test_antisymmetry(self, a, b):
        assert lex_compare(a, b) == -lex_compare(b, a)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 5), max_size=6))
    def test_reflexive(self, a):
        assert lex_compare(a, a) == 0

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 3), max_size=4),
        st.lists(st.integers(0, 3), max_size=4),
        st.lists(st.integers(0, 3), max_size=4),
    )
    def test_transitivity(self, a, b, c):
        if lex_compare(a, b) >= 0 and lex_compare(b, c) >= 0:
            assert lex_compare(a, c) >= 0


#: Exact rate objects: ints, Fractions, and the same value in both.
_exact_rates = st.one_of(
    st.integers(0, 3),
    st.fractions(min_value=0, max_value=3, max_denominator=4),
)


@st.composite
def _shared_rates(draw, rates=_exact_rates, max_size=12):
    """Per-flow rates drawn from a small pool of objects, so flows share
    rate objects and equal values also sit in distinct objects."""
    pool = draw(st.lists(rates, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=max_size))
    return [pool[i] for i in picks]


def _allocation(values):
    clos = ClosNetwork(2)
    return Allocation({_flow(clos, tag=tag): v for tag, v in enumerate(values)})


class TestPerObjectPaths:
    """Throughput and the sorted vector work once per distinct rate
    object; they must agree with the per-flow definitions."""

    @settings(max_examples=150, deadline=None)
    @given(_shared_rates())
    def test_exact_rates_match_per_flow(self, values):
        a = _allocation(values)
        assert a.sorted_vector() == sorted(values)
        expected = sum(values)
        assert a.throughput() == expected
        assert type(a.throughput()) is type(expected)

    def test_equal_values_in_distinct_objects(self):
        values = [Fraction(1, 2), 1, Fraction(1), Fraction(1, 2), 1, Fraction(1, 2)]
        a = _allocation(values)
        assert a.sorted_vector() == sorted(values)
        assert a.throughput() == Fraction(9, 2)
        assert type(a.throughput()) is Fraction

    @settings(max_examples=150, deadline=None)
    @given(
        _shared_rates(
            st.one_of(
                st.floats(0, 10, allow_nan=False, allow_infinity=False),
                _exact_rates,
            )
        )
    )
    def test_float_throughput_is_the_per_flow_sum(self, values):
        a = _allocation(values)
        expected = sum(values)
        assert type(a.throughput()) is type(expected)
        assert repr(a.throughput()) == repr(expected)
        assert a.sorted_vector() == sorted(values)


class TestFeasibility:
    def test_feasible_simple(self, clos):
        f = _flow(clos, oi=3)
        flows = FlowCollection([f])
        routing = Routing.uniform(clos, flows, 1)
        assert is_feasible(routing, Allocation({f: 1}), clos.graph.capacities())

    def test_overload_detected(self, clos):
        flows = FlowCollection()
        pair = flows.add_pair(clos.source(1, 1), clos.destination(3, 1), count=2)
        routing = Routing.uniform(clos, flows, 1)
        alloc = Allocation({pair[0]: Fraction(2, 3), pair[1]: Fraction(2, 3)})
        assert not is_feasible(routing, alloc, clos.graph.capacities())

    def test_exactly_at_capacity_is_feasible(self, clos):
        flows = FlowCollection()
        pair = flows.add_pair(clos.source(1, 1), clos.destination(3, 1), count=2)
        routing = Routing.uniform(clos, flows, 1)
        alloc = Allocation({pair[0]: Fraction(1, 2), pair[1]: Fraction(1, 2)})
        assert is_feasible(routing, alloc, clos.graph.capacities())

    def test_infinite_links_never_bind(self):
        ms = MacroSwitch(1)
        flows = FlowCollection()
        # Two flows from different sources to different destinations share
        # only the infinite interior link I1->O1.
        f1 = flows.add(Flow(ms.source(1, 1), ms.destination(1, 1)))
        f2 = flows.add(Flow(ms.source(2, 1), ms.destination(2, 1)))
        routing = Routing.for_macro_switch(ms, flows)
        alloc = Allocation({f1: 1, f2: 1})
        assert is_feasible(routing, alloc, ms.graph.capacities())

    def test_tolerance_allows_rounding(self, clos):
        flows = FlowCollection()
        pair = flows.add_pair(clos.source(1, 1), clos.destination(3, 1), count=2)
        routing = Routing.uniform(clos, flows, 1)
        alloc = Allocation({pair[0]: 0.5 + 1e-12, pair[1]: 0.5})
        assert not is_feasible(routing, alloc, clos.graph.capacities())
        assert is_feasible(routing, alloc, clos.graph.capacities(), tol=1e-9)


class TestLinkUtilizations:
    def test_utilizations(self, clos):
        f = _flow(clos, oi=3)
        flows = FlowCollection([f])
        routing = Routing.uniform(clos, flows, 1)
        utils = link_utilizations(
            routing, Allocation({f: Fraction(1, 2)}), clos.graph.capacities()
        )
        assert all(u == Fraction(1, 2) for u in utils.values())
        assert len(utils) == 4

    def test_infinite_links_excluded(self):
        ms = MacroSwitch(1)
        f = Flow(ms.source(1, 1), ms.destination(2, 1))
        routing = Routing.for_macro_switch(ms, FlowCollection([f]))
        utils = link_utilizations(routing, Allocation({f: 1}), ms.graph.capacities())
        assert len(utils) == 2  # only the two server links
