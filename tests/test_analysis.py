"""Tests for metrics and reporting helpers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import (
    compare_to_macro,
    jain_fairness_index,
    price_of_fairness,
    relative_max_min_floor,
    summarize_rates,
    throughput_gain,
)
from repro.analysis.reporting import format_cell, format_series, format_table
from repro.core.allocation import Allocation
from repro.core.flows import Flow
from repro.core.nodes import Destination, Source


def _flows(count):
    return [Flow(Source(1, 1), Destination(1, 1), tag=i) for i in range(count)]


class TestPriceOfFairness:
    def test_no_loss(self):
        assert price_of_fairness(Fraction(2), Fraction(2)) == 0

    def test_quarter_loss(self):
        # Example 3.3: T^MmF = 3/2, T^MT = 2.
        assert price_of_fairness(Fraction(3, 2), Fraction(2)) == Fraction(1, 4)

    def test_zero_max_throughput(self):
        assert price_of_fairness(Fraction(0), Fraction(0)) == 0


class TestThroughputGain:
    def test_gain(self):
        assert throughput_gain(Fraction(5), Fraction(9, 2)) == Fraction(10, 9)

    def test_zero_macro_raises(self):
        with pytest.raises(ValueError):
            throughput_gain(Fraction(1), Fraction(0))


class TestCompareToMacro:
    def test_ratios(self):
        f1, f2 = _flows(2)
        network = Allocation({f1: Fraction(1, 3), f2: Fraction(1)})
        macro = Allocation({f1: Fraction(1), f2: Fraction(1)})
        comparison = compare_to_macro(network, macro)
        assert comparison.ratios[f1] == Fraction(1, 3)
        assert comparison.min_ratio == Fraction(1, 3)
        assert comparison.max_ratio == 1
        assert comparison.num_degraded == 1
        assert comparison.num_starved == 0

    def test_starved_flows_counted(self):
        f1, f2 = _flows(2)
        network = Allocation({f1: 0, f2: Fraction(1, 2)})
        macro = Allocation({f1: Fraction(1), f2: Fraction(1)})
        comparison = compare_to_macro(network, macro)
        assert comparison.num_starved == 1
        assert comparison.min_ratio == 0

    def test_zero_macro_rate_skipped(self):
        f1, f2 = _flows(2)
        network = Allocation({f1: 1, f2: 1})
        macro = Allocation({f1: 0, f2: 1})
        comparison = compare_to_macro(network, macro)
        assert f1 not in comparison.ratios

    def test_no_comparable_flows_raises(self):
        (f1,) = _flows(1)
        with pytest.raises(ValueError):
            compare_to_macro(Allocation({f1: 1}), Allocation({f1: 0}))

    def test_relative_max_min_floor(self):
        f1, f2 = _flows(2)
        network = Allocation({f1: Fraction(1, 4), f2: Fraction(1, 2)})
        macro = Allocation({f1: Fraction(1), f2: Fraction(1, 2)})
        comparison = compare_to_macro(network, macro)
        assert relative_max_min_floor(comparison) == Fraction(1, 4)


def _reference_compare(network, macro):
    """``compare_to_macro`` as one division and one test per flow."""
    ratios = {}
    for flow in macro.flows():
        if macro.rate(flow) == 0:
            continue
        ratios[flow] = network.rate(flow) / macro.rate(flow)
    if not ratios:
        raise ValueError("no comparable flows")
    values = list(ratios.values())
    return (
        ratios,
        min(values),
        max(values),
        sum(1 for v in values if v < 1),
        sum(1 for v in values if v == 0),
    )


#: Exact rate objects, zeros included, as ints and as Fractions.
_rates = st.one_of(
    st.integers(0, 2),
    st.fractions(min_value=0, max_value=2, max_denominator=4),
)


class TestCompareToMacroPerObject:
    """Flows share rate objects; one division per distinct (network,
    macro) object pair must give every field the per-flow loop gives."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_per_flow_reference(self, data):
        network_pool = data.draw(st.lists(_rates, min_size=1, max_size=4))
        macro_pool = data.draw(st.lists(_rates, min_size=1, max_size=4))
        picks = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, len(network_pool) - 1),
                    st.integers(0, len(macro_pool) - 1),
                ),
                min_size=1,
                max_size=12,
            )
        )
        flows = _flows(len(picks))
        network = Allocation(
            {f: network_pool[i] for f, (i, _) in zip(flows, picks)}
        )
        macro = Allocation({f: macro_pool[j] for f, (_, j) in zip(flows, picks)})
        try:
            expected = _reference_compare(network, macro)
        except ValueError:
            with pytest.raises(ValueError, match="no comparable flows"):
                compare_to_macro(network, macro)
            return
        comparison = compare_to_macro(network, macro)
        ratios, low, high, degraded, starved = expected
        assert list(comparison.ratios.items()) == list(ratios.items())
        assert all(
            type(comparison.ratios[f]) is type(r) for f, r in ratios.items()
        )
        assert (comparison.min_ratio, comparison.max_ratio) == (low, high)
        assert type(comparison.min_ratio) is type(low)
        assert type(comparison.max_ratio) is type(high)
        assert comparison.num_degraded == degraded
        assert comparison.num_starved == starved

    def test_network_may_omit_flows_with_zero_macro_rate(self):
        kept, skipped = _flows(2)
        network = Allocation({kept: Fraction(1, 2)})
        macro = Allocation({kept: Fraction(1), skipped: 0})
        comparison = compare_to_macro(network, macro)
        assert comparison.ratios == {kept: Fraction(1, 2)}
        assert comparison.num_degraded == 1


class TestJain:
    def test_equal_rates_index_one(self):
        flows = _flows(4)
        alloc = Allocation({f: Fraction(1, 4) for f in flows})
        assert jain_fairness_index(alloc) == pytest.approx(1.0)

    def test_single_hog_index_one_over_n(self):
        flows = _flows(4)
        rates = {f: 0 for f in flows}
        rates[flows[0]] = 1
        assert jain_fairness_index(Allocation(rates)) == pytest.approx(0.25)

    def test_empty_allocation(self):
        assert jain_fairness_index(Allocation({})) == 1.0

    def test_all_zero(self):
        flows = _flows(3)
        assert jain_fairness_index(Allocation({f: 0 for f in flows})) == 1.0


class TestSummarize:
    def test_summary_fields(self):
        flows = _flows(3)
        alloc = Allocation(
            {flows[0]: Fraction(1, 4), flows[1]: Fraction(1, 2), flows[2]: 1}
        )
        summary = summarize_rates(alloc)
        assert summary["throughput"] == pytest.approx(1.75)
        assert summary["min_rate"] == pytest.approx(0.25)
        assert summary["median_rate"] == pytest.approx(0.5)
        assert summary["max_rate"] == pytest.approx(1.0)

    def test_empty(self):
        summary = summarize_rates(Allocation({}))
        assert summary["throughput"] == 0.0
        assert summary["jain"] == 1.0


class TestReporting:
    def test_format_cell_fraction(self):
        assert format_cell(Fraction(1, 3)) == "1/3 (0.3333)"
        assert format_cell(Fraction(4, 2)) == "2"

    def test_format_cell_float_and_str(self):
        assert format_cell(0.5) == "0.5000"
        assert format_cell("x") == "x"
        assert format_cell(7) == "7"

    def test_format_table_alignment(self):
        table = format_table(
            ["name", "value"], [["a", 1], ["long-name", 22]], title="T"
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert len(lines) == 5

    def test_format_table_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_format_series(self):
        out = format_series(
            "n", [3, 5], {"measured": [1, 2], "predicted": [1, 2]}
        )
        lines = out.splitlines()
        assert lines[0].split() == ["n", "measured", "predicted"]
        assert len(lines) == 4
