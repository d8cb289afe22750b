"""Tests for the stochastic workload generators."""

import hashlib

import pytest

from repro.core.topology import ClosNetwork
from repro.workloads.stochastic import (
    churn_workload,
    elephant_mice,
    hotspot,
    incast,
    permutation,
    rack_local,
    uniform_random,
)


@pytest.fixture
def clos():
    return ClosNetwork(3)


class TestUniformRandom:
    def test_count(self, clos):
        assert len(uniform_random(clos, 25, seed=0)) == 25

    def test_deterministic(self, clos):
        a = uniform_random(clos, 25, seed=1)
        b = uniform_random(clos, 25, seed=1)
        assert a.flows == b.flows

    def test_seed_changes_output(self, clos):
        a = uniform_random(clos, 25, seed=1)
        b = uniform_random(clos, 25, seed=2)
        assert a.flows != b.flows

    def test_endpoints_belong_to_network(self, clos):
        flows = uniform_random(clos, 30, seed=3)
        sources = set(clos.sources)
        dests = set(clos.destinations)
        for f in flows:
            assert f.source in sources
            assert f.dest in dests

    def test_zero_flows(self, clos):
        assert len(uniform_random(clos, 0, seed=0)) == 0


class TestPermutation:
    def test_one_flow_per_server(self, clos):
        flows = permutation(clos, seed=0)
        assert len(flows) == len(clos.sources)

    def test_sources_distinct(self, clos):
        flows = permutation(clos, seed=0)
        sources = [f.source for f in flows]
        assert len(set(sources)) == len(sources)

    def test_destinations_distinct(self, clos):
        flows = permutation(clos, seed=0)
        dests = [f.dest for f in flows]
        assert len(set(dests)) == len(dests)

    def test_max_throughput_equals_flow_count(self, clos):
        """A permutation is its own perfect matching."""
        from repro.core.throughput import max_throughput_value

        flows = permutation(clos, seed=5)
        assert max_throughput_value(flows) == len(flows)


class TestHotspot:
    def test_count_and_determinism(self, clos):
        a = hotspot(clos, 40, seed=0)
        b = hotspot(clos, 40, seed=0)
        assert len(a) == 40
        assert a.flows == b.flows

    def test_skew_concentrates_destinations(self, clos):
        flows = hotspot(clos, 200, skew=2.5, seed=1)
        by_dest = flows.by_destination()
        counts = sorted((len(v) for v in by_dest.values()), reverse=True)
        # the hottest destination receives far more than an equal share
        assert counts[0] > 200 / len(clos.destinations) * 3

    def test_invalid_skew(self, clos):
        with pytest.raises(ValueError):
            hotspot(clos, 10, skew=0)


class TestIncast:
    def test_single_destination(self, clos):
        flows = incast(clos, fan_in=8, seed=0)
        dests = {f.dest for f in flows}
        assert len(dests) == 1
        assert len(flows) == 8

    def test_distinct_sources(self, clos):
        flows = incast(clos, fan_in=8, seed=0)
        sources = [f.source for f in flows]
        assert len(set(sources)) == 8

    def test_explicit_destination(self, clos):
        target = clos.destination(1, 1)
        flows = incast(clos, fan_in=4, dest=target, seed=0)
        assert all(f.dest == target for f in flows)

    def test_fan_in_too_large(self, clos):
        with pytest.raises(ValueError):
            incast(clos, fan_in=len(clos.sources) + 1)

    def test_incast_max_min_rates(self, clos):
        """All incast flows share the destination link equally."""
        from fractions import Fraction

        from repro.core.objectives import macro_switch_max_min
        from repro.core.topology import MacroSwitch

        flows = incast(clos, fan_in=6, seed=0)
        alloc = macro_switch_max_min(MacroSwitch(clos.n), flows)
        assert set(alloc.rates().values()) == {Fraction(1, 6)}


class TestElephantMice:
    def test_partition(self, clos):
        flows, elephants, mice = elephant_mice(clos, 4, 10, seed=0)
        assert len(elephants) == 4
        assert len(mice) == 10
        assert len(flows) == 14
        assert set(elephants) | set(mice) == set(flows)

    def test_elephants_pairwise_disjoint(self, clos):
        _, elephants, _ = elephant_mice(clos, 5, 0, seed=1)
        assert len({f.source for f in elephants}) == 5
        assert len({f.dest for f in elephants}) == 5

    def test_elephants_inserted_first(self, clos):
        flows, elephants, _ = elephant_mice(clos, 3, 5, seed=2)
        assert flows.flows[:3] == elephants

    def test_too_many_elephants(self, clos):
        with pytest.raises(ValueError):
            elephant_mice(clos, len(clos.sources) + 1, 0)


class TestRackLocal:
    def test_count_and_determinism(self, clos):
        a = rack_local(clos, 30, locality=0.5, seed=1)
        b = rack_local(clos, 30, locality=0.5, seed=1)
        assert len(a) == 30
        assert a.flows == b.flows

    def test_full_locality_stays_in_rack(self, clos):
        flows = rack_local(clos, 40, locality=1.0, seed=0)
        assert all(f.source.switch == f.dest.switch for f in flows)

    def test_zero_locality_always_crosses(self, clos):
        flows = rack_local(clos, 40, locality=0.0, seed=0)
        assert all(f.source.switch != f.dest.switch for f in flows)

    def test_intermediate_locality_mixes(self, clos):
        flows = rack_local(clos, 200, locality=0.7, seed=2)
        local = sum(1 for f in flows if f.source.switch == f.dest.switch)
        assert 0.55 < local / 200 < 0.85

    def test_invalid_locality(self, clos):
        with pytest.raises(ValueError):
            rack_local(clos, 10, locality=1.5)


class TestChurnWorkload:
    #: Digest of the job sequences for n in {2, 4} and seeds 0-9 at
    #: rate 20, horizon 2; pinned so the churn experiment and its
    #: benchmark keep drawing the same jobs.
    DIGEST = "5fa284d09ea8466747d5efb14a4acb929c6f75973df591e7341bbcdbd17af6c6"

    def test_draw_sequence_pinned(self):
        digest = hashlib.sha256()
        for n in (2, 4):
            for seed in range(10):
                jobs = churn_workload(
                    ClosNetwork(n), rate=20.0, horizon=2.0, seed=seed
                )
                for job in jobs:
                    digest.update(repr(tuple(job)).encode())
        assert digest.hexdigest() == self.DIGEST

