"""Tests for quarantine bundles: write/load round trips, replay, and the
delta-debugging minimizer that shrinks a reproducer."""

import glob
import os

import pytest

from repro.chaos import ChaosInstance, cross_check
from repro.core.maxmin import max_min_fair
from repro.quarantine import (
    ddmin,
    load_bundle,
    quarantine_failure,
    replay,
    write_bundle,
)
from repro.validate import set_validation_level, validation

from tests.helpers import random_flows, random_routing


@pytest.fixture(autouse=True)
def clean_state(monkeypatch, tmp_path):
    """Quarantine into a temp dir; no validation override leaks."""
    monkeypatch.delenv("REPRO_VALIDATE", raising=False)
    monkeypatch.setenv("REPRO_QUARANTINE_DIR", str(tmp_path / "quarantine"))
    set_validation_level(None)
    yield
    set_validation_level(None)


@pytest.fixture
def instance(clos2):
    flows = random_flows(clos2, 7, seed=21)
    routing = random_routing(clos2, flows, seed=21)
    return routing, clos2.graph.capacities()


def _bundles():
    return sorted(
        glob.glob(os.path.join(os.environ["REPRO_QUARANTINE_DIR"], "*.json"))
    )


class TestDdmin:
    def test_shrinks_to_single_culprit(self):
        items = list(range(20))
        result = ddmin(items, lambda subset: 13 in subset)
        assert result == [13]

    def test_shrinks_pair(self):
        items = list(range(16))
        result = ddmin(
            items, lambda subset: 3 in subset and 11 in subset
        )
        assert sorted(result) == [3, 11]

    def test_keeps_everything_when_all_needed(self):
        items = [1, 2, 3]
        result = ddmin(items, lambda subset: len(subset) == 3)
        assert result == items


class TestQuarantineRoundTrip:
    def test_bundle_round_trips_exact_rates(self, instance):
        routing, capacities = instance
        allocation = max_min_fair(routing, capacities, exact=True)
        path = write_bundle(
            routing, capacities, "test", "reference", True,
            seed=42, failures=["synthetic"], rates=allocation.rates(),
        )
        bundle = load_bundle(path)
        assert bundle.seed == 42
        assert bundle.capacities == capacities
        assert bundle.rates == allocation.rates()
        assert all(
            bundle.routing.path(f) == routing.path(f)
            for f in routing.flows()
        )

    def test_same_instance_same_bundle_path(self, instance):
        routing, capacities = instance
        first = quarantine_failure(
            routing, capacities, "dup", "vectorized", False
        )
        second = quarantine_failure(
            routing, capacities, "dup", "vectorized", False
        )
        assert first == second
        assert len(_bundles()) == 1

    def test_healthy_bundle_does_not_reproduce(self, instance):
        routing, capacities = instance
        path = write_bundle(
            routing, capacities, "falsealarm", "reference", True
        )
        result = replay(path)
        assert not result.reproduced
        assert result.live_failures == []
        assert result.minimized_path is None

    def test_stored_nan_rate_is_listed_not_raised(self, instance):
        routing, capacities = instance
        rates = max_min_fair(routing, capacities, exact=False).rates()
        bad = routing.flows()[0]
        rates[bad] = float("nan")
        path = write_bundle(
            routing, capacities, "nan", "vectorized", False, rates=rates
        )
        result = replay(path, minimize=False)
        assert result.stored_failures == [f"NaN rate for flow {bad!r}"]
        assert not result.reproduced


class TestCorruptedBackendEndToEnd:
    """The acceptance scenario: a corrupted vectorized kernel is caught
    by its certificate in the chaos cross-check, which quarantines the
    instance; replaying the bundle reproduces and minimizes the
    failure."""

    @pytest.fixture
    def corrupt_waterfill(self, monkeypatch):
        import repro.core.vectorized as vectorized_module

        original = vectorized_module.waterfill

        def doubled(compiled, caps):
            with validation("off"):
                rates = original(compiled, caps)
            return rates * 2.0

        monkeypatch.setattr(vectorized_module, "waterfill", doubled)
        return doubled

    def test_cross_check_then_replay_minimizes(
        self, clos2, corrupt_waterfill
    ):
        flows = random_flows(clos2, 6, seed=33)
        routing = random_routing(clos2, flows, seed=33)
        corrupted = ChaosInstance(
            name="corrupt-vectorized",
            seed=33,
            routing=routing,
            capacities=clos2.graph.capacities(),
        )

        failures = cross_check(corrupted, backends=["vectorized"])
        assert [f["kind"] for f in failures] == ["certificate"]
        bundles = _bundles()
        assert bundles == [failures[0]["bundle"]]
        bundle = load_bundle(bundles[0])
        assert bundle.backend == "vectorized"
        assert bundle.reason == "fuzz-certificate"
        assert len(bundle.routing) == len(routing)

        # Replay on the still-corrupted kernel: reproduces, minimizes.
        result = replay(bundles[0])
        assert result.reproduced
        assert result.live_failures
        assert result.minimized_flows == 1
        assert result.minimized_path is not None
        minimized = load_bundle(result.minimized_path)
        assert len(minimized.routing) == 1
        assert minimized.reason == "fuzz-certificate-min"
        # The minimized bundle is itself a valid reproducer.
        assert replay(result.minimized_path, minimize=False).reproduced
