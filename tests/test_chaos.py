"""Tests for the chaos fuzzing harness (``repro.chaos``)."""

import pytest

from repro.chaos import (
    ChaosInstance,
    churn_snapshots,
    cross_check,
    fuzz,
    random_instance,
)
from repro.core.maxmin import max_min_fair
from repro.errors import CertificateError
from repro.validate import set_validation_level, validation

@pytest.fixture(autouse=True)
def clean_state(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_VALIDATE", raising=False)
    monkeypatch.setenv("REPRO_QUARANTINE_DIR", str(tmp_path / "quarantine"))
    set_validation_level(None)
    yield
    set_validation_level(None)


class TestGeneration:
    def test_deterministic(self):
        first = random_instance(7)
        second = random_instance(7)
        assert first.name == second.name
        assert dict(first.routing.items()) == dict(second.routing.items())
        assert first.capacities == second.capacities

    def test_seeds_vary_the_shape(self):
        names = {random_instance(seed).name for seed in range(30)}
        assert len(names) > 5  # sizes, shapes, and mutations all vary

    def test_instances_are_solvable(self):
        # Every generated instance must at least be accepted by the
        # exact reference solver under the full certificate.
        for seed in range(10):
            instance = random_instance(seed)
            with validation("full"):
                max_min_fair(
                    instance.routing, instance.capacities, exact=True
                )

    def test_churn_snapshots_deterministic(self):
        first = churn_snapshots(3)
        second = churn_snapshots(3)
        assert len(first) == len(second)
        assert [i.name for i in first] == [i.name for i in second]
        assert all(
            dict(a.routing.items()) == dict(b.routing.items())
            and a.capacities == b.capacities
            for a, b in zip(first, second)
        )

    def test_churn_snapshots_capture_degraded_capacities(self):
        # Across a few seeds, at least one brownout snapshot must show a
        # capacity below its healthy value — otherwise the churn stream
        # is not exercising the failure path at all.
        degraded = False
        for seed in range(6):
            for snapshot in churn_snapshots(seed):
                if any(c != 1 for c in snapshot.capacities.values()):
                    degraded = True
        assert degraded


class TestCrossCheck:
    def test_healthy_backends_agree(self):
        for seed in (0, 1, 2):
            assert cross_check(random_instance(seed)) == []

    def test_corrupt_backend_detected_and_quarantined(
        self, clos2, monkeypatch, tmp_path
    ):
        import repro.core.vectorized as vectorized_module

        original = vectorized_module.max_min_fair_vectorized

        def skewed(routing, capacities, compiled=None):
            allocation = original(routing, capacities)
            rates = allocation.rates()
            victim = next(iter(rates))
            rates[victim] = rates[victim] * 3 + 0.25
            return type(allocation)(rates)

        monkeypatch.setattr(
            vectorized_module, "max_min_fair_vectorized", skewed
        )
        instance = random_instance(0)
        failures = cross_check(instance, backends=["vectorized"])
        assert failures
        assert all(f["backend"] == "vectorized" for f in failures)
        assert all(f["bundle"] for f in failures)
        kinds = {f["kind"] for f in failures}
        assert kinds <= {"certificate", "disagreement"}

    def test_error_mismatch_detected(self, monkeypatch):
        import repro.core.vectorized as vectorized_module
        from repro.errors import UnboundedRateError

        def refuses(routing, capacities, compiled=None):
            raise UnboundedRateError("injected refusal")

        monkeypatch.setattr(
            vectorized_module, "max_min_fair_vectorized", refuses
        )
        failures = cross_check(random_instance(0), backends=["vectorized"])
        assert len(failures) == 1
        assert failures[0]["kind"] == "error-mismatch"


class TestFuzz:
    def test_clean_run_reports_zero_failures(self):
        report = fuzz(4, churn_every=0)
        assert report.seeds == 4
        assert report.instances == 4
        assert report.failures == []
        assert report.bundles == []

    def test_churn_adds_instances(self):
        without = fuzz(2, churn_every=0)
        with_churn = fuzz(2, churn_every=1)
        assert with_churn.instances > without.instances

    def test_negative_seeds_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            fuzz(-1)

    def test_corrupt_backend_fails_the_run(self, monkeypatch):
        import repro.core.vectorized as vectorized_module
        from repro.errors import UnboundedRateError

        def refuses(routing, capacities, compiled=None):
            raise UnboundedRateError("injected refusal")

        monkeypatch.setattr(
            vectorized_module, "max_min_fair_vectorized", refuses
        )
        report = fuzz(2, backends=["vectorized"], churn_every=0)
        assert report.failures
        assert report.bundles  # every failure quarantined for replay
