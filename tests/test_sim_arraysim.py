"""Tests for the simulator's event loops (:mod:`repro.sim.arraysim`).

Every parity test runs the production entry point
(:func:`repro.sim.flowsim.simulate` or
:func:`repro.sim.stream.simulate_stream`) and the per-job dict loop in
``tests/sim_reference.py`` on the same input, and requires the oracle
contract: ``completed``, ``unfinished`` and ``end_time`` exactly equal,
``work_done`` within :data:`~tests.sim_reference.WORK_TOL` relative —
or, for inputs the loops reject, the same exception type and message.
"""

import math
import random

import pytest

from repro.core.topology import ClosNetwork
from repro.errors import ReproError
from repro.sim.flowsim import SimulationError, simulate
from repro.sim.jobs import FlowJob, incast_burst, poisson_workload
from repro.sim.policies import (
    MatchingScheduler,
    MaxMinCongestionControl,
    ProcessorSharing,
    ReroutingCongestionControl,
)
from repro.sim.stream import simulate_stream
from repro.workloads.stochastic import churn_workload

from tests.sim_reference import (
    WORK_TOL,
    _simulate,
    _simulate_stream,
    results_equivalent,
)


@pytest.fixture
def clos():
    return ClosNetwork(2)


def _oracle(jobs, policy, max_time=None, failure_schedule=None):
    return _simulate(jobs, policy, max_time, 1_000_000, failure_schedule)


def _oracle_stream(jobs, policy, batch_window, max_time=None):
    return _simulate_stream(
        jobs, policy, batch_window, max_time, 1_000_000, None
    )


def _require_same(got, want):
    """The full oracle contract between a production and an oracle run."""
    assert got.completed == want.completed
    assert got.unfinished == want.unfinished
    assert got.end_time == want.end_time
    assert math.isclose(
        got.work_done, want.work_done, rel_tol=WORK_TOL, abs_tol=WORK_TOL
    )


class TestPerEventByteIdentity:
    @pytest.mark.parametrize("seed", range(4))
    def test_poisson_maxmin(self, clos, seed):
        jobs = poisson_workload(clos, rate=3.0, horizon=4.0, seed=seed)
        want = _oracle(jobs, MaxMinCongestionControl(clos))
        got = simulate(jobs, MaxMinCongestionControl(clos))
        _require_same(got, want)

    @pytest.mark.parametrize(
        "make_policy",
        [
            lambda net: MaxMinCongestionControl(net, backend="streaming"),
            lambda net: ProcessorSharing(net),
            lambda net: MatchingScheduler(net, srpt=True),
        ],
        ids=["streaming", "processor-sharing", "matching-srpt"],
    )
    def test_policies(self, clos, make_policy):
        jobs = poisson_workload(clos, rate=2.0, horizon=5.0, seed=7)
        want = _oracle(jobs, make_policy(clos))
        got = simulate(jobs, make_policy(clos))
        _require_same(got, want)

    def test_rerouting_next_wakeup(self, clos):
        """The ``next_wakeup`` hook: re-route epochs wake the loop
        between flow events (the E8 ``fct_scheduling`` path)."""
        jobs = poisson_workload(clos, rate=3.0, horizon=8.0, seed=9)
        assert len(jobs) < 64
        want = _oracle(jobs, ReroutingCongestionControl(clos, interval=0.3))
        got = simulate(jobs, ReroutingCongestionControl(clos, interval=0.3))
        _require_same(got, want)

    def test_rerouting_under_failure_schedule(self, clos):
        from fractions import Fraction

        from repro.failures.schedule import FailureSchedule

        jobs = poisson_workload(clos, rate=2.0, horizon=6.0, seed=4)
        schedule = FailureSchedule.random_flaps(
            clos, count=3, horizon=4.0, seed=4, severity=Fraction(1, 4)
        )
        want = _oracle(
            jobs,
            ReroutingCongestionControl(clos, interval=0.5, seed=4),
            failure_schedule=schedule,
        )
        got = simulate(
            jobs,
            ReroutingCongestionControl(clos, interval=0.5, seed=4),
            failure_schedule=schedule,
        )
        _require_same(got, want)

    def test_same_instant_burst(self, clos):
        jobs = incast_burst(clos, fan_in=4, arrival=1.0, size=2.0)
        want = _oracle(jobs, MaxMinCongestionControl(clos))
        got = simulate(jobs, MaxMinCongestionControl(clos))
        _require_same(got, want)

    def test_zero_size_jobs(self, clos):
        jobs = [
            FlowJob(0, clos.sources[0], clos.destinations[0], 0.5, 0.0),
            FlowJob(1, clos.sources[1], clos.destinations[1], 0.5, 1.0),
        ]
        want = _oracle(jobs, MaxMinCongestionControl(clos))
        got = simulate(jobs, MaxMinCongestionControl(clos))
        _require_same(got, want)

    def test_max_time_truncation(self, clos):
        jobs = poisson_workload(clos, rate=3.0, horizon=4.0, seed=2)
        want = _oracle(jobs, MaxMinCongestionControl(clos), max_time=1.5)
        got = simulate(jobs, MaxMinCongestionControl(clos), max_time=1.5)
        _require_same(got, want)

    def test_failure_schedule(self, clos):
        from fractions import Fraction

        from repro.failures.schedule import FailureSchedule

        jobs = poisson_workload(clos, rate=2.0, horizon=6.0, seed=5)
        schedule = FailureSchedule.random_flaps(
            clos, count=3, horizon=4.0, seed=5, severity=Fraction(1, 4)
        )
        want = _oracle(
            jobs,
            MaxMinCongestionControl(clos, seed=5),
            failure_schedule=schedule,
        )
        got = simulate(
            jobs,
            MaxMinCongestionControl(clos, seed=5),
            failure_schedule=schedule,
        )
        _require_same(got, want)

    def test_error_parity_negative_arrival(self, clos):
        jobs = [FlowJob(0, clos.sources[0], clos.destinations[0], -1.0, 1.0)]
        with pytest.raises(ValueError) as oracle_err:
            _oracle(jobs, MaxMinCongestionControl(clos))
        with pytest.raises(ValueError) as err:
            simulate(jobs, MaxMinCongestionControl(clos))
        assert str(err.value) == str(oracle_err.value)


class TestStreamByteIdentity:
    @pytest.mark.parametrize("window", [0.05, 0.5])
    def test_micro_batched(self, clos, window):
        jobs = poisson_workload(clos, rate=3.0, horizon=5.0, seed=3)
        want = _oracle_stream(
            jobs, MaxMinCongestionControl(clos, backend="streaming"), window
        )
        got = simulate_stream(
            jobs,
            MaxMinCongestionControl(clos, backend="streaming"),
            batch_window=window,
        )
        _require_same(got, want)

    def test_max_time(self, clos):
        jobs = poisson_workload(clos, rate=3.0, horizon=5.0, seed=4)
        want = _oracle_stream(
            jobs,
            MaxMinCongestionControl(clos, backend="streaming"),
            0.1,
            max_time=2.0,
        )
        got = simulate_stream(
            jobs,
            MaxMinCongestionControl(clos, backend="streaming"),
            batch_window=0.1,
            max_time=2.0,
        )
        _require_same(got, want)

    def test_finish_ties_break_by_job_id(self, clos):
        """Equal finish times retire in job-id order, not admission
        order: ids here descend in admission order."""
        jobs = [
            FlowJob(9 - i, clos.sources[i], clos.destinations[i], 0.5, 1.0)
            for i in range(4)
        ]
        want = _oracle_stream(
            jobs, MaxMinCongestionControl(clos, backend="streaming"), 0.05
        )
        got = simulate_stream(
            jobs,
            MaxMinCongestionControl(clos, backend="streaming"),
            batch_window=0.05,
        )
        _require_same(got, want)

    def test_zero_window_delegates_to_per_event(self, clos):
        jobs = poisson_workload(clos, rate=2.0, horizon=3.0, seed=1)
        streamed = simulate_stream(
            jobs,
            MaxMinCongestionControl(clos, backend="streaming"),
            batch_window=0.0,
        )
        per_event = _oracle(
            jobs, MaxMinCongestionControl(clos, backend="streaming")
        )
        _require_same(streamed, per_event)


def _seeded_churn(seed):
    """A seeded churn instance: Clos(2..4), one of three arrival rates,
    and ``max_time`` either unset or 0.75."""
    rng = random.Random((seed << 5) ^ 0x51AE)
    n = rng.randint(2, 4)
    network = ClosNetwork(n)
    jobs = churn_workload(
        network,
        rate=rng.choice((30.0, 60.0, 120.0)),
        horizon=rng.uniform(0.4, 1.2),
        seed=seed,
    )
    max_time = rng.choice((None, None, 0.75))
    return network, jobs, max_time


def _outcome(run):
    """``("ok", result)`` or ``("error", "<type>: <message>")``."""
    try:
        return "ok", run()
    except (ReproError, SimulationError) as error:
        return "error", f"{type(error).__name__}: {error}"


class TestSeededChurn:
    """Seeded churn workloads through both loops, per-event and
    micro-batched: the results match the oracle, or both reject the
    input with the same typed error."""

    @pytest.mark.parametrize("mode", ["per-event", "batched"])
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_oracle(self, seed, mode):
        network, jobs, max_time = _seeded_churn(seed)
        if mode == "per-event":
            backend = "vectorized"

            def production():
                return simulate(
                    jobs,
                    MaxMinCongestionControl(network, backend=backend),
                    max_time=max_time,
                )

            def oracle():
                return _oracle(
                    jobs,
                    MaxMinCongestionControl(network, backend=backend),
                    max_time=max_time,
                )

        else:
            backend = "streaming"

            def production():
                return simulate_stream(
                    jobs,
                    MaxMinCongestionControl(network, backend=backend),
                    batch_window=0.02,
                    max_time=max_time,
                )

            def oracle():
                return _oracle_stream(
                    jobs,
                    MaxMinCongestionControl(network, backend=backend),
                    0.02,
                    max_time=max_time,
                )

        got_kind, got = _outcome(production)
        want_kind, want = _outcome(oracle)
        assert got_kind == want_kind, (got, want)
        if got_kind == "error":
            assert got == want
        else:
            _require_same(got, want)


def test_stream_loop_leaves_queue_gauge_unset(clos):
    """The micro-batching loop walks presorted arrival and completion
    lists, so it records ``sim.*`` counters but never the event-heap
    gauge."""
    from repro import obs
    from repro.obs.metrics import REGISTRY, snapshot_delta

    jobs = poisson_workload(clos, rate=3.0, horizon=3.0, seed=5)
    obs.reset()
    obs.enable()
    try:
        before = REGISTRY.snapshot()
        simulate_stream(
            jobs, MaxMinCongestionControl(clos, backend="streaming"),
            batch_window=0.05,
        )
        delta = snapshot_delta(before, REGISTRY.snapshot())
    finally:
        obs.reset()
        obs.disable()
    assert any(key.startswith("sim.") for key in delta)
    assert "sim.queue_peak" not in delta


class TestResultsEquivalent:
    def test_work_done_tolerance_only(self, clos):
        jobs = [FlowJob(0, clos.sources[0], clos.destinations[0], 0.0, 1.0)]
        result = simulate(jobs, MaxMinCongestionControl(clos))
        drifted = result._replace(
            work_done=result.work_done * (1.0 + 1e-12)
        )
        assert results_equivalent(result, drifted)
        broken = result._replace(work_done=result.work_done + 1.0)
        assert not results_equivalent(result, broken)

    def test_exact_fields_must_match(self, clos):
        jobs = [FlowJob(0, clos.sources[0], clos.destinations[0], 0.0, 1.0)]
        result = simulate(jobs, MaxMinCongestionControl(clos))
        assert not results_equivalent(
            result, result._replace(end_time=result.end_time + 1e-15)
        )

