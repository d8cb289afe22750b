"""Tests for the micro-batching stream loop.

The contract under test: ``simulate_stream(batch_window=0)`` *is*
:func:`repro.sim.flowsim.simulate`; the ``streaming`` policy backend is
byte-identical to ``vectorized`` at every consult (so whole-simulation
results match exactly); and batching trades rate staleness for
throughput but never loses work.
"""

import math

import pytest

from repro import obs
from repro.core.topology import ClosNetwork
from repro.sim.flowsim import SimulationError, simulate
from repro.sim.jobs import FlowJob, poisson_workload
from repro.sim.policies import MaxMinCongestionControl
from repro.sim.stream import simulate_stream
from repro.workloads.stochastic import churn_workload


@pytest.fixture
def clos():
    return ClosNetwork(2)


def _job(clos, jid, i, j, oi, oj, arrival=0.0, size=1.0):
    return FlowJob(
        jid, clos.source(i, j), clos.destination(oi, oj), arrival, size
    )


class TestWindowZeroIdentity:
    """``batch_window=0`` delegates to the per-event loop outright."""

    def test_byte_identical_to_simulate(self, clos):
        jobs = poisson_workload(clos, rate=2.0, horizon=10.0, seed=3)
        policy_a = MaxMinCongestionControl(clos, backend="streaming")
        policy_b = MaxMinCongestionControl(clos, backend="streaming")
        assert simulate_stream(jobs, policy_a, batch_window=0.0) == simulate(
            jobs, policy_b
        )

    def test_streaming_policy_matches_vectorized(self, clos):
        jobs = poisson_workload(clos, rate=3.0, horizon=10.0, seed=5)
        streamed = simulate(
            jobs, MaxMinCongestionControl(clos, backend="streaming")
        )
        vectorized = simulate(
            jobs, MaxMinCongestionControl(clos, backend="vectorized")
        )
        assert streamed == vectorized

    def test_streaming_policy_matches_under_failures(self, clos):
        """PR 6's staleness hazard, now for the streaming backend: a
        failure schedule flips links finite<->infinite mid-run and the
        solver must re-derive membership rather than patch over it."""
        from fractions import Fraction

        from repro.failures.schedule import FailureSchedule

        jobs = poisson_workload(clos, rate=2.0, horizon=6.0, seed=5)
        schedule = FailureSchedule.random_flaps(
            clos, count=3, horizon=4.0, seed=5, severity=Fraction(1, 4)
        )
        streamed = simulate(
            jobs,
            MaxMinCongestionControl(clos, seed=5, backend="streaming"),
            failure_schedule=schedule,
        )
        vectorized = simulate(
            jobs,
            MaxMinCongestionControl(clos, seed=5, backend="vectorized"),
            failure_schedule=schedule,
        )
        assert streamed == vectorized

    def test_streaming_policy_matches_under_full_kill(self, clos):
        from repro.failures.schedule import FailureSchedule

        jobs = poisson_workload(clos, rate=2.0, horizon=6.0, seed=9)
        schedule = FailureSchedule.random_flaps(
            clos, count=2, horizon=4.0, seed=9, severity=0
        )
        streamed = simulate(
            jobs,
            MaxMinCongestionControl(clos, seed=9, backend="streaming"),
            failure_schedule=schedule,
        )
        vectorized = simulate(
            jobs,
            MaxMinCongestionControl(clos, seed=9, backend="vectorized"),
            failure_schedule=schedule,
        )
        assert streamed == vectorized


class TestBatchedConservation:
    def test_all_work_delivered(self, clos):
        jobs = churn_workload(clos, rate=20.0, horizon=4.0, seed=2)
        policy = MaxMinCongestionControl(clos, backend="streaming")
        result = simulate_stream(jobs, policy, batch_window=0.05)
        assert not result.unfinished
        assert len(result.completed) == len(jobs)
        assert result.work_done == pytest.approx(sum(j.size for j in jobs))

    def test_completions_never_precede_arrivals(self, clos):
        jobs = churn_workload(clos, rate=15.0, horizon=4.0, seed=4)
        policy = MaxMinCongestionControl(clos, backend="streaming")
        result = simulate_stream(jobs, policy, batch_window=0.1)
        for done in result.completed:
            assert done.completion_time >= done.job.arrival - 1e-9

    def test_staleness_is_bounded(self, clos):
        """A batched single job still finishes in ~size time: the first
        consult happens within one window of its arrival."""
        job = _job(clos, 0, 1, 1, 3, 1, size=2.0)
        policy = MaxMinCongestionControl(clos, backend="streaming")
        result = simulate_stream([job], policy, batch_window=0.25)
        assert len(result.completed) == 1
        assert result.completed[0].completion_time <= 2.0 + 0.25 + 1e-9

    def test_max_events_guard(self, clos):
        jobs = churn_workload(clos, rate=10.0, horizon=5.0, seed=6)
        policy = MaxMinCongestionControl(clos, backend="streaming")
        with pytest.raises(SimulationError):
            simulate_stream(jobs, policy, batch_window=0.05, max_events=2)


class TestMalformedInputs:
    """Malformed inputs are rejected up front with ``ValueError``
    instead of failing late or spinning until the event cap."""

    @pytest.fixture
    def jobs(self, clos):
        jobs = poisson_workload(clos, rate=5.0, horizon=10.0, seed=1)[:10]
        assert len(jobs) == 10
        return jobs

    @pytest.mark.parametrize("window", [math.nan, math.inf, -0.05])
    def test_bad_batch_window(self, clos, jobs, window):
        with pytest.raises(ValueError, match="batch_window"):
            simulate_stream(
                jobs, MaxMinCongestionControl(clos), batch_window=window
            )

    @pytest.mark.parametrize("window", [0.0, 0.05])
    def test_nan_max_time(self, clos, jobs, window):
        with pytest.raises(ValueError, match="max_time"):
            simulate_stream(
                jobs,
                MaxMinCongestionControl(clos),
                batch_window=window,
                max_time=math.nan,
            )

    @pytest.mark.parametrize("window", [0.0, 0.05])
    def test_nan_arrival(self, clos, jobs, window):
        jobs[3] = jobs[3]._replace(arrival=math.nan)
        with pytest.raises(ValueError, match="negative event time: nan"):
            simulate_stream(
                jobs, MaxMinCongestionControl(clos), batch_window=window
            )

    @pytest.mark.parametrize("window", [0.0, 0.05])
    def test_nan_size(self, clos, jobs, window):
        jobs[3] = jobs[3]._replace(size=math.nan)
        with pytest.raises(ValueError, match="NaN size"):
            simulate_stream(
                jobs, MaxMinCongestionControl(clos), batch_window=window
            )


class TestBatchSizeHistogram:
    def test_histogram_observed(self, clos):
        obs.reset()
        obs.enable()
        try:
            jobs = churn_workload(clos, rate=20.0, horizon=3.0, seed=9)
            policy = MaxMinCongestionControl(clos, backend="streaming")
            simulate_stream(jobs, policy, batch_window=0.1)
            snap = obs.metrics_snapshot()
        finally:
            obs.disable()
            obs.reset()
        batch = snap["sim.batch_size"]
        assert batch["count"] >= 1
        assert batch["max"] >= 1
