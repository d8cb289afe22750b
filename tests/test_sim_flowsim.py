"""Tests for the flow-level simulator and service policies."""

import math

import pytest

from repro.core.topology import ClosNetwork
from repro.sim.flowsim import SimulationError, fct_stats, simulate
from repro.sim.jobs import FlowJob, incast_burst, poisson_workload
from repro.sim.policies import (
    MatchingScheduler,
    MaxMinCongestionControl,
    ProcessorSharing,
)


@pytest.fixture
def clos():
    return ClosNetwork(2)


def _job(clos, jid, i, j, oi, oj, arrival=0.0, size=1.0):
    return FlowJob(jid, clos.source(i, j), clos.destination(oi, oj), arrival, size)


class TestSingleJob:
    def test_full_rate_service(self, clos):
        job = _job(clos, 0, 1, 1, 3, 1, size=2.5)
        result = simulate([job], MaxMinCongestionControl(clos))
        assert len(result.completed) == 1
        done = result.completed[0]
        assert done.duration == pytest.approx(2.5)
        assert done.slowdown == pytest.approx(1.0)
        assert result.work_done == pytest.approx(2.5)

    def test_arrival_offset_respected(self, clos):
        job = _job(clos, 0, 1, 1, 3, 1, arrival=4.0, size=1.0)
        result = simulate([job], MaxMinCongestionControl(clos))
        assert result.completed[0].completion_time == pytest.approx(5.0)
        assert result.completed[0].duration == pytest.approx(1.0)

    def test_scheduler_single_job(self, clos):
        job = _job(clos, 0, 1, 1, 3, 1, size=3.0)
        result = simulate([job], MatchingScheduler(clos))
        assert result.completed[0].duration == pytest.approx(3.0)


class TestContention:
    def test_two_jobs_share_source_under_maxmin(self, clos):
        jobs = [
            _job(clos, 0, 1, 1, 3, 1, size=1.0),
            _job(clos, 1, 1, 1, 4, 1, size=1.0),
        ]
        result = simulate(jobs, MaxMinCongestionControl(clos))
        # both run at 1/2 until one finishes... equal sizes: both at t=2
        times = sorted(c.completion_time for c in result.completed)
        assert times == pytest.approx([2.0, 2.0])

    def test_shorter_job_frees_capacity(self, clos):
        jobs = [
            _job(clos, 0, 1, 1, 3, 1, size=1.0),
            _job(clos, 1, 1, 1, 4, 1, size=2.0),
        ]
        result = simulate(jobs, MaxMinCongestionControl(clos))
        by_id = {c.job.job_id: c for c in result.completed}
        # both at 1/2 until job 0 finishes at t=2; job 1 then has 1 left
        # at full rate -> t=3
        assert by_id[0].completion_time == pytest.approx(2.0)
        assert by_id[1].completion_time == pytest.approx(3.0)

    def test_scheduler_serializes_conflicting_jobs(self, clos):
        jobs = [
            _job(clos, 0, 1, 1, 3, 1, size=1.0),
            _job(clos, 1, 1, 1, 4, 1, size=2.0),
        ]
        result = simulate(jobs, MatchingScheduler(clos))
        by_id = {c.job.job_id: c for c in result.completed}
        # SRPT: job 0 first (size 1), then job 1: completions at 1 and 3.
        assert by_id[0].completion_time == pytest.approx(1.0)
        assert by_id[1].completion_time == pytest.approx(3.0)

    def test_non_conflicting_jobs_run_concurrently_under_scheduler(self, clos):
        jobs = [
            _job(clos, 0, 1, 1, 3, 1, size=2.0),
            _job(clos, 1, 2, 1, 4, 1, size=2.0),
        ]
        result = simulate(jobs, MatchingScheduler(clos))
        times = [c.completion_time for c in result.completed]
        assert times == pytest.approx([2.0, 2.0])


class TestIncastClosedForm:
    """The E8 closed forms: fan_in unit jobs into one destination."""

    @pytest.mark.parametrize("fan_in", [2, 4, 8])
    def test_maxmin_finishes_all_at_fan_in(self, fan_in):
        clos = ClosNetwork(2)
        jobs = incast_burst(clos, fan_in=fan_in, seed=0)
        result = simulate(jobs, MaxMinCongestionControl(clos))
        stats = fct_stats(result)
        assert stats.mean_fct == pytest.approx(fan_in)
        assert stats.max_slowdown == pytest.approx(fan_in)

    @pytest.mark.parametrize("fan_in", [2, 4, 8])
    def test_scheduler_mean_is_arithmetic_series(self, fan_in):
        clos = ClosNetwork(2)
        jobs = incast_burst(clos, fan_in=fan_in, seed=0)
        result = simulate(jobs, MatchingScheduler(clos))
        stats = fct_stats(result)
        assert stats.mean_fct == pytest.approx((fan_in + 1) / 2)

    def test_fct_ratio_tends_to_two(self):
        clos = ClosNetwork(2)
        ratios = []
        for fan_in in (2, 4, 8):
            jobs = incast_burst(clos, fan_in=fan_in, seed=0)
            fair = fct_stats(simulate(jobs, MaxMinCongestionControl(clos)))
            sched = fct_stats(simulate(jobs, MatchingScheduler(clos)))
            ratios.append(fair.mean_fct / sched.mean_fct)
        assert ratios == sorted(ratios)
        assert ratios[-1] == pytest.approx(16 / 9)
        assert all(r < 2 for r in ratios)


class TestConservation:
    @pytest.mark.parametrize("policy_name", ["maxmin", "scheduler", "ps"])
    def test_all_work_delivered(self, clos, policy_name):
        jobs = poisson_workload(clos, rate=2.0, horizon=15.0, seed=7)
        policy = {
            "maxmin": MaxMinCongestionControl(clos),
            "scheduler": MatchingScheduler(clos),
            "ps": ProcessorSharing(clos),
        }[policy_name]
        result = simulate(jobs, policy)
        assert not result.unfinished
        assert result.work_done == pytest.approx(sum(j.size for j in jobs))

    @pytest.mark.parametrize("policy_name", ["maxmin", "scheduler"])
    def test_completions_never_precede_arrivals(self, clos, policy_name):
        jobs = poisson_workload(clos, rate=3.0, horizon=10.0, seed=8)
        policy = (
            MaxMinCongestionControl(clos)
            if policy_name == "maxmin"
            else MatchingScheduler(clos)
        )
        result = simulate(jobs, policy)
        for done in result.completed:
            assert done.completion_time >= done.job.arrival - 1e-9
            assert done.duration >= done.job.size - 1e-6  # unit capacity

    def test_max_time_reports_unfinished(self, clos):
        job = _job(clos, 0, 1, 1, 3, 1, size=100.0)
        result = simulate([job], MaxMinCongestionControl(clos), max_time=1.0)
        assert result.unfinished == [job]
        assert result.completed == []

    def test_max_events_guard(self, clos):
        jobs = poisson_workload(clos, rate=2.0, horizon=10.0, seed=9)
        with pytest.raises(SimulationError):
            simulate(jobs, MaxMinCongestionControl(clos), max_events=2)


class TestFCTStats:
    def test_empty_raises(self, clos):
        result = simulate([], MaxMinCongestionControl(clos))
        with pytest.raises(ValueError):
            fct_stats(result)

    def test_statistics_fields(self, clos):
        jobs = [
            _job(clos, 0, 1, 1, 3, 1, size=1.0),
            _job(clos, 1, 2, 1, 4, 1, size=3.0),
        ]
        stats = fct_stats(simulate(jobs, MaxMinCongestionControl(clos)))
        assert stats.count == 2
        assert stats.mean_fct == pytest.approx(2.0)
        assert stats.mean_slowdown == pytest.approx(1.0)


class TestPolicyDetails:
    def test_maxmin_pins_flows_once(self, clos):
        policy = MaxMinCongestionControl(clos, router="ecmp")
        jobs = {0: _job(clos, 0, 1, 1, 3, 1)}
        policy.rates(jobs, {0: 1.0})
        pinned = dict(policy._pinned)
        policy.rates(jobs, {0: 0.5})
        assert policy._pinned == pinned

    def test_least_loaded_router_balances(self, clos):
        policy = MaxMinCongestionControl(clos, router="least_loaded")
        jobs = {
            0: _job(clos, 0, 1, 1, 3, 1),
            1: _job(clos, 1, 1, 2, 3, 2),
        }
        policy.rates(jobs, {0: 1.0, 1: 1.0})
        assert sorted(policy._pinned.values()) == [1, 2]

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_least_loaded_pins_within_middle_count(self, backend):
        # Pinning ranges over the middle switches, not over 1..n: one
        # middle must still run, and a third middle must get used.
        single = ClosNetwork(2, middle_count=1)
        jobs = [_job(single, 0, 1, 1, 3, 1), _job(single, 1, 1, 2, 4, 2)]
        policy = MaxMinCongestionControl(
            single, router="least_loaded", backend=backend
        )
        assert len(simulate(jobs, policy).completed) == 2

        wide = ClosNetwork(2, middle_count=3)
        policy = MaxMinCongestionControl(
            wide, router="least_loaded", backend=backend
        )
        active = {jid: _job(wide, jid, 1, jid + 1, 3, 1) for jid in range(2)}
        active[2] = _job(wide, 2, 2, 1, 4, 1)
        policy.rates(active, {jid: 1.0 for jid in active})
        assert sorted(policy._pinned.values()) == [1, 2, 3]

    def test_unknown_router_rejected(self, clos):
        policy = MaxMinCongestionControl(clos, router="nope")
        with pytest.raises(ValueError):
            policy.rates({0: _job(clos, 0, 1, 1, 3, 1)}, {0: 1.0})

    def test_scheduler_rates_are_unit(self, clos):
        policy = MatchingScheduler(clos)
        active = {
            0: _job(clos, 0, 1, 1, 3, 1),
            1: _job(clos, 1, 1, 1, 4, 1),  # conflicts on source
        }
        rates = policy.rates(active, {0: 1.0, 1: 1.0})
        assert sum(rates.values()) == 1.0
        assert set(rates.values()) == {1.0}

    def test_scheduler_srpt_prefers_short_job(self, clos):
        policy = MatchingScheduler(clos, srpt=True)
        active = {
            0: _job(clos, 0, 1, 1, 3, 1),
            1: _job(clos, 1, 1, 1, 4, 1),
        }
        rates = policy.rates(active, {0: 5.0, 1: 0.5})
        assert list(rates) == [1]

    def test_ps_shares_destination(self, clos):
        policy = ProcessorSharing(clos)
        active = {
            0: _job(clos, 0, 1, 1, 3, 1),
            1: _job(clos, 1, 2, 1, 3, 1),
            2: _job(clos, 2, 2, 2, 4, 1),
        }
        rates = policy.rates(active, {0: 1.0, 1: 1.0, 2: 1.0})
        assert rates[0] == pytest.approx(0.5)
        assert rates[1] == pytest.approx(0.5)
        assert rates[2] == pytest.approx(1.0)


class TestReroutingPolicy:
    def test_invalid_interval(self, clos):
        from repro.sim.policies import ReroutingCongestionControl

        with pytest.raises(ValueError):
            ReroutingCongestionControl(clos, interval=0)

    def test_single_job_unaffected(self, clos):
        from repro.sim.policies import ReroutingCongestionControl

        job = _job(clos, 0, 1, 1, 3, 1, size=2.0)
        result = simulate([job], ReroutingCongestionControl(clos, interval=0.5))
        assert result.completed[0].duration == pytest.approx(2.0)

    def test_rerouting_fixes_ecmp_collision(self, clos):
        """Two flows ECMP-collided onto one middle switch get separated
        at the first re-route epoch, halving their completion time."""
        from repro.sim.policies import (
            MaxMinCongestionControl,
            ReroutingCongestionControl,
        )

        jobs = [
            _job(clos, 0, 1, 1, 3, 1, size=4.0),
            _job(clos, 1, 1, 2, 3, 2, size=4.0),
        ]
        pinned_policy = MaxMinCongestionControl(clos, router="ecmp", seed=0)
        # force a collision by checking which seeds collide
        seed = 0
        while True:
            probe = MaxMinCongestionControl(clos, router="ecmp", seed=seed)
            probe.rates({0: jobs[0], 1: jobs[1]}, {0: 4.0, 1: 4.0})
            if len(set(probe._pinned.values())) == 1:
                break
            seed += 1
        pinned = fct_stats(
            simulate(jobs, MaxMinCongestionControl(clos, router="ecmp", seed=seed))
        )
        rerouted = fct_stats(
            simulate(jobs, ReroutingCongestionControl(clos, interval=0.1, seed=seed))
        )
        assert pinned.mean_fct == pytest.approx(8.0)
        # the collision persists only until the first re-route epoch
        # (0.1 time units at half rate => 0.05 extra per flow)
        assert rerouted.mean_fct == pytest.approx(4.05)

    def test_work_conservation(self, clos):
        from repro.sim.policies import ReroutingCongestionControl

        jobs = poisson_workload(clos, rate=2.0, horizon=10.0, seed=11)
        result = simulate(jobs, ReroutingCongestionControl(clos, interval=0.5))
        assert not result.unfinished
        assert result.work_done == pytest.approx(sum(j.size for j in jobs))

    def test_rerouting_never_hurts_on_average(self, clos):
        from repro.experiments.fct_scheduling import rerouting_comparison

        rows = rerouting_comparison(n=2, rate=3.0, horizon=15.0, intervals=(0.5,))
        pinned = [r for r in rows if r.interval == float("inf")][0]
        rerouted = [r for r in rows if r.interval == 0.5][0]
        assert rerouted.mean_fct <= pinned.mean_fct * 1.05


class TestIncidenceStaleness:
    """The vectorized policy's compiled incidence freezes finite-link
    membership; a capacity event that flips a link between finite and
    infinite must force a recompile, and plain brownouts (values change,
    membership does not) must refresh the capacity vector."""

    def _degraded_equal(self, schedule, jobs, clos, seed=0):
        reference = simulate(
            jobs,
            MaxMinCongestionControl(clos, seed=seed),
            failure_schedule=schedule,
        )
        vectorized = simulate(
            jobs,
            MaxMinCongestionControl(clos, seed=seed, backend="vectorized"),
            failure_schedule=schedule,
        )
        ref_times = sorted(
            (c.job.job_id, c.completion_time) for c in reference.completed
        )
        vec_times = sorted(
            (c.job.job_id, c.completion_time) for c in vectorized.completed
        )
        assert len(ref_times) == len(vec_times)
        for (rid, rt), (vid, vt) in zip(ref_times, vec_times):
            assert rid == vid
            assert rt == pytest.approx(vt, abs=1e-9)

    def test_brownout_schedule_matches_reference(self, clos):
        from fractions import Fraction

        from repro.failures.schedule import FailureSchedule

        jobs = poisson_workload(clos, rate=2.0, horizon=6.0, seed=5)
        schedule = FailureSchedule.random_flaps(
            clos, count=3, horizon=4.0, seed=5, severity=Fraction(1, 4)
        )
        self._degraded_equal(schedule, jobs, clos, seed=5)

    def test_full_kill_schedule_matches_reference(self, clos):
        from repro.failures.schedule import FailureSchedule

        jobs = poisson_workload(clos, rate=2.0, horizon=6.0, seed=9)
        schedule = FailureSchedule.random_flaps(
            clos, count=2, horizon=4.0, seed=9, severity=0
        )
        self._degraded_equal(schedule, jobs, clos, seed=9)

    def test_policy_recompiles_on_membership_flip(self, clos):
        # Consult once (freezing the incidence), then swap in a capacity
        # map where a traversed link went infinite — the policy must
        # recompile rather than water-fill over the stale membership.
        jobs = {
            0: _job(clos, 0, 1, 1, 3, 1, size=4.0),
            1: _job(clos, 1, 1, 1, 3, 1, size=4.0),
        }
        remaining = {0: 4.0, 1: 4.0}
        policy = MaxMinCongestionControl(clos, backend="vectorized")
        before = policy.rates(jobs, remaining)
        assert before[0] == pytest.approx(0.5)

        # Both jobs share the s1^1 server uplink; make it unconstrained.
        uplink = (clos.sources[0], clos.input_switches[0])
        assert uplink in policy._capacities
        policy._capacities = dict(policy._capacities)
        policy._capacities[uplink] = float("inf")
        policy._caps_version += 1

        after = policy.rates(jobs, remaining)
        reference = MaxMinCongestionControl(clos)
        reference._pinned = dict(policy._pinned)
        reference._capacities = policy._capacities
        expected = reference.rates(jobs, remaining)
        assert after[0] == pytest.approx(expected[0])
        assert after[1] == pytest.approx(expected[1])

    def test_policy_recompiles_when_infinite_link_becomes_finite(self, clos):
        # The dangerous direction: a link that was infinite at compile
        # time is *absent* from the incidence arrays, so if it later
        # becomes finite its constraint would be silently ignored
        # without a recompile — jobs would be served above capacity.
        # Same source, different destinations, pinned to *different*
        # middles: the server uplink is the only link the two jobs
        # share, so its constraint alone decides the rates.
        jobs = {
            0: _job(clos, 0, 1, 1, 3, 1, size=4.0),
            1: _job(clos, 1, 1, 1, 4, 1, size=4.0),
        }
        remaining = {0: 4.0, 1: 4.0}
        uplink = (clos.sources[0], clos.input_switches[0])

        policy = MaxMinCongestionControl(clos, backend="vectorized")
        policy._pinned = {0: 1, 1: 2}
        policy._capacities = dict(policy._capacities)
        policy._capacities[uplink] = float("inf")
        policy._caps_version += 1
        before = policy.rates(jobs, remaining)
        assert before[0] == pytest.approx(1.0)  # uplink unconstrained

        policy._capacities = dict(policy._capacities)
        policy._capacities[uplink] = 1
        policy._caps_version += 1
        after = policy.rates(jobs, remaining)
        # Both jobs share the now-finite unit uplink: 1/2 each.  A stale
        # incidence would keep serving above the restored capacity.
        assert after[0] + after[1] == pytest.approx(1.0)
        assert after[0] == pytest.approx(0.5)
