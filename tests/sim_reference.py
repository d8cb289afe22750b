"""The object-engine event loops, kept as the test oracle for
:mod:`repro.sim.arraysim`.

``_simulate`` and ``_simulate_stream`` are the per-job dict loops that
the array slot-store loops were written to mirror event for event: the
per-event loop (one policy consult per solver-visible event) and the
micro-batching loop (one consult per ``batch_window``).  Production
code runs only the array loops; tests run both on the same input and
require :func:`results_equivalent` results.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence

from repro.obs import counter, histogram
from repro.sim.events import EventQueue, load_failure_schedule
from repro.sim.flowsim import (
    _TIME_EPS,
    CompletedJob,
    SimulationError,
    SimulationResult,
)
from repro.sim.jobs import FlowJob

#: Relative tolerance on ``work_done`` between the production loops and
#: this oracle: vectorized reductions sum partial service in a
#: different order than the per-job accumulation here, so the totals
#: agree only to float round-off.  ``completed`` / ``unfinished`` /
#: ``end_time`` are exact.
WORK_TOL = 1e-9

#: The same observability instruments the production loops report to.
_EVENTS = counter("sim.events")
_COMPLETIONS = counter("sim.completions")
_FAILURES = counter("sim.failures_applied")
_POLICY_CALLS = counter("sim.policy_consultations")
_RESOLVE_SKIPS = counter("sim.resolve_skipped")
_ACTIVE = histogram("sim.active_jobs")
_BATCH = histogram("sim.batch_size")


def results_equivalent(
    a: SimulationResult, b: SimulationResult, work_tol: float = WORK_TOL
) -> bool:
    """Whether two results agree under the oracle contract:
    ``completed`` / ``unfinished`` / ``end_time`` exactly equal,
    ``work_done`` within relative ``work_tol`` (summation-order drift)."""
    if a.completed != b.completed:
        return False
    if a.unfinished != b.unfinished:
        return False
    if a.end_time != b.end_time:
        return False
    scale = max(1.0, abs(a.work_done), abs(b.work_done))
    return abs(a.work_done - b.work_done) <= work_tol * scale


def _simulate(
    jobs: Sequence[FlowJob],
    policy,
    max_time: Optional[float],
    max_events: int,
    failure_schedule,
) -> SimulationResult:
    """Per-event oracle for :func:`repro.sim.flowsim.simulate` (same
    contract)."""
    queue = EventQueue()
    for job in jobs:
        queue.push(job.arrival, "arrival", job)
    if failure_schedule is not None:
        if not hasattr(policy, "set_link_factors"):
            raise SimulationError(
                f"{type(policy).__name__} has no set_link_factors hook and "
                "cannot replay a failure schedule"
            )
        load_failure_schedule(queue, failure_schedule)
    #: link -> retained-capacity factor currently in force
    link_factors: Dict = {}

    active: Dict[int, FlowJob] = {}
    remaining: Dict[int, float] = {}
    completed: List[CompletedJob] = []
    work_done = 0.0
    now = 0.0
    events = 0

    def drain_until(target: float, rates: Dict[int, float]) -> float:
        """Advance the clock to ``target`` applying ``rates``; returns
        actual time reached (may stop early at a completion)."""
        nonlocal now, work_done
        # earliest completion under these rates
        soonest: Optional[float] = None
        for jid, rate in rates.items():
            if rate > 0 and jid in remaining:
                finish = now + remaining[jid] / rate
                if soonest is None or finish < soonest:
                    soonest = finish
        stop = target if soonest is None else min(target, soonest)
        dt = stop - now
        if dt < 0:
            raise SimulationError(f"time went backwards: {now} -> {stop}")
        for jid, rate in rates.items():
            if jid in remaining and rate > 0:
                served = rate * dt
                remaining[jid] = max(0.0, remaining[jid] - served)
                work_done += served
        now = stop
        return stop

    def complete_finished(rates: Dict[int, float]) -> bool:
        """Retire every active job whose remaining size reached zero.

        Returns whether any retirement is *solver-visible*: retiring a
        job that was being served at a positive rate frees capacity and
        changes the other jobs' fair shares, so the policy must be
        re-consulted.  A job that finishes while its rate is zero (its
        path fully degraded, or a zero-size arrival) leaves every
        other job's allocation untouched — the caller may keep the
        current rates.
        """
        finished = [
            jid for jid, left in remaining.items() if left <= _TIME_EPS
        ]
        _COMPLETIONS.inc(len(finished))
        visible = False
        for jid in finished:
            if rates.get(jid, 0.0) > 0:
                visible = True
            job = active.pop(jid)
            del remaining[jid]
            policy.forget(jid)
            duration = now - job.arrival
            completed.append(
                CompletedJob(
                    job=job,
                    completion_time=now,
                    duration=duration,
                    slowdown=duration / job.size if job.size > 0 else 1.0,
                )
            )
        return visible

    pending_arrivals = len(jobs)
    # A policy declaring `pure_rates` computes rates from the active job
    # set and capacities alone, so its last answer stays valid until an
    # event actually changes link membership or capacities.  Events that
    # change neither (a job finishing at rate zero) skip the re-solve.
    pure = bool(getattr(policy, "pure_rates", False))
    needs_resolve = True
    rates: Dict[int, float] = {}
    while queue or active:
        if not active and pending_arrivals == 0:
            break  # only failure events remain; nothing left to serve
        events += 1
        _EVENTS.inc()
        _ACTIVE.observe(len(active))
        if events > max_events:
            raise SimulationError(f"exceeded {max_events} events")
        if max_time is not None and now >= max_time:
            break

        hook = getattr(policy, "next_wakeup", None)
        if pure and hook is None and not needs_resolve:
            _RESOLVE_SKIPS.inc()
        else:
            _POLICY_CALLS.inc()
            rates = policy.rates(active, remaining, now)
            needs_resolve = False
        # Policies may request re-consultation at a future instant (e.g.
        # periodic re-routing) via an optional `next_wakeup(now)` hook.
        wakeup: Optional[float] = None
        if hook is not None and active:
            candidate = hook(now)
            if candidate is not None and candidate > now + _TIME_EPS:
                wakeup = candidate

        next_event = queue.peek()
        if next_event is None:
            # only completions remain; if nobody is being served and no
            # wakeup is pending the system can never finish
            if wakeup is None and not any(
                rate > 0 for jid, rate in rates.items() if jid in remaining
            ):
                raise SimulationError(
                    f"{len(active)} jobs active but none served; "
                    "the policy starved the residual workload"
                )
            horizon = math.inf if max_time is None else max_time
            if wakeup is not None:
                horizon = min(horizon, wakeup)
            drain_until(horizon, rates)
            if complete_finished(rates):
                needs_resolve = True
            continue

        target = next_event.time
        if wakeup is not None:
            target = min(target, wakeup)
        reached = drain_until(target, rates)
        if complete_finished(rates):
            needs_resolve = True
            continue  # re-consult the policy before touching the arrival
        if reached >= next_event.time - _TIME_EPS:
            event = queue.pop()
            if event.kind == "failure":
                # Apply every failure landing at this instant in one go,
                # then re-consult the policy on the degraded fabric.
                link_factors[event.payload.link] = event.payload.factor
                _FAILURES.inc()
                while queue:
                    upcoming = queue.peek()
                    if (
                        upcoming.kind != "failure"
                        or upcoming.time > event.time + _TIME_EPS
                    ):
                        break
                    failure = queue.pop().payload
                    link_factors[failure.link] = failure.factor
                    _FAILURES.inc()
                policy.set_link_factors(dict(link_factors))
                needs_resolve = True
                continue
            # Admit the arrival — and, for pure-rates policies, every
            # other arrival landing at the same instant: no time passes
            # between them and the rates depend only on the final set,
            # so a burst costs one re-solve instead of one per job.
            # (Impure policies may consume state per consultation — e.g.
            # a re-route epoch — so they keep the per-arrival cadence.)
            job = event.payload
            active[job.job_id] = job
            remaining[job.job_id] = job.size
            pending_arrivals -= 1
            needs_resolve = True
            burst = 1
            while pure and queue:
                upcoming = queue.peek()
                if (
                    upcoming.kind != "arrival"
                    or upcoming.time > event.time + _TIME_EPS
                ):
                    break
                job = queue.pop().payload
                active[job.job_id] = job
                remaining[job.job_id] = job.size
                pending_arrivals -= 1
                burst += 1
            _BATCH.observe(burst)

    return SimulationResult(
        completed=completed,
        unfinished=list(active.values()),
        work_done=work_done,
        end_time=now,
    )


def _simulate_stream(
    jobs: Sequence[FlowJob],
    policy,
    batch_window: float,
    max_time: Optional[float],
    max_events: int,
    failure_schedule,
) -> SimulationResult:
    queue = EventQueue()
    for job in jobs:
        queue.push(job.arrival, "arrival", job)
    if failure_schedule is not None:
        if not hasattr(policy, "set_link_factors"):
            raise SimulationError(
                f"{type(policy).__name__} has no set_link_factors hook and "
                "cannot replay a failure schedule"
            )
        load_failure_schedule(queue, failure_schedule)

    active: Dict[int, FlowJob] = {}
    #: Remaining size per job *as of* ``base_t`` (the last global
    #: advance), under the standing ``rates``.
    remaining: Dict[int, float] = {}
    rates: Dict[int, float] = {}
    completed: List[CompletedJob] = []
    link_factors: Dict = {}
    work_done = 0.0
    now = 0.0
    base_t = 0.0
    events = 0
    #: Completion events for the standing rates, pushed in sorted
    #: ``(finish, job_id)`` order at each re-solve so the queue's
    #: ``(time, sequence)`` ordering reproduces it; entries from before
    #: the latest re-solve are cancelled and dropped lazily
    #: (tombstones, see :meth:`repro.sim.events.EventQueue.cancel`).
    #: Entries pop in push order, so the still-pending sequences are a
    #: FIFO window over ``comp_seqs``.
    completions = EventQueue()
    comp_seqs: Deque[int] = deque()
    #: Pending re-solve deadline and the change count it will absorb.
    deadline: Optional[float] = None
    pending = 0

    def advance_to(target: float) -> None:
        """Serve every job at its standing rate up to ``target``."""
        nonlocal base_t, work_done
        dt = target - base_t
        if dt < -_TIME_EPS:
            raise SimulationError(f"time went backwards: {base_t} -> {target}")
        if dt > 0.0:
            for jid, rate in rates.items():
                if rate > 0 and jid in remaining:
                    served = min(remaining[jid], rate * dt)
                    remaining[jid] -= served
                    work_done += served
        base_t = target

    def retire(jid: int, at: float, served: float) -> None:
        nonlocal work_done
        job = active.pop(jid)
        remaining.pop(jid, None)
        work_done += served
        policy.forget(jid)
        duration = at - job.arrival
        completed.append(
            CompletedJob(
                job=job,
                completion_time=at,
                duration=duration,
                slowdown=duration / job.size if job.size > 0 else 1.0,
            )
        )
        _COMPLETIONS.inc()

    def consult(at: float) -> None:
        """The batch boundary: advance, re-solve, requeue completions."""
        nonlocal rates, deadline, pending
        advance_to(at)
        # Retire anything that drained to zero exactly at the boundary
        # (zero-size arrivals, simultaneous completions).
        for jid in [j for j, left in remaining.items() if left <= _TIME_EPS]:
            retire(jid, at, 0.0)
        _POLICY_CALLS.inc()
        _BATCH.observe(max(1, pending))
        rates = policy.rates(active, remaining, at)
        pending = 0
        deadline = None
        # Completions computed for the previous rates are stale: cancel
        # their still-pending sequences (dropped lazily during pops)
        # and push the new batch in (finish, job_id) order, so the
        # queue's (time, sequence) ordering reproduces exactly the
        # (finish, job_id) tie-breaking of the per-event loop.
        while comp_seqs:
            completions.cancel(comp_seqs.popleft())
        for finish, jid in sorted(
            (at + remaining[jid] / rate, jid)
            for jid, rate in rates.items()
            if rate > 0 and jid in remaining
        ):
            comp_seqs.append(completions.push(finish, "completion", jid))

    def touch(at: float) -> None:
        """Register one solver-visible change at time ``at``."""
        nonlocal deadline, pending
        pending += 1
        candidate = at + batch_window
        if deadline is None or candidate < deadline:
            deadline = candidate

    pending_arrivals = len(jobs)
    while queue or active:
        if not active and pending_arrivals == 0:
            break  # only failure events remain; nothing left to serve
        events += 1
        _EVENTS.inc()
        if events > max_events:
            raise SimulationError(f"exceeded {max_events} events")
        if max_time is not None and now >= max_time:
            break

        # Next thing that happens: queued event, valid completion, or
        # the batch deadline.
        upcoming_completion = completions.peek()
        next_completion = (
            upcoming_completion.time if upcoming_completion else None
        )
        next_event = queue.peek()
        next_t = math.inf if max_time is None else max_time
        if next_event is not None:
            next_t = min(next_t, next_event.time)
        if next_completion is not None:
            next_t = min(next_t, next_completion)
        if deadline is not None:
            next_t = min(next_t, deadline)
        if math.isinf(next_t):
            raise SimulationError(
                f"{len(active)} jobs active but none served; "
                "the policy starved the residual workload"
            )
        if max_time is not None and next_t > max_time:
            next_t = max_time
        now = next_t
        if max_time is not None and now >= max_time:
            break

        if next_completion is not None and next_completion <= now + _TIME_EPS:
            event = completions.pop()
            comp_seqs.popleft()
            finish, jid = event.time, event.payload
            # The job's full residual was served over [base_t, finish];
            # account it directly and leave the others' lazily advanced
            # state untouched (their rates are unchanged).
            served = remaining.get(jid, 0.0)
            if jid in active:
                retire(jid, finish, served)
                remaining.pop(jid, None)
                touch(finish)  # freed capacity -> re-solve within window
            continue

        if next_event is not None and next_event.time <= now + _TIME_EPS:
            event = queue.pop()
            if event.kind == "failure":
                link_factors[event.payload.link] = event.payload.factor
                _FAILURES.inc()
                while queue:
                    upcoming = queue.peek()
                    if (
                        upcoming.kind != "failure"
                        or upcoming.time > event.time + _TIME_EPS
                    ):
                        break
                    failure = queue.pop().payload
                    link_factors[failure.link] = failure.factor
                    _FAILURES.inc()
                policy.set_link_factors(dict(link_factors))
                touch(event.time)
                continue
            job = event.payload
            if job.size <= _TIME_EPS:
                # Zero-size transfer: completes the instant it arrives,
                # never contends — matching the per-event loop.
                active[job.job_id] = job
                pending_arrivals -= 1
                retire(job.job_id, event.time, 0.0)
                continue
            active[job.job_id] = job
            remaining[job.job_id] = job.size
            pending_arrivals -= 1
            touch(event.time)
            continue

        # The batch deadline is the earliest happening: re-solve.
        consult(now)

    advance_to(now)
    for jid in [j for j, left in remaining.items() if left <= _TIME_EPS]:
        retire(jid, now, 0.0)
    return SimulationResult(
        completed=completed,
        unfinished=list(active.values()),
        work_done=work_done,
        end_time=now,
    )


