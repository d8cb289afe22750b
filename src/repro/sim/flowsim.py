"""The flow-level simulation driver.

Advances time between *events* (job arrivals and completions) under
piecewise-constant rates chosen by a policy, and records per-job
completion times.  The policy is re-consulted at every event that can
change the allocation — the fluid idealization in which congestion
control converges instantly, which is the regime the paper's rate model
(§2.2) describes.  Events that provably change no link membership or
capacity (a job finishing at rate zero) reuse the standing rates of a
policy declaring ``pure_rates``, counted by the ``sim.resolve_skipped``
observability counter; same-instant arrival bursts are admitted in one
batch and cost a single re-solve.

The driver is exact for piecewise-constant rates: between events every
active job's remaining size decreases linearly, and the next completion
is the minimum of ``remaining / rate`` over jobs with positive rate.
The event loop itself runs over the NumPy slot store in
:mod:`repro.sim.arraysim`; this module holds the public entry point and
the result types.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence

from repro.obs import counter, trace_span
from repro.sim.jobs import FlowJob

#: Completion-time comparisons tolerate this much float drift.
_TIME_EPS = 1e-9

#: Observability instruments (no-ops unless ``repro.obs`` is enabled).
_RUNS = counter("sim.runs")


class CompletedJob(NamedTuple):
    """A finished transfer with its timing statistics."""

    job: FlowJob
    completion_time: float
    #: completion_time − arrival (the flow completion time, FCT).
    duration: float
    #: duration / size — 1.0 means the job ran at full link rate
    #: throughout (sizes are in capacity·time units).
    slowdown: float


class SimulationResult(NamedTuple):
    """Everything a run produces."""

    completed: List[CompletedJob]
    #: Jobs still unfinished when the simulation hit ``max_time``.
    unfinished: List[FlowJob]
    #: Total data delivered (sum of completed sizes + partial service).
    work_done: float
    #: The time the last event was processed.
    end_time: float


class SimulationError(RuntimeError):
    """Raised when the run cannot make progress (e.g. starved forever)."""


def _check_inputs(
    jobs: Sequence[FlowJob],
    max_time: Optional[float],
    batch_window: float = 0.0,
) -> None:
    """Reject malformed inputs before an event loop starts.

    Shared by :func:`simulate` and
    :func:`repro.sim.stream.simulate_stream`: a NaN, infinite or
    negative ``batch_window``, a NaN ``max_time``, and a job whose
    ``arrival`` is negative or NaN or whose ``size`` is NaN would
    otherwise fail late with a misleading error or spin until the
    event cap.
    """
    if not 0.0 <= batch_window < math.inf:
        raise ValueError(
            f"batch_window must be finite and >= 0, got {batch_window}"
        )
    if max_time is not None and math.isnan(max_time):
        raise ValueError("max_time must be a number or None, got nan")
    for job in jobs:
        if not job.arrival >= 0:
            raise ValueError(f"negative event time: {job.arrival}")
        if math.isnan(job.size):
            raise ValueError(f"job {job.job_id} has a NaN size")


def simulate(
    jobs: Sequence[FlowJob],
    policy,
    max_time: Optional[float] = None,
    max_events: int = 1_000_000,
    failure_schedule=None,
) -> SimulationResult:
    """Run ``jobs`` under ``policy`` until everything finishes.

    ``policy`` follows :class:`repro.sim.policies.Policy`: a ``rates``
    method mapping active job ids to service rates, and a ``forget``
    hook called when a job completes.  ``max_time`` bounds the simulated
    clock (jobs still active are reported as unfinished);``max_events``
    bounds the event count as a runaway guard.

    ``failure_schedule`` replays a
    :class:`repro.failures.schedule.FailureSchedule` through the run:
    at each failure event the accumulated link factors are handed to
    ``policy.set_link_factors`` and the policy is re-consulted, so rates
    respond to the fabric degrading and recovering mid-flight.  Policies
    without that hook cannot honor a schedule — passing one raises
    :class:`SimulationError` rather than silently simulating a healthy
    fabric.

    A NaN ``max_time``, or a job with a negative or NaN arrival or a
    NaN size, raises :class:`ValueError` before the loop starts.

    >>> from repro.core.topology import ClosNetwork
    >>> from repro.sim.policies import MaxMinCongestionControl
    >>> from repro.sim.jobs import FlowJob
    >>> clos = ClosNetwork(1)
    >>> job = FlowJob(0, clos.source(1, 1), clos.destination(2, 1), 0.0, 2.0)
    >>> result = simulate([job], MaxMinCongestionControl(clos))
    >>> result.completed[0].duration  # size 2 at rate 1
    2.0
    """
    from repro.sim.arraysim import _simulate_array

    _check_inputs(jobs, max_time)
    _RUNS.inc()
    with trace_span("sim.simulate", jobs=len(jobs)) as span:
        result = _simulate_array(
            jobs, policy, max_time, max_events, failure_schedule
        )
        span.set(
            completed=len(result.completed),
            unfinished=len(result.unfinished),
            sim_end_time=result.end_time,
        )
    return result


class FCTStats(NamedTuple):
    """Summary statistics over completed jobs."""

    count: int
    mean_fct: float
    median_fct: float
    p99_fct: float
    mean_slowdown: float
    max_slowdown: float


def fct_stats(result: SimulationResult) -> FCTStats:
    """Flow-completion-time summary of a run (requires ≥ 1 completion)."""
    if not result.completed:
        raise ValueError("no completed jobs to summarize")
    durations = sorted(c.duration for c in result.completed)
    slowdowns = [c.slowdown for c in result.completed]
    count = len(durations)
    return FCTStats(
        count=count,
        mean_fct=sum(durations) / count,
        median_fct=durations[count // 2],
        p99_fct=durations[min(count - 1, math.ceil(0.99 * count) - 1)],
        mean_slowdown=sum(slowdowns) / count,
        max_slowdown=max(slowdowns),
    )


def average_throughput(result: SimulationResult) -> float:
    """Time-averaged network throughput: work delivered / makespan.

    The §7 R1 discussion predicts scheduling raises the *average
    throughput across the network over time* relative to max-min
    congestion control; since both regimes deliver the same total work,
    a shorter makespan is exactly a higher average throughput.
    """
    if result.end_time <= 0:
        raise ValueError("simulation processed no time")
    return result.work_done / result.end_time
