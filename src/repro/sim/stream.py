"""Micro-batching simulation loop for streaming allocation (§2.2 under
churn).

:func:`repro.sim.flowsim.simulate` re-consults its policy at every
solver-visible event — the fluid idealization in which congestion
control converges instantly.  Under heavy churn that cadence dominates
the cost: one water-fill per arrival/departure.  This module trades a
bounded amount of rate *staleness* for throughput:

- :func:`simulate_stream` drains all events sharing a timestamp **and**
  every further event landing within a configurable ``batch_window``,
  applies them to the policy as one delta, and re-solves once per batch.
  Between re-solves, jobs are served at the standing (piecewise-
  constant) rates; completions are processed exactly (in the
  ``(finish, job_id)`` order sorted once per consult) but the freed
  capacity is only redistributed at the next batch boundary.  The
  event loop runs over the NumPy slot store in
  :mod:`repro.sim.arraysim`.  ``batch_window=0`` delegates to
  :func:`~repro.sim.flowsim.simulate` outright and is byte-identical
  to it.

Pair it with ``MaxMinCongestionControl(backend="streaming")`` so
each batched re-solve applies only the batch's arrivals and departures
to the solver's kept incidence instead of recompiling it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.obs import counter, trace_span
from repro.sim.arraysim import _simulate_stream_array
from repro.sim.flowsim import SimulationResult, _check_inputs, simulate
from repro.sim.jobs import FlowJob

#: Observability instruments (no-ops unless ``repro.obs`` is enabled).
_RUNS = counter("sim.stream.runs")

__all__ = ["simulate_stream"]


def simulate_stream(
    jobs: Sequence[FlowJob],
    policy,
    batch_window: float = 0.0,
    max_time: Optional[float] = None,
    max_events: int = 1_000_000,
    failure_schedule=None,
) -> SimulationResult:
    """Run ``jobs`` under ``policy``, re-solving at most once per
    ``batch_window`` of simulated time.

    Contract matches :func:`repro.sim.flowsim.simulate` (same
    :class:`~repro.sim.flowsim.SimulationResult`, same ``forget`` /
    ``set_link_factors`` policy hooks); ``batch_window=0`` *is* that
    function.  With a positive window, a solver-visible change (arrival,
    served completion, failure) starts a deadline ``now + batch_window``;
    further changes pile into the same batch and the policy is
    re-consulted once, at the deadline or at the next forced consult,
    whichever comes first.  Work accounting stays exact — only the rate
    *reassignment* is deferred, which is the real-world regime of a
    centralized allocator with a bounded update cadence (Shah & Xie's
    centralized congestion control, PAPERS.md).  A negative, NaN or
    infinite ``batch_window`` raises :class:`ValueError`, as do the
    malformed inputs :func:`~repro.sim.flowsim.simulate` rejects.

    The batch size (solver-visible changes absorbed per re-solve) is
    observed by the ``sim.batch_size`` histogram.
    """
    _check_inputs(jobs, max_time, batch_window)
    if batch_window == 0.0:
        return simulate(
            jobs,
            policy,
            max_time=max_time,
            max_events=max_events,
            failure_schedule=failure_schedule,
        )
    _RUNS.inc()
    with trace_span(
        "sim.simulate_stream", jobs=len(jobs), batch_window=batch_window
    ) as span:
        result = _simulate_stream_array(
            jobs, policy, batch_window, max_time, max_events,
            failure_schedule,
        )
        span.set(
            completed=len(result.completed),
            unfinished=len(result.unfinished),
            sim_end_time=result.end_time,
        )
    return result

