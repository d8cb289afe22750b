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
- :func:`simulate_sharded` partitions a pod-local workload into
  ``pods`` independent shards — sources/destinations by ToR switch,
  middle switches by index — so the flow×link incidence is
  block-diagonal and each shard simulates (and water-fills) its own
  block.  With one pod it reduces exactly to the unsharded loop.

Pair either with ``MaxMinCongestionControl(backend="streaming")`` so
each batched re-solve is itself incremental: the solver patches the
affected suffix of water-fill rounds instead of starting over.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.obs import counter, trace_span
from repro.sim.arraysim import _simulate_stream_array
from repro.sim.flowsim import (
    CompletedJob,
    SimulationError,
    SimulationResult,
    _check_inputs,
    simulate,
)
from repro.sim.jobs import FlowJob

#: Observability instruments (no-ops unless ``repro.obs`` is enabled).
_RUNS = counter("sim.stream.runs")

__all__ = ["simulate_stream", "simulate_sharded", "pod_of_switch", "middle_pools"]


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


# ----------------------------------------------------------------------
# Pod sharding
# ----------------------------------------------------------------------
def pod_of_switch(switch: int, num_switches: int, pods: int) -> int:
    """The pod (0-based) owning ToR switch ``switch`` (1-based)."""
    return (switch - 1) * pods // num_switches


def middle_pools(num_middles: int, pods: int) -> List[Tuple[int, ...]]:
    """Partition middle-switch indices ``1..num_middles`` into ``pods``
    contiguous pools (every pool non-empty; requires
    ``pods <= num_middles``)."""
    if not 1 <= pods <= num_middles:
        raise ValueError(
            f"pods must be in 1..{num_middles} (one middle per pod), "
            f"got {pods}"
        )
    pools: List[List[int]] = [[] for _ in range(pods)]
    for m in range(1, num_middles + 1):
        pools[(m - 1) * pods // num_middles].append(m)
    return [tuple(pool) for pool in pools]


def _shard_simulate(
    network,
    shard_jobs: Sequence[FlowJob],
    pool: Tuple[int, ...],
    batch_window: float,
    router: str,
    seed: int,
    max_time: Optional[float],
    max_events: int,
    failure_schedule,
) -> SimulationResult:
    """Simulate one pod shard with its pool-restricted policy."""
    from repro.sim.policies import MaxMinCongestionControl

    policy = MaxMinCongestionControl(
        network,
        router=router,
        seed=seed,
        backend="streaming",
        middle_pool=pool,
    )
    return simulate_stream(
        shard_jobs,
        policy,
        batch_window=batch_window,
        max_time=max_time,
        max_events=max_events,
        failure_schedule=failure_schedule,
    )


#: Per-job completion status codes in the sharded output arrays.
_SHARD_DROPPED, _SHARD_COMPLETED, _SHARD_UNFINISHED = 0, 1, 2


def _shard_worker(
    pod: int,
    network,
    pools,
    batch_window: float,
    router: str,
    seed: int,
    max_time: Optional[float],
    max_events: int,
    failure_schedule,
) -> int:
    """Worker task for one pod: rebuild the shard's jobs from the shared
    input columns, simulate it, and scatter the completion columns back
    into the shared output arrays — only the pod index crosses the pipe.
    """
    from repro.parallel import shared_array
    from repro.sim.jobs import JOB_COLUMNS, jobs_from_arrays

    ptr = shared_array("shard_ptr")
    first, last = int(ptr[pod]), int(ptr[pod + 1])
    shard_jobs = jobs_from_arrays(
        *(shared_array(column)[first:last] for column in JOB_COLUMNS)
    )
    result = _shard_simulate(
        network, shard_jobs, pools[pod], batch_window, router, seed,
        max_time, max_events, failure_schedule,
    )
    status = shared_array("status")
    completion = shared_array("completion_time")
    duration = shared_array("duration")
    slowdown = shared_array("slowdown")
    index_of = {job.job_id: first + i for i, job in enumerate(shard_jobs)}
    for record in result.completed:
        i = index_of[record.job.job_id]
        status[i] = _SHARD_COMPLETED
        completion[i] = record.completion_time
        duration[i] = record.duration
        slowdown[i] = record.slowdown
    for job in result.unfinished:
        status[index_of[job.job_id]] = _SHARD_UNFINISHED
    shared_array("work_done")[pod] = result.work_done
    shared_array("end_time")[pod] = result.end_time
    return pod


def simulate_sharded(
    network,
    workload: Sequence[FlowJob],
    pods: int = 1,
    batch_window: float = 0.0,
    router: str = "ecmp",
    seed: int = 0,
    max_time: Optional[float] = None,
    max_events: int = 1_000_000,
    failure_schedule=None,
    jobs: int = 1,
) -> SimulationResult:
    """Simulate a pod-local workload as ``pods`` independent shards.

    Sources/destinations are partitioned by ToR switch index and the
    middle switches into ``pods`` contiguous pools; each shard gets its
    own ``MaxMinCongestionControl(backend="streaming")`` restricted to
    its pool, so its flow×link incidence block never overlaps another
    shard's and simulating them separately is exact, not an
    approximation.  Every job must be pod-local (source and destination
    in the same pod — e.g. :func:`repro.workloads.stochastic.
    churn_workload` with matching ``pods``); a cross-pod job raises
    :class:`~repro.sim.flowsim.SimulationError`.

    With ``pods=1`` the single pool is all middles — hash-identical
    pinning to unrestricted ECMP — and the result is byte-identical to
    :func:`simulate_stream` on the whole workload.

    ``jobs`` dispatches the shards to that many worker processes over
    the zero-copy :class:`repro.parallel.SharedArrays` transport: the
    job columns are packed into one shared-memory block, each worker
    rebuilds only its shard's slice and writes per-job completion
    columns (plus per-pod ``work_done`` / ``end_time``) back into
    shared output arrays, so only pod indices cross the pipe.  The
    merged result is byte-identical to ``jobs=1`` — per-shard
    computations are exactly the ones the sequential loop runs, the
    completion sort key ``(completion_time, job_id)`` is a strict total
    order, and ``work_done`` is summed in pod order — and with
    ``REPRO_OBS=1`` worker telemetry is shipped home and merged, so
    counters match the sequential run too.  ``failure_schedule`` is
    replayed inside every shard.

    Results are merged deterministically: completions sorted by
    ``(completion_time, job_id)``, unfinished jobs by ``job_id``,
    ``work_done`` summed, ``end_time`` the latest shard clock.
    """
    pools = middle_pools(network.num_middles, pods)
    num_switches = 2 * network.n
    if pods > num_switches:
        raise ValueError(
            f"pods must be <= {num_switches} (one ToR switch per pod), "
            f"got {pods}"
        )
    shards: List[List[FlowJob]] = [[] for _ in range(pods)]
    for job in workload:
        pod = pod_of_switch(job.source.switch, num_switches, pods)
        dest_pod = pod_of_switch(job.dest.switch, num_switches, pods)
        if dest_pod != pod:
            raise SimulationError(
                f"job {job.job_id} crosses pods ({pod} -> {dest_pod}); "
                "sharded simulation requires a pod-local workload"
            )
        shards[pod].append(job)

    from repro.parallel import resolve_jobs

    occupied = [pod for pod, shard in enumerate(shards) if shard]
    workers = min(resolve_jobs(jobs), len(occupied))
    with trace_span(
        "sim.simulate_sharded",
        jobs=len(workload),
        pods=pods,
        batch_window=batch_window,
        workers=workers,
    ):
        if workers > 1:
            return _simulate_sharded_parallel(
                network, shards, occupied, pools, batch_window, router,
                seed, max_time, max_events, failure_schedule, workers,
            )
        completed: List[CompletedJob] = []
        unfinished: List[FlowJob] = []
        work_done = 0.0
        end_time = 0.0
        for pod in occupied:
            result = _shard_simulate(
                network, shards[pod], pools[pod], batch_window, router,
                seed, max_time, max_events, failure_schedule,
            )
            completed.extend(result.completed)
            unfinished.extend(result.unfinished)
            work_done += result.work_done
            end_time = max(end_time, result.end_time)
    completed.sort(key=lambda c: (c.completion_time, c.job.job_id))
    unfinished.sort(key=lambda job: job.job_id)
    return SimulationResult(
        completed=completed,
        unfinished=unfinished,
        work_done=work_done,
        end_time=end_time,
    )


def _simulate_sharded_parallel(
    network,
    shards: List[List[FlowJob]],
    occupied: List[int],
    pools,
    batch_window: float,
    router: str,
    seed: int,
    max_time: Optional[float],
    max_events: int,
    failure_schedule,
    workers: int,
) -> SimulationResult:
    """The multi-process path of :func:`simulate_sharded` (same merge
    contract; see its docstring for the byte-identity argument)."""
    import functools

    import numpy as np

    from repro.parallel import parallel_map, shared_arrays
    from repro.sim.jobs import jobs_to_arrays

    flat_jobs: List[FlowJob] = []
    ptr = np.zeros(len(shards) + 1, dtype=np.int64)
    for pod, shard in enumerate(shards):
        flat_jobs.extend(shard)
        ptr[pod + 1] = len(flat_jobs)
    total = len(flat_jobs)
    columns = jobs_to_arrays(flat_jobs)
    columns["shard_ptr"] = ptr
    columns["status"] = np.zeros(total, dtype=np.int8)
    columns["completion_time"] = np.full(total, np.nan)
    columns["duration"] = np.full(total, np.nan)
    columns["slowdown"] = np.full(total, np.nan)
    columns["work_done"] = np.zeros(len(shards))
    columns["end_time"] = np.zeros(len(shards))

    worker = functools.partial(
        _shard_worker,
        network=network,
        pools=pools,
        batch_window=batch_window,
        router=router,
        seed=seed,
        max_time=max_time,
        max_events=max_events,
        failure_schedule=failure_schedule,
    )
    with shared_arrays(columns) as block:
        parallel_map(worker, occupied, jobs=workers, chunksize=1,
                     shared=block)
        status = block["status"]
        completion = block["completion_time"]
        duration = block["duration"]
        slowdown = block["slowdown"]
        completed = [
            CompletedJob(
                job=flat_jobs[i],
                completion_time=float(completion[i]),
                duration=float(duration[i]),
                slowdown=float(slowdown[i]),
            )
            for i in np.nonzero(status == _SHARD_COMPLETED)[0].tolist()
        ]
        unfinished = [
            flat_jobs[i]
            for i in np.nonzero(status == _SHARD_UNFINISHED)[0].tolist()
        ]
        # Pod-order summation: bit-identical to the sequential loop's
        # running += over occupied shards.
        work_done = 0.0
        end_time = 0.0
        for pod in occupied:
            work_done += float(block["work_done"][pod])
            end_time = max(end_time, float(block["end_time"][pod]))
    completed.sort(key=lambda c: (c.completion_time, c.job.job_id))
    unfinished.sort(key=lambda job: job.job_id)
    return SimulationResult(
        completed=completed,
        unfinished=unfinished,
        work_done=work_done,
        end_time=end_time,
    )
