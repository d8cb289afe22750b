"""Finite-size flow jobs and their arrival processes.

A :class:`FlowJob` wraps a (source, destination) pair with an arrival
time and a size (the amount of data to transfer, in capacity·time
units: a size-1 job served at the full unit link rate finishes in one
time unit).  :func:`poisson_workload` draws a reproducible open-loop
arrival sequence — the standard setup for flow-completion-time studies.
"""

from __future__ import annotations

import random
from typing import List, NamedTuple

from repro.core.nodes import Destination, Source
from repro.core.topology import ClosNetwork


class FlowJob(NamedTuple):
    """A finite transfer: who, when, and how much."""

    job_id: int
    source: Source
    dest: Destination
    arrival: float
    size: float


def poisson_workload(
    network: ClosNetwork,
    rate: float,
    horizon: float,
    mean_size: float = 1.0,
    size_distribution: str = "exponential",
    seed: int = 0,
) -> List[FlowJob]:
    """An open-loop Poisson arrival sequence with random endpoints.

    ``rate`` is the mean number of arrivals per time unit; arrivals stop
    at ``horizon`` (jobs in flight may finish after it).  Sizes are drawn
    from ``size_distribution``:

    - ``"exponential"`` — mean ``mean_size`` (memoryless, the classic
      baseline);
    - ``"fixed"`` — every job exactly ``mean_size``;
    - ``"bimodal"`` — mice (90% of jobs, size ``mean_size/10``) and
      elephants (10%, sized to preserve the mean), the canonical
      heavy-tailed data-center mix.

    >>> clos = ClosNetwork(2)
    >>> jobs = poisson_workload(clos, rate=2.0, horizon=10.0, seed=1)
    >>> all(jobs[i].arrival <= jobs[i + 1].arrival for i in range(len(jobs) - 1))
    True
    """
    if rate <= 0:
        raise ValueError(f"arrival rate must be positive, got {rate}")
    if mean_size <= 0:
        raise ValueError(f"mean size must be positive, got {mean_size}")
    rng = random.Random(seed)
    jobs: List[FlowJob] = []
    time = 0.0
    job_id = 0
    while True:
        time += rng.expovariate(rate)
        if time > horizon:
            break
        jobs.append(
            FlowJob(
                job_id=job_id,
                source=rng.choice(network.sources),
                dest=rng.choice(network.destinations),
                arrival=time,
                size=_draw_size(rng, mean_size, size_distribution),
            )
        )
        job_id += 1
    return jobs


def _draw_size(rng: random.Random, mean_size: float, distribution: str) -> float:
    if distribution == "exponential":
        return rng.expovariate(1.0 / mean_size)
    if distribution == "fixed":
        return mean_size
    if distribution == "bimodal":
        # 90% mice at mean/10; elephants sized so the mix preserves the mean:
        # 0.9 (m/10) + 0.1 e = m  =>  e = 9.1 m.
        if rng.random() < 0.9:
            return mean_size / 10.0
        return 9.1 * mean_size
    raise ValueError(f"unknown size distribution: {distribution!r}")


def incast_burst(
    network: ClosNetwork,
    fan_in: int,
    size: float = 1.0,
    arrival: float = 0.0,
    seed: int = 0,
) -> List[FlowJob]:
    """``fan_in`` equal-size jobs arriving simultaneously at one destination.

    The worst case for fairness-based service: every job gets 1/fan_in of
    the destination link, so *all* of them finish at time
    ``fan_in · size`` — whereas serving them one at a time finishes the
    i-th at ``i · size``, halving the mean completion time.
    """
    rng = random.Random(seed)
    dest = rng.choice(network.destinations)
    sources = rng.sample(network.sources, fan_in)
    return [
        FlowJob(job_id=i, source=s, dest=dest, arrival=arrival, size=size)
        for i, s in enumerate(sources)
    ]

