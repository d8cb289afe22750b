"""Experiment "churn" — streaming allocation under live flow churn.

The paper's premise is a rate controller that re-derives the max-min
allocation whenever the unsplittable-flow set changes (§2.2); at
data-center event rates that makes the *allocator* the bottleneck, which
is exactly the regime Shah & Xie's centralized congestion control
targets (PAPERS.md).  This harness measures how far the PR's streaming
stack moves that bottleneck, comparing three configurations on the same
Poisson churn sequence (:func:`repro.workloads.stochastic.
churn_workload`):

- ``per-event`` — the classic loop: one from-scratch vectorized solve
  per solver-visible event (:func:`repro.sim.flowsim.simulate`).
- ``streaming`` — same per-event cadence, but the solver keeps its
  flow×link incidence between consults and applies only the arrivals
  and departures (``MaxMinCongestionControl(backend="streaming")``);
  results are byte-identical to ``per-event``.
- ``batched`` — the micro-batching loop on top of the streaming solver
  (:func:`repro.sim.stream.simulate_stream`): re-solve at most once per
  ``batch_window`` of simulated time.

Each row reports wall-clock seconds, arrival-event throughput
(events/sec of the *workload*, the tentpole's headline number), solver
consultations, and the streaming solver's patched/full split (every
solve is full now, so ``patched`` reads 0).
"""

from __future__ import annotations

import time
from typing import List, NamedTuple, Optional, Sequence

from repro.core.topology import ClosNetwork
from repro.sim.flowsim import SimulationResult, simulate
from repro.sim.policies import MaxMinCongestionControl
from repro.sim.stream import simulate_stream
from repro.workloads.stochastic import churn_workload


class ChurnRow(NamedTuple):
    """One configuration's run over the same churn sequence."""

    config: str
    n: int
    jobs: int
    #: Flow events processed (arrivals + completions).
    flow_events: int
    wall_s: float
    #: flow_events / wall_s — the tentpole's headline metric.
    events_per_sec: float
    completed: int
    work_done: float
    #: Streaming-solver split, when the config uses it (else None).
    patched: Optional[int]
    fullsolve: Optional[int]


def churn_comparison(
    n: int = 8,
    rate: float = 200.0,
    horizon: float = 2.0,
    batch_window: float = 0.05,
    seed: int = 0,
    configs: Sequence[str] = ("per-event", "streaming", "batched"),
) -> List[ChurnRow]:
    """Run the churn workload under each configuration; one row each.

    ``per-event`` and ``streaming`` produce byte-identical
    :class:`~repro.sim.flowsim.SimulationResult`\\ s (asserted here);
    ``batched`` trades bounded rate staleness (≤ ``batch_window``) for
    throughput.
    """
    network = ClosNetwork(n)
    workload = churn_workload(network, rate=rate, horizon=horizon, seed=seed)
    rows: List[ChurnRow] = []
    baseline: Optional[SimulationResult] = None
    for config in configs:
        t0 = time.perf_counter()
        if config == "per-event":
            policy = MaxMinCongestionControl(network, backend="vectorized")
            result = simulate(workload, policy)
        elif config == "streaming":
            policy = MaxMinCongestionControl(network, backend="streaming")
            result = simulate(workload, policy)
        elif config == "batched":
            policy = MaxMinCongestionControl(network, backend="streaming")
            result = simulate_stream(
                workload, policy, batch_window=batch_window
            )
        else:
            raise ValueError(f"unknown churn config {config!r}")
        wall_s = time.perf_counter() - t0

        if config in ("per-event", "streaming"):
            if baseline is None:
                baseline = result
            elif result != baseline:
                raise AssertionError(
                    f"{config} diverged from the per-event baseline"
                )
        flow_events = len(workload) + len(result.completed)
        stream = policy._stream
        stats = stream.stats if stream is not None else None
        rows.append(
            ChurnRow(
                config=config,
                n=n,
                jobs=len(workload),
                flow_events=flow_events,
                wall_s=wall_s,
                events_per_sec=flow_events / wall_s if wall_s > 0 else 0.0,
                completed=len(result.completed),
                work_done=result.work_done,
                patched=stats["patched"] if stats else None,
                fullsolve=stats["fullsolve"] if stats else None,
            )
        )
    return rows

