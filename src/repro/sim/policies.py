"""Service policies: max-min congestion control vs. matching scheduling.

The two regimes the paper contrasts throughout, made operational:

- :class:`MaxMinCongestionControl` — the data-center default (§1): the
  network accepts every active flow, a router pins each to a path on
  arrival, and congestion control imposes the max-min fair rates for
  the current routing (recomputed on every arrival/departure, modeling
  ideal convergence).
- :class:`MatchingScheduler` — the §7 R1 alternative: at every event,
  serve a *maximum matching* of the active flows at full link capacity
  and delay the rest (admission control in time).  Among maximum
  matchings it prefers flows with the least remaining size (an
  SRPT-flavored tie-break), the standard choice for minimizing mean
  completion time.  Matched flows are routed link-disjointly through
  the middle switches via König coloring (Lemma 5.2), so the schedule
  is feasible in the Clos network, not just the macro-switch.

Both policies expose ``rates(active) -> {job_id: rate}``; the driver in
:mod:`repro.sim.flowsim` is policy-agnostic.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Protocol

from repro.core.flows import Flow, FlowCollection
from repro.core.maxmin import max_min_fair
from repro.core.routing import Routing
from repro.core.topology import ClosNetwork
from repro.graph.bipartite import BipartiteMultigraph
from repro.matching.hopcroft_karp import maximum_matching
from repro.routers.ecmp import ecmp_routing
from repro.sim.jobs import FlowJob


class Policy(Protocol):  # pragma: no cover - structural type only
    """The interface the simulator drives."""

    def rates(
        self,
        active: Mapping[int, FlowJob],
        remaining: Mapping[int, float],
        now: float = 0.0,
    ) -> Dict[int, float]:
        """Service rate per active job id (jobs absent default to 0)."""
        ...


def _job_flow(job: FlowJob) -> Flow:
    """The (stateless) flow identity of a job, tagged by job id."""
    return Flow(job.source, job.dest, tag=job.job_id)


class MaxMinCongestionControl:
    """Water-filling max-min rates over the current routing.

    ``router`` chooses each job's middle switch once, on first sight
    (flow pinning — real networks do not re-route live flows); choices
    are remembered for the job's lifetime.

    ``backend`` selects the float solver: ``"reference"`` (the default,
    :func:`repro.core.maxmin.max_min_fair` with ``exact=False``),
    ``"vectorized"`` (:mod:`repro.core.vectorized`), or ``"streaming"``
    (:class:`repro.core.streaming.StreamingMaxMin`).  The vectorized
    backend keeps each pinned job's four Clos link ids for the job's
    lifetime and compiles every consultation straight from those int
    rows (:func:`repro.core.vectorized.compile_link_ids`); capacity
    changes cost one :class:`~repro.core.vectorized.LinkTable` rebuild
    per failure event, no per-flow objects.  The streaming
    backend diffs the active set against the previous consultation and
    hands only the arrivals and departures to a
    :class:`~repro.core.streaming.StreamingMaxMin`, which keeps its
    incidence between solves (rates stay bit-identical to the
    vectorized backend).
    """

    #: Rates depend only on the active job set, pinning, and capacities —
    #: never on ``remaining`` or ``now`` — so the simulator may skip
    #: re-solving events that change none of those.
    pure_rates = True

    def __init__(
        self,
        network: ClosNetwork,
        router: str = "ecmp",
        seed: int = 0,
        backend: str = "reference",
    ):
        if backend not in ("reference", "vectorized", "streaming"):
            raise ValueError(
                f"unknown float backend {backend!r}; expected "
                "'reference', 'vectorized', or 'streaming'"
            )
        self.network = network
        self.router = router
        self.seed = seed
        self.backend = backend
        self._pinned: Dict[int, int] = {}  # job id -> middle switch
        self._capacities = network.graph.capacities()
        self._caps_version = 0
        # Vectorized-backend state: each pinned job's link-id row, and
        # the finite-link table of the current capacity version.
        self._rows: Dict[int, List[int]] = {}
        self._links = list(network.graph.capacities())
        self._table = None
        self._table_version = None
        # Streaming-backend state: the incremental solver plus the job
        # set it currently tracks, diffed against each consultation.
        self._stream = None
        self._stream_jobs: Dict[int, Flow] = {}
        self._stream_caps_version = 0

    def set_link_factors(self, factors) -> None:
        """Apply a failure state: link → retained-capacity fraction.

        Called by the simulator when replaying a
        :class:`repro.failures.schedule.FailureSchedule`; subsequent
        ``rates`` computations water-fill over the degraded fabric.
        Flows stay pinned to their paths (the pre-reroute window).
        """
        from repro.failures.inject import degrade_links

        self._capacities = degrade_links(
            self.network.graph.capacities(), factors
        )
        self._caps_version += 1

    def _pin(self, active: Mapping[int, FlowJob]) -> None:
        unpinned = [job for jid, job in active.items() if jid not in self._pinned]
        if not unpinned:
            return
        if self.router == "ecmp":
            # Same middle ecmp_routing would pick — its choice is a pure
            # per-flow hash, so pin from the digest directly instead of
            # materializing a FlowCollection + Routing (full Path
            # objects) just to read the middle indices back out.
            from repro.routers.ecmp import _ECMP_DECISIONS, _flow_hash

            num_middles = self.network.num_middles
            for job in unpinned:
                digest = _flow_hash(_job_flow(job), self.seed)
                self._pinned[job.job_id] = (digest % num_middles) + 1
            _ECMP_DECISIONS.inc(len(unpinned))
        elif self.router == "least_loaded":
            # pin to the middle currently carrying the fewest pinned jobs
            load = {m: 0 for m in range(1, self.network.num_middles + 1)}
            for m in self._pinned.values():
                load[m] += 1
            for job in sorted(unpinned, key=lambda j: j.job_id):
                m = min(load, key=lambda key: (load[key], key))
                self._pinned[job.job_id] = m
                load[m] += 1
        else:
            raise ValueError(f"unknown router: {self.router!r}")

    def rates(
        self,
        active: Mapping[int, FlowJob],
        remaining: Mapping[int, float],
        now: float = 0.0,
    ) -> Dict[int, float]:
        if not active:
            return {}
        self._pin(active)
        if self.backend == "vectorized":
            return self._rates_vectorized(active)
        if self.backend == "streaming":
            return self._rates_streaming(active)
        flows = FlowCollection(_job_flow(job) for job in active.values())
        middles = {
            _job_flow(job): self._pinned[jid] for jid, job in active.items()
        }
        routing = Routing.from_middles(self.network, flows, middles)
        alloc = max_min_fair(routing, self._capacities, exact=False)
        return {job.tag: alloc.rate(job) for job in flows}

    def _rates_vectorized(self, active: Mapping[int, FlowJob]) -> Dict[int, float]:
        """Vectorized solve compiled straight from cached link-id rows.

        A job's row depends only on its endpoints and pinned middle, so
        it is derived once; a capacity change rebuilds the link table
        (which decides the finite links) and nothing else.
        """
        from repro.core import vectorized as _vz

        rows = self._rows
        new = [job for jid, job in active.items() if jid not in rows]
        if new:
            ids = _vz.clos_link_ids(
                self.network,
                [job.source.switch for job in new],
                [job.source.server for job in new],
                [job.dest.switch for job in new],
                [job.dest.server for job in new],
                [self._pinned[job.job_id] for job in new],
            )
            for job, row in zip(new, ids.tolist()):
                rows[job.job_id] = row
        if self._table_version != self._caps_version:
            self._table = _vz.LinkTable(self._links, self._capacities)
            self._table_version = self._caps_version
        jids = list(active)
        compiled = _vz.compile_link_ids(
            [rows[jid] for jid in jids], self._table, jids
        )
        rates = _vz.waterfill(compiled, self._table.caps)
        return dict(zip(jids, rates.tolist()))

    def _rates_streaming(self, active: Mapping[int, FlowJob]) -> Dict[int, float]:
        """Incremental solve: diff the active set against the tracked
        one, stage the arrivals and departures, re-solve.

        Rates are bit-identical to :meth:`_rates_vectorized` (each
        streaming solve runs the vectorized round kernel over the same
        flow set), so the two backends produce byte-identical
        :class:`~repro.sim.flowsim.SimulationResult`\\ s.
        """
        from repro.core.streaming import StreamingMaxMin

        if self._stream is None:
            self._stream = StreamingMaxMin(self._capacities)
            self._stream_jobs = {}
            self._stream_caps_version = self._caps_version
        elif self._stream_caps_version != self._caps_version:
            self._stream.set_capacities(self._capacities)
            self._stream_caps_version = self._caps_version
        stream, tracked = self._stream, self._stream_jobs
        for jid in [jid for jid in tracked if jid not in active]:
            stream.remove(tracked.pop(jid))
        for jid, job in active.items():
            if jid not in tracked:
                flow = _job_flow(job)
                path = self.network.path_via(
                    job.source, job.dest, self._pinned[jid]
                )
                stream.add(flow, path)
                tracked[jid] = flow
        return {flow.tag: rate for flow, rate in stream.solve().items()}

    def forget(self, job_id: int) -> None:
        """Drop routing state for a completed job."""
        self._pinned.pop(job_id, None)
        self._rows.pop(job_id, None)


class MatchingScheduler:
    """Serve a maximum matching at rate 1; delay everything else.

    Preference order inside the matching computation: least remaining
    size first.  A maximum matching over that order is found by seeding
    Hopcroft–Karp's result and is served at unit rate on link-disjoint
    paths (König), which the Clos network always admits (Lemma 5.2).
    """

    def __init__(self, network: ClosNetwork, srpt: bool = True):
        self.network = network
        self.srpt = srpt
        # SRPT order consults job sizes, so rates can change even when
        # link membership does not; only the FIFO variant is pure.
        self.pure_rates = not srpt

    def rates(
        self,
        active: Mapping[int, FlowJob],
        remaining: Mapping[int, float],
        now: float = 0.0,
    ) -> Dict[int, float]:
        if not active:
            return {}
        order: List[FlowJob] = list(active.values())
        if self.srpt:
            order.sort(key=lambda job: (remaining[job.job_id], job.job_id))
        else:
            order.sort(key=lambda job: job.job_id)

        # Greedy matching in preference order, then augment to maximum
        # while keeping the greedy seed where possible: build the
        # multigraph in preference order — our Hopcroft–Karp breaks
        # parallel-edge ties toward earlier insertion, and the greedy
        # seed below handles the priority part.
        taken_sources, taken_dests = set(), set()
        matched_ids = []
        for job in order:
            if job.source in taken_sources or job.dest in taken_dests:
                continue
            taken_sources.add(job.source)
            taken_dests.add(job.dest)
            matched_ids.append(job.job_id)

        # Grow to a maximum matching over the leftovers (priority greedy
        # can be sub-maximum); re-run matching on the full graph and keep
        # whichever serves more jobs, preferring the greedy seed on ties.
        graph = BipartiteMultigraph()
        for job in order:
            graph.add_edge(job.source, job.dest, key=job.job_id)
        full = maximum_matching(graph)
        if len(full) > len(matched_ids):
            matched_ids = list(full)

        return {jid: 1.0 for jid in matched_ids}

    def forget(self, job_id: int) -> None:
        """Stateless; present for interface symmetry."""


class ProcessorSharing:
    """A macro-switch-oblivious baseline: every active job gets an equal
    share of its destination link only (classic per-destination processor
    sharing).  Ignores source contention — useful as a sanity baseline
    that the max-min policy must dominate in fairness terms."""

    #: Rates depend only on the active job set.
    pure_rates = True

    def __init__(self, network: ClosNetwork):
        self.network = network

    def rates(
        self,
        active: Mapping[int, FlowJob],
        remaining: Mapping[int, float],
        now: float = 0.0,
    ) -> Dict[int, float]:
        per_dest: Dict = {}
        for job in active.values():
            per_dest.setdefault(job.dest, []).append(job.job_id)
        rates: Dict[int, float] = {}
        for jobs in per_dest.values():
            share = 1.0 / len(jobs)
            for jid in jobs:
                rates[jid] = share
        return rates

    def forget(self, job_id: int) -> None:
        """Stateless."""


class ReroutingCongestionControl:
    """Hedera-style periodic re-routing on top of max-min congestion control.

    Like :class:`MaxMinCongestionControl`, rates are the max-min fair
    allocation of the current routing — but every ``interval`` time
    units the controller re-runs the greedy least-congested router over
    *all* active flows (using their macro-switch rates as demands),
    un-pinning everything.  Between re-route epochs, newly arrived flows
    are pinned by ECMP hash, exactly as Hedera lets the default ECMP
    place flows until the scheduler's next pass (the paper's §6
    "data-center routing algorithms" family, in time).
    """

    #: Re-route epochs make rates depend on ``now``; never skippable.
    pure_rates = False

    def __init__(
        self, network: ClosNetwork, interval: float = 1.0, seed: int = 0
    ):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.network = network
        self.interval = interval
        self.seed = seed
        self._pinned: Dict[int, int] = {}
        self._next_reroute = 0.0
        self._capacities = network.graph.capacities()

    def set_link_factors(self, factors) -> None:
        """Apply a failure state: link → retained-capacity fraction.

        Unlike pure congestion control, the next re-route epoch then
        routes *around* the degraded links via the resilient wrapper.
        """
        from repro.failures.inject import degrade_links

        self._capacities = degrade_links(
            self.network.graph.capacities(), factors
        )

    def _ecmp_pin(self, jobs) -> None:
        flows = FlowCollection(_job_flow(job) for job in jobs)
        routing = ecmp_routing(self.network, flows, seed=self.seed)
        for job in jobs:
            middle = routing.middle_of(self.network, _job_flow(job))
            self._pinned[job.job_id] = middle.index

    def _global_reroute(self, active: Mapping[int, FlowJob]) -> None:
        from repro.failures.resilient import route_with_failures

        flows = FlowCollection(_job_flow(job) for job in active.values())
        result = route_with_failures(self.network, flows, self._capacities)
        middles = result.routing.middles(self.network)
        self._pinned = {}
        for job in active.values():
            flow = _job_flow(job)
            if flow in middles:
                self._pinned[job.job_id] = middles[flow]
            else:
                # Disconnected by failures: park the flow on middle 1 at
                # whatever rate the dead links yield (zero) until the
                # fabric recovers, rather than dropping it silently.
                self._pinned[job.job_id] = 1

    def rates(
        self,
        active: Mapping[int, FlowJob],
        remaining: Mapping[int, float],
        now: float = 0.0,
    ) -> Dict[int, float]:
        if not active:
            return {}
        if now >= self._next_reroute:
            self._global_reroute(active)
            self._next_reroute = now + self.interval
        else:
            unpinned = [
                job for jid, job in active.items() if jid not in self._pinned
            ]
            if unpinned:
                self._ecmp_pin(unpinned)
        flows = FlowCollection(_job_flow(job) for job in active.values())
        middles = {
            _job_flow(job): self._pinned[jid] for jid, job in active.items()
        }
        routing = Routing.from_middles(self.network, flows, middles)
        alloc = max_min_fair(routing, self._capacities, exact=False)
        return {job.tag: alloc.rate(job) for job in flows}

    def next_wakeup(self, now: float):
        """Ask the simulator to re-consult us at the next re-route epoch."""
        return self._next_reroute if self._next_reroute > now else None

    def forget(self, job_id: int) -> None:
        """Drop routing state for a completed job."""
        self._pinned.pop(job_id, None)
