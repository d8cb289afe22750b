"""The simulator's event loops, over a NumPy slot store.

Per-job state lives in contiguous arrays (remaining sizes, rates, job
ids, and the active mask) rather than per-job Python dicts, because
under heavy churn the end-to-end event rate stalls on that bookkeeping
— not on solving.  Two loops run on it:

- :func:`_simulate_array`, the per-event loop behind
  :func:`repro.sim.flowsim.simulate`: the next completion comes from a
  masked ``remaining / rate`` minimum;
- :func:`_simulate_stream_array`, the micro-batching loop behind
  :func:`repro.sim.stream.simulate_stream`: rates only change at consult
  boundaries, so the completion *order* is frozen between them by one
  ``lexsort`` per consult and each completion is an O(1) pointer walk.

In both, time advancement serves every active job with one masked
vector update instead of a Python loop, and retirement frees slots
lazily and sweeps them with a batched compaction only when more than
half the store is dead, like ``core/streaming``'s O(nnz) dead-slot
sweep.

The test suite keeps the per-job dict loops these mirror as an oracle
(``tests/sim_reference.py``): ``completed`` (order *and* float values),
``unfinished`` and ``end_time`` match it exactly, including
``_TIME_EPS`` tie-breaking, same-instant burst admission, failure
batching, and admission-order retirement.  Only ``work_done`` may
drift by float round-off, because vectorized reductions sum partial
service in a different order than per-job accumulation.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.obs import counter, histogram
from repro.sim.events import EventQueue, load_failure_schedule
from repro.sim.flowsim import (
    _TIME_EPS,
    CompletedJob,
    SimulationError,
    SimulationResult,
)
from repro.sim.jobs import FlowJob

#: Observability instruments (no-ops unless ``repro.obs`` is enabled).
_EVENTS = counter("sim.events")
_COMPLETIONS = counter("sim.completions")
_FAILURES = counter("sim.failures_applied")
_POLICY_CALLS = counter("sim.policy_consultations")
_RESOLVE_SKIPS = counter("sim.resolve_skipped")
#: Active-job count observed at every event: the p50/p90/p99 summary
#: shows whether a workload's cost comes from sustained load or bursts
#: (integer observations — exact percentiles, tiny bucket map).
_ACTIVE = histogram("sim.active_jobs")
#: Solver-visible events admitted per policy re-solve: same-instant
#: arrival bursts in the per-event loop, micro-batch windows in the
#: stream loop.  A p50 of 1 means per-event solving; higher means
#: batching is paying.
_BATCH = histogram("sim.batch_size")


# ----------------------------------------------------------------------
# The slot store
# ----------------------------------------------------------------------
class _JobStore:
    """Contiguous per-job state: ``remaining`` / ``rate`` / ``jid``
    arrays and an ``active`` mask over slots ``[0, high)``.

    Slots are handed out in admission order and compaction preserves
    relative order, so **ascending slot index is admission order** —
    the invariant behind byte-identical retirement ordering (the dict
    loops of the test oracle retire in remaining-dict insertion order,
    which is the same thing).
    """

    __slots__ = ("np", "remaining", "rate", "jid", "active", "high", "slot_of")

    def __init__(self, np_mod, capacity_hint: int) -> None:
        self.np = np_mod
        cap = max(16, int(capacity_hint))
        self.remaining = np_mod.zeros(cap)
        self.rate = np_mod.zeros(cap)
        self.jid = np_mod.zeros(cap, dtype=np_mod.int64)
        self.active = np_mod.zeros(cap, dtype=bool)
        #: One past the last slot ever used (only compaction shrinks it).
        self.high = 0
        #: job_id -> slot for live jobs, in admission order.
        self.slot_of: Dict[int, int] = {}

    def _grow(self) -> None:
        np = self.np
        cap = 2 * len(self.remaining)
        for name in ("remaining", "rate", "jid", "active"):
            old = getattr(self, name)
            new = np.zeros(cap, dtype=old.dtype)
            new[: self.high] = old[: self.high]
            setattr(self, name, new)

    def admit(self, job: FlowJob) -> int:
        if self.high == len(self.remaining):
            self._grow()
        slot = self.high
        self.high = slot + 1
        self.remaining[slot] = job.size
        self.rate[slot] = 0.0
        self.jid[slot] = job.job_id
        self.active[slot] = True
        self.slot_of[job.job_id] = slot
        return slot

    def retire(self, slot: int) -> None:
        self.active[slot] = False
        del self.slot_of[int(self.jid[slot])]

    def compact(self) -> None:
        """Sweep dead slots once more than half the store is dead.

        Only called at consult boundaries, where rates are re-scattered
        and any cached completion order is rebuilt anyway — so moving
        slots never invalidates in-flight references.
        """
        live = len(self.slot_of)
        if self.high < 64 or 2 * live >= self.high:
            return
        np = self.np
        keep = np.nonzero(self.active[: self.high])[0]
        n = int(keep.size)
        # Fancy indexing copies before assigning, so in-place shifts
        # toward the front are safe.
        self.remaining[:n] = self.remaining[keep]
        self.rate[:n] = self.rate[keep]
        self.jid[:n] = self.jid[keep]
        self.active[:n] = True
        self.active[n : self.high] = False
        self.high = n
        self.slot_of = {
            int(j): i for i, j in enumerate(self.jid[:n].tolist())
        }


class _RemainingView(Mapping):
    """Read-only ``{job_id: remaining}`` over the live slots, iterated
    in admission order — handed to policies in place of the object
    engines' remaining dict (e.g. ``MatchingScheduler``'s SRPT key)."""

    __slots__ = ("_store",)

    def __init__(self, store: _JobStore) -> None:
        self._store = store

    def __getitem__(self, jid: int) -> float:
        return float(self._store.remaining[self._store.slot_of[jid]])

    def __iter__(self) -> Iterator[int]:
        return iter(self._store.slot_of)

    def __len__(self) -> int:
        return len(self._store.slot_of)

    def __contains__(self, jid: object) -> bool:
        return jid in self._store.slot_of


# ----------------------------------------------------------------------
# Per-event loop
# ----------------------------------------------------------------------
def _simulate_array(
    jobs: Sequence[FlowJob],
    policy,
    max_time: Optional[float],
    max_events: int,
    failure_schedule,
) -> SimulationResult:
    """The event loop behind :func:`repro.sim.flowsim.simulate` (same
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
    link_factors: Dict = {}

    store = _JobStore(np, len(jobs))
    remaining_view = _RemainingView(store)
    active: Dict[int, FlowJob] = {}
    completed: List[CompletedJob] = []
    work_done = 0.0
    now = 0.0
    events = 0

    def served_slots():
        hi = store.high
        return np.nonzero(store.active[:hi] & (store.rate[:hi] > 0.0))[0]

    def drain_until(target: float) -> float:
        """Advance the clock to ``target`` at the standing rates,
        stopping early at the soonest completion (vector masked min —
        the same value a running min over the jobs produces)."""
        nonlocal now, work_done
        idx = served_slots()
        soonest: Optional[float] = None
        if idx.size:
            soonest = float(
                (now + store.remaining[idx] / store.rate[idx]).min()
            )
        stop = target if soonest is None else min(target, soonest)
        dt = stop - now
        if dt < 0:
            raise SimulationError(f"time went backwards: {now} -> {stop}")
        if idx.size:
            served = store.rate[idx] * dt
            store.remaining[idx] = np.maximum(
                0.0, store.remaining[idx] - served
            )
            work_done += float(served.sum())
        now = stop
        return stop

    def complete_finished() -> bool:
        """Retire drained jobs in admission (= ascending slot) order;
        returns whether any retirement was solver-visible."""
        hi = store.high
        fin = np.nonzero(
            store.active[:hi] & (store.remaining[:hi] <= _TIME_EPS)
        )[0]
        _COMPLETIONS.inc(int(fin.size))
        visible = bool((store.rate[fin] > 0.0).any())
        for slot in fin.tolist():
            job = active.pop(int(store.jid[slot]))
            store.retire(slot)
            policy.forget(job.job_id)
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

    def scatter(rates: Dict[int, float]) -> None:
        store.rate[: store.high] = 0.0
        slot_of = store.slot_of
        rate = store.rate
        for jid, r in rates.items():
            slot = slot_of.get(jid)
            if slot is not None:
                rate[slot] = r

    pending_arrivals = len(jobs)
    pure = bool(getattr(policy, "pure_rates", False))
    needs_resolve = True
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
            store.compact()
            scatter(policy.rates(active, remaining_view, now))
            needs_resolve = False
        wakeup: Optional[float] = None
        if hook is not None and active:
            candidate = hook(now)
            if candidate is not None and candidate > now + _TIME_EPS:
                wakeup = candidate

        next_event = queue.peek()
        if next_event is None:
            if wakeup is None and not served_slots().size:
                raise SimulationError(
                    f"{len(active)} jobs active but none served; "
                    "the policy starved the residual workload"
                )
            horizon = math.inf if max_time is None else max_time
            if wakeup is not None:
                horizon = min(horizon, wakeup)
            drain_until(horizon)
            if complete_finished():
                needs_resolve = True
            continue

        target = next_event.time
        if wakeup is not None:
            target = min(target, wakeup)
        reached = drain_until(target)
        if complete_finished():
            needs_resolve = True
            continue  # re-consult the policy before touching the arrival
        if reached >= next_event.time - _TIME_EPS:
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
                needs_resolve = True
                continue
            job = event.payload
            active[job.job_id] = job
            store.admit(job)
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
                store.admit(job)
                pending_arrivals -= 1
                burst += 1
            _BATCH.observe(burst)

    return SimulationResult(
        completed=completed,
        unfinished=list(active.values()),
        work_done=work_done,
        end_time=now,
    )


# ----------------------------------------------------------------------
# Micro-batching loop
# ----------------------------------------------------------------------
def _simulate_stream_array(
    jobs: Sequence[FlowJob],
    policy,
    batch_window: float,
    max_time: Optional[float],
    max_events: int,
    failure_schedule,
) -> SimulationResult:
    """The event loop behind :func:`repro.sim.stream.simulate_stream`
    with a positive ``batch_window`` (same contract).

    Replaces the event heap with two presorted pointer walks (arrivals
    stably sorted by arrival time, failures by schedule time — exactly
    the ``(time, sequence)`` order of an
    :class:`~repro.sim.events.EventQueue`, arrivals winning time ties
    because they are pushed first) and the completion heap with a
    per-consult ``lexsort`` by ``(finish, job_id)`` — the same total
    order as a heap of ``(finish, jid, epoch)`` entries, all of which
    share the latest epoch.  Inputs are checked by the caller
    (:func:`repro.sim.flowsim._check_inputs`).
    """
    fail_events: List = []
    if failure_schedule is not None:
        if not hasattr(policy, "set_link_factors"):
            raise SimulationError(
                f"{type(policy).__name__} has no set_link_factors hook and "
                "cannot replay a failure schedule"
            )
        fail_events = sorted(failure_schedule.events(), key=lambda e: e.time)
        for ev in fail_events:
            if ev.time < 0:
                raise ValueError(f"negative event time: {ev.time}")
    n_jobs = len(jobs)
    arr_jobs = sorted(jobs, key=lambda job: job.arrival)  # stable
    arr_times = [job.arrival for job in arr_jobs]
    fail_times = [ev.time for ev in fail_events]
    n_fail = len(fail_events)

    store = _JobStore(np, n_jobs)
    remaining_view = _RemainingView(store)
    active: Dict[int, FlowJob] = {}
    completed: List[CompletedJob] = []
    link_factors: Dict = {}
    work_done = 0.0
    now = 0.0
    base_t = 0.0
    events = 0
    aptr = 0
    fptr = 0
    #: Completion order under the standing rates — slots and finish
    #: times sorted by ``(finish, job_id)``, consumed by ``optr``.
    order_slots: List[int] = []
    order_finish: List[float] = []
    optr = 0
    deadline: Optional[float] = None
    pending = 0

    def advance_to(target: float) -> None:
        """Serve every job at its standing rate up to ``target``."""
        nonlocal base_t, work_done
        dt = target - base_t
        if dt < -_TIME_EPS:
            raise SimulationError(
                f"time went backwards: {base_t} -> {target}"
            )
        if dt > 0.0:
            hi = store.high
            idx = np.nonzero(store.active[:hi] & (store.rate[:hi] > 0.0))[0]
            if idx.size:
                served = np.minimum(
                    store.remaining[idx], store.rate[idx] * dt
                )
                store.remaining[idx] -= served
                work_done += float(served.sum())
        base_t = target

    def retire(slot: int, at: float, served: float) -> None:
        nonlocal work_done
        job = active.pop(int(store.jid[slot]))
        store.retire(slot)
        work_done += served
        policy.forget(job.job_id)
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

    def retire_jobless(job: FlowJob, at: float) -> None:
        """Zero-size transfer: completes the instant it arrives without
        ever occupying a slot."""
        active.pop(job.job_id)
        policy.forget(job.job_id)
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

    def boundary_retire(at: float) -> None:
        """Retire anything drained to zero exactly at a boundary, in
        admission (= ascending slot) order."""
        hi = store.high
        done = np.nonzero(
            store.active[:hi] & (store.remaining[:hi] <= _TIME_EPS)
        )[0]
        for slot in done.tolist():
            retire(slot, at, 0.0)

    def consult(at: float) -> None:
        """The batch boundary: advance, re-solve, refreeze the
        completion order."""
        nonlocal deadline, pending, order_slots, order_finish, optr
        advance_to(at)
        boundary_retire(at)
        _POLICY_CALLS.inc()
        _BATCH.observe(max(1, pending))
        store.compact()
        rates = policy.rates(active, remaining_view, at)
        pending = 0
        deadline = None
        store.rate[: store.high] = 0.0
        slot_of = store.slot_of
        rate = store.rate
        for jid, r in rates.items():
            slot = slot_of.get(jid)
            if slot is not None:
                rate[slot] = r
        hi = store.high
        cand = np.nonzero(store.active[:hi] & (store.rate[:hi] > 0.0))[0]
        if cand.size:
            finish = at + store.remaining[cand] / store.rate[cand]
            sort = np.lexsort((store.jid[cand], finish))
            order_slots = cand[sort].tolist()
            order_finish = finish[sort].tolist()
        else:
            order_slots = []
            order_finish = []
        optr = 0

    def touch(at: float) -> None:
        """Register one solver-visible change at time ``at``."""
        nonlocal deadline, pending
        pending += 1
        candidate = at + batch_window
        if deadline is None or candidate < deadline:
            deadline = candidate

    while aptr < n_jobs or fptr < n_fail or active:
        if not active and aptr >= n_jobs:
            break  # only failure events remain; nothing left to serve
        events += 1
        _EVENTS.inc()
        if events > max_events:
            raise SimulationError(f"exceeded {max_events} events")
        if max_time is not None and now >= max_time:
            break

        next_completion = (
            order_finish[optr] if optr < len(order_finish) else None
        )
        arr_t = arr_times[aptr] if aptr < n_jobs else None
        fail_t = fail_times[fptr] if fptr < n_fail else None
        if arr_t is not None and (fail_t is None or arr_t <= fail_t):
            next_event_t: Optional[float] = arr_t
            next_is_arrival = True
        else:
            next_event_t = fail_t
            next_is_arrival = False
        next_t = math.inf if max_time is None else max_time
        if next_event_t is not None:
            next_t = min(next_t, next_event_t)
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
            slot = order_slots[optr]
            finish = order_finish[optr]
            optr += 1
            if store.active[slot]:
                # The job's full residual (as of base_t) was served over
                # [base_t, finish]; account it directly and leave the
                # others' lazily advanced state untouched.
                served = float(store.remaining[slot])
                retire(slot, finish, served)
                touch(finish)  # freed capacity -> re-solve within window
            continue

        if next_event_t is not None and next_event_t <= now + _TIME_EPS:
            if not next_is_arrival:
                ev = fail_events[fptr]
                fptr += 1
                link_factors[ev.link] = ev.factor
                _FAILURES.inc()
                while fptr < n_fail:
                    upcoming_t = fail_times[fptr]
                    if upcoming_t > next_event_t + _TIME_EPS:
                        break
                    if aptr < n_jobs and arr_times[aptr] <= upcoming_t:
                        break  # an arrival precedes it in queue order
                    nxt = fail_events[fptr]
                    fptr += 1
                    link_factors[nxt.link] = nxt.factor
                    _FAILURES.inc()
                policy.set_link_factors(dict(link_factors))
                touch(next_event_t)
                continue
            job = arr_jobs[aptr]
            aptr += 1
            if job.size <= _TIME_EPS:
                active[job.job_id] = job
                retire_jobless(job, next_event_t)
                continue
            active[job.job_id] = job
            store.admit(job)
            touch(next_event_t)
            continue

        # The batch deadline is the earliest happening: re-solve.
        consult(now)

    advance_to(now)
    boundary_retire(now)
    return SimulationResult(
        completed=completed,
        unfinished=list(active.values()),
        work_done=work_done,
        end_time=now,
    )
