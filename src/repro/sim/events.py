"""A minimal discrete-event engine for flow-level simulation.

The R1 discussion (§7) argues that *scheduling* — delaying some flows so
others transmit at link capacity — can beat max-min fair congestion
control on average flow completion time.  Evaluating that claim needs a
flow-level simulator: flows arrive over time carrying a finite size,
receive service at policy-determined rates, and depart when their
remaining size hits zero.

This module provides the engine: a time-ordered event queue plus the
bookkeeping to advance "work done" between events under piecewise-
constant rates.  Policies (how rates are chosen) live in
:mod:`repro.sim.policies`; the driver loop in :mod:`repro.sim.flowsim`.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, NamedTuple, Optional, Set, Tuple

from repro.obs import gauge

#: The largest live event count any queue in this process has reached —
#: heap growth under churn, visible in ``repro profile``.  Gauges are
#: no-ops unless ``repro.obs`` is enabled.
_QUEUE_PEAK = gauge("sim.queue_peak")


class Event(NamedTuple):
    """A scheduled occurrence.  Ordering: time, then insertion order."""

    time: float
    sequence: int
    kind: str
    payload: Any


class EventQueue:
    """A stable min-heap of events keyed by time.

    Events may be cancelled by sequence number (:meth:`cancel`); a
    cancelled event stays in the heap as a tombstone and is dropped
    lazily the next time it would surface in :meth:`pop` / :meth:`peek`
    — O(1) cancellation without breaking the heap invariant.  Only
    still-pending sequences may be cancelled (cancelling an already-
    popped sequence would skew the live count).

    >>> q = EventQueue()
    >>> seq = q.push(2.0, "b", None)
    >>> _ = q.push(1.0, "a", None)
    >>> q.cancel(seq)
    >>> q.pop().kind, len(q)
    ('a', 0)
    """

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._counter = itertools.count()
        self._cancelled: Set[int] = set()
        self._peak = 0

    def push(self, time: float, kind: str, payload: Any) -> int:
        """Schedule an event at ``time`` (ties broken by insertion
        order); returns the sequence number, usable with :meth:`cancel`.
        """
        if not time >= 0:  # also rejects NaN
            raise ValueError(f"negative event time: {time}")
        sequence = next(self._counter)
        heapq.heappush(self._heap, Event(time, sequence, kind, payload))
        size = len(self._heap) - len(self._cancelled)
        if size > self._peak:
            self._peak = size
            peak = _QUEUE_PEAK.value
            if peak is None or size > peak:
                _QUEUE_PEAK.set(size)
        return sequence

    def cancel(self, sequence: int) -> None:
        """Mark a pending event dead; it is dropped lazily on pop/peek."""
        self._cancelled.add(sequence)

    def _drop_cancelled(self) -> None:
        heap = self._heap
        cancelled = self._cancelled
        while heap and heap[0].sequence in cancelled:
            cancelled.discard(heapq.heappop(heap).sequence)

    def pop(self) -> Event:
        """Remove and return the earliest live event."""
        self._drop_cancelled()
        return heapq.heappop(self._heap)

    def peek(self) -> Optional[Event]:
        """The earliest live event without removing it, or ``None``."""
        self._drop_cancelled()
        return self._heap[0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap) - len(self._cancelled)

    def __bool__(self) -> bool:
        return len(self._heap) > len(self._cancelled)


def load_failure_schedule(queue: EventQueue, schedule) -> int:
    """Push every event of a failure schedule onto ``queue``.

    ``schedule`` is a :class:`repro.failures.schedule.FailureSchedule`
    (duck-typed: anything with an ``events()`` method yielding objects
    with ``time`` works).  Each event is enqueued with kind
    ``"failure"`` and the original event as payload, so the driver loop
    can replay a recorded failure trace alongside arrivals and
    completions.  Returns the number of events loaded.
    """
    count = 0
    for event in schedule.events():
        queue.push(event.time, "failure", event)
        count += 1
    return count
