"""The machine's speed, sampled while the program runs.

On a shared host the speed at which a vCPU runs Python changes with the
neighbours' load, by up to 1.8x, in spells that can cover whole runs
(see "Steadiness" in README.md).  A :class:`SpeedMeter` runs a fixed
probe loop from a ``SIGPROF`` handler every :data:`INTERVAL_S` of CPU
time, so the probes interleave with the program's own work on the same
vCPU.  :func:`to_reference` then turns a measured interval into
*reference seconds*: the interval minus the time spent in probes,
divided by how much slower than :data:`PROBE_REF_S` the probes ran
inside it.  A program that does more work takes more reference seconds;
a machine that runs slower does not.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

#: CPU seconds between probes.
INTERVAL_S = 0.01
#: Typical probe duration on the reference machine (a shared 2-vCPU
#: Xeon VM, Python 3.11), whose probes took 26-45 us.  Fixed, so that
#: reference seconds from different runs and commits compare.
PROBE_REF_S = 4.0e-5


def _probe() -> int:
    total = 0
    for i in range(400):
        total += i * i
    return total


def to_reference(wall_s: float, probe_spent_s: float, probe_s: float) -> float:
    """Reference seconds of an interval of ``wall_s`` that spent
    ``probe_spent_s`` in probes whose median duration was ``probe_s``."""
    return (wall_s - probe_spent_s) * PROBE_REF_S / probe_s


class SpeedMeter:
    """Probe start times and durations, sampled from ``SIGPROF``."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.costs = array("d")
        self._previous = None

    def _on_signal(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _probe()
        self.costs.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGPROF, self._previous)
            self._previous = None

    def window(self, t0: float, t1: float):
        """(seconds spent in probes, median probe duration or None) of
        the probes that started in [t0, t1)."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        if j <= i:
            return 0.0, None
        costs = self.costs[i:j]
        return sum(costs), statistics.median(costs)

    def reference_s(self, t0: float, t1: float) -> float:
        """Reference seconds of [t0, t1); its wall time if no probe ran."""
        spent, probe_s = self.window(t0, t1)
        return t1 - t0 if probe_s is None else to_reference(t1 - t0, spent, probe_s)
