"""Named counters, gauges, and Fraction-safe histograms.

A process-wide :class:`MetricsRegistry` holds every instrument by name;
modules create their instruments once at import time (``_ROUNDS =
counter("maxmin.rounds")``) and bump them from hot loops.  When
observability is disabled (the default) every mutation is a single
flag check and an early return, so instrumented code pays nothing
measurable.

Instruments are Fraction-safe: the exact solvers naturally observe
:class:`fractions.Fraction` values, and those are accumulated exactly —
no silent float coercion.  :meth:`MetricsRegistry.snapshot` renders
values JSON-safely (Fractions become ``"p/q"`` strings, matching the
scenario file convention in :mod:`repro.io.serialize`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Dict, List, Optional, Union

from repro.obs.state import STATE

Number = Union[int, float, Fraction]


def _json_value(value: Number) -> Any:
    """Render a metric value JSON-safely; exact rationals become 'p/q'."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    return value


class Counter:
    """A monotonically increasing count (rounds, events, moves...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if not STATE.enabled:
            return
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def snapshot(self) -> Any:
        return _json_value(self.value)


class Gauge:
    """A point-in-time value (water level, temperature, queue depth)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[Number] = None

    def set(self, value: Number) -> None:
        if not STATE.enabled:
            return
        self.value = value

    def reset(self) -> None:
        self.value = None

    def snapshot(self) -> Any:
        return None if self.value is None else _json_value(self.value)


#: Distinct-value cap per histogram.  The instruments observe exact
#: rationals and small integers (water levels, active-job counts), so
#: the bucket map stays tiny; runaway float streams stop allocating at
#: the cap and are tallied in ``bucket_overflow`` instead.
MAX_BUCKETS = 4096


class Histogram:
    """Streaming summary of observed values, bucketed by exact value.

    Fraction-safe: observing Fractions keeps the sum exact, so the mean
    of exact observations is an exact rational — and because every
    distinct value keeps its own bucket (up to :data:`MAX_BUCKETS`),
    percentiles are exact too.
    """

    __slots__ = (
        "name", "count", "total", "minimum", "maximum", "buckets",
        "overflow",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total: Number = 0
        self.minimum: Optional[Number] = None
        self.maximum: Optional[Number] = None
        #: observed value -> occurrence count (exact keys, never floats
        #: of Fractions).
        self.buckets: Dict[Number, int] = {}
        #: Observations whose *distinct* value arrived after the bucket
        #: cap; counted in ``count``/``sum`` but absent from percentiles.
        self.overflow = 0

    def observe(self, value: Number) -> None:
        if not STATE.enabled:
            return
        self.count += 1
        self.total = self.total + value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        buckets = self.buckets
        if value in buckets:
            buckets[value] += 1
        elif len(buckets) < MAX_BUCKETS:
            buckets[value] = 1
        else:
            self.overflow += 1

    def mean(self) -> Optional[Number]:
        """The exact mean: a Fraction unless a float was ever observed.

        Integer observations divide exactly (``Fraction(3, 2)``), never
        through float division, so JSON snapshots of exact runs carry
        no floats.
        """
        if self.count == 0:
            return None
        total = self.total
        if isinstance(total, float):
            return total / self.count
        return Fraction(total) / self.count

    def percentile(self, q: Fraction) -> Optional[Number]:
        """Exact nearest-rank percentile over the bucketed values.

        ``q`` is a fraction in (0, 1]; the result is the smallest
        observed value whose cumulative count reaches ``ceil(q * N)``.
        Returns ``None`` when empty.  With bucket overflow the rank is
        taken over the bucketed subset (flagged in the snapshot).
        """
        bucketed = self.count - self.overflow
        if bucketed <= 0:
            return None
        rank = math.ceil(q * bucketed)
        cumulative = 0
        for value in sorted(self.buckets):
            cumulative += self.buckets[value]
            if cumulative >= rank:
                return value
        return self.maximum  # pragma: no cover - rank <= bucketed total

    def reset(self) -> None:
        self.count = 0
        self.total = 0
        self.minimum = None
        self.maximum = None
        self.buckets = {}
        self.overflow = 0

    def snapshot(self) -> Any:
        if self.count == 0:
            return {"count": 0}
        out = {
            "count": self.count,
            "sum": _json_value(self.total),
            "min": _json_value(self.minimum),
            "max": _json_value(self.maximum),
            "mean": _json_value(self.mean()),
            "p50": _json_value(self.percentile(Fraction(1, 2))),
            "p90": _json_value(self.percentile(Fraction(9, 10))),
            "p99": _json_value(self.percentile(Fraction(99, 100))),
        }
        if self.overflow:
            out["bucket_overflow"] = self.overflow
        return out


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Every named instrument in the process, by name.

    Instruments are created on first request and live for the process;
    ``reset()`` zeroes them without invalidating module-level handles.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    def _get(self, name: str, kind: type) -> Instrument:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(name)
            self._instruments[name] = instrument
            return instrument
        if not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def kinds(self) -> Dict[str, str]:
        """name → ``"counter"`` / ``"gauge"`` / ``"histogram"`` map."""
        return {
            name: type(instrument).__name__.lower()
            for name, instrument in self._instruments.items()
        }

    def reset(self) -> None:
        for instrument in self._instruments.values():
            instrument.reset()

    def reset_gauges(self) -> None:
        """Unset every gauge, so the next readings cover only what runs
        from here on (a manifest step's own peak, not an earlier one)."""
        for instrument in self._instruments.values():
            if isinstance(instrument, Gauge):
                instrument.reset()

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe name → value map, zero-valued instruments omitted."""
        out: Dict[str, Any] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            value = instrument.snapshot()
            if isinstance(instrument, Counter) and value == 0:
                continue
            if isinstance(instrument, Gauge) and value is None:
                continue
            if isinstance(instrument, Histogram) and instrument.count == 0:
                continue
            out[name] = value
        return out


#: The process-wide registry every module-level instrument lives in.
REGISTRY = MetricsRegistry()


def counter(name: str) -> Counter:
    """Get-or-create the named counter in the global registry."""
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    """Get-or-create the named gauge in the global registry."""
    return REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    """Get-or-create the named histogram in the global registry."""
    return REGISTRY.histogram(name)


def snapshot_delta(
    before: Dict[str, Any], after: Dict[str, Any], kinds: Dict[str, str]
) -> Dict[str, Any]:
    """The instruments that changed between two snapshots.

    ``kinds`` is :meth:`MetricsRegistry.kinds`: counters are differenced;
    everything else (gauges, histogram summaries) is reported at its
    ``after`` value.  Used by the runner to attribute metric activity to
    individual steps.
    """
    delta: Dict[str, Any] = {}
    for name, value in after.items():
        previous = before.get(name)
        if value == previous:
            continue
        if kinds.get(name) == "counter" and previous is not None:
            delta[name] = value - previous
        else:
            delta[name] = value
    return delta
