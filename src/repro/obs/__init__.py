"""repro.obs — dependency-free tracing, metrics, and structured logging.

The observability layer for the whole reproduction: span-based wall
clock (and optional peak-memory) tracing, a registry of named counters
/ gauges / Fraction-safe histograms wired into the solver, router,
search, and simulator hot paths, and a structured logger — all behind
one process-wide switch.

Disabled by default.  Enable with the ``REPRO_OBS=1`` environment
variable or :func:`enable` / :func:`disable` at runtime; while
disabled, every instrument call is a single flag check (no allocation,
no clock read), so instrumented code is safe to leave in hot loops.

Typical use::

    from repro import obs

    obs.enable(memory=True)
    with obs.trace_span("sweep"):
        run_everything()
    for span in obs.tracer().collect():
        print(span.to_dict())
    print(obs.metrics_snapshot())

This is the one tracer a run reports through: the ``repro profile``
tables, ``--trace`` JSONL, traced manifests and ``repro stats`` all
read these spans and counters.  The benchmark's per-layer times come
from ``perfbench/layers.py`` instead, which wraps functions without
touching this package.

See ``docs/OBSERVABILITY.md`` for the instrument catalog and the
JSONL schema, and ``python -m repro profile <experiment>`` for the
CLI front end.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.obs.logger import StructuredLogger, get_logger
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    snapshot_delta,
)
from repro.obs.pipeline import (
    MergedTelemetry,
    TelemetryPayload,
    capture_payload,
    merge_payloads,
)
from repro.obs.state import STATE
from repro.obs.trace import (
    TRACER,
    Span,
    Tracer,
    span_from_dict,
    trace_span,
    traced,
    write_trace_jsonl,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MergedTelemetry",
    "MetricsRegistry",
    "Span",
    "StructuredLogger",
    "TelemetryPayload",
    "Tracer",
    "capture_payload",
    "counter",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "get_logger",
    "histogram",
    "merge_payloads",
    "metrics",
    "metrics_snapshot",
    "snapshot_delta",
    "span_from_dict",
    "trace_span",
    "traced",
    "tracer",
    "write_trace_jsonl",
]


def enabled() -> bool:
    """Is observability currently on?"""
    return STATE.enabled


def enable(memory: bool = False) -> None:
    """Turn tracing/metrics/logging on (``memory`` adds tracemalloc)."""
    STATE.enabled = True
    STATE.memory = memory


def disable() -> None:
    """Turn observability off and stop memory tracking."""
    STATE.enabled = False
    STATE.memory = False


def tracer() -> Tracer:
    """The process-wide tracer."""
    return TRACER


def metrics() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return REGISTRY


def metrics_snapshot() -> Dict[str, Any]:
    """JSON-safe snapshot of every non-zero instrument."""
    return REGISTRY.snapshot()


def reset() -> None:
    """Zero all metrics and drop any collected spans (test hygiene)."""
    REGISTRY.reset()
    TRACER.reset()
