"""Standard-format telemetry exporters: Chrome ``trace_event`` + Prometheus.

Traces and metrics captured by :mod:`repro.obs` are most useful inside
existing viewers, so this module renders them into two widely-supported
formats:

- :func:`chrome_trace` / :func:`write_chrome_trace` — the Trace Event
  Format consumed by ``chrome://tracing`` and https://ui.perfetto.dev.
  Spans become ``"X"`` (complete) events with microsecond timestamps;
  worker span forests (the synthetic ``worker:<i>`` roots produced by
  :mod:`repro.obs.pipeline`) are emitted as separate *processes* so the
  viewer lays each worker out on its own track.
- :func:`prometheus_text` — the Prometheus text exposition format
  (``# TYPE`` headers, sanitized metric names, histograms as summaries
  with quantile labels), suitable for a textfile collector or a
  scrape-once gateway.

Spans store durations, not absolute wall times, so Chrome timestamps
are *synthesized*: each process's events are laid out back to back from
t=0, children starting at their parent's start plus the durations of
prior siblings.  Relative layout and all durations are faithful; only
the absolute epoch is invented.

:func:`aggregate_spans` folds a span forest into a per-name
self-time/cumulative-time table — the engine behind ``repro top``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.trace import Span

__all__ = [
    "aggregate_spans",
    "chrome_trace",
    "prometheus_text",
    "write_chrome_trace",
]

#: Spans with this name prefix (from repro.obs.pipeline) get their own
#: Chrome process track.
_WORKER_PREFIX = "worker:"


def _microseconds(seconds: float) -> int:
    return int(round(seconds * 1_000_000))


def _event_args(span: Span) -> Optional[Dict[str, Any]]:
    args: Dict[str, Any] = {}
    for key, value in span.attrs.items():
        if isinstance(value, Fraction):
            value = str(value)
        elif not isinstance(value, (int, float, str, bool, type(None))):
            value = repr(value)
        args[key] = value
    if span.mem_peak_bytes is not None:
        args["mem_peak_bytes"] = span.mem_peak_bytes
    return args or None


def _emit_span(
    span: Span, start_us: int, pid: int, events: List[Dict[str, Any]]
) -> int:
    """Append ``span``'s subtree as events starting at ``start_us``;
    return the span's end timestamp."""
    duration_us = _microseconds(span.duration)
    event: Dict[str, Any] = {
        "name": span.name,
        "ph": "X",
        "ts": start_us,
        "dur": duration_us,
        "pid": pid,
        "tid": 0,
        "cat": "repro",
    }
    args = _event_args(span)
    if args is not None:
        event["args"] = args
    events.append(event)
    cursor = start_us
    for child in span.children:
        cursor = _emit_span(child, cursor, pid, events)
    return start_us + duration_us


def chrome_trace(
    spans: Iterable[Span], process_name: str = "repro"
) -> Dict[str, Any]:
    """Render root span trees as a Chrome ``trace_event`` document.

    Roots named ``worker:<i>`` (re-parented worker forests) are given
    their own pid — one process track per worker in the viewer — while
    everything else shares pid 0 (``process_name``).
    """
    events: List[Dict[str, Any]] = []
    named_pids: List[Tuple[int, str]] = [(0, process_name)]
    cursors: Dict[int, int] = {0: 0}
    next_pid = 1
    for span in spans:
        pid = 0
        if span.name.startswith(_WORKER_PREFIX):
            pid = next_pid
            next_pid += 1
            label = span.name
            os_pid = span.attrs.get("pid")
            if os_pid is not None:
                label = f"{span.name} (os pid {os_pid})"
            named_pids.append((pid, label))
            cursors[pid] = 0
        cursors[pid] = _emit_span(span, cursors[pid], pid, events)

    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": label},
        }
        for pid, label in named_pids
    ]
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str, spans: Iterable[Span], process_name: str = "repro"
) -> str:
    """Write :func:`chrome_trace` output as JSON; returns the path."""
    from repro.io.serialize import write_json_atomic

    return write_json_atomic(path, chrome_trace(spans, process_name))


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """``maxmin.rounds`` → ``repro_maxmin_rounds``."""
    return "repro_" + _NAME_SANITIZE.sub("_", name)


def _prom_value(value: Any) -> str:
    """Render a snapshot value as a Prometheus float literal.

    Exact rationals arrive as ``"p/q"`` strings; Prometheus only speaks
    floats, so precision loss here is inherent to the format (the JSON
    exports stay exact).
    """
    if isinstance(value, str):
        value = float(Fraction(value))
    if isinstance(value, bool):
        value = int(value)
    return repr(float(value))


def prometheus_text(
    snapshot: Dict[str, Any], kinds: Optional[Dict[str, str]] = None
) -> str:
    """Render a metrics snapshot in Prometheus text exposition format.

    ``snapshot`` is a ``metrics_snapshot()``-shaped map; ``kinds`` (from
    :meth:`MetricsRegistry.kinds`) distinguishes counters from gauges
    for the ``# TYPE`` headers — without it, scalar instruments are
    typed ``untyped``.  Histogram summaries become Prometheus summaries
    (quantile-labelled samples plus ``_sum``/``_count``).
    """
    kinds = kinds or {}
    lines: List[str] = []
    for name in sorted(snapshot):
        value = snapshot[name]
        prom = _prom_name(name)
        if isinstance(value, dict):
            lines.append(f"# TYPE {prom} summary")
            for key, quantile in (("p50", "0.5"), ("p90", "0.9"),
                                  ("p99", "0.99")):
                if key in value:
                    lines.append(
                        f'{prom}{{quantile="{quantile}"}} '
                        f"{_prom_value(value[key])}"
                    )
            if "sum" in value:
                lines.append(f"{prom}_sum {_prom_value(value['sum'])}")
            lines.append(f"{prom}_count {_prom_value(value['count'])}")
        else:
            kind = kinds.get(name)
            prom_type = kind if kind in ("counter", "gauge") else "untyped"
            lines.append(f"# TYPE {prom} {prom_type}")
            lines.append(f"{prom} {_prom_value(value)}")
    return "\n".join(lines) + "\n" if lines else ""


# ----------------------------------------------------------------------
# Per-span aggregation (repro top)
# ----------------------------------------------------------------------
def aggregate_spans(spans: Iterable[Span]) -> Dict[str, Dict[str, Any]]:
    """Fold a span forest into per-name totals.

    Returns ``{name: {"count", "cum_s", "self_s"}}`` where *cumulative*
    time sums each span's full duration and *self* time subtracts the
    durations of its direct children (clamped at zero — clock jitter
    can make children sum past their parent).  Self times therefore
    partition the forest's wall clock without double counting, which is
    what makes them the right basis for regression attribution.
    """
    table: Dict[str, Dict[str, Any]] = {}
    for root in spans:
        for _, span in root.walk():
            entry = table.setdefault(
                span.name, {"count": 0, "cum_s": 0.0, "self_s": 0.0}
            )
            entry["count"] += 1
            entry["cum_s"] += span.duration
            child_time = sum(child.duration for child in span.children)
            entry["self_s"] += max(0.0, span.duration - child_time)
    return table
