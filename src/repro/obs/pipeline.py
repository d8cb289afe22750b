"""Cross-process telemetry: ship worker instrumentation to the parent.

:mod:`repro.parallel` fans sweep points out over worker processes; the
instruments those workers bump live in *their* process-wide registries
and would be silently lost when the pool shuts down.  This module
closes that gap:

1. Each worker runs its task under a fresh obs session and returns a
   serialized :class:`TelemetryPayload` — metrics state (typed, with
   exact histogram buckets) and the span forest — alongside its
   result.
2. The parent merges payloads into a :class:`MergedTelemetry` view:
   counters summed exactly, gauges last-write-wins, histogram buckets
   added, and every worker's span forest re-parented under a synthetic
   ``worker:<i>`` root.
3. :meth:`MergedTelemetry.absorb` folds the merged telemetry into the
   parent's global registry and tracer, so ``repro profile --jobs 4``
   and traced manifests report the same counter totals a sequential
   run would.

Everything here is plain JSON (exact rationals as ``"p/q"`` strings),
so payloads survive pickling between processes and can be archived
next to manifests.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Tuple

from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.state import STATE
from repro.obs.trace import TRACER, Span, span_from_dict

PAYLOAD_FORMAT = "repro-telemetry"
PAYLOAD_VERSION = 1

__all__ = [
    "MergedTelemetry",
    "TelemetryPayload",
    "capture_payload",
    "merge_payloads",
    "run_with_telemetry",
    "worker_config",
]


class TelemetryPayload:
    """One process's observability state, serialized for shipping."""

    __slots__ = ("pid", "metrics", "spans")

    def __init__(
        self,
        pid: int,
        metrics: Dict[str, Any],
        spans: List[Dict[str, Any]],
    ) -> None:
        self.pid = pid
        #: Typed metrics state (``MetricsRegistry.export_state`` form).
        self.metrics = metrics
        #: Root span trees as ``Span.to_dict`` documents.
        self.spans = spans

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": PAYLOAD_FORMAT,
            "version": PAYLOAD_VERSION,
            "pid": self.pid,
            "metrics": self.metrics,
            "spans": self.spans,
        }

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "TelemetryPayload":
        if document.get("format") != PAYLOAD_FORMAT:
            raise ValueError(
                f"not a {PAYLOAD_FORMAT} document: "
                f"format={document.get('format')!r}"
            )
        return cls(
            pid=int(document.get("pid", 0)),
            metrics=dict(document.get("metrics", {})),
            spans=list(document.get("spans", [])),
        )


def capture_payload() -> TelemetryPayload:
    """Drain this process's obs state into a shippable payload.

    Collects (and thereby removes) the tracer's finished root spans and
    exports the registry's typed state; the registry itself keeps its
    values — callers that want a per-task attribution reset around the
    task (:func:`run_with_telemetry` does).
    """
    spans = [span.to_dict() for span in TRACER.collect()]
    return TelemetryPayload(
        pid=os.getpid(),
        metrics=REGISTRY.export_state(),
        spans=spans,
    )


class MergedTelemetry:
    """The parent-side view over a batch of worker payloads."""

    def __init__(
        self, registry: MetricsRegistry, worker_roots: List[Span]
    ) -> None:
        #: A private registry holding the exact merged metrics.
        self.registry = registry
        #: One synthetic ``worker:<i>`` root span per worker process.
        self.worker_roots = worker_roots

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe merged metrics (same shape as ``metrics_snapshot``)."""
        return self.registry.snapshot()

    def absorb(self) -> None:
        """Fold the merged telemetry into the process-wide registry and
        tracer, as if the workers' instruments had fired here.

        Worker span forests attach under the innermost open span (the
        profiling or manifest-step span that wraps the sweep) or become
        tracer roots when none is open.
        """
        REGISTRY.absorb_state(self.registry.export_state())
        for root in self.worker_roots:
            TRACER.adopt(root)


def merge_payloads(payloads: List[TelemetryPayload]) -> MergedTelemetry:
    """Merge worker payloads: exact counter sums, bucket-merged
    histograms, last-write-wins gauges, re-parented span forests.

    Payloads arrive in *task order* (what :func:`repro.parallel
    .parallel_map` preserves), so "last write" matches what the same
    sweep run sequentially would leave in each gauge.  Payloads from
    the same worker process collapse onto one ``worker:<i>`` root,
    indexed by first appearance.
    """
    registry = MetricsRegistry()
    worker_index: Dict[int, int] = {}
    worker_roots: List[Span] = []

    for payload in payloads:
        index = worker_index.setdefault(payload.pid, len(worker_index))
        registry.absorb_state(payload.metrics)

        if len(worker_roots) <= index:
            root = Span(f"worker:{index}", {"pid": payload.pid, "tasks": 0})
            worker_roots.append(root)
        root = worker_roots[index]
        root.attrs["tasks"] += 1
        for document in payload.spans:
            child = span_from_dict(document)
            root.children.append(child)
            root.duration += child.duration
            if child.mem_peak_bytes is not None:
                root.mem_peak_bytes = max(
                    root.mem_peak_bytes or 0, child.mem_peak_bytes
                )

    return MergedTelemetry(registry=registry, worker_roots=worker_roots)


# ----------------------------------------------------------------------
# Worker-side entry point (module-level: picklable)
# ----------------------------------------------------------------------
def worker_config() -> Tuple[bool, bool]:
    """The parent's obs switches, to be replayed inside a worker.

    Forkserver workers inherit none of the parent's memory, so runtime
    ``enable()`` calls would otherwise be lost — the parallel layer's
    pool initializer replays the switches in each worker.
    """
    return (STATE.enabled, STATE.memory)


def run_with_telemetry(
    fn: Callable[[Any], Any], task: Any
) -> Tuple[Any, Dict[str, Any]]:
    """Run one task under a fresh obs session; return ``(result,
    payload_dict)``.

    The session is reset before the task so the payload attributes
    exactly this task's activity, even when a pooled worker process
    serves many tasks back to back.
    """
    REGISTRY.reset()
    TRACER.reset()
    result = fn(task)
    return result, capture_payload().to_dict()
