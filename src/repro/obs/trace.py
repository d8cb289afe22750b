"""Span-based tracing: nested wall-clock (and peak-memory) accounting.

A *span* is a named interval of work with attributes, a wall-clock
duration measured by :func:`time.perf_counter`, optional peak-memory
accounting via :mod:`tracemalloc`, and children — the spans opened
while it was the innermost open span.  The process-wide
:class:`Tracer` keeps a per-thread stack of open spans and accumulates
finished *root* spans until they are collected.

Usage::

    from repro import obs

    with obs.trace_span("maxmin.water_fill", flows=42) as span:
        ...
        span.set(rounds=3)

When observability is disabled (the default), :func:`trace_span`
returns a shared no-op context manager: no allocation, no clock reads,
no stack mutation — instrumented code costs one flag check.

Export is JSON only: :meth:`Span.to_dict` renders the tree with
durations quantized to microseconds, and ``times=False`` drops wall
times and memory entirely so golden tests can compare span *shapes*
deterministically.  JSONL files (one root-span tree per line) are
written and read through :mod:`repro.io.serialize`.
"""

from __future__ import annotations

import threading
import time
import tracemalloc
from functools import wraps
from typing import Any, Callable, Dict, List, Optional

from repro.obs.state import STATE

#: Wall-time fields are quantized to this many decimal digits of a
#: second (microseconds) on export, so JSON round-trips are stable.
TIME_DIGITS = 6


class Span:
    """One named, timed interval with attributes and child spans."""

    __slots__ = (
        "name",
        "attrs",
        "children",
        "duration",
        "mem_peak_bytes",
        "_t0",
        "_mem0",
    )

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.children: List["Span"] = []
        self.duration: float = 0.0
        self.mem_peak_bytes: Optional[int] = None
        self._t0: float = 0.0
        self._mem0: int = 0

    def set(self, **attrs: Any) -> None:
        """Attach or overwrite attributes on the open span."""
        self.attrs.update(attrs)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dict(self, times: bool = True) -> Dict[str, Any]:
        """The span tree as plain JSON-safe dicts.

        ``times=False`` drops wall times and memory — the deterministic
        shape golden tests compare.
        """
        out: Dict[str, Any] = {"name": self.name}
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if times:
            out["duration_s"] = round(self.duration, TIME_DIGITS)
            if self.mem_peak_bytes is not None:
                out["mem_peak_bytes"] = self.mem_peak_bytes
        if self.children:
            out["children"] = [c.to_dict(times=times) for c in self.children]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration:.6f}s, "
            f"{len(self.children)} children)"
        )


class _NoOpSpan:
    """The shared do-nothing span handed out while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoOpSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        return None


_NOOP = _NoOpSpan()


class _SpanContext:
    """Context manager that opens a :class:`Span` on the tracer stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, *exc_info: Any) -> None:
        self._tracer._pop(self._span)
        return None


class Tracer:
    """Per-thread span stacks plus the finished-root-span accumulator."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._roots: List[Span] = []
        self._lock = threading.Lock()
        #: Did a span start tracemalloc (so :meth:`stop_memory` may stop it)?
        self._started_tracemalloc = False

    # ------------------------------------------------------------------
    # Stack management
    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def stop_memory(self) -> None:
        """Stop tracemalloc if a span started it; tracing someone else
        started is left running."""
        if self._started_tracemalloc:
            self._started_tracemalloc = False
            tracemalloc.stop()

    def _push(self, span: Span) -> None:
        stack = self._stack()
        if STATE.memory:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracemalloc = True
            if not stack:
                tracemalloc.reset_peak()
            span._mem0 = tracemalloc.get_traced_memory()[0]
        stack.append(span)
        span._t0 = time.perf_counter()

    def _pop(self, span: Span) -> None:
        span.duration = time.perf_counter() - span._t0
        if STATE.memory and tracemalloc.is_tracing():
            peak = tracemalloc.get_traced_memory()[1]
            span.mem_peak_bytes = max(0, peak - span._mem0)
        stack = self._stack()
        # Tolerate a torn stack (an exception skipped inner __exit__s):
        # unwind to this span rather than corrupting the tree.
        while stack:
            top = stack.pop()
            if top is span:
                break
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self._roots.append(span)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> _SpanContext:
        return _SpanContext(self, Span(name, attrs))

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def collect(self) -> List[Span]:
        """Remove and return all finished root spans."""
        with self._lock:
            roots, self._roots = self._roots, []
        return roots

    def reset(self) -> None:
        self.collect()
        self._local = threading.local()


#: The process-wide tracer every instrumented module records into.
TRACER = Tracer()


def trace_span(name: str, **attrs: Any):
    """Open a span named ``name`` (no-op when observability is off).

    Returns a context manager yielding the :class:`Span` (or a no-op
    stand-in that still accepts ``.set(...)``).
    """
    if not STATE.enabled:
        return _NOOP
    return TRACER.span(name, **attrs)


def traced(name: Optional[str] = None) -> Callable:
    """Decorator form of :func:`trace_span`.

    >>> @traced("solver.solve")
    ... def solve():
    ...     return 42
    >>> solve()
    42
    """

    def decorate(fn: Callable) -> Callable:
        span_name = name if name is not None else fn.__qualname__

        @wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            if not STATE.enabled:
                return fn(*args, **kwargs)
            with TRACER.span(span_name):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def write_trace_jsonl(path: str, spans: List[Span]) -> str:
    """Write root spans as JSONL (one span tree per line); returns path."""
    from repro.io.serialize import write_jsonl_atomic

    return write_jsonl_atomic(path, [span.to_dict() for span in spans])


def span_from_dict(document: Dict[str, Any]) -> Span:
    """Rebuild a :class:`Span` tree from its :meth:`Span.to_dict` form."""
    span = Span(str(document["name"]), dict(document.get("attrs", {})))
    span.duration = float(document.get("duration_s", 0.0))
    if "mem_peak_bytes" in document:
        span.mem_peak_bytes = int(document["mem_peak_bytes"])
    for child in document.get("children", []):
        span.children.append(span_from_dict(child))
    return span
