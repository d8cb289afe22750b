"""The experiment runner: per-step timeouts, keep-going, a run manifest.

``repro run`` drives every experiment (E1–E16, churn) through
:class:`ResilientRunner`.  Every experiment is exact and seeded, so a
failing step fails the same way each time it runs: the runner neither
retries nor resumes.  What it keeps:

- :func:`wall_clock_limit` — a per-step ``SIGALRM`` budget; a step that
  blows it is recorded ``timeout`` and the sweep moves on.
- :class:`ResilientRunner` — runs named steps in order, times each,
  records its status and error, continues past failures (or stops at
  the first with ``keep_going=False``) and prints a summary table.
- :class:`RunManifest` — the JSON record of what ran: git SHA, params,
  creation time and each step's status, duration and error (plus its
  span tree and metrics under ``REPRO_OBS=1``).  It is written
  atomically once, when the sweep ends, and ``repro stats`` reads it.

The CLI front end lives in :mod:`repro.cli`::

    python -m repro run all --manifest sweep.json   # record what ran
    python -m repro run e5 --timeout 60             # bound one experiment
"""

from __future__ import annotations

import signal
import subprocess
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro import obs
from repro.errors import ExperimentError, StepTimeoutError
from repro.io.serialize import read_json, write_json_atomic

MANIFEST_FORMAT = "repro-run-manifest"
MANIFEST_VERSION = 1

#: Step outcomes recorded in the manifest.
OK = "ok"
FAILED = "failed"
TIMEOUT = "timeout"


def format_bytes(size: int) -> str:
    """Human-readable byte count (``12.3 KiB``-style, binary units)."""
    value = float(size)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            if unit == "B":
                return f"{int(value)} B"
            return f"{value:.1f} {unit}"
        value /= 1024
    return f"{value:.1f} GiB"  # pragma: no cover - unreachable


def _step_metrics(before: Dict[str, Any]) -> Dict[str, Any]:
    """The metric activity since ``before``, every registered counter included.

    A counter that did not move reads 0, so ``repro stats`` tells a fast
    path that never fired from one that is not instrumented.
    """
    kinds = obs.metrics().kinds()
    counters = sorted(
        name for name, kind in kinds.items() if kind == "counter"
    )
    metrics: Dict[str, Any] = dict.fromkeys(counters, 0)
    metrics.update(obs.snapshot_delta(before, obs.metrics_snapshot(), kinds))
    return metrics


def git_sha() -> str:
    """The repository HEAD, or ``"unknown"`` outside a checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


@contextmanager
def wall_clock_limit(seconds: Optional[float], step: str):
    """Raise :class:`~repro.errors.StepTimeoutError` after ``seconds``.

    Uses ``SIGALRM`` (POSIX, main thread only); elsewhere the limit is
    not enforceable and the context is a no-op — the runner still
    records durations, it just cannot interrupt a hung step.
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def on_alarm(signum, frame):
        raise StepTimeoutError(step, seconds)

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class StepRecord:
    """One step of a sweep, as the manifest records it."""

    name: str
    status: str
    duration: float = 0.0
    error: Optional[str] = None
    #: The exception class behind ``error`` (e.g. ``"CertificateError"``),
    #: so sweep post-mortems can filter certificate rejections from
    #: timeouts and crashes without parsing message text.
    error_type: Optional[str] = None
    #: Span tree of the step (only when ``repro.obs`` was enabled).
    trace: Optional[Dict[str, Any]] = None
    #: Metric activity attributed to the step (only when obs enabled).
    metrics: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        document = {
            "name": self.name,
            "status": self.status,
            "duration": round(self.duration, 6),
            "error": self.error,
        }
        # Optional fields appear only when set, so a clean run with
        # REPRO_OBS off records just the four keys above.
        if self.error_type is not None:
            document["error_type"] = self.error_type
        if self.trace is not None:
            document["trace"] = self.trace
        if self.metrics is not None:
            document["metrics"] = self.metrics
        return document

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StepRecord":
        return cls(
            name=str(data["name"]),
            status=str(data["status"]),
            duration=float(data.get("duration", 0.0)),
            error=data.get("error"),
            error_type=data.get("error_type"),
            trace=data.get("trace"),
            metrics=data.get("metrics"),
        )

    def peak_memory_bytes(self) -> Optional[int]:
        """Peak traced memory of the step, if a memory span recorded it."""
        if self.trace is None:
            return None
        return self.trace.get("mem_peak_bytes")

    def span_wall_seconds(self) -> Optional[float]:
        """Wall time of the step's root span, if one was recorded."""
        if self.trace is None:
            return None
        return self.trace.get("duration_s")


class RunManifest:
    """The structured record of one experiment sweep.

    Holds run provenance (git SHA, params, creation time) plus a
    :class:`StepRecord` per step, in execution order.  ``save`` writes
    atomically, so a reader never sees a half-written file.
    """

    def __init__(
        self,
        path: str,
        experiments: Optional[List[str]] = None,
        params: Optional[Dict[str, Any]] = None,
        sha: Optional[str] = None,
        created: Optional[float] = None,
    ) -> None:
        self.path = path
        self.experiments = list(experiments or [])
        self.params = dict(params or {})
        self.sha = sha if sha is not None else git_sha()
        self.created = created if created is not None else time.time()
        self.steps: Dict[str, StepRecord] = {}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "experiments": self.experiments,
            "params": self.params,
            "git_sha": self.sha,
            "created": self.created,
            "steps": [record.to_dict() for record in self.steps.values()],
        }

    def save(self) -> str:
        return write_json_atomic(self.path, self.to_dict())

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        document = read_json(path)
        if document.get("format") != MANIFEST_FORMAT:
            raise ExperimentError(
                f"{path} is not a {MANIFEST_FORMAT} document "
                f"(format={document.get('format')!r})"
            )
        if document.get("version") != MANIFEST_VERSION:
            raise ExperimentError(
                f"unsupported manifest version: {document.get('version')!r}"
            )
        manifest = cls(
            path=path,
            experiments=document.get("experiments", []),
            params=document.get("params", {}),
            sha=document.get("git_sha", "unknown"),
            created=document.get("created"),
        )
        for entry in document.get("steps", []):
            record = StepRecord.from_dict(entry)
            manifest.steps[record.name] = record
        return manifest


class ResilientRunner:
    """Run named steps in order, each under a wall-clock ``timeout``.

    With ``keep_going`` (the default) a failing or timed-out step is
    recorded and the sweep continues; otherwise the first failure stops
    it.  With a ``manifest``, the records are saved to it once, after
    the last step.
    """

    def __init__(
        self,
        manifest: Optional[RunManifest] = None,
        timeout: Optional[float] = None,
        keep_going: bool = True,
    ) -> None:
        self.manifest = manifest
        self.timeout = timeout
        self.keep_going = keep_going
        self.records: List[StepRecord] = []

    def run(self, steps: Mapping[str, Callable[[], Any]]) -> List[StepRecord]:
        """Run ``steps`` in order; returns their records."""
        self.records = []
        for name, fn in steps.items():
            record = StepRecord(name=name, status=OK)
            self.records.append(record)
            observing = obs.enabled()
            if observing:
                obs.metrics().reset_gauges()
                metrics_before = obs.metrics_snapshot()
            started = time.monotonic()
            try:
                with obs.trace_span(f"step:{name}") as span:
                    with wall_clock_limit(self.timeout, name):
                        fn()
            except Exception as error:  # deliberate: record any step failure
                record.status = (
                    TIMEOUT if isinstance(error, StepTimeoutError) else FAILED
                )
                record.error = str(error)
                record.error_type = type(error).__name__
            else:
                if observing:
                    record.trace = span.to_dict()
                    record.metrics = _step_metrics(metrics_before)
            finally:
                if observing:
                    # Drain the step's root span so the tracer does not
                    # accumulate one tree per step across a long sweep.
                    obs.tracer().collect()
            record.duration = time.monotonic() - started

            if record.status != OK and not self.keep_going:
                break
        if self.manifest is not None:
            self.manifest.steps = {r.name: r for r in self.records}
            self.manifest.save()
        return self.records

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary_rows(self) -> List[List[Any]]:
        rows: List[List[Any]] = []
        for record in self.records:
            span_wall = record.span_wall_seconds()
            peak = record.peak_memory_bytes()
            rows.append(
                [
                    record.name,
                    record.status.upper(),
                    f"{record.duration:.2f}s",
                    "-" if span_wall is None else f"{span_wall:.3f}s",
                    "-" if peak is None else format_bytes(peak),
                    record.error or "",
                ]
            )
        return rows

    def summary_table(self) -> str:
        from repro.analysis import format_table

        return format_table(
            ["step", "status", "duration", "wall (span)", "peak mem",
             "error"],
            self.summary_rows(),
            title="run summary",
        )

    def failed_steps(self) -> List[StepRecord]:
        return [r for r in self.records if r.status != OK]

    def exit_code(self) -> int:
        return 1 if self.failed_steps() else 0
