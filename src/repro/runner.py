"""The resilient experiment runner: timeouts, retries, checkpoint/resume.

Experiment sweeps fail the way fabrics do — mid-flight.  A hung solver
should not wedge a batch, one crashing experiment should not abort the
other fifteen, and a SIGKILLed sweep should resume where it stopped
rather than recompute hours of exact arithmetic.  This module provides
that machinery for every experiment (E1–E16 and the ablations):

- :func:`run_step` — one callable under a wall-clock ``timeout`` and a
  deterministic retry loop with exponential backoff (all experiments
  are seeded, so a retry after a transient failure — OOM kill, flaky
  subprocess, interrupted syscall — recomputes the *same* answer).
- :class:`RunManifest` — the structured record of a sweep: git SHA,
  seed, params, and per-step status/attempts/duration/error, JSON-
  checkpointed atomically after every step via :mod:`repro.io`.
- :class:`ResilientRunner` — drives named steps against a manifest,
  capturing each step's stdout into the manifest so a resumed sweep
  replays finished steps byte-for-byte instead of recomputing them.

The CLI front end lives in :mod:`repro.cli`::

    python -m repro run all --manifest sweep.json        # checkpointed
    python -m repro run all --resume sweep.json          # finish it
    python -m repro run e5 --timeout 60 --retries 2      # one experiment
"""

from __future__ import annotations

import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass
from io import StringIO
from typing import Any, Callable, Dict, List, Mapping, Optional, TextIO

from repro import obs
from repro.errors import (
    CertificateError,
    ExperimentError,
    StepFailedError,
    StepTimeoutError,
)
from repro.io.serialize import read_json, write_json_atomic

MANIFEST_FORMAT = "repro-run-manifest"
MANIFEST_VERSION = 1

#: Step lifecycle states recorded in the manifest.
PENDING = "pending"
RUNNING = "running"
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


def run_step(
    name: str,
    fn: Callable[[], Any],
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.5,
    sleep: Callable[[float], None] = time.sleep,
) -> "StepOutcome":
    """Run ``fn`` under a wall-clock budget with deterministic retries.

    A timeout is terminal (the step is deterministic — running it again
    under the same budget would time out again), and so is a
    :class:`~repro.errors.CertificateError`: a certificate rejects the
    step's *answer*, not its execution, and the same seeded computation
    would produce the same rejected answer on every retry.  Certificate
    failures are wrapped immediately in
    :class:`~repro.errors.StepFailedError` so a ``keep_going`` sweep
    records them and moves on.  Any other exception is retried up to
    ``retries`` times with exponential backoff (``backoff * 2**attempt``
    seconds).  Exhausted retries raise
    :class:`~repro.errors.StepFailedError` wrapping the last cause.
    """
    if retries < 0:
        raise ExperimentError(f"retries must be >= 0, got {retries}")
    started = time.monotonic()
    last_error: Optional[BaseException] = None
    for attempt in range(1, retries + 2):
        try:
            with wall_clock_limit(timeout, name):
                value = fn()
            return StepOutcome(
                name=name,
                value=value,
                attempts=attempt,
                duration=time.monotonic() - started,
            )
        except StepTimeoutError:
            raise
        except CertificateError as error:
            raise StepFailedError(name, attempt, error) from error
        except Exception as error:  # deliberate: retry any step failure
            last_error = error
            if attempt <= retries:
                sleep(backoff * (2 ** (attempt - 1)))
    raise StepFailedError(name, retries + 1, last_error)


@dataclass
class StepOutcome:
    """What :func:`run_step` hands back for a successful step."""

    name: str
    value: Any
    attempts: int
    duration: float


@dataclass
class StepRecord:
    """One step's lifecycle inside a manifest."""

    name: str
    status: str = PENDING
    attempts: int = 0
    duration: float = 0.0
    error: Optional[str] = None
    #: The exception class behind ``error`` (e.g. ``"CertificateError"``),
    #: so sweep post-mortems can filter certificate rejections from
    #: timeouts and crashes without parsing message text.
    error_type: Optional[str] = None
    #: Captured stdout of the completed step (replayed on resume).
    output: Optional[str] = None
    #: Span tree of the step (only when ``repro.obs`` was enabled).
    trace: Optional[Dict[str, Any]] = None
    #: Metric activity attributed to the step (only when obs enabled).
    metrics: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        document = {
            "name": self.name,
            "status": self.status,
            "attempts": self.attempts,
            "duration": round(self.duration, 6),
            "error": self.error,
            "output": self.output,
        }
        # Optional fields appear only when set, so manifests written by
        # clean runs (or with REPRO_OBS off) stay byte-identical to
        # pre-feature ones.
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
            status=str(data.get("status", PENDING)),
            attempts=int(data.get("attempts", 0)),
            duration=float(data.get("duration", 0.0)),
            error=data.get("error"),
            error_type=data.get("error_type"),
            output=data.get("output"),
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
    """The structured, checkpointable record of one experiment sweep.

    Holds run provenance (git SHA, seed, params, creation time) plus a
    :class:`StepRecord` per step, in execution order.  ``save`` writes
    atomically, so the file on disk is always a valid resume point.
    """

    def __init__(
        self,
        path: str,
        experiments: Optional[List[str]] = None,
        params: Optional[Dict[str, Any]] = None,
        seed: Optional[int] = None,
        sha: Optional[str] = None,
        created: Optional[float] = None,
    ) -> None:
        self.path = path
        self.experiments = list(experiments or [])
        self.params = dict(params or {})
        self.seed = seed
        self.sha = sha if sha is not None else git_sha()
        self.created = created if created is not None else time.time()
        self.steps: Dict[str, StepRecord] = {}

    def step(self, name: str) -> StepRecord:
        """The record for ``name``, created pending on first access."""
        if name not in self.steps:
            self.steps[name] = StepRecord(name=name)
        return self.steps[name]

    def completed(self, name: str) -> bool:
        record = self.steps.get(name)
        return record is not None and record.status == OK

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "experiments": self.experiments,
            "params": self.params,
            "seed": self.seed,
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
            seed=document.get("seed"),
            sha=document.get("git_sha", "unknown"),
            created=document.get("created"),
        )
        for entry in document.get("steps", []):
            record = StepRecord.from_dict(entry)
            # A step caught mid-run by a crash has no trustworthy output;
            # resume recomputes it.
            if record.status == RUNNING:
                record.status = PENDING
            manifest.steps[record.name] = record
        return manifest


class ResilientRunner:
    """Drive named steps against a manifest with replay-on-resume.

    Each step's stdout is captured, echoed to ``stream``, and stored in
    the manifest; the manifest is checkpointed after every step.  On a
    resumed run, steps already ``ok`` replay their stored output
    byte-for-byte — same text, same exact rationals — without
    recomputing.
    """

    def __init__(
        self,
        manifest: Optional[RunManifest] = None,
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.5,
        keep_going: bool = True,
        stream: Optional[TextIO] = None,
    ) -> None:
        self.manifest = manifest
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.keep_going = keep_going
        self.stream = stream if stream is not None else sys.stdout
        self.records: List[StepRecord] = []

    def _checkpoint(self) -> None:
        if self.manifest is not None:
            self.manifest.save()

    def run(self, steps: Mapping[str, Callable[[], Any]]) -> List[StepRecord]:
        """Run ``steps`` in order; returns their records.

        With ``keep_going`` (the default) a failing step is recorded and
        the sweep continues; otherwise the first failure stops the run.
        Timeouts obey the same switch.
        """
        self.records = []
        for name, fn in steps.items():
            record = (
                self.manifest.step(name)
                if self.manifest is not None
                else StepRecord(name=name)
            )
            self.records.append(record)

            if self.manifest is not None and self.manifest.completed(name):
                # Resume: replay the stored output instead of recomputing.
                self.stream.write(record.output or "")
                continue

            record.status = RUNNING
            record.error = None
            record.error_type = None
            self._checkpoint()

            buffer = StringIO()
            observing = obs.enabled()
            metrics_before = None
            if observing:
                obs.metrics().reset_gauges()
                metrics_before = obs.metrics_snapshot()
            step_span = None
            try:
                with redirect_stdout(buffer):
                    with obs.trace_span(f"step:{name}") as span:
                        if observing:
                            step_span = span
                        outcome = run_step(
                            name,
                            fn,
                            timeout=self.timeout,
                            retries=self.retries,
                            backoff=self.backoff,
                        )
            except StepTimeoutError as error:
                record.status = TIMEOUT
                record.error = str(error)
                record.error_type = type(error).__name__
                record.attempts += 1
            except StepFailedError as error:
                record.status = FAILED
                record.error = str(error.cause)
                record.error_type = (
                    type(error.cause).__name__
                    if error.cause is not None
                    else type(error).__name__
                )
                record.attempts = error.attempts
            except Exception as error:  # pragma: no cover - defensive
                record.status = FAILED
                record.error = str(error)
                record.error_type = type(error).__name__
                record.attempts += 1
            else:
                record.status = OK
                record.attempts = outcome.attempts
                record.duration = outcome.duration
                record.output = buffer.getvalue()
                if step_span is not None:
                    record.trace = step_span.to_dict()
                    record.metrics = _step_metrics(metrics_before)
            finally:
                if observing:
                    # Drain the step's root span so the tracer does not
                    # accumulate one tree per step across a long sweep.
                    obs.tracer().collect()

            if record.status == OK:
                self.stream.write(record.output or "")
            else:
                self.stream.write(buffer.getvalue())
            self._checkpoint()

            if record.status != OK and not self.keep_going:
                break
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
                    record.attempts,
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
            ["step", "status", "attempts", "duration", "wall (span)",
             "peak mem", "error"],
            self.summary_rows(),
            title="run summary",
        )

    def failed_steps(self) -> List[StepRecord]:
        return [r for r in self.records if r.status != OK]

    def exit_code(self) -> int:
        return 1 if self.failed_steps() else 0
