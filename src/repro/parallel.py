"""Process-parallel execution of sweep experiments.

The k/n-sweep experiments are embarrassingly parallel: each sweep point
is an independent, deterministic computation.  :func:`parallel_map` runs
a picklable point function over the points with a stdlib
:class:`~concurrent.futures.ProcessPoolExecutor` and returns results in
input order, so a parallel sweep's result list is *identical* to the
sequential one (tested in ``tests/test_parallel.py``).

Design rules the experiment refactors follow:

- Point functions are **module-level** (or :func:`functools.partial` of
  module-level functions) so they pickle; each takes one task argument
  — a primitive or a tuple of primitives — and rebuilds whatever
  networks/workloads it needs from it.  Rebuilding is deterministic, so
  results do not depend on which process computed them.
- ``jobs=1`` (every caller's default) short-circuits to a plain
  sequential loop in the calling process: no executor, no pickling, no
  behavior change — sequential runs stay byte-identical, manifests and
  checkpoint/resume included.
- Randomized tasks carry their seed *in the task description*
  (:func:`derive_seed` derives stable per-task seeds from a base seed),
  never in shared mutable state.
- Workers are started by a ``forkserver``, never forked from the
  calling process (which may already run threads).  They therefore
  inherit no in-memory state: the pool initializer replays the
  caller's environment, validation level (:mod:`repro.validate`) and
  observability switches in every worker before any task runs.
- Tasks are dispatched in chunks, about four per worker, so thousands
  of sub-millisecond tasks do not pay one pickle round-trip each.

When observability is on (``REPRO_OBS=1``), worker instrumentation is
*not* lost: each worker runs its task under a fresh obs session and
ships a :class:`repro.obs.pipeline.TelemetryPayload` (metrics state,
span forest, peak memory) back with its result, and the parent merges
and absorbs all payloads — so counter totals from a ``--jobs N`` run
match the sequential run exactly, and worker spans appear under
synthetic ``worker:<i>`` roots in traces.  If a task raises, telemetry
from the tasks that *did* complete is still absorbed before the
exception propagates, and the number of lost payloads is counted on
``obs.workers_failed``.  With observability off the shipping layer is
skipped entirely and workers return bare results, byte-identical to
before.
"""

from __future__ import annotations

import functools
import hashlib
import multiprocessing
import os
import re
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, List, Optional, TypeVar

_Task = TypeVar("_Task")
_Result = TypeVar("_Result")

#: ``repr`` fragment of objects without a stable value representation
#: (``<object object at 0x7f...>``) — such components make seeds
#: irreproducible across runs, so :func:`derive_seed` rejects them.
_ADDRESS_RE = re.compile(r" at 0x[0-9a-fA-F]+")

__all__ = [
    "derive_seed",
    "parallel_map",
    "resolve_jobs",
]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` mean "all cores".

    Negative values are rejected *before* the all-cores short-circuit so
    a bad value from a config file fails loudly with the real contract
    in the message, instead of silently resolving.
    """
    if jobs is not None and jobs < 0:
        raise ValueError(
            "jobs must be a non-negative integer "
            f"(0 or None = all cores), got {jobs}"
        )
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    return jobs


def _default_chunksize(n_tasks: int, workers: int) -> int:
    """About four chunks per worker: amortizes per-task pickle dispatch
    while keeping enough chunks to absorb uneven task durations."""
    return max(1, n_tasks // (workers * 4))


def _worker_settings():
    """The caller's settings a worker must replay: environment,
    validation override (:func:`repro.validate.set_validation_level`)
    and observability switches."""
    from repro import validate
    from repro.obs import pipeline

    return (
        dict(os.environ),
        validate.validation_override(),
        pipeline.worker_config(),
    )


def _init_worker(environ, validation, obs_config) -> None:
    """Pool initializer: replay :func:`_worker_settings` in a worker."""
    from repro import validate
    from repro.obs.state import STATE

    os.environ.clear()
    os.environ.update(environ)
    validate.set_validation_level(validation)
    STATE.enabled, STATE.memory = obs_config


def parallel_map(
    fn: Callable[[_Task], _Result],
    tasks: Iterable[_Task],
    jobs: int = 1,
) -> List[_Result]:
    """``[fn(t) for t in tasks]``, optionally across processes.

    With ``jobs <= 1`` (or fewer than two tasks) this is exactly the
    sequential list comprehension, run in-process.  Otherwise ``fn`` must
    be picklable (module-level, or a ``functools.partial`` of one) and
    the tasks are distributed over ``min(jobs, len(tasks))`` worker
    processes, about four chunks of tasks per worker.  Results are
    returned in task order either way; a worker exception propagates to
    the caller.  Workers import the caller's main module from its file,
    so a script that calls this with ``jobs > 1`` needs the usual
    ``if __name__ == "__main__":`` guard, and a script read from stdin
    (``python - <<EOF``) cannot use ``jobs > 1`` at all: its workers
    fail to start and the pool raises ``BrokenProcessPool``.  Modules
    run with ``python -m`` and ``python -c`` code are not affected.

    When observability is enabled, multi-process runs wrap each task in
    :func:`repro.obs.pipeline.run_with_telemetry`: workers ship their
    instrumentation home with each result, and the merged telemetry is
    absorbed into this process's registry and tracer before returning.
    If a task raises, payloads from tasks that completed are still
    absorbed (the loss is counted on ``obs.workers_failed``) before the
    first exception, in task order, is re-raised.
    """
    task_list = list(tasks)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(task_list) <= 1:
        return [fn(task) for task in task_list]

    from repro.obs.state import STATE

    workers = min(jobs, len(task_list))
    context = multiprocessing.get_context("forkserver")
    # Workers fork from a server that has already imported the package
    # (and NumPy), so a pool does not pay those imports per worker.
    context.set_forkserver_preload(["repro"])
    pool_kwargs = {
        "max_workers": workers,
        "mp_context": context,
        "initializer": _init_worker,
        "initargs": _worker_settings(),
    }

    if not STATE.enabled:
        chunksize = _default_chunksize(len(task_list), workers)
        with ProcessPoolExecutor(**pool_kwargs) as pool:
            return list(pool.map(fn, task_list, chunksize=chunksize))

    from repro.obs import counter, pipeline

    call = functools.partial(pipeline.run_with_telemetry, fn)
    # Per-future collection (not pool.map): an exception in one task
    # must not discard the telemetry the other workers already shipped.
    results: List[_Result] = []
    payloads = []
    first_error: Optional[BaseException] = None
    failed = 0
    with ProcessPoolExecutor(**pool_kwargs) as pool:
        futures = [pool.submit(call, task) for task in task_list]
        for future in futures:
            try:
                result, document = future.result()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                failed += 1
                if first_error is None:
                    first_error = exc
                continue
            results.append(result)
            payloads.append(pipeline.TelemetryPayload.from_dict(document))
    if payloads:
        pipeline.merge_payloads(payloads).absorb()
    if first_error is not None:
        counter("obs.workers_failed").inc(failed)
        raise first_error
    return results


def derive_seed(base: int, *components) -> int:
    """A stable 64-bit seed for the task identified by ``components``.

    Hashes ``(base, components)`` with SHA-256, so per-task seeds are
    reproducible across runs, machines, and worker assignments, and
    changing the base seed or any component decorrelates the stream.
    Components whose ``repr`` embeds a memory address (objects without
    a value ``repr``) are rejected — such seeds would differ on every
    run, silently breaking reproducibility.

    >>> derive_seed(0, "uniform", 3) == derive_seed(0, "uniform", 3)
    True
    >>> derive_seed(0, "uniform", 3) != derive_seed(1, "uniform", 3)
    True
    """
    payload = repr((base, components))
    if _ADDRESS_RE.search(payload):
        raise ValueError(
            "derive_seed components must have value-based reprs; "
            f"got a memory-address repr in {payload!r}"
        )
    return int.from_bytes(
        hashlib.sha256(payload.encode("utf-8")).digest()[:8], "big"
    )
