#!/usr/bin/env python3
"""Telemetry merge gate: a ``jobs=4`` sweep's merged counters equal ``jobs=1``.

    REPRO_OBS=1 PYTHONPATH=src python .github/scripts/telemetry_gate.py

Runs the E4 starvation sweep on sizes 3-6 sequentially and across four
worker processes with observability on, and fails (AssertionError) when
the rows differ, when the counters merged from the workers differ from
the sequential counters, or when no ``worker:<i>`` trace root arrives.

This is a file with a ``__main__`` guard, not a stdin script, because
:func:`repro.parallel.parallel_map` starts its workers from a
forkserver, and each worker re-imports the caller's main module from
its file.
"""

from repro import obs
from repro.experiments.r2_starvation import starvation_sweep


def main() -> None:
    obs.enable()
    seq_rows = starvation_sweep([3, 4, 5, 6], jobs=1)
    seq_counters = obs.metrics().snapshot()

    obs.metrics().reset()
    obs.tracer().reset()
    par_rows = starvation_sweep([3, 4, 5, 6], jobs=4)
    par_counters = obs.metrics().snapshot()

    assert par_rows == seq_rows, "parallel sweep results diverged"
    assert par_counters == seq_counters, (
        f"merged worker counters diverged from sequential:\n"
        f"  jobs=1: {seq_counters}\n  jobs=4: {par_counters}"
    )
    roots = [s.name for s in obs.tracer().collect()
             if s.name.startswith("worker:")]
    assert roots, "no worker telemetry roots were merged"
    print(f"telemetry merge ok: {len(seq_counters)} metrics identical, "
          f"worker roots {sorted(set(roots))}")


if __name__ == "__main__":
    main()
