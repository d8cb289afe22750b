#!/usr/bin/env python3
"""End-to-end benchmark of the ``repro`` package, run from a checkout.

    python3 perfbench/run.py --workload churn --seed 1 --seconds 30 --trace 0

Workloads: ``churn``, ``e4_quotient``, ``e6_routers``
(see ``perfbench/README.md``).  The run imports ``repro`` from the
checkout's ``src/``, builds the workload's inputs from ``--seed``, then
repeats the workload's entry-point call for ``--seconds`` seconds and
checks every result outside the timed region.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
several fresh-process set-ups run after the timed calls), ``wall_s`` and
``work_per_s`` (medians over every timed call), all in reference seconds
(``perfbench/speed.py``), and ``peak_rss_mb``.  ``--trace 1``
alternates untraced calls with calls whose layers are wrapped
(``perfbench/layers.py``) and reports per-layer call counts and self
times, plus the tracing overhead; its spans are written to
``perfbench/out/spans-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without a
program under ``src/repro`` the run exits with status 1 and prints no
result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: Fresh-process set-ups per run; ``setup_s`` is the fastest of them.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


def load_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit with status 1."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {src / 'repro'}")
    # Measure the default configuration whatever the caller's environment.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def quantile(values, q: int) -> float:
    """The ``q``-th percentile of ``values`` (0 when there are none)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload, instances, seconds: float, recorder=None):
    """Call the workload round-robin over ``instances`` for ``seconds``.

    Every instance is called at least once.  With a ``recorder``, each
    untraced call is followed by a traced call of the same instance,
    recorded there.  Returns the per-instance walls, work, attempted and
    failed counts, errors and first fingerprints.
    """
    #: First fingerprint per instance (and per instance's layer counts).
    first = {}
    runs = {
        "walls": [[] for _ in instances],
        "intervals": [[] for _ in instances],
        "traced_walls": [[] for _ in instances],
        "work": [None] * len(instances),
        "attempted": 0,
        "failed": 0,
        "errors": [],
        "recorder": recorder,
        "fingerprints": first,
        "extra": [],
    }
    modes = (False, True) if recorder is not None else (False,)
    start = time.perf_counter()
    index = 0
    while index < len(instances) or time.perf_counter() - start < seconds:
        k = index % len(instances)
        instance = instances[k]
        index += 1
        for tracing in modes:
            runs["attempted"] += 1
            gc.collect()
            try:
                if tracing:
                    before = recorder.snapshot()
                    remove = layers.install(recorder)
                    try:
                        with recorder.root(f"{workload.name}/{k}/{index}"):
                            result = workload.call(instance)
                    finally:
                        remove()
                    wall = recorder.last_root_s
                    after = recorder.snapshot()
                    counts = {key: after[key] - before.get(key, 0) for key in after}
                else:
                    t0 = time.perf_counter()
                    result = workload.call(instance)
                    t1 = time.perf_counter()
                    wall = t1 - t0
                problems = list(workload.check(instance, result))
                work = workload.work(instance, result)
                fingerprint = workload.fingerprint(instance, result)
                fingerprint = dict(fingerprint, work=work)
                if first.setdefault(k, fingerprint) != fingerprint:
                    problems.append(f"fingerprint {fingerprint} != {first[k]}")
                if tracing:
                    if first.setdefault((k, "layers"), counts) != counts:
                        problems.append("layer call counts differ between calls")
                    if hasattr(workload, "layer_metrics"):
                        runs["extra"].append(workload.layer_metrics(instance, result))
            except Exception as exc:  # a failing call is counted, not fatal
                problems = [f"{type(exc).__name__}: {exc}"]
                wall = None
            if problems:
                runs["failed"] += 1
                runs["errors"].extend(problems)
            if wall is not None:
                runs["traced_walls" if tracing else "walls"][k].append(wall)
                runs["work"][k] = work
                if not tracing:
                    runs["intervals"][k].append((t0, t1))
    return runs


def setup_probe(workload, seed: int) -> float:
    """Reference seconds from spawning a fresh process to its inputs
    being ready, scaled by the speed the probes in that process saw."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    # perf_counter is CLOCK_MONOTONIC: comparable across processes.
    report = json.loads(done.stdout.strip().splitlines()[-1])
    if report["probe_s"] is None:
        return report["ready"] - t0
    return speed.to_reference(report["ready"] - t0, report["spent"], report["probe_s"])


def reference_walls(runs, meter):
    """Per instance, each timed call in reference seconds (``speed.py``);
    the plain wall times when there is no meter."""
    if meter is None:
        return runs["walls"]
    return [[meter.reference_s(t0, t1) for t0, t1 in calls] for calls in runs["intervals"]]


def end_to_end_metrics(runs, probes, meter=None):
    # Medians over every timed call of the run and over the set-ups, in
    # reference seconds: on a shared machine the vCPU's speed swings with
    # the host's load, for spells that can cover whole runs, and the
    # probes that run interleaved with the calls measure that speed (see
    # "Steadiness" in README.md).
    walls = reference_walls(runs, meter)
    rates = [
        work / wall
        for instance_walls, work in zip(walls, runs["work"])
        for wall in instance_walls
    ]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(probes), "s"),
        "wall_s": (statistics.median(w for instance_walls in walls for w in instance_walls), "s"),
        "work_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (peak_kib * 1024 / 1e6, "MB"),
    }


def per_layer_metrics(workload, runs, setup_recorder):
    recorder = runs["recorder"]
    traced_calls = sum(len(w) for w in runs["traced_walls"]) or 1
    metrics = {}

    def per_run(table, name):
        # One set-up plus one average traced call.
        return table(setup_recorder).get(name, 0) + table(recorder).get(name, 0) / traced_calls

    for name in layers.layer_names() + [layers.OTHER]:
        if name != layers.OTHER:
            metrics[f"{name}.calls"] = (per_run(lambda r: r.calls, name), "count")
        metrics[f"{name}.self_s"] = (per_run(lambda r: r.self_s, name), "s")
    for name, _, _ in layers.COUNTERS:
        metrics[name] = (per_run(lambda r: r.counters, name), "count")
    rates = [d * 1e3 for d in recorder.durations("sim.policies.rates")]
    metrics["sim.policies.rates.p50_ms"] = (quantile(rates, 50), "ms")
    metrics["sim.policies.rates.p99_ms"] = (quantile(rates, 99), "ms")
    consults = recorder.calls.get("sim.policies.rates", 0)
    events = 0
    if workload.unit == "flow events":
        events = sum(
            work * len(walls)
            for work, walls in zip(runs["work"], runs["traced_walls"])
            if work is not None
        )
    metrics["sim.events_per_consult"] = (events / consults if consults else 0.0, "ratio")
    patched = [extra["core.streaming.patched_frac"] for extra in runs["extra"]
               if "core.streaming.patched_frac" in extra]
    metrics["core.streaming.patched_frac"] = (statistics.fmean(patched) if patched else 0.0, "ratio")
    untraced = sum(statistics.median(w) for w in runs["walls"] if w)
    traced = sum(statistics.median(w) for w in runs["traced_walls"] if w)
    metrics["trace.overhead_frac"] = (traced / untraced - 1 if untraced else 0.0, "ratio")
    return metrics


def self_time_gap(runs, setup_recorder) -> float:
    """|sum of self times − traced wall| / traced wall over the traced run."""
    recorder = runs["recorder"]
    wall = recorder.root_wall_s + setup_recorder.root_wall_s
    accounted = sum(recorder.self_s.values()) + sum(setup_recorder.self_s.values())
    return abs(accounted - wall) / wall if wall else 0.0


def matches_stored_fingerprints(workload, seed, runs) -> bool:
    """Compare with (or record) the fingerprints of earlier runs of this seed."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"fingerprint-{workload}-{seed}.json"
    current = {str(k): fp for k, fp in runs["fingerprints"].items() if isinstance(k, int)}
    if path.exists():
        return json.loads(path.read_text()) == json.loads(json.dumps(current))
    if runs["failed"] == 0:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(current, sort_keys=True))
        os.replace(tmp, path)
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    meter = None if args.trace else speed.SpeedMeter()
    if meter is None:
        return bench(parser, args, None)
    # Stop the meter on every way out: a SIGPROF after the interpreter
    # has dropped its handler would kill the process.
    meter.start()
    try:
        return bench(parser, args, meter)
    finally:
        meter.stop()


def bench(parser, args, meter) -> int:
    """One run of ``args.workload``; ``meter`` is running unless tracing."""
    load_program()
    import cases

    if args.workload not in cases.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(cases.WORKLOADS)}")
    workload = cases.WORKLOADS[args.workload]

    setup_recorder = layers.Recorder()
    if args.trace:
        remove = layers.install(setup_recorder)
        try:
            with setup_recorder.root(f"{workload.name}/setup"):
                instances = workload.setup(args.seed)
        finally:
            remove()
    else:
        instances = workload.setup(args.seed)
    gc.collect()
    if args.setup_probe:
        ready = time.perf_counter()
        meter.stop()
        spent, probe_s = meter.window(0.0, ready)
        print(json.dumps({"ready": ready, "spent": spent, "probe_s": probe_s}))
        return 0

    recorder = layers.Recorder(first_id=setup_recorder.next_id) if args.trace else None
    runs = measure(workload, instances, args.seconds, recorder)
    if meter:
        meter.stop()
    if not any(runs["walls"]):
        print(f"perfbench: every call failed: {runs['errors'][:3]}", file=sys.stderr)
        return 1
    if not matches_stored_fingerprints(workload.name, args.seed, runs):
        runs["errors"].append("fingerprint differs from an earlier run of this seed")
        runs["failed"] = runs["attempted"]

    if args.trace:
        metrics = per_layer_metrics(workload, runs, setup_recorder)
        OUT.mkdir(exist_ok=True)
        layers.write_spans(OUT / f"spans-{workload.name}.jsonl", setup_recorder, recorder)
        print(f"self times account for the traced wall to {self_time_gap(runs, setup_recorder):.2e}")
    else:
        probes = [setup_probe(workload.name, args.seed) for _ in range(SETUP_PROBES)]
        metrics = end_to_end_metrics(runs, probes, meter)
        _, probe_s = meter.window(0.0, float("inf"))

        def summary(values):
            values = sorted(values)
            quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            return f"{values[0]:.4g} fastest, quartiles " + " / ".join(f"{q:.4g}" for q in quartiles)

        walls = [wall for instance_walls in runs["walls"] for wall in instance_walls]
        reference = [wall for calls in reference_walls(runs, meter) for wall in calls]
        print(f"{workload.name}: {len(walls)} timed calls over {len(instances)} instance(s), "
              f"{len(probes)} set-ups; work_per_s counts {workload.unit} per reference second")
        print(f"{workload.name}: probe loop {probe_s / speed.PROBE_REF_S:.3f}x its reference "
              f"time over the run ({len(meter.costs)} probes)")
        print(f"{workload.name}: set-up {summary(probes)} reference s")
        print(f"{workload.name}: wall per call {summary(walls)} s measured")
        print(f"{workload.name}: wall per call {summary(reference)} reference s")

    failed_frac = runs["failed"] / runs["attempted"]
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    print(f"{workload.name} failed_frac = {failed_frac:.6g} ratio "
          f"({runs['failed']} of {runs['attempted']})")
    for error in dict.fromkeys(runs["errors"]):
        print(f"check failed: {error}")
    print(json.dumps({
        "correct": runs["failed"] == 0,
        "attempted": runs["attempted"],
        "failed": runs["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
