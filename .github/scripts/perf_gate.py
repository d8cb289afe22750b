#!/usr/bin/env python3
"""Same-runner performance gate: perfbench on a base and a head checkout.

    python3 .github/scripts/perf_gate.py BASE_CHECKOUT HEAD_CHECKOUT

For every workload in the base's ``BENCHMARK.json`` it runs the
benchmark's command (``perfbench/run.py --workload W --seed SEED
--seconds SECONDS --trace 0``) in each checkout, ``PAIRS`` times each,
alternating which side runs first, so that both sides see the same
machine in the same spells.  Before any head run the base's stored
work fingerprints (``perfbench/out/fingerprint-*.json``) are copied
into the head checkout: perfbench then refuses, as a failed run, a head
that did different work from the base.

The gate fails (exit 1) when

- any run is not ``"correct"`` or gives no result;
- the head failed more calls than the base;
- an end-to-end metric's head median is worse than its base median by
  more than the metric's ``bound`` in ``BENCHMARK.json``.

The bounds and workloads come from the base, so a change cannot loosen
its own gate.  The per-metric table is printed and, under GitHub
Actions, appended to ``$GITHUB_STEP_SUMMARY``.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

PAIRS = 3
SEED = 1
SECONDS = 4
RUN_TIMEOUT_S = 600


def run_once(checkout: Path, command: List[str], workload: str) -> Dict:
    """One perfbench run in ``checkout``; its result line, or a failure record."""
    argv = command + ["--workload", workload, "--seed", str(SEED),
                      "--seconds", str(SECONDS), "--trace", "0"]
    try:
        proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"correct": False, "failed": None, "metrics": {},
                "checks": [f"no result within {RUN_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    checks = [line for line in lines if line.startswith("check failed:")]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"correct": False, "failed": None, "metrics": {},
                "checks": checks + [f"exit {proc.returncode}: {tail}"]}
    return dict(result, checks=checks)


def copy_fingerprints(base: Path, head: Path) -> None:
    out = head / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    for path in (base / "perfbench" / "out").glob("fingerprint-*.json"):
        shutil.copy(path, out / path.name)


def judge(spec: Dict, results: Dict[str, Dict[str, List[Dict]]]):
    """Table rows and failure messages for ``results[workload][side]``."""
    rows, failures = [], []
    for workload, sides in results.items():
        for side, runs in sides.items():
            for run in runs:
                if not run.get("correct"):
                    detail = "; ".join(dict.fromkeys(run.get("checks") or [])) or "not correct"
                    failures.append(f"{workload}: a {side} run failed: {detail}")
        failed = {side: sum(run.get("failed") or 0 for run in runs)
                  for side, runs in sides.items()}
        if failed["head"] > failed["base"]:
            failures.append(f"{workload}: head failed {failed['head']} calls, "
                            f"base {failed['base']}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = {side: [run["metrics"][name]["value"] for run in runs
                             if name in run.get("metrics", {})]
                      for side, runs in sides.items()}
            if not (values["base"] and values["head"]):
                continue  # the runs that gave no metric already failed above
            base = statistics.median(values["base"])
            head = statistics.median(values["head"])
            ratio = head / base if base else float("inf")
            worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            ok = worse <= bound
            rows.append((workload, name, metric["unit"], base, head, ratio, bound, ok))
            if not ok:
                failures.append(f"{workload}: {name} head median {head:.4g} vs base "
                                f"{base:.4g} {metric['unit']} ({worse:+.0%} worse, "
                                f"bound {bound:.0%})")
    return rows, failures


def table(rows) -> str:
    lines = ["| workload | metric | base | head | head/base | bound | ok |",
             "|---|---|---|---|---|---|---|"]
    for workload, name, unit, base, head, ratio, bound, ok in rows:
        lines.append(f"| `{workload}` | `{name}` | {base:.4g} {unit} | {head:.4g} {unit} "
                     f"| {ratio:.3f} | {bound:.2f} | {'yes' if ok else '**no**'} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: perf_gate.py BASE_CHECKOUT HEAD_CHECKOUT", file=sys.stderr)
        return 2
    base, head = (Path(arg).resolve() for arg in argv)
    spec = json.loads((base / "BENCHMARK.json").read_text())
    results: Dict[str, Dict[str, List[Dict]]] = {}
    for workload in (entry["name"] for entry in spec["workloads"]):
        sides = results[workload] = {"base": [], "head": []}
        for pair in range(PAIRS):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                if side == "head":
                    copy_fingerprints(base, head)
                checkout = base if side == "base" else head
                run = run_once(checkout, spec["command"], workload)
                sides[side].append(run)
                wall = run["metrics"].get("wall_s", {}).get("value")
                print(f"{workload} pair {pair + 1}/{PAIRS} {side}: correct={run.get('correct')} "
                      f"wall_s={wall}", flush=True)

    rows, failures = judge(spec, results)
    report = (f"## perfbench gate: base vs head, {PAIRS} pairs of {SECONDS} s runs, "
              f"seed {SEED}\n\n{table(rows)}\n")
    if failures:
        report += "\n**Failed:**\n\n" + "".join(f"- {failure}\n" for failure in failures)
    print(report)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as handle:
            handle.write(report)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
