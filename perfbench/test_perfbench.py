"""Self-tests for the benchmark harness.

    python3 -m pytest perfbench/test_perfbench.py -q

The fast tests drive ``run.measure`` with small stand-in workloads; the
last ones run ``perfbench/run.py`` end to end on the quickest workload
and on a copy without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402


class Doubler:
    """Stand-in workload: ``call`` doubles the instance's size."""

    name = "doubler"
    unit = "items"

    def __init__(self, wrong_on=(), raise_on=(), grow_on=()):
        self.calls = 0
        self.wrong_on, self.raise_on, self.grow_on = wrong_on, raise_on, grow_on

    def call(self, instance):
        self.calls += 1
        if self.calls in self.raise_on:
            raise ValueError("program crashed")
        if self.calls in self.grow_on:
            instance["size"] += 1
        result = 2 * instance["size"]
        return result + 1 if self.calls in self.wrong_on else result

    def check(self, instance, result):
        return [] if result == 2 * instance["size"] else [f"{result} is wrong"]

    def work(self, instance, result):
        return instance["size"]

    def fingerprint(self, instance, result):
        return {"size": instance["size"]}


def test_wrong_result_counts_as_failed_and_run_continues():
    workload = Doubler(wrong_on={2}, raise_on={4})
    runs = run.measure(workload, [{"size": 3}], seconds=0.5)
    assert runs["attempted"] >= 5
    assert runs["failed"] == 2
    assert any("is wrong" in e for e in runs["errors"])
    assert any("program crashed" in e for e in runs["errors"])
    # Calls after the failures were still timed.
    assert len(runs["walls"][0]) == runs["attempted"] - 1


def test_changed_input_size_trips_fingerprint():
    workload = Doubler(grow_on={3})
    runs = run.measure(workload, [{"size": 3}], seconds=0.5)
    assert runs["failed"] >= 1
    assert any("fingerprint" in e for e in runs["errors"])
    assert run.measure(Doubler(), [{"size": 3}], seconds=0.5)["failed"] == 0


def test_end_to_end_metrics_use_median_call_and_set_up():
    runs = {"walls": [[2.0, 1.0, 4.0], [5.0], []], "work": [10, 20, None]}
    metrics = run.end_to_end_metrics(runs, probes=[0.7, 0.5, 0.6])
    assert metrics["wall_s"][0] == pytest.approx(3.0)  # median of 1, 2, 4, 5
    # Median of the calls' work / wall: 10/2, 10/1, 10/4, 20/5.
    assert metrics["work_per_s"][0] == pytest.approx((4.0 + 5.0) / 2)
    assert metrics["setup_s"][0] == pytest.approx(0.6)


def test_reference_seconds_remove_probe_time_and_machine_speed():
    meter = speed.SpeedMeter()
    # Probes at 1.0, 1.1 and 1.2 s, each twice as slow as the reference.
    for start in (1.0, 1.1, 1.2):
        meter.starts.append(start)
        meter.costs.append(2 * speed.PROBE_REF_S)
    spent = 3 * 2 * speed.PROBE_REF_S
    assert meter.reference_s(0.5, 1.5) == pytest.approx((1.0 - spent) / 2)
    # Only the probes inside the interval count.
    assert meter.reference_s(1.05, 1.15) == pytest.approx((0.1 - 2 * speed.PROBE_REF_S) / 2)
    assert meter.reference_s(2.0, 3.0) == pytest.approx(1.0)  # no probe ran
    runs = {"walls": [[1.0]], "intervals": [[(0.5, 1.5)]], "work": [4]}
    metrics = run.end_to_end_metrics(runs, probes=[0.3], meter=meter)
    assert metrics["wall_s"][0] == pytest.approx((1.0 - spent) / 2)
    assert metrics["work_per_s"][0] == pytest.approx(4 / ((1.0 - spent) / 2))


def test_speed_meter_samples_while_running():
    meter = speed.SpeedMeter()
    meter.start()
    try:
        deadline = time.perf_counter() + 5.0
        while len(meter.costs) < 5 and time.perf_counter() < deadline:
            sum(range(1000))
    finally:
        meter.stop()
    assert len(meter.costs) >= 5 and len(meter.starts) == len(meter.costs)
    assert all(cost > 0 for cost in meter.costs)


def test_self_times_partition_traced_wall(monkeypatch):
    module = types.ModuleType("perfbench_fake_layers")
    exec(
        "def inner(x):\n    return sum(range(x))\n"
        "def outer(x):\n    return inner(x) + inner(x // 2)\n",
        module.__dict__,
    )
    inner, outer = module.inner, module.outer
    monkeypatch.setitem(sys.modules, module.__name__, module)
    wraps = [("outer", module.__name__, "outer"), ("inner", module.__name__, "inner")]
    recorder = layers.Recorder()
    remove = layers.install(recorder, wraps=wraps, counters=[])
    for call in range(3):
        with recorder.root(f"call/{call}"):
            module.outer(20000)
            inner(100)  # an unwrapped reference: counted as the root's own time
    remove()
    assert module.outer is outer and module.inner is inner
    assert recorder.calls == {"outer": 3, "inner": 6, layers.OTHER: 3}
    assert sum(recorder.self_s.values()) == pytest.approx(recorder.root_wall_s, rel=1e-9)
    assert all(value >= 0 for value in recorder.self_s.values())


def test_counter_stand_in_counts_increments(monkeypatch):
    module = types.ModuleType("perfbench_fake_counters")
    module.ROUNDS = object()
    monkeypatch.setitem(sys.modules, module.__name__, module)
    recorder = layers.Recorder()
    original = module.ROUNDS
    remove = layers.install(recorder, wraps=[], counters=[("rounds", module.__name__, "ROUNDS")])
    module.ROUNDS.inc()
    module.ROUNDS.inc(2)
    remove()
    assert module.ROUNDS is original
    assert recorder.snapshot() == {"rounds": 3}


def test_missing_layer_is_skipped():
    recorder = layers.Recorder()
    remove = layers.install(
        recorder, wraps=[("gone", "repro_no_such_module", "f"), ("gone", "json", "no_such_attr")],
        counters=[("gone", "json", "no_such_counter")],
    )
    remove()
    assert not list(recorder.spans())


def _bench(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return done


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def test_end_to_end_run_reports_declared_metrics():
    done = _bench("--workload", "e4_quotient", "--seed", "5", "--seconds", "0", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_layers_and_partitions_wall():
    done = _bench("--workload", "e4_quotient", "--seed", "5", "--seconds", "0", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["core.bottleneck.certify_max_min_fair.calls"] == 1
    assert metrics["core.quotient.build_quotient.calls"] == 2
    assert metrics["sim.loop.calls"] == 0
    gap = float(done.stdout.split("self times account for the traced wall to ")[1].split()[0])
    assert gap < 1e-9


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench("--workload", "churn", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
