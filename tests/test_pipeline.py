"""Tests for the cross-process telemetry pipeline and its front ends.

Covers payload serialize/merge round trips, the `parallel_map` shipping
contract (jobs>1 counter totals identical to jobs=1, silence when
disabled), sampling/ring bounds, the Chrome/Prometheus exporters, and
the disabled-mode overhead guard.
"""

import json
import time
from fractions import Fraction

import pytest

from repro import obs
from repro.cli import main
from repro.obs.export import aggregate_spans, chrome_trace, prometheus_text
from repro.obs.pipeline import (
    TelemetryPayload,
    capture_payload,
    merge_payloads,
    run_with_telemetry,
    worker_config,
)
from repro.obs.trace import Span
from repro.parallel import parallel_map


@pytest.fixture
def observing():
    """Observability on for the test, fully reset around it."""
    obs.reset()
    obs.enable()
    yield
    obs.reset()
    obs.disable()
    from repro.obs.state import STATE

    STATE.sample = 1.0
    STATE.ring = 0


@pytest.fixture
def dark():
    """Observability off (the default) with clean state."""
    obs.reset()
    obs.disable()
    yield
    obs.reset()
    obs.disable()


def _instrumented_task(x):
    """Module-level (picklable) worker: bumps one of each instrument."""
    obs.counter("test.pipeline.work").inc(x)
    obs.gauge("test.pipeline.last").set(x)
    obs.histogram("test.pipeline.sizes").observe(Fraction(1, x))
    with obs.trace_span("test.task", x=x):
        pass
    return x * 2


def _payload_for(values, pid):
    """A payload as a worker with the given observations would ship it."""
    obs.reset()
    for x in values:
        _instrumented_task(x)
    payload = capture_payload()
    payload.pid = pid
    obs.reset()
    return payload


class TestPayloadRoundTrip:
    def test_to_dict_from_dict_survives_json(self, observing):
        payload = _payload_for([2, 3], pid=7)
        document = json.loads(json.dumps(payload.to_dict()))
        rebuilt = TelemetryPayload.from_dict(document)
        assert rebuilt.pid == 7
        assert rebuilt.metrics == payload.metrics
        assert rebuilt.spans == payload.spans
        # exact rationals survived the trip as "p/q" strings
        assert rebuilt.metrics["gauges"]["test.pipeline.last"] == 3
        buckets = rebuilt.metrics["histograms"]["test.pipeline.sizes"][
            "buckets"
        ]
        assert ["1/3", 1] in buckets and ["1/2", 1] in buckets

    def test_from_dict_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            TelemetryPayload.from_dict({"format": "something-else"})

    def test_run_with_telemetry_returns_result_and_payload(self, observing):
        obs.counter("test.pipeline.work").inc(7)  # reset before the task
        result, document = run_with_telemetry(_instrumented_task, 5)
        assert result == 10
        payload = TelemetryPayload.from_dict(document)
        assert payload.metrics["counters"]["test.pipeline.work"] == 5
        assert [s["name"] for s in payload.spans] == ["test.task"]

    def test_worker_config_mirrors_state(self, observing):
        from repro.obs.state import STATE

        STATE.sample = 0.5
        STATE.ring = 9
        assert worker_config() == (True, False, 0.5, 9)


class TestMergeSemantics:
    def test_counters_sum_exactly(self, observing):
        merged = merge_payloads(
            [_payload_for([2], pid=1), _payload_for([3, 4], pid=2)]
        )
        snap = merged.snapshot()
        assert snap["test.pipeline.work"] == 9
        hist = snap["test.pipeline.sizes"]
        assert hist["count"] == 3
        assert hist["sum"] == "13/12"  # 1/2 + 1/3 + 1/4, exactly
        assert hist["min"] == "1/4"
        assert hist["max"] == "1/2"

    def test_gauges_are_last_write_tagged(self, observing):
        merged = merge_payloads(
            [_payload_for([2], pid=1), _payload_for([3], pid=2)]
        )
        assert merged.snapshot()["test.pipeline.last"] == 3
        assert merged.gauge_sources["test.pipeline.last"] == 1  # worker:1

    def test_spans_reparent_under_worker_roots(self, observing):
        merged = merge_payloads(
            [
                _payload_for([2], pid=11),
                _payload_for([3], pid=22),
                _payload_for([4], pid=11),
            ]
        )
        assert [r.name for r in merged.worker_roots] == [
            "worker:0",
            "worker:1",
        ]
        first, second = merged.worker_roots
        assert first.attrs == {"pid": 11, "tasks": 2}
        assert [c.name for c in first.children] == ["test.task", "test.task"]
        assert [c.attrs["x"] for c in first.children] == [2, 4]
        assert second.attrs["tasks"] == 1

    def test_absorb_folds_into_global_state(self, observing):
        merged = merge_payloads([_payload_for([2], pid=1)])
        obs.counter("test.pipeline.work").inc(10)
        merged.absorb()
        assert obs.metrics_snapshot()["test.pipeline.work"] == 12
        roots = obs.tracer().collect()
        assert [r.name for r in roots] == ["worker:0"]

    def test_absorb_attaches_under_open_span(self, observing):
        merged = merge_payloads([_payload_for([2], pid=1)])
        with obs.trace_span("profile:e4"):
            merged.absorb()
        (root,) = obs.tracer().collect()
        assert [c.name for c in root.children] == ["worker:0"]

    def test_histogram_overflow_merges_count_and_sum(self, observing):
        from repro.obs.metrics import MetricsRegistry

        state = {
            "counters": {},
            "gauges": {},
            "histograms": {
                "h": {
                    "count": 3,
                    "sum": 60,
                    "min": 10,
                    "max": 30,
                    "buckets": [[10, 1], [20, 1]],
                    "overflow": 1,  # the 30 lost its bucket
                }
            },
        }
        registry = MetricsRegistry()
        registry.absorb_state(state)
        hist = registry.histogram("h")
        assert hist.count == 3
        assert hist.total == 60
        assert hist.overflow == 1
        assert hist.minimum == 10 and hist.maximum == 30


class TestParallelShipping:
    def test_parallel_counters_match_sequential(self, observing):
        tasks = [2, 3, 4, 5]
        seq = parallel_map(_instrumented_task, tasks, jobs=1)
        seq_snap = obs.metrics_snapshot()
        obs.reset()

        par = parallel_map(_instrumented_task, tasks, jobs=2)
        par_snap = obs.metrics_snapshot()
        roots = obs.tracer().collect()

        assert par == seq
        assert par_snap == seq_snap
        workers = [r for r in roots if r.name.startswith("worker:")]
        assert workers, "worker span forests were not shipped"
        assert sum(r.attrs["tasks"] for r in workers) == len(tasks)
        leaf_names = {
            c.name for worker in workers for c in worker.children
        }
        assert leaf_names == {"test.task"}

    def test_disabled_mode_ships_nothing(self, dark):
        results = parallel_map(_instrumented_task, [2, 3], jobs=2)
        assert results == [4, 6]
        assert obs.metrics_snapshot() == {}
        assert obs.tracer().collect() == []


class TestSamplingAndRing:
    def test_sampling_keeps_deterministic_fraction(self, observing):
        obs.enable(sample=0.5)
        for _ in range(10):
            with obs.trace_span("root"):
                pass
        roots = obs.tracer().collect()
        assert len(roots) == 5
        assert obs.tracer().sampled_out == 5

    def test_sampled_roots_keep_complete_trees(self, observing):
        obs.enable(sample=0.5)
        for _ in range(4):
            with obs.trace_span("root"):
                with obs.trace_span("child"):
                    pass
        roots = obs.tracer().collect()
        assert len(roots) == 2
        assert all(
            [c.name for c in root.children] == ["child"] for root in roots
        )

    def test_ring_bounds_retained_roots(self, observing):
        obs.enable(ring=3)
        for index in range(5):
            with obs.trace_span(f"root{index}"):
                pass
        roots = obs.tracer().collect()
        assert [r.name for r in roots] == ["root2", "root3", "root4"]
        assert obs.tracer().ring_dropped == 2

    def test_env_parsing(self, monkeypatch):
        from repro.obs.state import _ring_size, _sample_rate

        monkeypatch.setenv("REPRO_OBS_SAMPLE", "0.25")
        monkeypatch.setenv("REPRO_OBS_RING", "128")
        assert _sample_rate() == 0.25
        assert _ring_size() == 128
        monkeypatch.setenv("REPRO_OBS_SAMPLE", "2.5")
        assert _sample_rate() == 1.0  # clamped
        monkeypatch.setenv("REPRO_OBS_SAMPLE", "bogus")
        monkeypatch.setenv("REPRO_OBS_RING", "-4")
        assert _sample_rate() == 1.0
        assert _ring_size() == 0


def _validate_trace_events(document):
    """Structural validation against the trace_event format contract."""
    assert isinstance(document, dict)
    events = document["traceEvents"]
    assert isinstance(events, list) and events
    for event in events:
        assert isinstance(event["name"], str)
        assert event["ph"] in ("X", "M")
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        if event["ph"] == "X":
            assert isinstance(event["ts"], int) and event["ts"] >= 0
            assert isinstance(event["dur"], int) and event["dur"] >= 0
        else:
            assert event["name"] == "process_name"
            assert isinstance(event["args"]["name"], str)
        if "args" in event:
            json.dumps(event["args"])  # JSON-safe


class TestExporters:
    def _forest(self):
        with obs.trace_span("outer", flows=Fraction(1, 3)):
            with obs.trace_span("inner"):
                time.sleep(0.001)
        worker = Span("worker:0", {"pid": 999, "tasks": 1})
        child = Span("test.task", {})
        child.duration = 0.5
        worker.children.append(child)
        worker.duration = 0.5
        return obs.tracer().collect() + [worker]

    def test_chrome_trace_validates_and_separates_pids(self, observing):
        document = chrome_trace(self._forest(), process_name="repro e4")
        _validate_trace_events(document)
        events = document["traceEvents"]
        names = {
            event["args"]["name"]
            for event in events
            if event["ph"] == "M"
        }
        assert names == {"repro e4", "worker:0 (os pid 999)"}
        pids = {event["pid"] for event in events if event["ph"] == "X"}
        assert pids == {0, 1}
        # children are laid out inside their parent's interval
        outer = next(e for e in events if e["name"] == "outer")
        inner = next(e for e in events if e["name"] == "inner")
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]
        # Fraction attributes were stringified
        assert outer["args"]["flows"] == "1/3"

    def test_chrome_trace_file_is_valid_json(self, observing, tmp_path):
        from repro.obs.export import write_chrome_trace

        path = write_chrome_trace(
            str(tmp_path / "trace.json"), self._forest()
        )
        with open(path, "r", encoding="utf-8") as handle:
            _validate_trace_events(json.load(handle))

    def test_prometheus_text_format(self):
        snapshot = {
            "maxmin.rounds": 143,
            "sim.load": "2/3",
            "sim.active_jobs": {
                "count": 4,
                "sum": 10,
                "p50": 2,
                "p90": 4,
                "p99": 4,
            },
        }
        kinds = {"maxmin.rounds": "counter", "sim.load": "gauge"}
        text = prometheus_text(snapshot, kinds)
        lines = text.strip().splitlines()
        assert "# TYPE repro_maxmin_rounds counter" in lines
        assert "repro_maxmin_rounds 143.0" in lines
        assert "# TYPE repro_sim_load gauge" in lines
        assert "repro_sim_load 0.6666666666666666" in lines
        assert "# TYPE repro_sim_active_jobs summary" in lines
        assert 'repro_sim_active_jobs{quantile="0.5"} 2.0' in lines
        assert "repro_sim_active_jobs_sum 10.0" in lines
        assert "repro_sim_active_jobs_count 4.0" in lines

    def test_aggregate_spans_partitions_self_time(self):
        root = Span("a", {})
        root.duration = 1.0
        child = Span("b", {})
        child.duration = 0.6
        root.children.append(child)
        table = aggregate_spans([root])
        assert table["a"]["cum_s"] == 1.0
        assert table["a"]["self_s"] == pytest.approx(0.4)
        assert table["b"]["self_s"] == pytest.approx(0.6)


class TestCliFrontEnds:
    def test_profile_export_chrome_validates(
        self, observing, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert (
            main(
                [
                    "profile",
                    "e1",
                    "--no-memory",
                    "--export",
                    "chrome",
                    "--export",
                    "prom",
                    "--export-prefix",
                    str(tmp_path / "out"),
                ]
            )
            == 0
        )
        with open(tmp_path / "out.trace.json", encoding="utf-8") as handle:
            _validate_trace_events(json.load(handle))
        prom = (tmp_path / "out.prom").read_text()
        assert "# TYPE repro_maxmin_rounds counter" in prom

    def test_top_command_ranks_by_self_time(
        self, observing, tmp_path, capsys
    ):
        with obs.trace_span("outer"):
            with obs.trace_span("inner"):
                time.sleep(0.001)
        path = str(tmp_path / "trace.jsonl")
        obs.write_trace_jsonl(path, obs.tracer().collect())
        assert main(["top", path]) == 0
        out = capsys.readouterr().out
        assert "outer" in out and "inner" in out
        assert "self" in out

    def test_top_command_missing_file(self, tmp_path, capsys):
        assert main(["top", str(tmp_path / "missing.jsonl")]) == 2

    def test_stats_degrades_without_traces(self, dark, tmp_path, capsys):
        import io

        from repro.runner import ResilientRunner, RunManifest

        path = str(tmp_path / "sweep.json")
        runner = ResilientRunner(
            manifest=RunManifest(path), stream=io.StringIO()
        )
        runner.run({"s1": lambda: None})
        assert main(["stats", path]) == 0
        out = capsys.readouterr().out
        assert "no span traces embedded" in out
        assert "wall (span)" not in out  # degraded to the real columns


class TestOverheadGuard:
    def test_disabled_instrumentation_under_five_percent(self, dark):
        """Disabled-mode flag checks cost <5% of an exact solve."""
        from repro.core.maxmin import max_min_fair
        from repro.core.topology import ClosNetwork
        from repro.routers.ecmp import ecmp_routing
        from repro.workloads.stochastic import uniform_random

        clos = ClosNetwork(4)
        flows = uniform_random(clos, 120, seed=0)
        routing = ecmp_routing(clos, flows)
        capacities = clos.graph.capacities()

        walls = []
        for _ in range(3):
            start = time.perf_counter()
            max_min_fair(routing, capacities, exact=True)
            walls.append(time.perf_counter() - start)
        solve_wall = min(walls)

        # Count the instrument firings an enabled solve performs:
        # counter bumps (one per reported unit) and span opens.
        obs.enable()
        obs.reset()
        max_min_fair(routing, capacities, exact=True)
        snapshot = obs.metrics_snapshot()
        span_ops = sum(
            1 for root in obs.tracer().collect() for _ in root.walk()
        )
        counter_ops = sum(
            value for value in snapshot.values() if isinstance(value, int)
        )
        obs.reset()
        obs.disable()

        # Price one disabled counter bump / span open per loop iteration.
        probe = obs.counter("test.overhead.probe")
        iterations = 200_000
        start = time.perf_counter()
        for _ in range(iterations):
            probe.inc()
        counter_cost = (time.perf_counter() - start) / iterations
        start = time.perf_counter()
        for _ in range(iterations):
            with obs.trace_span("test.overhead.span"):
                pass
        span_cost = (time.perf_counter() - start) / iterations

        overhead = counter_ops * counter_cost + span_ops * span_cost
        assert overhead < 0.05 * solve_wall, (
            f"disabled instrumentation ~{overhead * 1e3:.3f}ms "
            f"({counter_ops} counter ops, {span_ops} span ops) "
            f"vs solve {solve_wall * 1e3:.1f}ms"
        )


class TestFlowsimHistogram:
    def test_active_jobs_histogram_populated(self, observing):
        from repro.core.topology import ClosNetwork
        from repro.sim.flowsim import simulate
        from repro.sim.jobs import FlowJob
        from repro.sim.policies import MaxMinCongestionControl

        clos = ClosNetwork(1)
        jobs = [
            FlowJob(0, clos.source(1, 1), clos.destination(2, 1), 0.0, 2.0),
            FlowJob(1, clos.source(2, 1), clos.destination(1, 1), 0.5, 1.0),
        ]
        obs.reset()
        simulate(jobs, MaxMinCongestionControl(clos))
        snap = obs.metrics_snapshot()
        hist = snap["sim.active_jobs"]
        assert hist["count"] == snap["sim.events"]
        assert set(hist) >= {"p50", "p90", "p99", "mean"}
        assert hist["max"] >= 1
