"""Tests for the cross-process telemetry pipeline and its front ends.

Covers payload serialize/merge round trips, the `parallel_map` shipping
contract (jobs>1 counter totals identical to jobs=1, silence when
disabled), the ``stats`` front end, and the disabled-mode overhead
guard.
"""

import json
import time
from fractions import Fraction

import pytest

from repro import obs
from repro.cli import main
from repro.obs.pipeline import (
    TelemetryPayload,
    capture_payload,
    merge_payloads,
    run_with_telemetry,
    worker_config,
)
from repro.parallel import parallel_map


@pytest.fixture
def observing():
    """Observability on for the test, fully reset around it."""
    obs.reset()
    obs.enable()
    yield
    obs.reset()
    obs.disable()


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
        assert worker_config() == (True, False)
        obs.enable(memory=True)
        assert worker_config() == (True, True)


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


class TestCliFrontEnds:
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


def _tree_size(span):
    return 1 + sum(_tree_size(child) for child in span.children)


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
        span_ops = sum(_tree_size(root) for root in obs.tracer().collect())
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
