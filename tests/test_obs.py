"""Tests for the observability layer (repro.obs)."""

import io
import json
from fractions import Fraction

import pytest

from repro import obs
from repro.obs.logger import StructuredLogger
from repro.obs.metrics import MetricsRegistry, snapshot_delta
from repro.obs.trace import span_from_dict


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


class TestSpans:
    def test_spans_nest_correctly(self, observing):
        with obs.trace_span("outer", kind="test"):
            with obs.trace_span("middle"):
                with obs.trace_span("inner"):
                    pass
            with obs.trace_span("sibling"):
                pass
        roots = obs.tracer().collect()
        assert [r.name for r in roots] == ["outer"]
        outer = roots[0]
        assert [c.name for c in outer.children] == ["middle", "sibling"]
        assert [c.name for c in outer.children[0].children] == ["inner"]
        # a child's wall time is contained in its parent's
        assert outer.duration >= outer.children[0].duration

    def test_collect_drains(self, observing):
        with obs.trace_span("a"):
            pass
        assert len(obs.tracer().collect()) == 1
        assert obs.tracer().collect() == []

    def test_span_attributes_and_set(self, observing):
        with obs.trace_span("solve", flows=6) as span:
            span.set(rounds=3)
        (root,) = obs.tracer().collect()
        assert root.attrs == {"flows": 6, "rounds": 3}

    def test_to_dict_without_times_is_deterministic(self, observing):
        for _ in range(2):
            with obs.trace_span("outer"):
                with obs.trace_span("inner", k=1):
                    pass
        first, second = obs.tracer().collect()
        assert first.to_dict(times=False) == second.to_dict(times=False)
        assert "duration_s" not in first.to_dict(times=False)
        assert "duration_s" in first.to_dict()

    def test_disabled_trace_span_is_noop(self, dark):
        with obs.trace_span("ghost") as span:
            span.set(anything=1)  # accepted, discarded
        assert obs.tracer().collect() == []

    def test_exception_still_closes_span(self, observing):
        with pytest.raises(ValueError):
            with obs.trace_span("outer"):
                with obs.trace_span("inner"):
                    raise ValueError("boom")
        (root,) = obs.tracer().collect()
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner"]

    def test_traced_decorator(self, observing):
        @obs.traced("decorated.fn")
        def fn(x):
            return x + 1

        assert fn(1) == 2
        (root,) = obs.tracer().collect()
        assert root.name == "decorated.fn"

    def test_memory_tracking_records_peak(self):
        obs.reset()
        obs.enable(memory=True)
        try:
            with obs.trace_span("alloc") as span:
                blob = [0] * 100_000
                del blob
            (root,) = obs.tracer().collect()
            assert root.mem_peak_bytes is not None
            assert root.mem_peak_bytes > 100_000 * 4
        finally:
            obs.reset()
            obs.disable()


class TestMetrics:
    def test_counter_gauge_histogram(self, observing):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set(Fraction(2, 3))
        for value in (Fraction(1, 3), Fraction(2, 3), Fraction(1, 1)):
            registry.histogram("h").observe(value)
        snap = registry.snapshot()
        assert snap["c"] == 5
        assert snap["g"] == "2/3"
        assert snap["h"]["count"] == 3
        assert snap["h"]["sum"] == 2  # exact: 1/3 + 2/3 + 1
        assert snap["h"]["mean"] == "2/3"
        assert snap["h"]["min"] == "1/3"

    def test_disabled_instruments_do_nothing(self, dark):
        registry = MetricsRegistry()
        registry.counter("c").inc(100)
        registry.gauge("g").set(1)
        registry.histogram("h").observe(1)
        assert registry.snapshot() == {}

    def test_snapshot_omits_idle_instruments(self, observing):
        registry = MetricsRegistry()
        registry.counter("quiet")
        registry.gauge("unset")
        registry.histogram("empty")
        registry.counter("busy").inc()
        assert registry.snapshot() == {"busy": 1}

    def test_name_kind_conflicts_rejected(self, observing):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_reset_keeps_handles_valid(self, observing):
        registry = MetricsRegistry()
        handle = registry.counter("c")
        handle.inc(3)
        registry.reset()
        handle.inc()
        assert registry.snapshot() == {"c": 1}

    def test_snapshot_delta(self):
        kinds = {"a": "counter", "b": "counter", "g": "gauge", "p": "gauge"}
        before = {"a": 2, "g": "2/3", "p": 10}
        after = {"a": 5, "b": 7, "g": "1/2", "p": 14}
        assert snapshot_delta(before, after, kinds) == {
            "a": 3,
            "b": 7,
            "g": "1/2",
            "p": 14,
        }


class TestHistogramPercentiles:
    def test_exact_nearest_rank_percentiles(self, observing):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for value in range(1, 101):  # 1..100, once each
            hist.observe(value)
        snap = registry.snapshot()["h"]
        assert snap["p50"] == 50
        assert snap["p90"] == 90
        assert snap["p99"] == 99

    def test_percentiles_respect_multiplicity(self, observing):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for _ in range(9):
            hist.observe(Fraction(1, 3))
        hist.observe(Fraction(2, 3))
        snap = registry.snapshot()["h"]
        assert snap["p50"] == "1/3"
        assert snap["p90"] == "1/3"  # rank 9 of 10 is still 1/3
        assert snap["p99"] == "2/3"

    def test_integer_observations_stay_exact_in_json(self, observing):
        """mean() of ints divides via Fraction, never float — so the
        JSON snapshot of an exact run contains no floats anywhere."""
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for value in (1, 2):
            hist.observe(value)
        snap = registry.snapshot()["h"]
        assert snap["mean"] == "3/2"

        def no_floats(value):
            if isinstance(value, float):
                return False
            if isinstance(value, dict):
                return all(no_floats(v) for v in value.values())
            return True

        assert no_floats(snap)

    def test_float_observations_fall_back_to_float_mean(self, observing):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        hist.observe(1)
        hist.observe(0.5)
        assert registry.snapshot()["h"]["mean"] == pytest.approx(0.75)

    def test_empty_histogram_has_no_percentiles(self, observing):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        assert hist.percentile(Fraction(1, 2)) is None
        assert hist.mean() is None

    def test_bucket_cap_overflows_gracefully(self, observing):
        from repro.obs.metrics import MAX_BUCKETS

        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for value in range(MAX_BUCKETS + 10):
            hist.observe(value)
        snap = registry.snapshot()["h"]
        assert snap["count"] == MAX_BUCKETS + 10
        assert snap["bucket_overflow"] == 10
        assert snap["max"] == MAX_BUCKETS + 9  # tracked past the cap


class TestWaterFillingCounters:
    """Counters match hand-computed round counts on Example 2.3.

    Routing A water-fills in two rounds (levels 1/3 then 2/3); routing B
    needs three (1/3, 2/3, then 1) — exactly the distinct values in the
    paper's sorted vectors.
    """

    def _solve(self, routing, capacities, exact=True):
        from repro.core.maxmin import max_min_fair

        obs.reset()
        alloc = max_min_fair(routing, capacities, exact=exact)
        return alloc, obs.metrics_snapshot(), obs.tracer().collect()

    def test_example_2_3_round_counts(self, observing):
        from repro.workloads.adversarial import example_2_3, example_2_3_routings

        instance = example_2_3()
        capacities = instance.clos.graph.capacities()
        routing_a, routing_b = example_2_3_routings(instance)

        alloc_a, snap_a, spans_a = self._solve(routing_a, capacities)
        assert snap_a["maxmin.rounds"] == 2
        assert snap_a["maxmin.solves"] == 1
        assert snap_a["maxmin.flows_frozen"] == 6
        # the span's per-solve round attribute agrees with the counter
        assert spans_a[0].attrs["rounds"] == 2
        assert snap_a["maxmin.rounds"] == len(set(alloc_a.sorted_vector()))

        alloc_b, snap_b, spans_b = self._solve(routing_b, capacities)
        assert snap_b["maxmin.rounds"] == 3
        assert spans_b[0].attrs["rounds"] == 3
        assert snap_b["maxmin.rounds"] == len(set(alloc_b.sorted_vector()))

    def test_float_mode_counters(self, observing):
        """The float heap fill increments the same ``maxmin.*`` counters
        as the exact fill, and counts the same rounds: levels inside
        one saturation band are one round, so an exact tie that float
        rounding splits by an ulp (Example 2.3 routing B) is not two."""
        from repro.workloads.adversarial import example_2_3, example_2_3_routings

        instance = example_2_3()
        capacities = instance.clos.graph.capacities()
        for routing in example_2_3_routings(instance):
            _, exact, _ = self._solve(routing, capacities)
            _, floats, spans = self._solve(
                routing, capacities, exact=False
            )
            assert floats["maxmin.solves"] == 1
            assert floats["maxmin.flows_frozen"] == 6
            assert floats["maxmin.rounds"] == spans[0].attrs["rounds"]
            assert floats["maxmin.rounds"] == exact["maxmin.rounds"]
            assert floats["maxmin.saturated_links"] >= floats["maxmin.rounds"]


class TestRunnerManifests:
    PRE_OBS_KEYS = {"name", "status", "attempts", "duration", "error", "output"}

    def _run_sweep(self, tmp_path):
        from repro.runner import ResilientRunner, RunManifest

        path = str(tmp_path / "sweep.json")
        runner = ResilientRunner(
            manifest=RunManifest(path), stream=io.StringIO()
        )
        runner.run({"s1": lambda: print("one"), "s2": lambda: print("two")})
        with open(path) as handle:
            return json.load(handle)

    def test_disabled_mode_adds_no_manifest_keys(self, dark, tmp_path):
        document = self._run_sweep(tmp_path)
        for step in document["steps"]:
            assert set(step) == self.PRE_OBS_KEYS

    def test_enabled_mode_embeds_trace_and_metrics(self, observing, tmp_path):
        from repro.core.maxmin import max_min_fair
        from repro.core.topology import MacroSwitch
        from repro.core.flows import FlowCollection
        from repro.runner import ResilientRunner, RunManifest

        ms = MacroSwitch(1)
        flows = FlowCollection.from_pairs(
            [
                (ms.source(1, 1), ms.destination(1, 1)),
                (ms.source(2, 1), ms.destination(1, 1)),
            ]
        )
        from repro.core.routing import Routing

        routing = Routing.for_macro_switch(ms, flows)
        capacities = ms.graph.capacities()

        path = str(tmp_path / "sweep.json")
        runner = ResilientRunner(
            manifest=RunManifest(path), stream=io.StringIO()
        )
        runner.run({"solve": lambda: max_min_fair(routing, capacities)})
        with open(path) as handle:
            (step,) = json.load(handle)["steps"]
        assert step["trace"]["name"] == "step:solve"
        assert [c["name"] for c in step["trace"]["children"]] == [
            "maxmin.water_fill"
        ]
        assert step["metrics"]["maxmin.solves"] == 1
        assert step["metrics"]["maxmin.rounds"] == 1

        # a reloaded manifest keeps the observability payload
        reloaded = RunManifest.load(path)
        assert reloaded.step("solve").metrics["maxmin.rounds"] == 1
        assert reloaded.step("solve").span_wall_seconds() is not None

    def test_step_metrics_report_gauges_at_their_value(
        self, observing, tmp_path
    ):
        from repro.runner import ResilientRunner, RunManifest
        from repro.sim.events import EventQueue

        def fill(count):
            queue = EventQueue()
            for i in range(count):
                queue.push(float(i), "arrival", None)

        path = str(tmp_path / "sweep.json")
        runner = ResilientRunner(
            manifest=RunManifest(path), stream=io.StringIO()
        )
        runner.run({"ten": lambda: fill(10), "fourteen": lambda: fill(14)})
        with open(path) as handle:
            first, second = json.load(handle)["steps"]
        assert first["metrics"]["sim.queue_peak"] == 10
        assert second["metrics"]["sim.queue_peak"] == 14


class TestJsonlRoundTrip:
    def test_trace_jsonl_round_trips(self, observing, tmp_path):
        from repro.io.serialize import read_jsonl

        with obs.trace_span("outer", flows=3):
            with obs.trace_span("inner", level="1/3"):
                pass
        with obs.trace_span("second"):
            pass
        roots = obs.tracer().collect()
        path = str(tmp_path / "trace.jsonl")
        obs.write_trace_jsonl(path, roots)

        documents = read_jsonl(path)
        assert len(documents) == 2
        rebuilt = [span_from_dict(doc) for doc in documents]
        assert [s.to_dict() for s in rebuilt] == [s.to_dict() for s in roots]
        assert rebuilt[0].children[0].attrs == {"level": "1/3"}

    def test_read_jsonl_rejects_bad_lines(self, tmp_path):
        from repro.io.serialize import ScenarioError, read_jsonl

        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ScenarioError):
            read_jsonl(str(path))


class TestStructuredLogger:
    def test_enabled_logger_emits_structured_lines(self, observing):
        stream = io.StringIO()
        logger = StructuredLogger("repro.test", stream=stream)
        logger.info("experiment.done", id="e3", elapsed=1.25)
        logger.warning("slow", note="took a while")
        text = stream.getvalue()
        assert "repro.test experiment.done id=e3 elapsed=1.25" in text
        assert 'WARNING repro.test slow note="took a while"' in text
        assert logger.events() == ["experiment.done", "slow"]

    def test_disabled_logger_is_silent(self, dark):
        stream = io.StringIO()
        logger = StructuredLogger("repro.test", stream=stream)
        logger.info("hidden")
        assert stream.getvalue() == ""
        assert logger.events() == []

    def test_always_logger_ignores_the_switch(self, dark):
        stream = io.StringIO()
        logger = StructuredLogger("repro.test", stream=stream, always=True)
        logger.info("visible", n=1)
        assert "repro.test visible n=1" in stream.getvalue()

    def test_get_logger_caches(self):
        from repro.obs import get_logger

        assert get_logger("repro.same") is get_logger("repro.same")


class TestInstrumentedSubsystems:
    """Each instrumented layer shows up in the registry when exercised."""

    def test_simulator_counters(self, observing):
        from repro.core.topology import ClosNetwork
        from repro.sim.flowsim import simulate
        from repro.sim.jobs import FlowJob
        from repro.sim.policies import MaxMinCongestionControl

        clos = ClosNetwork(1)
        jobs = [
            FlowJob(0, clos.source(1, 1), clos.destination(2, 1), 0.0, 2.0)
        ]
        obs.reset()
        simulate(jobs, MaxMinCongestionControl(clos))
        snap = obs.metrics_snapshot()
        assert snap["sim.runs"] == 1
        assert snap["sim.completions"] == 1
        assert snap["sim.events"] >= 1
        (root,) = [
            s for s in obs.tracer().collect() if s.name == "sim.simulate"
        ]
        assert root.attrs["completed"] == 1

    def test_router_decision_counters(self, observing):
        from repro.core.topology import ClosNetwork
        from repro.routers.ecmp import ecmp_routing
        from repro.routers.greedy import greedy_least_congested
        from repro.workloads.stochastic import permutation

        clos = ClosNetwork(2)
        flows = permutation(clos, seed=1)
        obs.reset()
        ecmp_routing(clos, flows)
        greedy_least_congested(clos, flows)
        snap = obs.metrics_snapshot()
        assert snap["router.ecmp.path_decisions"] == len(flows)
        assert snap["router.greedy.path_decisions"] == len(flows)

    def test_local_search_counters(self, observing):
        from repro.core.topology import ClosNetwork
        from repro.core.routing import Routing
        from repro.search.local_search import improve_routing
        from repro.workloads.stochastic import permutation

        clos = ClosNetwork(2)
        flows = permutation(clos, seed=1)
        start = Routing.uniform(clos, flows, 1)
        obs.reset()
        improve_routing(clos, start, objective="lex")
        snap = obs.metrics_snapshot()
        assert snap["search.local.rounds"] >= 1
        assert snap["search.local.moves_proposed"] >= 1
        # the accepted-move count never exceeds the proposals
        accepted = snap.get("search.local.moves_accepted", 0)
        assert accepted <= snap["search.local.moves_proposed"]

    def test_zero_overhead_shape_when_disabled(self, dark):
        """Disabled instruments leave the registry untouched entirely."""
        from repro.core.topology import ClosNetwork
        from repro.routers.ecmp import ecmp_routing
        from repro.workloads.stochastic import permutation

        clos = ClosNetwork(2)
        ecmp_routing(clos, permutation(clos, seed=1))
        assert obs.metrics_snapshot() == {}
        assert obs.tracer().collect() == []
