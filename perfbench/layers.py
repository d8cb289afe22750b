"""Per-layer tracing from outside the program.

The traced run wraps each layer's public function at the attribute its
caller looks it up through (a module global the caller imported, or a
class attribute reached through an instance) and restores the original
afterwards.  The untraced measuring run installs nothing, so its timings
are those of the unmodified program.

Every wrapper records one span — name, start, end, parent span and run
id — into a :class:`Recorder`.  A span's *self time* is its duration
minus the durations of the spans directly inside it, so over one root
span the self times of all spans (the root's own self time included)
sum to the root's wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

#: (layer, module, attribute path).  One layer may be wrapped at several
#: attributes: each caller's own import of the same function.
WRAPS: List[Tuple[str, str, str]] = [
    ("sim.loop", "repro.experiments.churn", "simulate"),
    ("sim.loop", "repro.experiments.churn", "simulate_stream"),
    ("sim.loop", "repro.sim.stream", "simulate_stream"),
    ("sim.policies.rates", "repro.sim.policies", "MaxMinCongestionControl.rates"),
    ("sim.policies.forget", "repro.sim.policies", "MaxMinCongestionControl.forget"),
    ("core.routing.from_middles", "repro.core.routing", "Routing.from_middles"),
    ("core.vectorized.compile_routing", "repro.core.vectorized", "compile_routing"),
    ("core.vectorized.waterfill", "repro.core.vectorized", "waterfill"),
    ("core.streaming.solve", "repro.core.streaming", "StreamingMaxMin.solve"),
    ("core.maxmin.max_min_fair", "repro.sim.policies", "max_min_fair"),
    ("core.maxmin.max_min_fair", "repro.experiments.ecmp_simulation", "max_min_fair"),
    ("core.quotient.build_quotient", "repro.core.quotient", "build_quotient"),
    ("core.quotient.quotient_max_min", "repro.core.quotient", "quotient_max_min"),
    ("core.objectives.macro_switch_max_min", "repro.experiments.r2_starvation", "macro_switch_max_min"),
    ("core.objectives.macro_switch_max_min", "repro.experiments.ecmp_simulation", "macro_switch_max_min"),
    ("core.bottleneck.certify_max_min_fair", "repro.experiments.r2_starvation", "certify_max_min_fair"),
    ("routers.local_search_congestion", "repro.experiments.ecmp_simulation", "local_search_congestion"),
    ("routers.ecmp_routing", "repro.experiments.ecmp_simulation", "ecmp_routing"),
    ("routers.greedy_least_congested", "repro.experiments.ecmp_simulation", "greedy_least_congested"),
    ("routers.two_choice_routing", "repro.experiments.ecmp_simulation", "two_choice_routing"),
    ("workloads.churn_workload", "repro.experiments.churn", "churn_workload"),
    ("workloads.churn_workload", "repro.workloads.stochastic", "churn_workload"),
    ("workloads.theorem_4_3", "repro.experiments.r2_starvation", "theorem_4_3"),
    ("workloads.theorem_4_3", "repro.workloads.adversarial", "theorem_4_3"),
    ("workloads.lemma_4_6_routing", "repro.experiments.r2_starvation", "lemma_4_6_routing"),
    ("workloads.uniform_random", "repro.experiments.ecmp_simulation", "uniform_random"),
    ("workloads.permutation", "repro.experiments.ecmp_simulation", "permutation"),
    ("workloads.hotspot", "repro.experiments.ecmp_simulation", "hotspot"),
]

#: (metric, module, attribute): existing ``repro.obs`` counters, replaced
#: during the traced run by stand-ins that count ``inc`` calls whether or
#: not ``repro.obs`` is enabled.
COUNTERS: List[Tuple[str, str, str]] = [
    ("routers.congestion_search.rounds", "repro.routers.congestion_local_search", "_ROUNDS"),
    ("routers.congestion_search.moves_accepted", "repro.routers.congestion_local_search", "_MOVES"),
]

#: Name of the root span's self time: wall time inside no wrapped layer.
OTHER = "trace.other"


class Recorder:
    """In-memory spans plus per-layer call counts and self times.

    Spans are kept in typed arrays, which the garbage collector does not
    traverse, so a long traced run does not slow the program's own
    collections down.
    """

    def __init__(self, first_id: int = 1) -> None:
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.runs: List[str] = []
        # One entry per finished span; parent 0 = none.
        self._id, self._parent = array("q"), array("q")
        self._name, self._run = array("q"), array("q")
        self._start, self._end = array("d"), array("d")
        self._calls: List[int] = []
        self._self_s: List[float] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self.next_id = first_id
        self._stack: List[int] = [0]
        self._child_s: List[float] = [0.0]
        #: Wall time of the last root span, and of all of them together.
        self.last_root_s = 0.0
        self.root_wall_s = 0.0

    def _index(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
            self._calls.append(0)
            self._self_s.append(0.0)
        return self._name_index[name]

    def _enter(self) -> Tuple[int, int]:
        span_id = self.next_id
        self.next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        self._child_s.append(0.0)
        return span_id, parent

    def _exit(self, span_id, parent, index, start, end) -> None:
        self._stack.pop()
        child_s = self._child_s.pop()
        duration = end - start
        self._child_s[-1] += duration
        self._id.append(span_id)
        self._parent.append(parent)
        self._name.append(index)
        self._run.append(len(self.runs) - 1)
        self._start.append(start)
        self._end.append(end)
        self._calls[index] += 1
        self._self_s[index] += duration - child_s

    @property
    def calls(self) -> Dict[str, int]:
        return dict(zip(self.names, self._calls))

    @property
    def self_s(self) -> Dict[str, float]:
        return dict(zip(self.names, self._self_s))

    def durations(self, name: str) -> List[float]:
        """Inclusive duration of every span of layer ``name``."""
        index = self._name_index.get(name)
        return [
            end - start
            for i, start, end in zip(self._name, self._start, self._end)
            if i == index
        ]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` inside a span named ``name``."""
        index = self._index(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, parent = self._enter()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(span_id, parent, index, start, time.perf_counter())

        return wrapper

    @contextmanager
    def root(self, run: str):
        """A root span (self time counted as :data:`OTHER`) for one run."""
        if len(self._stack) != 1:
            raise RuntimeError("root span opened inside another span")
        self.runs.append(run)
        index = self._index(OTHER)
        span_id, parent = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._exit(span_id, parent, index, start, end)
            self.last_root_s = end - start
            self.root_wall_s += end - start

    def snapshot(self) -> Dict[str, int]:
        """Call counts and counter values so far (deterministic)."""
        counts = {f"{name}.calls": n for name, n in self.calls.items() if name != OTHER}
        counts.update(self.counters)
        return counts

    def spans(self):
        """(id, parent, name, start, end, run) of every finished span."""
        for fields in zip(self._id, self._parent, self._name, self._start, self._end, self._run):
            span_id, parent, name, start, end, run = fields
            yield span_id, parent, self.names[name], start, end, self.runs[run]


def write_spans(path, *recorders: Recorder) -> None:
    """Write the recorders' spans as JSON lines: a header naming the
    fields, then one array per span."""
    with open(path, "w") as out:
        out.write(json.dumps({"fields": ["id", "parent", "name", "start", "end", "run"]}) + "\n")
        for recorder in recorders:
            for span in recorder.spans():
                out.write(json.dumps(span, separators=(",", ":")) + "\n")


class _CountingCounter:
    """Stands in for a ``repro.obs`` counter and counts its increments."""

    def __init__(self, recorder: Recorder, name: str) -> None:
        self._recorder = recorder
        self._name = name

    def inc(self, amount=1) -> None:
        self._recorder.counters[self._name] += amount


def _resolve(module_name: str, path: str):
    """(owner, attribute) for ``module:path``, or None if it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        if attr not in owner.__dict__:
            return None
    elif not hasattr(owner, attr):
        return None
    return owner, attr


def install(recorder: Recorder, wraps=WRAPS, counters=COUNTERS) -> Callable[[], None]:
    """Install the wrappers; return the function that removes them.

    Attributes that no longer exist are skipped, so a layer a later
    version of the program deletes reports zero calls instead of
    breaking the traced run.
    """
    undo = []
    for name, module_name, path in wraps:
        found = _resolve(module_name, path)
        if found is None:
            continue
        owner, attr = found
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(recorder.wrap(name, original.__func__))
        else:
            replacement = recorder.wrap(name, original)
        setattr(owner, attr, replacement)
        undo.append((owner, attr, original))
    for name, module_name, attr in counters:
        found = _resolve(module_name, attr)
        if found is None:
            continue
        owner, attr = found
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, _CountingCounter(recorder, name))

    def remove() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return remove


def layer_names(wraps=WRAPS) -> List[str]:
    """Each wrapped layer once, in table order."""
    return list(dict.fromkeys(name for name, _, _ in wraps))
