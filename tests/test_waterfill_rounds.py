"""Round-by-round oracle for the float water-fill kernels.

Every round of :func:`repro.core.vectorized._run_rounds` (behind
:func:`~repro.core.vectorized.waterfill` and
:class:`~repro.core.streaming.StreamingMaxMin`) and of
:func:`~repro.core.batched.waterfill_batch` must freeze exactly the
active flows that cross a link whose level lies within the saturation
band, at the water level ``λ``.  The oracle below recomputes both with
a per-link Python loop over its own copy of the residuals and counts,
so a kernel that admits a dead slot, refreezes a frozen flow or misses
a member of a saturating link fails here.
"""

import random

import numpy as np
import pytest

from repro.core import streaming as streaming_module
from repro.core import vectorized
from repro.core.batched import compile_batch, waterfill_batch
from repro.core.maxmin import _BAND
from repro.core.routing import Routing
from repro.core.streaming import StreamingMaxMin
from repro.core.topology import ClosNetwork
from repro.core.vectorized import capacity_vector, compile_routing, waterfill
from repro.topologies.fattree import FatTree, ecmp_fat_tree_routing
from repro.workloads.stochastic import uniform_random

INF = float("inf")


def check_rounds(rows, residual, count, active, rounds, segments=None):
    """Replay ``rounds`` — ``(rnd, λ, frozen_ids)`` as recorded — against
    a per-link Python water-fill from the same starting state.

    ``rows[i]`` lists row ``i``'s link ids; ``segments`` splits the links
    into independent scenarios (``(lo, hi)`` link ranges, one λ each, as
    in a batch); ``None`` means one scenario over all links and a scalar
    λ.
    """
    residual, count, live = list(residual), list(count), list(active)
    n_links = len(residual)
    scalar = segments is None
    if scalar:
        segments = [(0, n_links)]
    crossing = [[] for _ in range(n_links)]
    for i, row in enumerate(rows):
        for j in row:
            crossing[j].append(i)
    scenario_of = [0] * n_links
    for s, (lo, hi) in enumerate(segments):
        scenario_of[lo:hi] = [s] * (hi - lo)
    for rnd, lam, frozen in rounds:
        lam = [lam] if scalar else list(lam)
        expected_lam, expected = [], set()
        for s, (lo, hi) in enumerate(segments):
            levels = {
                j: residual[j] / count[j]
                for j in range(lo, hi)
                if count[j] > 0
            }
            if not levels:
                expected_lam.append(-INF)
                continue
            level = max(0.0, min(levels.values()))
            expected_lam.append(level)
            band = level + _BAND * (1.0 + level)
            for j, value in levels.items():
                if value <= band:
                    expected.update(i for i in crossing[j] if live[i])
        assert lam == expected_lam, f"round {rnd}"
        assert list(frozen) == sorted(expected), f"round {rnd}"
        hits = [0] * n_links
        for i in frozen:
            live[i] = False
            for j in rows[i]:
                hits[j] += 1
        for j, h in enumerate(hits):
            if h:
                residual[j] -= lam[scenario_of[j]] * h
                count[j] -= h
    assert not any(live), "active rows left unfrozen"


class RecordingRounds:
    """Stands in for ``_run_rounds``: records each call's starting state
    and every round's ``(rnd, λ, frozen_ids)``, then runs the kernel."""

    def __init__(self, run_rounds):
        self.run_rounds = run_rounds
        self.calls = []

    def __call__(
        self, flow_ptr, flow_link, n_links, residual, count, active,
        rates, remaining, on_round_end=None,
    ):
        call = {
            "rows": [
                flow_link[flow_ptr[i]:flow_ptr[i + 1]].tolist()
                for i in range(active.size)
            ],
            "residual": residual.tolist(),
            "count": count.tolist(),
            "active": active.tolist(),
            "rounds": [],
        }
        self.calls.append(call)

        def end(rnd, lam, frozen_ids):
            call["rounds"].append((rnd, lam, frozen_ids.tolist()))
            if on_round_end is not None:
                on_round_end(rnd, lam, frozen_ids)

        return self.run_rounds(
            flow_ptr, flow_link, n_links, residual, count, active, rates,
            remaining, on_round_end=end,
        )

    def check(self):
        assert self.calls
        for call in self.calls:
            assert call["rounds"]
            check_rounds(
                call["rows"], call["residual"], call["count"],
                call["active"], call["rounds"],
            )


def _random_caps(capacities, rng):
    return {
        link: rng.choice([1, 2, 3, 0.5, 1.5, 2.5]) for link in capacities
    }


def _fat_tree_routing(seed):
    rng = random.Random(seed)
    tree = FatTree(4)
    hosts = list(tree.hosts)
    triples = []
    for tag in range(rng.randint(5, 60)):
        src, dst = rng.sample(hosts, 2)
        triples.append((src, dst, tag))
    routing = Routing(ecmp_fat_tree_routing(tree, triples, seed=seed))
    return routing, _random_caps(tree.graph.capacities(), rng)


def _clos_routing_some_infinite(seed):
    """A Clos routing whose rows have 2–4 finite links: some ToR↔middle
    links are infinite and dropped at compile time."""
    rng = random.Random(seed)
    clos = ClosNetwork(rng.randint(2, 4))
    caps = _random_caps(clos.graph.capacities(), rng)
    for link in caps:
        if link[0] in clos.middle_switches or link[1] in clos.middle_switches:
            if rng.random() < 0.4:
                caps[link] = INF
    flows = uniform_random(clos, rng.randint(5, 80), seed=seed)
    middles = {f: rng.randint(1, clos.num_middles) for f in flows}
    return Routing.from_middles(clos, flows, middles), caps


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "build", [_fat_tree_routing, _clos_routing_some_infinite],
    ids=["fat-tree", "clos-infinite-interior"],
)
def test_waterfill_rounds_match_oracle(monkeypatch, build, seed):
    routing, caps = build(seed)
    compiled = compile_routing(routing, caps)
    recorder = RecordingRounds(vectorized._run_rounds)
    monkeypatch.setattr(vectorized, "_run_rounds", recorder)
    waterfill(compiled, capacity_vector(compiled, caps))
    recorder.check()


def test_ragged_instances_are_ragged():
    for build in (_fat_tree_routing, _clos_routing_some_infinite):
        widths = set()
        for seed in range(6):
            routing, caps = build(seed)
            compiled = compile_routing(routing, caps)
            widths |= set(np.diff(compiled.flow_ptr).tolist())
        assert len(widths) >= 2, build.__name__


def test_streaming_rounds_match_oracle_with_dead_and_spare_slots(monkeypatch):
    rng = random.Random(5)
    clos = ClosNetwork(3)
    caps = _random_caps(clos.graph.capacities(), rng)
    flows = list(uniform_random(clos, 120, seed=5))
    paths = {
        f: clos.path_via(f.source, f.dest, rng.randint(1, clos.num_middles))
        for f in flows
    }
    recorder = RecordingRounds(streaming_module._run_rounds)
    monkeypatch.setattr(streaming_module, "_run_rounds", recorder)
    solver = StreamingMaxMin(caps)
    seen = {"dead": 0, "spare": 0, "both": 0}

    def solve_and_check():
        before = len(recorder.calls)
        solver.solve()
        (call,) = recorder.calls[before:]
        # The kernel sees exactly the used slots, never the spare
        # capacity of the slot arrays, and starts from every alive one.
        assert len(call["active"]) == solver._nslots
        alive = solver._alive[: solver._nslots]
        assert call["active"] == alive.tolist()
        dead = int((~alive).sum())
        spare = solver._alive.size - solver._nslots
        seen["dead"] += dead
        seen["spare"] += spare
        seen["both"] += bool(dead and spare)
        recorder.check()

    tracked = []
    for flow in flows[:20]:
        solver.add(flow, paths[flow])
        tracked.append(flow)
    solve_and_check()
    for step, flow in enumerate(flows[20:]):
        solver.add(flow, paths[flow])
        tracked.append(flow)
        if step % 3 == 0:
            solver.remove(tracked.pop(rng.randrange(len(tracked))))
        solve_and_check()
    assert seen["dead"] > 0, "no solve ran with dead slots"
    assert seen["spare"] > 0, "no solve ran with spare slots"
    assert seen["both"] > 0, "no solve ran with dead and spare slots"


@pytest.mark.parametrize("seed", range(3))
def test_batch_rounds_match_oracle(seed):
    builds = [_fat_tree_routing, _clos_routing_some_infinite]
    pairs = [builds[k % 2](seed * 10 + k) for k in range(8)]
    batch = compile_batch(pairs)
    rounds = []
    waterfill_batch(
        batch,
        on_round_end=lambda rnd, lam, frozen: rounds.append(
            (rnd, lam.tolist(), frozen.tolist())
        ),
    )
    rows = [
        batch.flow_link[batch.flow_ptr[i]:batch.flow_ptr[i + 1]].tolist()
        for i in range(batch.num_flows)
    ]
    ptr = batch.scn_link_ptr.tolist()
    check_rounds(
        rows,
        batch.caps.tolist(),
        np.bincount(batch.flow_link, minlength=len(batch.caps)).tolist(),
        [True] * batch.num_flows,
        rounds,
        segments=list(zip(ptr[:-1], ptr[1:])),
    )
