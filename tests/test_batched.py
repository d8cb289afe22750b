"""Tests for batched multi-scenario solving (:mod:`repro.core.batched`).

The contract: stacking N independent routings into one block-diagonal
batch changes *nothing* about the answers.

- Float mode is **byte-identical** to solving each instance alone with
  the ``vectorized`` backend (property-tested over random chaos
  instances, which include degenerate routings and adversarial
  capacity maps).
- ``exact=True`` is ``Fraction``-identical to the reference solver.
- ``jobs > 1`` (shared-memory transport, workers writing disjoint
  slices of one output array) is byte-identical to ``jobs=1``.
"""

from __future__ import annotations

import numpy as np

from repro.chaos import random_instance
from repro.core.batched import (
    compile_batch,
    solve_max_min_batch,
    waterfill_batch,
)
from repro.core.maxmin import max_min_fair
from repro.core.routing import Routing
from repro.core.solve import solve_max_min
from repro.core.topology import ClosNetwork
from repro.errors import ReproError
from repro.routers.ecmp import ecmp_routing
from repro.workloads.stochastic import uniform_random


def _chaos_pairs(seeds):
    """Solvable (routing, capacities) pairs from the chaos generator.

    Chaos instances include malformed capacity maps the solver rejects
    with typed errors; identity is only defined over the solvable ones.
    """
    pairs = []
    for seed in seeds:
        instance = random_instance(seed)
        try:
            solve_max_min(
                instance.routing, instance.capacities, backend="vectorized"
            )
        except ReproError:
            continue
        pairs.append((instance.routing, instance.capacities))
    return pairs


def _workload_pairs(n=3, scenarios=6, flows=20):
    """Well-behaved ECMP-routed random workloads on one Clos fabric."""
    network = ClosNetwork(n)
    caps = network.graph.capacities()
    pairs = []
    for seed in range(scenarios):
        workload = uniform_random(network, flows, seed=seed)
        pairs.append((ecmp_routing(network, workload, seed=seed), caps))
    return pairs


# ----------------------------------------------------------------------
# Identity properties
# ----------------------------------------------------------------------
def test_batched_bitwise_identical_to_per_instance_chaos():
    pairs = _chaos_pairs(range(24))
    assert len(pairs) >= 8  # the generator must yield real work
    batched = solve_max_min_batch(pairs)
    for (routing, capacities), alloc in zip(pairs, batched):
        single = solve_max_min(routing, capacities, backend="vectorized")
        # dict equality on floats: byte-identical rates, flow for flow
        assert alloc.rates() == single.rates()


def test_batched_bitwise_identical_to_per_instance_workloads():
    pairs = _workload_pairs()
    batched = solve_max_min_batch(pairs)
    for (routing, capacities), alloc in zip(pairs, batched):
        single = solve_max_min(routing, capacities, backend="vectorized")
        assert alloc.rates() == single.rates()


def test_batched_exact_matches_reference():
    pairs = _chaos_pairs(range(12))
    exact = solve_max_min_batch(pairs, exact=True)
    for (routing, capacities), alloc in zip(pairs, exact):
        reference = max_min_fair(routing, capacities)
        assert alloc.rates() == reference.rates()  # Fraction-identical


def test_batched_other_backend_dispatches_per_instance():
    pairs = _workload_pairs(scenarios=3)
    via_batch = solve_max_min_batch(pairs, backend="quotient")
    for (routing, capacities), alloc in zip(pairs, via_batch):
        single = solve_max_min(routing, capacities, backend="quotient")
        assert alloc.rates() == single.rates()


# ----------------------------------------------------------------------
# Degenerate scenarios
# ----------------------------------------------------------------------
def test_batched_empty_batch():
    assert solve_max_min_batch([]) == []


def test_batched_empty_scenario_sandwich():
    """A flowless scenario between two real ones must not perturb them."""
    pairs = _workload_pairs(scenarios=2)
    sandwich = [pairs[0], (Routing({}), {}), pairs[1]]
    batched = solve_max_min_batch(sandwich)
    assert batched[1].rates() == {}
    for (routing, capacities), alloc in zip(pairs, (batched[0], batched[2])):
        single = solve_max_min(routing, capacities, backend="vectorized")
        assert alloc.rates() == single.rates()


def test_batched_all_empty():
    batched = solve_max_min_batch([(Routing({}), {}), (Routing({}), {})])
    assert [alloc.rates() for alloc in batched] == [{}, {}]


# ----------------------------------------------------------------------
# Range solving (the unit the shared-memory workers execute)
# ----------------------------------------------------------------------
def test_waterfill_batch_range_matches_full_solve():
    pairs = _workload_pairs(scenarios=5)
    batch = compile_batch(pairs)
    full = waterfill_batch(batch).copy()
    out = np.zeros(batch.num_flows, dtype=np.float64)
    for first, last in ((0, 2), (2, 3), (3, 5)):
        waterfill_batch(batch, first=first, last=last, out=out)
    assert out.tobytes() == full.tobytes()


# ----------------------------------------------------------------------
# Shared-memory parallel path
# ----------------------------------------------------------------------
def test_batched_jobs_byte_identical():
    pairs = _workload_pairs(scenarios=8)
    sequential = solve_max_min_batch(pairs, jobs=1)
    parallel = solve_max_min_batch(pairs, jobs=2)
    tiny_chunks = solve_max_min_batch(pairs, jobs=3, chunksize=1)
    for seq, par, tiny in zip(sequential, parallel, tiny_chunks):
        assert par.rates() == seq.rates()
        assert tiny.rates() == seq.rates()


def test_sub_batches_byte_identical_to_unsorted():
    pairs = _workload_pairs(scenarios=8) + _chaos_pairs(range(12))
    reference = solve_max_min_batch(pairs)
    for sub_batches in (2, 3, 8, 64):
        sorted_run = solve_max_min_batch(pairs, sub_batches=sub_batches)
        for ref, alloc in zip(reference, sorted_run):
            assert alloc.rates() == ref.rates()
    combined = solve_max_min_batch(pairs, sub_batches=4, jobs=2)
    for ref, alloc in zip(reference, combined):
        assert alloc.rates() == ref.rates()


def test_sub_batches_degenerate_inputs():
    (single,) = solve_max_min_batch(_workload_pairs(scenarios=1), sub_batches=4)
    (ref,) = solve_max_min_batch(_workload_pairs(scenarios=1))
    assert single.rates() == ref.rates()
    assert solve_max_min_batch([], sub_batches=4) == []


def test_batched_jobs_matches_per_instance_chaos():
    pairs = _chaos_pairs(range(16))
    parallel = solve_max_min_batch(pairs, jobs=2, chunksize=2)
    for (routing, capacities), alloc in zip(pairs, parallel):
        single = solve_max_min(routing, capacities, backend="vectorized")
        assert alloc.rates() == single.rates()


# ----------------------------------------------------------------------
# Validation hooks
# ----------------------------------------------------------------------
def test_batched_passes_full_validation(monkeypatch):
    from repro import validate

    pairs = _workload_pairs(scenarios=3)
    with validate.validation("full"):
        batched = solve_max_min_batch(pairs)
    for (routing, capacities), alloc in zip(pairs, batched):
        single = solve_max_min(routing, capacities, backend="vectorized")
        assert alloc.rates() == single.rates()


# ----------------------------------------------------------------------
# Callers routed through the batch front door
# ----------------------------------------------------------------------
def test_enumeration_batched_allocations_match_sequential():
    from repro.search.enumeration import batched_allocations, enumerate_routings

    network = ClosNetwork(2)
    flows = uniform_random(network, 5, seed=3)
    caps = network.graph.capacities()
    expected = sum(1 for _ in enumerate_routings(network, flows))
    seen = 0
    for routing, alloc in batched_allocations(network, flows, batch_size=4):
        single = solve_max_min(routing, caps, backend="vectorized")
        assert alloc.rates() == single.rates()
        seen += 1
    assert seen == expected


def test_r3_sweep_batched_matches_default():
    from repro.experiments.r3_doom_switch import sweep

    points = ((5, 1), (7, 2))
    default = sweep(points=points)
    batched = sweep(points=points, backend="batched")
    for ref, row in zip(default, batched):
        assert (row.n, row.k, row.num_flows) == (ref.n, ref.k, ref.num_flows)
        assert row.upper_bound_holds and ref.upper_bound_holds
        assert abs(float(row.gain) - float(ref.gain)) <= 1e-9
        assert row.num_degraded == ref.num_degraded


def test_e6_stochastic_batched_matches_default():
    from repro.experiments.ecmp_simulation import stochastic_comparison

    default = stochastic_comparison(n=2, num_flows=8, seeds=(0,))
    batched = stochastic_comparison(
        n=2, num_flows=8, seeds=(0,), backend="batched"
    )
    assert len(batched) == len(default)
    for ref, row in zip(default, batched):
        assert (row.workload, row.router, row.seed) == (
            ref.workload, ref.router, ref.seed
        )
        assert abs(
            float(row.throughput_fraction) - float(ref.throughput_fraction)
        ) <= 1e-9
        assert abs(float(row.min_rate_ratio) - float(ref.min_rate_ratio)) <= 1e-9
        assert row.lex_at_most_macro == ref.lex_at_most_macro


# ----------------------------------------------------------------------
# The fuzz-level group guard
# ----------------------------------------------------------------------
def test_chaos_batched_cross_check_clean():
    from repro.chaos import batched_cross_check

    instances = [random_instance(seed) for seed in range(10)]
    assert batched_cross_check(instances) == []
