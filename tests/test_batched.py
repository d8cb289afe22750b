"""Tests for batched multi-scenario solving (:mod:`repro.core.batched`).

The contract: stacking N independent routings into one block-diagonal
batch changes *nothing* about the answers.

- Float mode is **byte-identical** to solving each instance alone with
  the ``vectorized`` backend (property-tested over random chaos
  instances, which include degenerate routings and adversarial
  capacity maps).
- ``exact=True`` is ``Fraction``-identical to the reference solver.
"""

from __future__ import annotations

from repro.chaos import random_instance
from repro.core.batched import solve_max_min_batch
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
