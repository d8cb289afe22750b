"""Microbenchmarks of the computational kernels (scaling sanity).

Not a paper artifact; tracks the cost of the primitives every
experiment is built from, so regressions in the hot paths are visible.

Run:  pytest benchmarks/test_bench_kernels.py --benchmark-only
"""

import pytest

from repro.core.doom_switch import doom_switch
from repro.core.maxmin import max_min_fair
from repro.core.throughput import max_throughput_value
from repro.core.topology import ClosNetwork, MacroSwitch
from repro.routers.ecmp import ecmp_routing
from repro.routers.greedy import greedy_least_congested
from repro.workloads.stochastic import uniform_random


@pytest.fixture(scope="module")
def big_instance():
    clos = ClosNetwork(8)
    flows = uniform_random(clos, 400, seed=0)
    return clos, flows


def test_bench_water_filling_exact(benchmark, big_instance):
    clos, flows = big_instance
    routing = ecmp_routing(clos, flows)
    capacities = clos.graph.capacities()
    alloc = benchmark(max_min_fair, routing, capacities, True)
    assert len(alloc) == 400


def test_bench_water_filling_float(benchmark, big_instance):
    clos, flows = big_instance
    routing = ecmp_routing(clos, flows)
    capacities = clos.graph.capacities()
    alloc = benchmark(max_min_fair, routing, capacities, False)
    assert len(alloc) == 400


def test_bench_macro_switch_water_filling(benchmark, big_instance):
    from repro.core.routing import Routing

    clos, flows = big_instance
    ms = MacroSwitch(clos.n)
    routing = Routing.for_macro_switch(ms, flows)
    alloc = benchmark(max_min_fair, routing, ms.graph.capacities(), True)
    assert len(alloc) == 400


def test_bench_hopcroft_karp(benchmark, big_instance):
    _, flows = big_instance
    value = benchmark(max_throughput_value, flows)
    assert value > 0


def test_bench_doom_switch(benchmark, big_instance):
    clos, flows = big_instance
    result = benchmark(doom_switch, clos, flows)
    assert len(result.matched) == max_throughput_value(flows)


def test_bench_greedy_router(benchmark, big_instance):
    clos, flows = big_instance
    routing = benchmark(greedy_least_congested, clos, flows)
    assert len(routing) == 400


def test_bench_topology_construction(benchmark):
    clos = benchmark(ClosNetwork, 16)
    assert clos.graph.num_links() == 4 * 16 * 16 * 2



def test_bench_clos_array_compile(benchmark):
    """Clos routing → CSR incidence from int arrays (no Flow/Path objects)."""
    import random

    import numpy as np

    from repro.core.vectorized import LinkTable, clos_link_ids, compile_link_ids

    clos = ClosNetwork(8)
    capacities = clos.graph.capacities()
    flows = list(uniform_random(clos, 4000, seed=0))
    rng = random.Random(0)
    columns = [
        np.array([f.source.switch for f in flows]),
        np.array([f.source.server for f in flows]),
        np.array([f.dest.switch for f in flows]),
        np.array([f.dest.server for f in flows]),
        np.array([rng.randint(1, clos.num_middles) for _ in flows]),
    ]

    def compile_arrays():
        ids = clos_link_ids(clos, *columns)
        return compile_link_ids(ids, LinkTable(capacities, capacities), flows)

    compiled = benchmark(compile_arrays)
    assert len(compiled) == 4000
