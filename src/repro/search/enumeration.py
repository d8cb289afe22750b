"""Enumeration of the routing space of a Clos network.

A routing in ``C_n`` is a flow → middle-switch assignment, so the raw
routing space has ``n^|F|`` elements.  Two symmetries cut this down:

- **Middle-switch symmetry.**  ``C_n`` is invariant under any permutation
  of its middle switches (all ``I_i M_m`` / ``M_m O_i`` links are
  identical), so assignments that differ only by relabeling middle
  switches yield identical sorted rate vectors and throughput.  We
  enumerate one canonical representative per orbit using *restricted
  growth strings*: the first flow always uses switch 1, and each later
  flow uses a switch index at most one above the maximum used so far.
  This reduces ``n^F`` to the number of set partitions into ≤ n blocks
  (a Stirling-number count), an ``n!``-ish saving.

The objective solvers in :mod:`repro.core.objectives` consume these
enumerations; they are exact on the orbit representatives because both
objectives (sorted-vector lexicographic order and throughput) are
invariant under the symmetry.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.core.flows import Flow, FlowCollection
from repro.core.routing import Routing
from repro.core.topology import ClosNetwork


def canonical_assignments(
    flows: FlowCollection, n: int
) -> Iterator[Dict[Flow, int]]:
    """Yield one flow → middle-switch map per middle-switch-symmetry orbit.

    Assignments are restricted growth strings over switch indices
    ``1..n``: the first flow maps to 1 and every subsequent flow maps to
    an index at most ``1 + max`` of the indices used so far (capped at
    ``n``).

    >>> from repro.core.topology import ClosNetwork
    >>> from repro.workloads.adversarial import example_2_3  # doctest: +SKIP
    """
    flow_list = list(flows)
    if not flow_list:
        yield {}
        return

    def recurse(index: int, highest: int, partial: Dict[Flow, int]):
        if index == len(flow_list):
            yield dict(partial)
            return
        limit = min(n, highest + 1)
        for m in range(1, limit + 1):
            partial[flow_list[index]] = m
            yield from recurse(index + 1, max(highest, m), partial)
        del partial[flow_list[index]]

    yield from recurse(0, 0, {})


def all_assignments(flows: FlowCollection, n: int) -> Iterator[Dict[Flow, int]]:
    """Yield every flow → middle-switch map (the full ``n^|F|`` space)."""
    flow_list = list(flows)

    def recurse(index: int, partial: Dict[Flow, int]):
        if index == len(flow_list):
            yield dict(partial)
            return
        for m in range(1, n + 1):
            partial[flow_list[index]] = m
            yield from recurse(index + 1, partial)
        del partial[flow_list[index]]

    yield from recurse(0, {})


def enumerate_routings(
    network: ClosNetwork,
    flows: FlowCollection,
    use_symmetry: bool = True,
) -> Iterator[Routing]:
    """Yield routings of ``flows`` in ``network``.

    With ``use_symmetry=True`` (default) one representative per
    middle-switch-symmetry orbit is produced; sorted rate vectors and
    throughputs over the full space coincide with those over the
    representatives.
    """
    generator = canonical_assignments if use_symmetry else all_assignments
    for assignment in generator(flows, network.num_middles):
        yield Routing.from_middles(network, flows, assignment)


def routing_space_size(num_flows: int, n: int, use_symmetry: bool) -> int:
    """The number of assignments the corresponding enumeration visits."""
    if not use_symmetry:
        return n ** num_flows
    # Restricted growth strings with values capped at n: count by dynamic
    # programming over (position, highest value used).
    counts: List[int] = [0] * (n + 1)
    counts[0] = 1
    for _ in range(num_flows):
        nxt = [0] * (n + 1)
        for highest, ways in enumerate(counts):
            if not ways:
                continue
            limit = min(n, highest + 1)
            for m in range(1, limit + 1):
                nxt[max(highest, m)] += ways
        counts = nxt
    return sum(counts[1:]) if num_flows else 1
