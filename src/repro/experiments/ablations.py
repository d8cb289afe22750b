"""Ablation experiments A1 and A2 — design choices the paper leaves implicit.

**A1 (Doom-Switch line 3).**  Algorithm 1 dumps the unmatched flows on
the middle switch with the *smallest* color class.  How much does that
choice matter?  We compare three dump policies on the Figure 4
construction: ``least`` (the paper's), ``most`` (adversarially bad: the
doomed flows collide with the largest set of matched flows), and
``round_robin`` (spread the doomed flows — which reads as fairer but
dilutes the throughput gain by disturbing *every* middle switch).

**A2 (search strategy).**  How close does cheap hill-climbing get to
the exhaustive lex-max-min and throughput-max-min optima, and how much
does middle-switch symmetry pruning shrink the exhaustive search?  Run
on small random instances where the exact optimum is computable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Sequence, Tuple

from repro.core.allocation import lex_compare
from repro.core.doom_switch import doom_switch
from repro.core.objectives import (
    lex_max_min_fair,
    macro_switch_max_min,
    throughput_max_min_fair,
)
from repro.core.topology import ClosNetwork
from repro.routers.ecmp import ecmp_routing
from repro.search.enumeration import routing_space_size
from repro.search.local_search import improve_routing
from repro.workloads.adversarial import theorem_5_4
from repro.workloads.stochastic import uniform_random


class DumpPolicyRow(NamedTuple):
    """A1: one (n, k, policy) cell."""

    n: int
    k: int
    policy: str
    throughput: Fraction
    gain_vs_macro: Fraction
    min_rate: Fraction


def dump_policy_ablation(
    points: Sequence[Tuple[int, int]] = ((7, 1), (9, 2), (11, 4)),
    policies: Sequence[str] = ("least", "most", "round_robin"),
) -> List[DumpPolicyRow]:
    """A1: Doom-Switch line-3 policy comparison on the Figure 4 gadget."""
    rows: List[DumpPolicyRow] = []
    for n, k in points:
        instance = theorem_5_4(n, k)
        macro = macro_switch_max_min(instance.macro, instance.flows)
        for policy in policies:
            result = doom_switch(instance.clos, instance.flows, dump_policy=policy)
            throughput = result.allocation.throughput()
            rows.append(
                DumpPolicyRow(
                    n=n,
                    k=k,
                    policy=policy,
                    throughput=throughput,
                    gain_vs_macro=throughput / macro.throughput(),
                    min_rate=min(result.allocation.sorted_vector()),
                )
            )
    return rows


class SearchAblationRow(NamedTuple):
    """A2: one random instance."""

    seed: int
    num_flows: int
    space_full: int  # n^|F|
    space_reduced: int  # symmetry-orbit representatives
    lex_local_matches_exact: bool  # hill-climb reaches the lex optimum
    throughput_local: Fraction
    throughput_exact: Fraction
    local_gap: Fraction  # exact − local throughput (≥ 0)


def search_ablation(
    n: int = 2, num_flows: int = 5, seeds: Sequence[int] = range(4)
) -> List[SearchAblationRow]:
    """A2: local search vs exhaustive optima on small random instances."""
    network = ClosNetwork(n)
    rows: List[SearchAblationRow] = []
    for seed in seeds:
        flows = uniform_random(network, num_flows, seed=seed)
        exact_lex = lex_max_min_fair(network, flows)
        exact_thr = throughput_max_min_fair(network, flows)

        start = ecmp_routing(network, flows, seed=seed)
        _, local_lex = improve_routing(network, start, objective="lex")
        _, local_thr = improve_routing(network, start, objective="throughput")

        rows.append(
            SearchAblationRow(
                seed=seed,
                num_flows=num_flows,
                space_full=routing_space_size(num_flows, n, use_symmetry=False),
                space_reduced=routing_space_size(num_flows, n, use_symmetry=True),
                lex_local_matches_exact=(
                    lex_compare(
                        local_lex.sorted_vector(),
                        exact_lex.allocation.sorted_vector(),
                    )
                    == 0
                ),
                throughput_local=local_thr.throughput(),
                throughput_exact=exact_thr.allocation.throughput(),
                local_gap=exact_thr.allocation.throughput()
                - local_thr.throughput(),
            )
        )
    return rows
