"""Experiments E3/E4 — Figure 3 / Theorems 4.2 and 4.3 (R2).

**E3 (Theorem 4.2, infeasibility).**  For the multiplicity-1 Figure 3
construction, offer every flow at its macro-switch max-min rate and
prove by exhaustive (pruned) search that *no* routing is feasible —
while the splittable LP relaxation is feasible, isolating
unsplittability as the cause.

**E4 (Theorem 4.3, starvation).**  For the multiplicity-``n+1``
construction, verify the paper's proof structure computationally:

1. the macro-switch rates match Lemma 4.4 exactly;
2. the Lemma 4.6 routing's max-min allocation matches the posited
   lex-max-min rates, certified via the bottleneck property;
3. Claim 4.5's integer analysis: ``x/(n+1) + y/n = 1`` has only the
   integer solutions ``(0, n)`` and ``(n+1, 0)``;
4. the posited optimum is a local optimum of lex-max-min hill-climbing
   (a necessary condition for global optimality the paper proves).

The headline series is the starvation factor ``1/n`` as the network
grows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Sequence, Tuple

from repro.core.allocation import distinct_objects
from repro.core.bottleneck import certify_max_min_fair
from repro.core.maxmin import max_min_fair
from repro.core.objectives import macro_switch_max_min
from repro.core.solve import EXACT_BACKENDS
from repro.core.theorems import theorem_4_3 as predict
from repro.lp.feasibility import find_feasible_routing, splittable_feasible
from repro.search.local_search import is_local_optimum
from repro.workloads.adversarial import (
    lemma_4_6_routing,
    theorem_4_2,
    theorem_4_3,
)


class InfeasibilityRow(NamedTuple):
    """E3 at one network size."""

    n: int
    num_flows: int
    unsplittable_feasible: bool  # False = Theorem 4.2 confirmed
    splittable_feasible: bool  # True = classic demand satisfaction holds


def _infeasibility_point(n: int) -> InfeasibilityRow:
    """One network size of E3."""
    instance = theorem_4_2(n)
    demands = macro_switch_max_min(instance.macro, instance.flows).rates()
    routing = find_feasible_routing(instance.clos, instance.flows, demands)
    return InfeasibilityRow(
        n=n,
        num_flows=len(instance.flows),
        unsplittable_feasible=routing is not None,
        splittable_feasible=splittable_feasible(
            instance.clos, instance.flows, demands
        ),
    )


def infeasibility_sweep(sizes: Sequence[int] = (3,)) -> List[InfeasibilityRow]:
    """E3: macro-switch max-min rates cannot be routed unsplittably.

    The exhaustive search is exponential; ``n = 3`` decides in
    milliseconds and ``n = 4`` in seconds — pass ``sizes=(3, 4)`` for the
    slower confirmation.
    """
    return [_infeasibility_point(n) for n in sizes]


class StarvationRow(NamedTuple):
    """E4 at one network size."""

    n: int
    macro_type3_rate: Fraction
    lex_type3_rate: Fraction
    starvation_factor: Fraction
    predicted_factor: Fraction
    bottleneck_certified: bool  # Lemma 4.6 Step 1 (max-min fair for routing)
    locally_optimal: bool  # necessary condition for Lemma 4.6 Step 2
    per_type_rates_match: bool  # Lemmas 4.4 and 4.6 rate tables


def _starvation_point(
    n: int,
    check_local_optimality: bool = True,
    backend: str = None,
    certify: bool = True,
) -> StarvationRow:
    """One network size of E4.

    ``backend`` optionally selects an exact solver from
    :data:`repro.core.solve.BACKENDS` — ``"quotient"`` exploits the
    construction's symmetry and extends the sweep to n ≥ 64.
    ``certify=False`` skips the bottleneck certification, and the row
    then reports ``bottleneck_certified=True`` vacuously.  The
    certificate is one exact scan over the routed paths, linear in
    their total length, so the CLI certifies at every size.
    """
    instance = theorem_4_3(n)
    prediction = predict(n)
    capacities = instance.clos.graph.capacities()

    macro = macro_switch_max_min(instance.macro, instance.flows, backend=backend)
    routing = lemma_4_6_routing(instance)
    if backend is not None:
        from repro.core.solve import solve_max_min

        alloc = solve_max_min(routing, capacities, backend=backend)
    else:
        alloc = max_min_fair(routing, capacities)

    # The exact solvers hand every flow of one class the same rate
    # object, so each distinct object is compared once per flow type.
    # Float backends get the batched path's rule: a 1e-9 relative
    # tolerance for the rates and for the certificate.
    rates_match = True
    for type_name in ("type1", "type2", "type3"):
        flows = instance.types[type_name]
        for solved, want in (
            (macro, prediction.macro_rates[type_name]),
            (alloc, prediction.lex_max_min_rates[type_name]),
        ):
            got = distinct_objects([solved[flow] for flow in flows])
            if not all(_rate_close(rate, want) for rate in got.values()):
                rates_match = False

    exact = backend is None or backend in EXACT_BACKENDS
    certified = (
        certify_max_min_fair(
            routing, alloc, capacities, tol=0.0 if exact else 1e-9
        )
        is None
        if certify
        else True
    )
    locally_optimal = (
        is_local_optimum(instance.clos, routing, objective="lex")
        if check_local_optimality
        else True
    )

    (type3,) = instance.types["type3"]
    return StarvationRow(
        n=n,
        macro_type3_rate=macro.rate(type3),
        lex_type3_rate=alloc.rate(type3),
        starvation_factor=alloc.rate(type3) / macro.rate(type3),
        predicted_factor=prediction.starvation_factor,
        bottleneck_certified=certified,
        locally_optimal=locally_optimal,
        per_type_rates_match=rates_match,
    )


def _rate_close(measured, predicted) -> bool:
    """Exact equality for exact rates; 1e-9-relative for float rates."""
    if isinstance(measured, Fraction):
        return measured == predicted
    reference = float(predicted)
    return abs(measured - reference) <= 1e-9 * (1.0 + abs(reference))


def _starvation_rows_batched(
    sizes: Sequence[int],
    check_local_optimality: bool,
    certify: bool,
) -> List[StarvationRow]:
    """E4 with every size's two solves stacked into one batched water-fill.

    All macro-switch and Lemma 4.6 allocations across the sweep become
    one block-diagonal batch (2·|sizes| scenarios), solved in floats by
    :func:`repro.core.batched.solve_max_min_batch`; rate-table and
    prediction checks compare with a 1e-9 relative tolerance instead of
    the exact path's ``==``, and certification uses the same tolerance.
    """
    from repro.core.batched import solve_max_min_batch
    from repro.core.routing import Routing

    instances = [theorem_4_3(n) for n in sizes]
    pairs = []
    for instance in instances:
        macro_routing = Routing.for_macro_switch(
            instance.macro, instance.flows
        )
        pairs.append((macro_routing, instance.macro.graph.capacities()))
        pairs.append(
            (lemma_4_6_routing(instance), instance.clos.graph.capacities())
        )
    allocations = solve_max_min_batch(pairs)

    rows: List[StarvationRow] = []
    for index, (n, instance) in enumerate(zip(sizes, instances)):
        prediction = predict(n)
        macro = allocations[2 * index]
        alloc = allocations[2 * index + 1]
        routing = pairs[2 * index + 1][0]
        capacities = pairs[2 * index + 1][1]

        rates_match = True
        for type_name in ("type1", "type2", "type3"):
            for flow in instance.types[type_name]:
                if not _rate_close(
                    macro.rate(flow), prediction.macro_rates[type_name]
                ):
                    rates_match = False
                if not _rate_close(
                    alloc.rate(flow), prediction.lex_max_min_rates[type_name]
                ):
                    rates_match = False

        certified = (
            certify_max_min_fair(routing, alloc, capacities, tol=1e-9) is None
            if certify
            else True
        )
        locally_optimal = (
            is_local_optimum(instance.clos, routing, objective="lex")
            if check_local_optimality
            else True
        )
        (type3,) = instance.types["type3"]
        rows.append(
            StarvationRow(
                n=n,
                macro_type3_rate=macro.rate(type3),
                lex_type3_rate=alloc.rate(type3),
                starvation_factor=alloc.rate(type3) / macro.rate(type3),
                predicted_factor=prediction.starvation_factor,
                bottleneck_certified=certified,
                locally_optimal=locally_optimal,
                per_type_rates_match=rates_match,
            )
        )
    return rows


def starvation_sweep(
    sizes: Sequence[int] = (3, 4, 5, 6),
    check_local_optimality: bool = True,
    backend: str = None,
    certify: bool = True,
) -> List[StarvationRow]:
    """E4: the ``1/n`` starvation of the type-3 flow, per network size.

    Pass ``backend="quotient"`` (typically with
    ``check_local_optimality=False``) to run the exact sweep at n ≥ 64
    via symmetry reduction, or ``backend="batched"`` to stack every
    size's solves into one block-diagonal float batch (fastest for wide
    sweeps of moderate sizes; rate checks then use a 1e-9 relative
    tolerance — see :func:`_starvation_rows_batched`).
    """
    if backend == "batched":
        return _starvation_rows_batched(
            sizes, check_local_optimality, certify
        )
    return [
        _starvation_point(
            n,
            check_local_optimality=check_local_optimality,
            backend=backend,
            certify=certify,
        )
        for n in sizes
    ]


class DominanceRow(NamedTuple):
    """Sampled verification of Lemma 4.6 Step 2 at one network size."""

    n: int
    samples: int
    dominated: int  # sampled routings lex-dominated by the posited optimum
    ties: int  # sampled routings achieving the same sorted vector


def random_routing_dominance(
    n: int = 3, samples: int = 200, seed: int = 0
) -> DominanceRow:
    """Lemma 4.6 Step 2, statistically: no sampled routing lex-beats ``a*``.

    The full claim quantifies over all ``n^|F|`` routings (the paper
    proves it; we certify local optimality separately).  Here we sample
    uniformly random routings and check each one's max-min sorted vector
    against the posited optimum — a cheap, high-volume falsification
    attempt that complements the structural checks.
    """
    import random as _random

    from repro.core.allocation import lex_compare

    instance = theorem_4_3(n)
    capacities = instance.clos.graph.capacities()
    optimum = max_min_fair(lemma_4_6_routing(instance), capacities)
    optimum_vector = optimum.sorted_vector()

    rng = _random.Random(seed)
    dominated = ties = 0
    from repro.core.routing import Routing

    for _ in range(samples):
        middles = {flow: rng.randint(1, n) for flow in instance.flows}
        routing = Routing.from_middles(instance.clos, instance.flows, middles)
        vector = max_min_fair(routing, capacities).sorted_vector()
        comparison = lex_compare(optimum_vector, vector)
        if comparison > 0:
            dominated += 1
        elif comparison == 0:
            ties += 1
        else:
            raise AssertionError(
                f"sampled routing lex-beats the posited optimum: {middles}"
            )
    return DominanceRow(n=n, samples=samples, dominated=dominated, ties=ties)


class Claim45Verification(NamedTuple):
    """Exhaustive verification of Claim 4.5 at one network size."""

    n: int
    num_routings: int  # feasible routings, modulo symmetry
    condition_1_holds: bool  # (x, y) ∈ {(n+1, 0), (0, n)} per (I_i, M_m)
    condition_2_holds: bool  # n−1 type-2.b flows per middle switch
    exhausted: bool  # False if the enumeration cap was hit


def claim_4_5_all_routings(
    n: int = 3, limit: int = 100_000
) -> Claim45Verification:
    """Claim 4.5 verified over *every* feasible routing (not a witness).

    Enumerates all routings that carry the type-1/type-2 flows at their
    macro-switch rates — modulo middle-switch relabeling and the
    interchange of interior-equivalent flows, both of which preserve the
    claim's switch-level counting conditions — and checks conditions (1)
    and (2) on each.  At ``n = 3`` exactly one canonical routing exists.
    """
    from fractions import Fraction as _F

    from repro.core.flows import FlowCollection
    from repro.lp.feasibility import iter_feasible_routings

    instance = theorem_4_3(n)
    sub = FlowCollection(
        f
        for key in ("type1", "type2a", "type2b")
        for f in instance.types[key]
    )
    demands = {}
    for f in instance.types["type1"]:
        demands[f] = _F(1, n + 1)
    for f in instance.types["type2a"] + instance.types["type2b"]:
        demands[f] = _F(1, n)

    count = 0
    cond1 = cond2 = True
    for routing in iter_feasible_routings(
        instance.clos, sub, demands, limit=limit
    ):
        count += 1
        middles = routing.middles(instance.clos)
        cells: dict = {}
        for f in instance.types["type1"]:
            x, y = cells.get((f.source.switch, middles[f]), (0, 0))
            cells[(f.source.switch, middles[f])] = (x + 1, y)
        for key in ("type2a", "type2b"):
            for f in instance.types[key]:
                x, y = cells.get((f.source.switch, middles[f]), (0, 0))
                cells[(f.source.switch, middles[f])] = (x, y + 1)
        if any(
            (x, y) not in {(n + 1, 0), (0, n)} for (x, y) in cells.values()
        ):
            cond1 = False
        per_middle = {m: 0 for m in range(1, n + 1)}
        for f in instance.types["type2b"]:
            per_middle[middles[f]] += 1
        if set(per_middle.values()) != {n - 1}:
            cond2 = False

    return Claim45Verification(
        n=n,
        num_routings=count,
        condition_1_holds=cond1,
        condition_2_holds=cond2,
        exhausted=count < limit,
    )


def claim_4_5_integer_solutions(n: int) -> List[Tuple[int, int]]:
    """All integer solutions of Claim 4.5's link equation for size ``n``.

    ``x/(n+1) + y/n = 1`` with ``x ∈ [0, n+1]``, ``y ∈ [0, n]``; the
    claim (via lcm(n, n+1) = n(n+1)) is that only ``(0, n)`` and
    ``(n+1, 0)`` qualify.
    """
    solutions: List[Tuple[int, int]] = []
    for x in range(n + 2):
        for y in range(n + 1):
            if Fraction(x, n + 1) + Fraction(y, n) == 1:
                solutions.append((x, y))
    return solutions
