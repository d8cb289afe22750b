"""Hill-climbing local search over routings.

For instances whose routing space is too large to enumerate, we improve a
starting routing by repeatedly moving a single flow to a different middle
switch whenever the move improves the objective.  Two objectives mirror
the paper's Definitions 2.4 and 2.5:

- ``objective="lex"`` — the sorted rate vector of the max-min fair
  allocation, compared lexicographically (lex-max-min fairness);
- ``objective="throughput"`` — the throughput of the max-min fair
  allocation (throughput-max-min fairness), with the sorted vector as a
  tie-break.

Local search gives *lower bounds* on the optima — exactly the role it
plays in our Theorem 4.3 verification: the paper proves the closed-form
lex-max-min allocation optimal, and we confirm that no single-flow move
beats it (the optimum must be a local optimum).

Each candidate move is judged by a plain
:func:`~repro.core.maxmin.max_min_fair` solve of the moved routing
(:meth:`~repro.core.routing.Routing.reassigned`), so every move passes
the same capacity validation and validation-level certificate as any
other solve.  The first-improvement scan *rotates*: after an accepted
move the next round resumes at the following flow rather than
restarting from the first, so a stretch of unimprovable flows is not
re-probed on every round.  Both :func:`improve_routing` and
:func:`is_local_optimum` draw their moves from the single
:func:`candidate_moves` generator, so the definition of the move
neighborhood cannot drift between them.

Exact searches compare rates exactly.  Float searches accept a move
only if it wins by more than rounding: the sorted vectors are compared
at the repo's :data:`~repro.validate.FLOAT_TOL` (1e-9), and a
throughput counts as higher only if it beats the incumbent's by more
than ``FLOAT_TOL * (1 + |incumbent|)``.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, Optional, Sequence, Tuple

from repro.core.allocation import Allocation, lex_compare
from repro.core.flows import Flow
from repro.core.maxmin import max_min_fair
from repro.core.routing import Routing
from repro.core.topology import ClosNetwork
from repro.obs import counter, trace_span
from repro.validate import FLOAT_TOL

#: Observability instruments (no-ops unless ``repro.obs`` is enabled).
_ROUNDS = counter("search.local.rounds")
_PROPOSED = counter("search.local.moves_proposed")
_ACCEPTED = counter("search.local.moves_accepted")


def _check_objective(objective: str) -> None:
    """Reject an unknown objective before any move is scored."""
    if objective not in ("lex", "throughput"):
        raise ValueError(f"unknown objective: {objective!r}")


def _is_better(
    objective: str,
    candidate: Allocation,
    incumbent: Allocation,
    tol: float,
) -> bool:
    """Does ``candidate`` beat ``incumbent`` by more than ``tol``?"""
    if objective == "throughput":
        gap = candidate.throughput() - incumbent.throughput()
        slack = tol * (1 + abs(incumbent.throughput())) if tol else 0
        if gap > slack:
            return True
        if gap < -slack:
            return False
    return (
        lex_compare(
            candidate.sorted_vector(), incumbent.sorted_vector(), tol=tol
        )
        > 0
    )


def candidate_moves(
    num_middles: int,
    middles: Mapping[Flow, int],
    flow_order: Sequence[Flow],
    start: int = 0,
) -> Iterator[Tuple[int, Flow, int]]:
    """Yield every single-flow move as ``(flow_index, flow, middle)``.

    The neighborhood of a Clos routing: for each flow (scanned in
    ``flow_order`` starting at index ``start`` and wrapping around) and
    each middle switch other than the flow's current one.  This is the
    single definition of the move set shared by :func:`improve_routing`
    and :func:`is_local_optimum`.
    """
    total = len(flow_order)
    for offset in range(total):
        index = (start + offset) % total
        flow = flow_order[index]
        here = middles[flow]
        for m in range(1, num_middles + 1):
            if m != here:
                yield index, flow, m


def improve_routing(
    network: ClosNetwork,
    routing: Routing,
    objective: str = "lex",
    exact: bool = True,
    max_rounds: Optional[int] = None,
    on_improvement: Optional[Callable[[Routing, Allocation], None]] = None,
) -> Tuple[Routing, Allocation]:
    """Hill-climb from ``routing`` using single-flow middle-switch moves.

    Returns the locally optimal ``(routing, allocation)``.  Each round
    applies the first improving move found, resuming the scan just past
    the previously accepted move (rotating first-improvement); the
    search stops when a full wrap-around finds no improving move or
    after ``max_rounds`` accepted-move rounds.
    """
    _check_objective(objective)
    tol = 0 if exact else FLOAT_TOL
    capacities = network.graph.capacities()
    best_alloc = max_min_fair(routing, capacities, exact=exact)
    middles = routing.middles(network)
    flow_order = routing.flows()
    start = 0
    rounds = 0
    with trace_span(
        "search.local_search",
        objective=objective,
        flows=len(flow_order),
    ) as span:
        while max_rounds is None or rounds < max_rounds:
            rounds += 1
            _ROUNDS.inc()
            improved = False
            for index, flow, m in candidate_moves(
                network.num_middles, middles, flow_order, start
            ):
                _PROPOSED.inc()
                candidate = routing.reassigned(network, flow, m)
                candidate_alloc = max_min_fair(candidate, capacities, exact=exact)
                if _is_better(objective, candidate_alloc, best_alloc, tol):
                    routing, best_alloc = candidate, candidate_alloc
                    middles[flow] = m
                    improved = True
                    _ACCEPTED.inc()
                    start = (index + 1) % len(flow_order)
                    if on_improvement is not None:
                        on_improvement(routing, best_alloc)
                    break
            if not improved:
                break
        span.set(rounds=rounds)
    return routing, best_alloc


def is_local_optimum(
    network: ClosNetwork,
    routing: Routing,
    objective: str = "lex",
    exact: bool = True,
) -> bool:
    """True if no single-flow middle-switch move improves the objective."""
    _check_objective(objective)
    tol = 0 if exact else FLOAT_TOL
    capacities = network.graph.capacities()
    incumbent = max_min_fair(routing, capacities, exact=exact)
    for _, flow, m in candidate_moves(
        network.num_middles, routing.middles(network), routing.flows()
    ):
        moved = routing.reassigned(network, flow, m)
        if _is_better(
            objective,
            max_min_fair(moved, capacities, exact=exact),
            incumbent,
            tol,
        ):
            return False
    return True
