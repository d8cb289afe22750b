"""Incremental evaluation of single-flow middle-switch moves.

The search layers explore routings one single-flow reassignment at a
time.  Re-solving ``max_min_fair`` from scratch for every candidate move
rebuilds the whole link-occupancy map (``flows_per_link``), re-validates
and re-coerces every capacity, and constructs a fresh :class:`Routing`
object — all to evaluate a perturbation that touches exactly four
link-membership entries of a Clos network (``I_i → M_old``,
``M_old → O_j``, ``I_i → M_new``, ``M_new → O_j``; the server links are
unchanged by construction).

:class:`MoveEvaluator` keeps the link-occupancy structure of a routing
*mutable* and evaluates a move by patching those four entries, running
the shared water-filling loop (:func:`repro.core.maxmin._fill`) with one
route per flow, and reverting the patch.  The rates produced are
the max-min fair allocation of the *moved* routing — the allocation is
unique per routing, so in exact mode the result is ``Fraction``-identical
to a full :func:`~repro.core.maxmin.max_min_fair` solve (property-tested
in ``tests/test_cache_incremental.py``).

An optional :class:`~repro.core.cache.AllocationCache` short-circuits
moves whose resulting routing was already solved anywhere (by this
evaluator, a previous full solve, or another evaluator sharing the
cache); candidate fingerprints are derived in O(|F|) by single-entry
replacement in the cached base fingerprint, without building the moved
routing.

:func:`delta_max_min_fair` is the one-shot functional wrapper around the
evaluator for callers that evaluate a single move.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.errors import UnknownFlowError
from repro.core.allocation import Allocation, Rate
from repro.core.cache import AllocationCache
from repro.core.flows import Flow
from repro.core.maxmin import _fill, validate_capacities
from repro.core.nodes import InputSwitch, MiddleSwitch, OutputSwitch
from repro.core.routing import Link, Routing
from repro.core.topology import ClosNetwork, Path
from repro.obs import counter

_INF = float("inf")

#: Observability instruments (no-ops unless ``repro.obs`` is enabled).
_EVALS = counter("incremental.evals")
_APPLIES = counter("incremental.applies")

__all__ = ["Move", "MoveEvaluator", "delta_max_min_fair"]


class Move(NamedTuple):
    """A single-flow reassignment: route ``flow`` through ``M_middle``."""

    flow: Flow
    middle: int


class MoveEvaluator:
    """Evaluates single-flow middle-switch moves without full re-solves.

    The evaluator snapshots ``routing``'s link occupancy once, then:

    - :meth:`evaluate` returns the max-min fair allocation of the
      routing with one flow moved (the base routing is untouched);
    - :meth:`apply` commits a move, making it the new base;
    - :meth:`base_allocation` solves the current base.

    All allocations go through ``cache`` when one is given, so repeated
    visits to the same routing (by any consumer of the cache) are free.

    >>> from repro.core.flows import FlowCollection, Flow
    >>> clos = ClosNetwork(2)
    >>> flows = FlowCollection([Flow(clos.source(1, 1), clos.destination(3, 1)),
    ...                         Flow(clos.source(1, 2), clos.destination(3, 1))])
    >>> routing = Routing.from_middles(clos, flows, {f: 1 for f in flows})
    >>> ev = MoveEvaluator(clos, routing)
    >>> ev.evaluate(flows[1], 2).sorted_vector()
    [Fraction(1, 2), Fraction(1, 2)]
    >>> ev.base_allocation().sorted_vector()  # base unchanged
    [Fraction(1, 2), Fraction(1, 2)]
    """

    def __init__(
        self,
        network: ClosNetwork,
        routing: Routing,
        capacities: Optional[Mapping[Link, Rate]] = None,
        exact: bool = True,
        cache: Optional[AllocationCache] = None,
    ) -> None:
        self.network = network
        self.exact = exact
        self.cache = cache
        #: The *identity-significant* capacities mapping: cache keys use
        #: ``id(self.capacities)``, matching what full solves are keyed on.
        self.capacities: Mapping[Link, Rate] = (
            network.graph.capacities() if capacities is None else capacities
        )

        self._paths: Dict[Flow, Path] = {
            flow: routing.path(flow) for flow in routing.flows()
        }
        self._middles: Dict[Flow, int] = routing.middles(network)
        self._flows: List[Flow] = list(self._paths)

        # Mutable link occupancy; evaluate() patches and reverts it.
        self._link_flows: Dict[Link, List[Flow]] = routing.flows_per_link()
        self._flow_links: Dict[Flow, List[Link]] = {
            flow: list(zip(path, path[1:]))
            for flow, path in self._paths.items()
        }
        validate_capacities(self._link_flows, self.capacities)

        # Finite links get int ids in order of first sight, grown
        # lazily as moves touch new links (None marks an infinite,
        # unconstraining link); each flow keeps the ids of its path's
        # finite links for `_fill`.
        self._link_id: Dict[Link, Optional[int]] = {}
        self._link_capacity: List[Rate] = []
        self._flow_ids: Dict[Flow, List[int]] = {
            flow: self._finite_ids(links)
            for flow, links in self._flow_links.items()
        }
        self._routes: List[Tuple[Flow]] = [(flow,) for flow in self._flows]

        # Canonical fingerprint of the base routing + each flow's slot,
        # so candidate fingerprints are single-entry tuple splices.
        self._fingerprint: Tuple[Tuple[Flow, Path], ...] = routing.fingerprint()
        self._fp_index: Dict[Flow, int] = {
            flow: index for index, (flow, _) in enumerate(self._fingerprint)
        }

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def middles(self) -> Dict[Flow, int]:
        """The current flow → middle-switch map (do not mutate)."""
        return self._middles

    def fingerprint(self) -> Tuple[Tuple[Flow, Path], ...]:
        """The canonical fingerprint of the current base routing."""
        return self._fingerprint

    def candidate_fingerprint(
        self, flow: Flow, m: int
    ) -> Tuple[Tuple[Flow, Path], ...]:
        """The fingerprint of the base routing with ``flow`` moved to
        ``M_m``, without building the moved routing.

        The fingerprint is sorted by flow (keys are unique), so replacing
        the path in ``flow``'s slot preserves canonical order.
        """
        if flow not in self._fp_index:
            raise UnknownFlowError(flow)
        path = self.network.path_via(flow.source, flow.dest, m)
        index = self._fp_index[flow]
        base = self._fingerprint
        return base[:index] + ((flow, path),) + base[index + 1 :]

    def routing(self) -> Routing:
        """A :class:`Routing` snapshot of the current base."""
        return Routing(self._paths)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def _finite_ids(self, links: List[Link]) -> List[int]:
        """The ids of the finite-capacity ``links``, assigning new ones."""
        ids = []
        for link in links:
            try:
                index = self._link_id[link]
            except KeyError:
                raw = self.capacities[link]
                index = None
                if raw != _INF:
                    index = len(self._link_capacity)
                    self._link_capacity.append(
                        Fraction(raw) if self.exact else float(raw)
                    )
                self._link_id[link] = index
            if index is not None:
                ids.append(index)
        return ids

    def _solve_current(self) -> Allocation:
        """Water-fill the current (possibly patched) link occupancy."""
        rates: Dict[Flow, Rate] = {}
        _fill(
            self._routes,
            [self._flow_ids[flow] for flow in self._flows],
            self._link_capacity,
            rates,
            self.exact,
        )
        from repro.validate import validate_structure, validation_level

        # Certify only at `full`: move evaluation is the search layers'
        # hot loop, and the patched occupancy never materializes a
        # Routing, so the structure-level certifier runs in place.
        if validation_level() == "full":
            validate_structure(
                self._link_flows,
                self._flow_links,
                rates,
                self.capacities,
                level="full",
                context="incremental.move",
            )
        return Allocation(rates)

    def _patch(self, flow: Flow, old_m: int, new_m: int) -> None:
        """Move ``flow``'s interior links from ``M_old_m`` to ``M_new_m``."""
        inp = InputSwitch(flow.source.switch)
        out = OutputSwitch(flow.dest.switch)
        old_mid, new_mid = MiddleSwitch(old_m), MiddleSwitch(new_m)
        for link in ((inp, old_mid), (old_mid, out)):
            self._link_flows[link].remove(flow)
        for link in ((inp, new_mid), (new_mid, out)):
            self._link_flows.setdefault(link, []).append(flow)
        path = self.network.path_via(flow.source, flow.dest, new_m)
        self._paths[flow] = path
        self._flow_links[flow] = links = list(zip(path, path[1:]))
        self._flow_ids[flow] = self._finite_ids(links)
        self._middles[flow] = new_m

    def base_allocation(self) -> Allocation:
        """The max-min fair allocation of the current base routing."""
        if self.cache is not None:
            found = self.cache.get(self._fingerprint, self.capacities, self.exact)
            if found is not None:
                return found
        allocation = self._solve_current()
        if self.cache is not None:
            self.cache.put(
                self._fingerprint, self.capacities, self.exact, allocation
            )
        return allocation

    def evaluate(self, flow: Flow, m: int) -> Allocation:
        """The allocation of the base routing with ``flow`` moved to ``M_m``.

        The base routing is left untouched.  Exact-mode results are
        ``Fraction``-identical to ``max_min_fair`` on the moved routing.
        """
        if flow not in self._middles:
            raise UnknownFlowError(flow)
        _EVALS.inc()
        here = self._middles[flow]
        if m == here:
            return self.base_allocation()

        fingerprint = None
        if self.cache is not None:
            fingerprint = self.candidate_fingerprint(flow, m)
            found = self.cache.get(fingerprint, self.capacities, self.exact)
            if found is not None:
                return found

        self._patch(flow, here, m)
        try:
            allocation = self._solve_current()
        finally:
            self._patch(flow, m, here)

        if self.cache is not None:
            self.cache.put(fingerprint, self.capacities, self.exact, allocation)
        return allocation

    def apply(self, flow: Flow, m: int) -> None:
        """Commit a move: the base routing now sends ``flow`` via ``M_m``."""
        if flow not in self._middles:
            raise UnknownFlowError(flow)
        here = self._middles[flow]
        if m == here:
            return
        _APPLIES.inc()
        self._patch(flow, here, m)
        index = self._fp_index[flow]
        self._fingerprint = (
            self._fingerprint[:index]
            + ((flow, self._paths[flow]),)
            + self._fingerprint[index + 1 :]
        )


def delta_max_min_fair(
    network: ClosNetwork,
    routing: Routing,
    move: Move,
    capacities: Optional[Mapping[Link, Rate]] = None,
    exact: bool = True,
    cache: Optional[AllocationCache] = None,
) -> Allocation:
    """The max-min fair allocation of ``routing`` with ``move`` applied.

    One-shot wrapper over :class:`MoveEvaluator` — for evaluating many
    moves against the same base, build the evaluator once instead.
    """
    evaluator = MoveEvaluator(
        network, routing, capacities=capacities, exact=exact, cache=cache
    )
    return evaluator.evaluate(move.flow, move.middle)
