"""Routings: per-flow path assignments (§2.2).

Given a collection ``F`` of flows, a *routing* assigns each flow ``f`` to
one ``s_f → t_f`` path.  In the macro-switch the routing is unique; in a
Clos network of size ``n`` each flow independently chooses one of ``n``
paths (equivalently, one middle switch), so a routing is fully described
by a flow → middle-switch map.

This module provides the :class:`Routing` container plus the conversions
between the two representations and the link-load bookkeeping used by
feasibility checks and the water-filling algorithm.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import InfeasibleRoutingError, UnknownFlowError
from repro.core.flows import Flow, FlowCollection
from repro.core.nodes import ClosNode, MiddleSwitch
from repro.core.topology import ClosNetwork, MacroSwitch, Path

Link = Tuple[ClosNode, ClosNode]
#: One run of consecutive flows on one path object: ``(path, flows)``.
Route = Tuple[Path, Tuple[Flow, ...]]
#: The routes compiled to int link ids: ``(link id map, ids per route)``.
LinkIds = Tuple[Dict[Link, int], Tuple[Tuple[int, ...], ...]]


class Routing:
    """An assignment of each flow in a collection to a path.

    Instances are immutable once built; use :meth:`reassigned` to derive
    a new routing with one flow moved (the primitive step of local
    search over routings).

    The constructors below give parallel flows (same source, destination
    and middle switch) one shared path object, so :meth:`routes` groups
    them and the exact solvers and certificates work once per route.
    """

    def __init__(self, assignment: Mapping[Flow, Path]) -> None:
        self._paths: Dict[Flow, Path] = dict(assignment)
        self._routes: Optional[Tuple[Route, ...]] = None
        self._link_ids: Optional[LinkIds] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def for_macro_switch(
        cls, network: MacroSwitch, flows: FlowCollection
    ) -> "Routing":
        """The unique routing in a macro-switch.

        Flows on one ``(source, dest)`` pair share one path object.  A
        run of consecutive flows on one pair reuses the previous path
        without a lookup.
        """
        shared: Dict[tuple, Path] = {}
        paths: Dict[Flow, Path] = {}
        source = dest = path = None
        for flow in flows:
            if flow.source is not source or flow.dest is not dest:
                source, dest = pair = flow.source, flow.dest
                path = shared.get(pair)
                if path is None:
                    path = shared[pair] = network.path(*pair)
            paths[flow] = path
        return cls(paths)

    @classmethod
    def from_middles(
        cls,
        network: ClosNetwork,
        flows: FlowCollection,
        middles: Mapping[Flow, int],
    ) -> "Routing":
        """A Clos routing from a flow → middle-switch-index map (1-based).

        Flows on one ``(source, dest, middle)`` share one path object.
        """
        shared: Dict[tuple, Path] = {}
        paths: Dict[Flow, Path] = {}
        try:
            for flow in flows:
                key = (flow.source, flow.dest, middles[flow])
                path = shared.get(key)
                if path is None:
                    path = shared[key] = network.path_via(*key)
                paths[flow] = path
        except (KeyError, InfeasibleRoutingError):
            # Unassigned flows are reported first, as a whole.
            missing = [f for f in flows if f not in middles]
            if missing:
                raise InfeasibleRoutingError(
                    f"no middle switch assigned for flows: {missing!r}"
                ) from None
            raise
        return cls(paths)

    @classmethod
    def uniform(cls, network: ClosNetwork, flows: FlowCollection, m: int) -> "Routing":
        """All flows through middle switch ``M_m`` (a worst-case baseline)."""
        return cls.from_middles(network, flows, {f: m for f in flows})

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def path(self, flow: Flow) -> Path:
        """The path assigned to ``flow``."""
        try:
            return self._paths[flow]
        except KeyError:
            raise UnknownFlowError(flow) from None

    def __contains__(self, flow: Flow) -> bool:
        return flow in self._paths

    def __len__(self) -> int:
        return len(self._paths)

    def flows(self) -> List[Flow]:
        """The routed flows, in insertion order."""
        return list(self._paths)

    def items(self) -> Iterable[Tuple[Flow, Path]]:
        """The ``(flow, path)`` pairs, in insertion order."""
        return self._paths.items()

    def routes(self) -> Tuple[Route, ...]:
        """The flows grouped into runs that share one path object.

        Each entry is ``(path, flows)``: a maximal run of consecutive
        flows (in insertion order) whose paths are the same object.
        Concatenating the runs' flows gives :meth:`flows` back, so a
        consumer that walks the runs does per-route work and still meets
        the flows in order.  Equal paths that are separate objects, or a
        shared path whose flows are not consecutive, only make more runs.
        Computed once and cached (routings are immutable).

        >>> from repro.core.flows import FlowCollection
        >>> clos = ClosNetwork(2)
        >>> flows = FlowCollection()
        >>> _ = flows.add_pair(clos.source(1, 1), clos.destination(2, 1), 3)
        >>> routing = Routing.uniform(clos, flows, 1)
        >>> [len(members) for _, members in routing.routes()]
        [3]
        """
        if self._routes is None:
            runs: List[Tuple[Path, List[Flow]]] = []
            last = None
            for flow, path in self._paths.items():
                if path is last:
                    members.append(flow)
                else:
                    members = [flow]
                    runs.append((path, members))
                    last = path
            self._routes = tuple(
                [(path, tuple(members)) for path, members in runs]
            )
        return self._routes

    def link_ids(self) -> LinkIds:
        """The traversed links as int ids, and each route's ids.

        Returns ``(ids, route_links)``.  ``ids`` maps every link some
        path crosses to its id, numbered ``0, 1, …`` in order of first
        traversal (walking :meth:`routes` in order, each path from
        source to destination), so iterating it lists the links in that
        order.  ``route_links[r]`` holds the ids of route ``r``'s links
        along its path.  Computed once and cached; the map is shared, so
        callers must not change it.

        >>> from repro.core.flows import FlowCollection
        >>> ms = MacroSwitch(1)
        >>> flows = FlowCollection.from_pairs(
        ...     [(ms.source(1, 1), ms.destination(1, 1)),
        ...      (ms.source(2, 1), ms.destination(1, 1))])
        >>> ids, route_links = Routing.for_macro_switch(ms, flows).link_ids()
        >>> list(ids)
        [(s1^1, I1), (I1, O1), (O1, t1^1), (s2^1, I2), (I2, O1)]
        >>> route_links
        ((0, 1, 2), (3, 4, 2))
        """
        if self._link_ids is None:
            ids: Dict[Link, int] = {}
            setdefault = ids.setdefault
            route_links = tuple([
                tuple([setdefault(link, len(ids)) for link in zip(path, path[1:])])
                for path, _ in self.routes()
            ])
            self._link_ids = (ids, route_links)
        return self._link_ids

    def middle_of(self, network: ClosNetwork, flow: Flow) -> MiddleSwitch:
        """The middle switch ``flow`` traverses (Clos routings only)."""
        return network.middle_of_path(self._paths[flow])

    def middles(self, network: ClosNetwork) -> Dict[Flow, int]:
        """The flow → middle-switch-index map (Clos routings only)."""
        return {
            flow: self.middle_of(network, flow).index for flow in self._paths
        }

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def reassigned(
        self, network: ClosNetwork, flow: Flow, m: int
    ) -> "Routing":
        """A copy of this routing with ``flow`` moved to middle switch ``M_m``."""
        if flow not in self._paths:
            raise UnknownFlowError(flow)
        paths = dict(self._paths)
        paths[flow] = network.path_via(flow.source, flow.dest, m)
        return Routing(paths)

    # ------------------------------------------------------------------
    # Link occupancy
    # ------------------------------------------------------------------
    def flows_per_link(self) -> Dict[Link, List[Flow]]:
        """Map each traversed link to the flows crossing it."""
        loads: Dict[Link, List[Flow]] = {}
        for flow, path in self._paths.items():
            for link in zip(path, path[1:]):
                loads.setdefault(link, []).append(flow)
        return loads

    def links_of(self, flow: Flow) -> List[Link]:
        """The links along ``flow``'s assigned path."""
        path = self.path(flow)
        return list(zip(path, path[1:]))

    def validate(self, graph) -> None:
        """Check every assigned path exists in ``graph`` and joins its flow's
        endpoints; raises :class:`~repro.errors.InfeasibleRoutingError` on
        the first violation."""
        for flow, path in self._paths.items():
            if path[0] != flow.source or path[-1] != flow.dest:
                raise InfeasibleRoutingError(
                    f"path for {flow!r} does not join its endpoints: {path!r}"
                )
            if not graph.is_path(path):
                raise InfeasibleRoutingError(
                    f"path for {flow!r} is not in the graph: {path!r}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Routing({len(self._paths)} flows)"


def all_middle_assignments(
    flows: FlowCollection, n: int
) -> Iterable[Dict[Flow, int]]:
    """Yield every flow → middle-switch assignment (``n^|F|`` of them).

    Exhaustive and only suitable for tiny instances; see
    :mod:`repro.search.enumeration` for the symmetry-reduced enumeration
    used by the exact objective solvers.
    """
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
