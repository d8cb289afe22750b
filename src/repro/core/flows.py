"""Flows and flow collections (§2.2).

A *flow* maps to a source–destination pair; multiple flows may map to the
same pair (the paper's adversarial constructions depend on this), so each
flow also carries a small integer ``tag`` distinguishing parallel flows.

A :class:`FlowCollection` is an ordered collection of flows with the
grouping helpers the algorithms need: flows per source, per destination,
and per input–output switch pair (the edges of the demand multigraphs
``G^MS`` and ``G^C``).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, NamedTuple, Tuple

from repro.core.nodes import Destination, InputSwitch, OutputSwitch, Source
from repro.graph.bipartite import BipartiteMultigraph


class Flow(NamedTuple):
    """An unsplittable flow from ``source`` to ``dest``.

    ``tag`` distinguishes parallel flows between the same pair; it has no
    semantic meaning beyond identity.
    """

    source: Source
    dest: Destination
    tag: int = 0

    def __repr__(self) -> str:
        suffix = f"#{self.tag}" if self.tag else ""
        return f"Flow({self.source!r}->{self.dest!r}{suffix})"


_new_tuple = tuple.__new__


class FlowCollection:
    """An ordered collection of flows with grouping helpers.

    >>> s, t = Source(1, 1), Destination(1, 1)
    >>> flows = FlowCollection.from_pairs([(s, t), (s, t)])
    >>> len(flows)
    2
    >>> flows[0].tag, flows[1].tag
    (0, 1)
    """

    def __init__(self, flows: Iterable[Flow] = ()) -> None:
        self._flows: List[Flow] = []
        self._seen: set = set()
        self._pair_counts: Dict[Tuple[Source, Destination], int] = {}
        for flow in flows:
            self.add(flow)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, flow: Flow) -> Flow:
        """Append ``flow``; duplicate flows (same pair *and* tag) are rejected."""
        if flow in self._seen:
            raise ValueError(f"duplicate flow: {flow!r}")
        self._seen.add(flow)
        self._flows.append(flow)
        pair = (flow.source, flow.dest)
        self._pair_counts[pair] = self._pair_counts.get(pair, 0) + 1
        return flow

    def add_pair(self, source: Source, dest: Destination, count: int = 1) -> List[Flow]:
        """Add ``count`` parallel flows between ``source`` and ``dest``.

        Tags continue from the number of flows already present on the pair,
        so successive calls never collide.  The flows are built in one list
        and merged in bulk (one disjointness check, one set union, one
        pair-count update) — the adversarial constructions add hundreds of
        thousands of flows at n = 64.  Atomic: if any new flow is already
        present (a tag added by hand through :meth:`add`), ``ValueError``
        names the first clash and the collection is left unchanged.
        """
        pair = (source, dest)
        existing = self._pair_counts.get(pair, 0)
        # ``tuple.__new__`` skips the NamedTuple constructor's argument
        # handling; the flows are the same.
        added = [
            _new_tuple(Flow, (source, dest, tag))
            for tag in range(existing, existing + count)
        ]
        if not self._seen.isdisjoint(added):
            clash = next(flow for flow in added if flow in self._seen)
            raise ValueError(f"duplicate flow: {clash!r}")
        self._seen.update(added)
        self._flows.extend(added)
        self._pair_counts[pair] = existing + len(added)
        return added

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[Tuple[Source, Destination]]
    ) -> "FlowCollection":
        """Build a collection from (source, dest) pairs, auto-tagging duplicates."""
        collection = cls()
        for source, dest in pairs:
            collection.add_pair(source, dest)
        return collection

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._flows)

    def __iter__(self) -> Iterator[Flow]:
        return iter(self._flows)

    def __getitem__(self, index: int) -> Flow:
        return self._flows[index]

    def __contains__(self, flow: Flow) -> bool:
        return flow in self._seen

    @property
    def flows(self) -> List[Flow]:
        """The flows, in insertion order (a copy)."""
        return list(self._flows)

    # ------------------------------------------------------------------
    # Groupings
    # ------------------------------------------------------------------
    def by_source(self) -> Dict[Source, List[Flow]]:
        """Flows grouped by source server."""
        groups: Dict[Source, List[Flow]] = {}
        for flow in self._flows:
            groups.setdefault(flow.source, []).append(flow)
        return groups

    def by_destination(self) -> Dict[Destination, List[Flow]]:
        """Flows grouped by destination server."""
        groups: Dict[Destination, List[Flow]] = {}
        for flow in self._flows:
            groups.setdefault(flow.dest, []).append(flow)
        return groups

    def by_switch_pair(self) -> Dict[Tuple[int, int], List[Flow]]:
        """Flows grouped by (input switch index, output switch index)."""
        groups: Dict[Tuple[int, int], List[Flow]] = {}
        for flow in self._flows:
            key = (flow.source.switch, flow.dest.switch)
            groups.setdefault(key, []).append(flow)
        return groups

    # ------------------------------------------------------------------
    # Demand multigraphs
    # ------------------------------------------------------------------
    def demand_graph_ms(self) -> BipartiteMultigraph:
        """``G^MS``: sources × destinations, one edge per flow (§3).

        A maximum matching of this graph characterizes a maximum-
        throughput allocation in the macro-switch (Lemma 3.2).
        """
        graph = BipartiteMultigraph()
        for flow in self._flows:
            graph.add_edge(flow.source, flow.dest, key=flow)
        return graph

    def demand_graph_clos(self) -> BipartiteMultigraph:
        """``G^C``: input × output switches, one edge per flow (§5).

        An ``n``-edge-coloring of this graph is a link-disjoint routing
        through the ``n`` middle switches (Lemma 5.2, footnote 5).
        """
        graph = BipartiteMultigraph()
        for flow in self._flows:
            graph.add_edge(
                InputSwitch(flow.source.switch),
                OutputSwitch(flow.dest.switch),
                key=flow,
            )
        return graph

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlowCollection({len(self._flows)} flows)"
