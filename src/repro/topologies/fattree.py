"""k-ary fat-trees — the deployed folded-Clos fabric (Al-Fares et al.).

The paper's model is the 3-stage Clos ``C_n``; production data-centers
deploy its folded cousin, the k-ary fat-tree (the paper's reference [2]):

- ``k`` pods, each with ``k/2`` edge switches and ``k/2`` aggregation
  switches;
- ``(k/2)²`` core switches, core ``(i, j)`` attached to aggregation
  switch ``j`` of every pod;
- ``k/2`` hosts per edge switch — ``k³/4`` hosts total;
- every link has unit capacity, in both directions (we model each
  direction as its own directed link).

The fat-tree exposes multiple equal-length paths per host pair —
``(k/2)²`` across pods, ``k/2`` within a pod, 1 within an edge switch —
and the library's generic machinery (water-filling, bottleneck
certificates, feasibility) works on it unchanged, because a
:class:`~repro.core.routing.Routing` is just a per-flow path.

§7's R1 claim is stated "for every interconnection network connecting
sources to destinations"; :mod:`repro.experiments.fattree_generality`
uses this module to check the paper's phenomena beyond ``C_n``.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, List, NamedTuple, Tuple

from repro.graph.digraph import INFINITE_CAPACITY, DiGraph


class Host(NamedTuple):
    """Host ``h`` of edge switch ``edge`` in pod ``pod`` (all 0-based)."""

    pod: int
    edge: int
    index: int
    kind: str = "host"

    def __repr__(self) -> str:
        return f"h{self.pod}.{self.edge}.{self.index}"


class EdgeSwitch(NamedTuple):
    pod: int
    index: int
    kind: str = "edge"

    def __repr__(self) -> str:
        return f"e{self.pod}.{self.index}"


class AggSwitch(NamedTuple):
    pod: int
    index: int
    kind: str = "agg"

    def __repr__(self) -> str:
        return f"a{self.pod}.{self.index}"


class CoreSwitch(NamedTuple):
    """Core switch ``(group, index)``: attached to aggregation switch
    ``group`` of every pod."""

    group: int
    index: int
    kind: str = "core"

    def __repr__(self) -> str:
        return f"c{self.group}.{self.index}"


FatTreePath = Tuple


class FatTree:
    """The k-ary fat-tree (``k`` even, ``k ≥ 2``).

    >>> ft = FatTree(4)
    >>> len(ft.hosts)
    16
    >>> len(ft.core_switches)
    4
    >>> len(ft.paths(ft.hosts[0], ft.hosts[-1]))  # cross-pod: (k/2)^2
    4
    """

    def __init__(self, k: int) -> None:
        if k < 2 or k % 2:
            raise ValueError(f"fat-tree arity must be even and >= 2, got {k}")
        self.k = k
        half = k // 2
        self.half = half
        self.graph = DiGraph()

        self.hosts: List[Host] = [
            Host(p, e, h)
            for p in range(k)
            for e in range(half)
            for h in range(half)
        ]
        self.edge_switches: List[EdgeSwitch] = [
            EdgeSwitch(p, e) for p in range(k) for e in range(half)
        ]
        self.agg_switches: List[AggSwitch] = [
            AggSwitch(p, a) for p in range(k) for a in range(half)
        ]
        self.core_switches: List[CoreSwitch] = [
            CoreSwitch(g, i) for g in range(half) for i in range(half)
        ]
        self._build_links()

    def _build_links(self) -> None:
        # Every cable is full duplex: one unit link each way.
        self.graph.add_links(
            link for u, v in self._cables() for link in ((u, v, 1), (v, u, 1))
        )

    def _cables(self) -> Iterator[Tuple[tuple, tuple]]:
        """Each cable once, as ``(lower tier, upper tier)``."""
        for host in self.hosts:
            yield host, EdgeSwitch(host.pod, host.edge)
        for edge in self.edge_switches:
            for a in range(self.half):
                yield edge, AggSwitch(edge.pod, a)
        for agg in self.agg_switches:
            for i in range(self.half):
                yield agg, CoreSwitch(agg.index, i)

    # ------------------------------------------------------------------
    # Path enumeration
    # ------------------------------------------------------------------
    def paths(self, src: Host, dst: Host) -> List[FatTreePath]:
        """All shortest ``src → dst`` paths.

        1 path within an edge switch, ``k/2`` within a pod, ``(k/2)²``
        across pods (one per (aggregation choice, core choice)).
        """
        if src == dst:
            raise ValueError("source and destination hosts coincide")
        src_edge = EdgeSwitch(src.pod, src.edge)
        dst_edge = EdgeSwitch(dst.pod, dst.edge)
        if src_edge == dst_edge:
            return [(src, src_edge, dst)]
        if src.pod == dst.pod:
            return [
                (src, src_edge, AggSwitch(src.pod, a), dst_edge, dst)
                for a in range(self.half)
            ]
        return [
            (
                src,
                src_edge,
                AggSwitch(src.pod, a),
                CoreSwitch(a, i),
                AggSwitch(dst.pod, a),
                dst_edge,
                dst,
            )
            for a in range(self.half)
            for i in range(self.half)
        ]

    def num_paths(self, src: Host, dst: Host) -> int:
        if EdgeSwitch(src.pod, src.edge) == EdgeSwitch(dst.pod, dst.edge):
            return 1
        if src.pod == dst.pod:
            return self.half
        return self.half * self.half

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FatTree(k={self.k})"


def host_macro_graph(tree: FatTree) -> Tuple[DiGraph, Dict]:
    """The macro-switch abstraction of a fat-tree's host population.

    A star: every source host has a unit link into a hub of infinite
    interior capacity, every destination host a unit link out — the same
    "only access links bind" idealization the paper's macro-switch
    formalizes.  Returns ``(graph, path_map_factory)`` where paths are
    ``(("src", host), HUB, ("dst", host))`` triples; source and
    destination roles are distinct nodes so that a host appearing as
    both (as in any host-to-host workload) contributes one unit of
    send capacity and one unit of receive capacity, matching full-duplex
    access links.
    """
    graph = DiGraph()
    hub = ("HUB",)
    for host in tree.hosts:
        graph.add_link(("src", host), hub, capacity=1)
        graph.add_link(hub, ("dst", host), capacity=1)

    def macro_path(src: Host, dst: Host) -> FatTreePath:
        return (("src", src), hub, ("dst", dst))

    return graph, macro_path


def ecmp_fat_tree_routing(
    tree: FatTree, flows: List[Tuple[Host, Host, int]], seed: int = 0
):
    """Hash-based ECMP over a fat-tree: each flow picks one of its
    shortest paths by hashing its identity.

    ``flows`` are ``(src, dst, tag)`` triples; returns ``{flow_triple:
    path}`` suitable for :class:`repro.core.routing.Routing` via a plain
    dict (fat-tree flows are not ``repro.core.flows.Flow`` objects —
    those are Clos-specific)."""
    assignment = {}
    for src, dst, tag in flows:
        options = tree.paths(src, dst)
        payload = repr((src, dst, tag, seed)).encode()
        digest = int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")
        assignment[(src, dst, tag)] = options[digest % len(options)]
    return assignment
