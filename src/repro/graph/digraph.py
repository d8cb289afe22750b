"""A minimal capacity-annotated directed graph.

This module provides the graph substrate used by every topology in the
library.  It is deliberately small: the Clos network :class:`C_n` and its
macro-switch abstraction :class:`MS_n` (see :mod:`repro.core.topology`)
only need node/link bookkeeping, per-link capacities, and adjacency
queries (answered by scanning the links).  We implement it from scratch
rather than depending on networkx so that the core library stands alone;
networkx is used in the test suite purely as an oracle.

Nodes may be any hashable object.  Links are ordered pairs ``(u, v)``.
This is a *simple* directed graph — at most one link per ordered pair —
which matches the Clos/macro-switch topologies of the paper (multiplicity
lives in the *flow collection*, not in the topology; see
:mod:`repro.graph.bipartite` for the multigraphs over flows).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, Iterable, Iterator, List, Tuple, Union

Node = Hashable
Link = Tuple[Node, Node]
Capacity = Union[int, float, Fraction]

#: Sentinel capacity for links that can never be saturated (the links
#: between ToR switches inside a macro-switch).  We use ``float("inf")``,
#: which composes with both float and Fraction arithmetic under min()/
#: comparison as used by the water-filling algorithm.
INFINITE_CAPACITY: float = float("inf")


class DiGraph:
    """A directed graph with per-link capacities.

    >>> g = DiGraph()
    >>> g.add_node("a")
    >>> g.add_link("a", "b", capacity=2)
    >>> g.capacity("a", "b")
    2
    >>> sorted(g.successors("a"))
    ['b']
    """

    def __init__(self) -> None:
        # An insertion-ordered node set (the values are unused).
        self._nodes: Dict[Node, None] = {}
        self._capacity: Dict[Link, Capacity] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Add ``node`` to the graph (idempotent)."""
        self._nodes[node] = None

    def add_link(self, u: Node, v: Node, capacity: Capacity = 1) -> None:
        """Add the link ``(u, v)`` with the given ``capacity``.

        Both endpoints are added if absent.  Re-adding an existing link
        overwrites its capacity.
        """
        self.add_links(((u, v, capacity),))

    def add_links(self, links: Iterable[Tuple[Node, Node, Capacity]]) -> None:
        """Add every ``(u, v, capacity)`` link, in order.

        Each behaves as :meth:`add_link`: endpoints are added if absent
        (``u`` before ``v``) and a re-added link takes the new capacity.
        The topologies build their whole graph through this call.

        >>> g = DiGraph()
        >>> g.add_links([("a", "b", 1), ("b", "c", 2)])
        >>> g.nodes, g.capacity("b", "c")
        (['a', 'b', 'c'], 2)
        """
        nodes = self._nodes
        capacity = self._capacity
        for u, v, cap in links:
            nodes[u] = None
            nodes[v] = None
            capacity[(u, v)] = cap

    def remove_link(self, u: Node, v: Node) -> None:
        """Remove the link ``(u, v)``; raises ``KeyError`` if absent."""
        del self._capacity[(u, v)]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[Node]:
        """All nodes, in insertion order."""
        return list(self._nodes)

    @property
    def links(self) -> List[Link]:
        """All links, in insertion order."""
        return list(self._capacity)

    def num_nodes(self) -> int:
        return len(self._nodes)

    def num_links(self) -> int:
        return len(self._capacity)

    def has_node(self, node: Node) -> bool:
        return node in self._nodes

    def has_link(self, u: Node, v: Node) -> bool:
        return (u, v) in self._capacity

    def capacity(self, u: Node, v: Node) -> Capacity:
        """Capacity of link ``(u, v)``; raises ``KeyError`` if absent."""
        return self._capacity[(u, v)]

    def capacities(self) -> Dict[Link, Capacity]:
        """A copy of the link → capacity map."""
        return dict(self._capacity)

    # The adjacency queries scan every link (no per-node sets are kept);
    # they serve tests and inspection, not the solvers.
    def successors(self, node: Node) -> Iterator[Node]:
        """Heads of the links leaving ``node``, in link insertion order."""
        self._require(node)
        return iter([v for u, v in self._capacity if u == node])

    def predecessors(self, node: Node) -> Iterator[Node]:
        """Tails of the links entering ``node``, in link insertion order."""
        self._require(node)
        return iter([u for u, v in self._capacity if v == node])

    def out_degree(self, node: Node) -> int:
        return len(list(self.successors(node)))

    def in_degree(self, node: Node) -> int:
        return len(list(self.predecessors(node)))

    def _require(self, node: Node) -> None:
        if node not in self._nodes:
            raise KeyError(node)

    # ------------------------------------------------------------------
    # Path utilities
    # ------------------------------------------------------------------
    def is_path(self, path: Iterable[Node]) -> bool:
        """True if ``path`` is a sequence of nodes joined by links."""
        nodes = list(path)
        if not nodes:
            return False
        if len(nodes) == 1:
            return self.has_node(nodes[0])
        return all(self.has_link(u, v) for u, v in zip(nodes, nodes[1:]))

    def path_links(self, path: Iterable[Node]) -> List[Link]:
        """The list of links along ``path`` (validates the path).

        Raises ``ValueError`` if ``path`` is not a path in this graph.
        """
        nodes = list(path)
        if not self.is_path(nodes):
            raise ValueError(f"not a path in this graph: {nodes!r}")
        return list(zip(nodes, nodes[1:]))

    def __contains__(self, node: Node) -> bool:
        return self.has_node(node)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(nodes={self.num_nodes()},"
            f" links={self.num_links()})"
        )
