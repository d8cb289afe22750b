"""Clos networks ``C_n`` and macro-switch abstractions ``MS_n`` (§2.1).

The Clos network of size ``n`` interconnects ``2n²`` sources to ``2n²``
destinations through three switch stages:

- ``2n`` input ToR switches ``I_i`` and ``2n`` output ToR switches
  ``O_i``, each attached to ``n`` servers,
- ``n`` middle switches ``M_m``, with one unit-capacity link ``I_i M_m``
  and one unit-capacity link ``M_m O_i`` for every ``i, m``.

There are exactly ``n`` source–destination paths between every pair, one
per middle switch, so a routing of a flow is fully determined by its
middle-switch choice.

The macro-switch ``MS_n`` replaces the middle stage by a complete
bipartite graph of *infinite*-capacity links between input and output
switches, so each source–destination pair has a unique path and flows can
only be bottlenecked on the unit-capacity server links.  It is the
idealized "one big switch" against which the paper measures the Clos
network.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CapacityValidationError, InfeasibleRoutingError
from repro.core.nodes import (
    ClosNode,
    Destination,
    InputSwitch,
    MiddleSwitch,
    OutputSwitch,
    Source,
)
from repro.graph.digraph import INFINITE_CAPACITY, DiGraph

#: A routing path, as a tuple of nodes from source to destination.
Path = Tuple[ClosNode, ...]


def _check_size(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"Clos size must be a positive integer, got {n!r}")


def _index(value: object, what: str, high: int) -> int:
    """``value`` as an int in ``[1, high]``.

    Anything :func:`operator.index` accepts (``int``, NumPy integers)
    passes; floats, bools and out-of-range values raise
    :class:`~repro.errors.InfeasibleRoutingError`.
    """
    index = value
    if value.__class__ is not int:
        try:
            index = operator.index(value)
        except TypeError:
            index = None
        if index is None or isinstance(value, bool):
            raise InfeasibleRoutingError(
                f"{what} index {value!r} is not an integer"
            )
    if not 0 < index <= high:
        raise InfeasibleRoutingError(
            f"{what} index {index} out of range [1, {high}]"
        )
    return index


class _ServerFabric:
    """The ToR switches and servers that ``C_n`` and ``MS_n`` share.

    Each node exists once, in the lists below; the node helpers and the
    paths hand out those objects rather than building equal copies.
    """

    def __init__(self, n: int) -> None:
        _check_size(n)
        self.n = n
        self.graph = DiGraph()
        self.input_switches: List[InputSwitch] = [
            InputSwitch(i) for i in range(1, 2 * n + 1)
        ]
        self.output_switches: List[OutputSwitch] = [
            OutputSwitch(i) for i in range(1, 2 * n + 1)
        ]
        self.sources: List[Source] = [
            Source(i, j) for i in range(1, 2 * n + 1) for j in range(1, n + 1)
        ]
        self.destinations: List[Destination] = [
            Destination(i, j) for i in range(1, 2 * n + 1) for j in range(1, n + 1)
        ]
        # Each server's position in its list, keyed by node equality.
        self._position: Dict[object, int] = dict(
            zip(self.sources, range(len(self.sources)))
        )
        self._position.update(zip(self.destinations, range(len(self.destinations))))

    def _server_links(self, capacity: object) -> None:
        """Add every ``s_i^j → I_i`` and ``O_i → t_i^j`` link."""
        inputs, outputs = self.input_switches, self.output_switches
        add_links = self.graph.add_links
        add_links(
            (src, inputs[src.switch - 1], capacity) for src in self.sources
        )
        add_links(
            (outputs[dst.switch - 1], dst, capacity) for dst in self.destinations
        )

    # ------------------------------------------------------------------
    # Node helpers (1-based, mirroring the paper's notation)
    # ------------------------------------------------------------------
    def source(self, i: int, j: int) -> Source:
        """``s_i^j``: the ``j``-th source of input switch ``I_i``."""
        return self.sources[self._server_offset(i, j)]

    def destination(self, i: int, j: int) -> Destination:
        """``t_i^j``: the ``j``-th destination of output switch ``O_i``."""
        return self.destinations[self._server_offset(i, j)]

    def _check_server_indices(self, i: int, j: int) -> None:
        self._server_offset(i, j)

    def _server_offset(self, i: int, j: int) -> int:
        """The position of server ``(i, j)`` in :attr:`sources` and
        :attr:`destinations`."""
        n = self.n
        return (_index(i, "ToR", 2 * n) - 1) * n + _index(j, "server", n) - 1

    def _endpoints(
        self, source: Source, dest: Destination
    ) -> Tuple[Source, InputSwitch, OutputSwitch, Destination]:
        """This network's ``source``, its input switch, ``dest``'s output
        switch and ``dest``: the fixed nodes of every path between them."""
        position = self._position
        if source.__class__ is Source and dest.__class__ is Destination:
            try:
                i, k = position[source], position[dest]
            except KeyError:
                pass
            else:
                n = self.n
                return (
                    self.sources[i],
                    self.input_switches[i // n],
                    self.output_switches[k // n],
                    self.destinations[k],
                )
        # Name a bad index if there is one, else the foreign endpoint.
        self._server_offset(source.switch, source.server)
        self._server_offset(dest.switch, dest.server)
        raise InfeasibleRoutingError(
            f"not a source and a destination of {self!r}: {source!r}, {dest!r}"
        )


class ClosNetwork(_ServerFabric):
    """The Clos network ``C_n`` of §2.1, with unit link capacities.

    ``middle_count`` generalizes the construction for the multirate-
    rearrangeability setting (§6 related work): same ToR switches and
    servers, but ``m`` middle switches instead of ``n``.  The paper's
    ``C_n`` is the default ``middle_count = n``.

    ``interior_capacity`` and ``server_capacity`` generalize the unit
    capacities: setting ``interior_capacity < 1`` models an
    *oversubscribed* fabric (the paper's full-bisection premise
    deliberately broken — several of its positive lemmas then fail; see
    experiment E15).

    >>> clos = ClosNetwork(2)
    >>> clos.n
    2
    >>> len(clos.middle_switches)
    2
    >>> len(clos.sources)
    8
    >>> ClosNetwork(2, middle_count=3).num_middles
    3
    """

    def __init__(
        self,
        n: int,
        middle_count: Optional[int] = None,
        interior_capacity: object = 1,
        server_capacity: object = 1,
    ) -> None:
        _check_size(n)
        if middle_count is None:
            middle_count = n
        if not isinstance(middle_count, int) or middle_count < 1:
            raise ValueError(
                f"middle_count must be a positive integer, got {middle_count!r}"
            )
        if interior_capacity <= 0 or server_capacity <= 0:
            raise CapacityValidationError("link capacities must be positive")
        super().__init__(n)
        self.num_middles = middle_count
        self.interior_capacity = interior_capacity
        self.server_capacity = server_capacity
        self.middle_switches: List[MiddleSwitch] = [
            MiddleSwitch(m) for m in range(1, middle_count + 1)
        ]
        self._server_links(server_capacity)
        add_links = self.graph.add_links
        add_links(
            (inp, mid, interior_capacity)
            for inp in self.input_switches
            for mid in self.middle_switches
        )
        add_links(
            (mid, out, interior_capacity)
            for mid in self.middle_switches
            for out in self.output_switches
        )

    def oversubscription(self) -> object:
        """The per-ToR oversubscription ratio: server capacity entering a
        ToR divided by interior capacity leaving it (1 = full bisection,
        the paper's premise; > 1 = under-provisioned interior)."""
        uplink = self.num_middles * self.interior_capacity
        downlink = self.n * self.server_capacity
        return downlink / uplink

    def middle(self, m: int) -> MiddleSwitch:
        """``M_m``."""
        return self.middle_switches[
            _index(m, "middle switch", self.num_middles) - 1
        ]

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def path_via(self, source: Source, dest: Destination, m: int) -> Path:
        """The unique ``source → dest`` path through middle switch ``M_m``.

        The path is made of this network's own node objects.  Endpoints
        outside this network raise
        :class:`~repro.errors.InfeasibleRoutingError` rather than
        producing a path over nonexistent links.
        """
        src, inp, out, dst = self._endpoints(source, dest)
        return (src, inp, self.middle(m), out, dst)

    def paths(self, source: Source, dest: Destination) -> List[Path]:
        """All paths between ``source`` and ``dest``, one per middle switch."""
        src, inp, out, dst = self._endpoints(source, dest)
        return [(src, inp, mid, out, dst) for mid in self.middle_switches]

    def middle_of_path(self, path: Sequence[ClosNode]) -> MiddleSwitch:
        """The middle switch a path traverses (validates the path shape)."""
        if len(path) != 5 or not isinstance(path[2], MiddleSwitch):
            raise InfeasibleRoutingError(
                f"not a Clos source-destination path: {path!r}"
            )
        return path[2]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClosNetwork(n={self.n})"


class MacroSwitch(_ServerFabric):
    """The macro-switch abstraction ``MS_n`` of §2.1.

    Links between ToR switches have infinite capacity, so feasibility is
    governed only by the unit-capacity server links — the network interior
    "disappears", emulating a single big switch.

    >>> ms = MacroSwitch(2)
    >>> path = ms.path(ms.source(1, 1), ms.destination(2, 2))
    >>> len(path)
    4
    """

    def __init__(self, n: int) -> None:
        super().__init__(n)
        self._server_links(1)
        self.graph.add_links(
            (inp, out, INFINITE_CAPACITY)
            for inp in self.input_switches
            for out in self.output_switches
        )

    def path(self, source: Source, dest: Destination) -> Path:
        """The unique ``source → dest`` path in the macro-switch, made of
        this network's own node objects."""
        return self._endpoints(source, dest)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MacroSwitch(n={self.n})"
