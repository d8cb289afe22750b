"""The paper's adversarial flow constructions (Figures 1–4).

Each function returns the topology pair and flow collection of one
worked example or theorem proof, typed by flow *type* so tests and
experiments can check the per-type rates the paper derives:

- :func:`example_2_3` — Figure 1: the routing-sensitivity example in
  ``C_2`` (three flow types, two contrasting routings).
- :func:`theorem_3_4` — Figure 2 / Example 3.3: the price-of-fairness
  gadget in ``MS_n`` (2 type-1 flows, ``k`` parallel type-2 flows).
- :func:`theorem_4_2` — Figure 3 / Example 4.1: macro-switch max-min
  rates that **no** Clos routing can replicate.
- :func:`theorem_4_3` — Figure 3 with ``n+1``-fold type-1 flows: the
  ``1/n`` lex-max-min starvation construction, together with the optimal
  routing posited by Lemma 4.6 (Step 1).
- :func:`theorem_5_4` — Figure 4 / Example 5.3: the Doom-Switch
  tightness construction (``(n−1)/2`` stacked price-of-fairness gadgets
  with ``k`` type-2 flows each).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

from repro.core.flows import Flow, FlowCollection
from repro.core.routing import Routing
from repro.core.topology import ClosNetwork, MacroSwitch, Path


class AdversarialInstance(NamedTuple):
    """A paper construction: topologies, flows, and per-type flow groups."""

    clos: ClosNetwork
    macro: MacroSwitch
    flows: FlowCollection
    #: Flow-type label → flows of that type (labels follow the paper).
    types: Dict[str, List[Flow]]


# ----------------------------------------------------------------------
# Figure 1 / Example 2.3
# ----------------------------------------------------------------------
def example_2_3() -> AdversarialInstance:
    """Figure 1's collection of flows in ``C_2`` / ``MS_2``.

    - type 1 (orange): ``(s_1^2, t_1^2)``, ``(s_1^2, t_2^1)``, ``(s_1^2, t_2^2)``;
    - type 2 (blue): ``(s_2^1, t_2^1)`` and ``(s_2^2, t_2^2)``;
    - type 3 (green): ``(s_1^1, t_1^1)``.

    Macro-switch max-min sorted vector: ``[1/3, 1/3, 1/3, 2/3, 2/3, 1]``.
    """
    clos = ClosNetwork(2)
    macro = MacroSwitch(2)
    flows = FlowCollection()

    type1 = [
        flows.add(Flow(clos.source(1, 2), clos.destination(1, 2))),
        flows.add(Flow(clos.source(1, 2), clos.destination(2, 1))),
        flows.add(Flow(clos.source(1, 2), clos.destination(2, 2))),
    ]
    # Paper text: "one flow (s_2^i, t_2^i), i ∈ [2]" — but (s_2^1, t_2^1)
    # and (s_2^2, t_2^2) per the worked derivation.
    type2 = [
        flows.add(Flow(clos.source(2, 1), clos.destination(2, 1))),
        flows.add(Flow(clos.source(2, 2), clos.destination(2, 2))),
    ]
    type3 = [flows.add(Flow(clos.source(1, 1), clos.destination(1, 1)))]

    return AdversarialInstance(
        clos, macro, flows, {"type1": type1, "type2": type2, "type3": type3}
    )


def example_2_3_routings(
    instance: AdversarialInstance,
) -> Tuple[Routing, Routing]:
    """The two routings contrasted in Example 2.3.

    Both keep the type-1 flows ``(s_1^2, t_1^2)`` and ``(s_1^2, t_2^2)``
    on ``M_2``, the type-3 flow on ``M_1``, and the type-2 flows on the
    middle switch of the same index as their output server, so the only
    difference is the middle switch of the type-1 flow ``(s_1^2, t_2^1)``:

    - **routing A**: ``(s_1^2, t_2^1) → M_1`` — type-3 flow shares
      ``I_1 M_1`` and drops to 2/3; everyone else keeps macro rates.
    - **routing B**: ``(s_1^2, t_2^1) → M_2`` — type-3 recovers rate 1
      but the type-2 flow ``(s_2^2, t_2^2)`` drops to 1/3 on ``M_2 O_2``.

    Sorted vectors: A → ``[1/3,1/3,1/3,2/3,2/3,2/3]``,
    B → ``[1/3,1/3,1/3,1/3,2/3,1]``; A is lexicographically greater.
    """
    clos = instance.clos
    t1_a, t1_b, t1_c = instance.types["type1"]  # t_1^2, t_2^1, t_2^2
    t2_a, t2_b = instance.types["type2"]
    (t3,) = instance.types["type3"]

    # Shared assignments: keep type-1 flows (s_1^2,t_1^2) and (s_1^2,t_2^2)
    # on different middle switches (they share the source link), the
    # type-2 flows wherever convenient, and the type-3 flow on M_1.
    base = {t1_a: 2, t1_c: 2, t2_a: 1, t2_b: 2, t3: 1}

    routing_a = Routing.from_middles(
        clos, instance.flows, {**base, t1_b: 1}
    )
    routing_b = Routing.from_middles(
        clos, instance.flows, {**base, t1_b: 2}
    )
    return routing_a, routing_b


# ----------------------------------------------------------------------
# Figure 2 / Example 3.3 / Theorem 3.4
# ----------------------------------------------------------------------
def theorem_3_4(n: int = 1, k: int = 1) -> AdversarialInstance:
    """The price-of-fairness gadget (Figure 2) in ``MS_n`` with ``k`` blue flows.

    - type 1: ``(s_1^1, t_1^1)`` and ``(s_2^1, t_2^1)``;
    - type 2: ``k`` parallel flows ``(s_2^1, t_1^1)``.

    Max throughput: 2 (both type-1 flows at rate 1, type-2 rejected).
    Max-min fair: every flow at ``1/(k+1)``; throughput ``1 + 1/(k+1)``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    clos = ClosNetwork(n)
    macro = MacroSwitch(n)
    flows = FlowCollection()

    type1 = [
        flows.add(Flow(macro.source(1, 1), macro.destination(1, 1))),
        flows.add(Flow(macro.source(2, 1), macro.destination(2, 1))),
    ]
    type2 = flows.add_pair(macro.source(2, 1), macro.destination(1, 1), count=k)

    return AdversarialInstance(
        clos, macro, flows, {"type1": type1, "type2": list(type2)}
    )


# ----------------------------------------------------------------------
# Figure 3 / Example 4.1 / Theorems 4.2 and 4.3
# ----------------------------------------------------------------------
def _figure_3_flows(n: int, type1_multiplicity: int) -> AdversarialInstance:
    """Figure 3's flow pattern with ``type1_multiplicity`` copies per pair."""
    if n < 3:
        raise ValueError(f"the Figure 3 construction needs n >= 3, got {n}")
    clos = ClosNetwork(n)
    macro = MacroSwitch(n)
    flows = FlowCollection()

    type1: List[Flow] = []
    for i in range(1, n + 1):
        for j in range(2, n + 1):
            type1.extend(
                flows.add_pair(
                    clos.source(i, j),
                    clos.destination(i, j),
                    count=type1_multiplicity,
                )
            )

    type2a = [
        flows.add(Flow(clos.source(i, 1), clos.destination(i, 1)))
        for i in range(1, n + 1)
    ]
    type2b = [
        flows.add(Flow(clos.source(i, 1), clos.destination(n + 1, j)))
        for i in range(1, n + 1)
        for j in range(1, n)
    ]
    type3 = [flows.add(Flow(clos.source(n + 1, n), clos.destination(n + 1, n)))]

    return AdversarialInstance(
        clos,
        macro,
        flows,
        {
            "type1": type1,
            "type2a": type2a,
            "type2b": type2b,
            "type2": type2a + type2b,
            "type3": type3,
        },
    )


def theorem_4_2(n: int) -> AdversarialInstance:
    """Figure 3 / Example 4.1: one type-1 flow per pair (Theorem 4.2).

    Macro-switch max-min rates: type 1 and type 3 at 1, type 2 at
    ``1/n``.  No Clos routing can carry these rates feasibly.
    """
    return _figure_3_flows(n, type1_multiplicity=1)


def theorem_4_3(n: int) -> AdversarialInstance:
    """Figure 3 with ``n+1`` type-1 flows per pair (Theorem 4.3).

    Macro-switch max-min rates: type 1 → ``1/(n+1)``, type 2 → ``1/n``,
    type 3 → 1 (Lemma 4.4).  Lex-max-min in ``C_n``: identical except
    the type-3 flow starves to ``1/n`` (Lemma 4.6) — a ``1/n`` factor.
    """
    return _figure_3_flows(n, type1_multiplicity=n + 1)


def lemma_4_6_routing(instance: AdversarialInstance) -> Routing:
    """The lex-max-min optimal routing posited by Lemma 4.6, Step 1.

    - all ``n+1`` type-1 flows ``(s_i^j, t_i^j)`` → ``M_{k+1}`` with
      ``k = i + j − 2 (mod n)``;
    - type-2.a flow ``(s_i^1, t_i^1)`` → ``M_i``;
    - type-2.b flow ``(s_i^1, t_{n+1}^j)`` → ``M_i``;
    - the type-3 flow → ``M_n``.

    Also valid for :func:`theorem_4_2` instances (multiplicity 1), where
    it realizes the max-min fair allocation used in Example 4.1's figure.
    """
    clos = instance.clos
    n = clos.n
    type1 = instance.types["type1"]
    # The type-1 flows come in equal runs, one run per (s_i^j, t_i^j)
    # pair (j >= 2): one shared path per pair, assigned to the whole run.
    run = len(type1) // (n * (n - 1))
    paths: Dict[Flow, Path] = {}
    for start in range(0, len(type1), run):
        first = type1[start]
        i, j = first.source.switch, first.source.server
        path = clos.path_via(first.source, first.dest, ((i + j - 2) % n) + 1)
        paths.update(dict.fromkeys(type1[start : start + run], path))
    for flow in instance.types["type2a"] + instance.types["type2b"]:
        paths[flow] = clos.path_via(flow.source, flow.dest, flow.source.switch)
    (type3,) = instance.types["type3"]
    paths[type3] = clos.path_via(type3.source, type3.dest, n)
    return Routing(paths)


# ----------------------------------------------------------------------
# Figure 4 / Example 5.3 / Theorem 5.4
# ----------------------------------------------------------------------
def theorem_5_4(n: int, k: int = 1) -> AdversarialInstance:
    """Figure 4: ``(n−1)/2`` stacked price-of-fairness gadgets in ``C_n``.

    Requires odd ``n ≥ 3``.  All flows leave input switch ``I_1`` and
    enter output switch ``O_1``:

    - type 1: one flow ``(s_1^j, t_1^j)``, ``j ∈ [n−1]``;
    - type 2: ``k`` flows ``(s_1^j, t_1^{j−1})`` for even ``j``.

    Macro-switch max-min: every flow at ``1/(k+1)``; throughput
    ``(n−1)/2 · (1 + 1/(k+1))``.  Doom-Switch's max-min allocation:
    type 1 at ``1 − 2/(n−1)``, type 2 at ``2/(k(n−1))``; throughput
    ``n − 2``.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"the Figure 4 construction needs odd n >= 3, got {n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    clos = ClosNetwork(n)
    macro = MacroSwitch(n)
    flows = FlowCollection()

    type1 = [
        flows.add(Flow(clos.source(1, j), clos.destination(1, j)))
        for j in range(1, n)
    ]
    type2: List[Flow] = []
    for j in range(2, n, 2):
        type2.extend(
            flows.add_pair(clos.source(1, j), clos.destination(1, j - 1), count=k)
        )

    return AdversarialInstance(
        clos, macro, flows, {"type1": type1, "type2": type2}
    )


def example_5_3() -> AdversarialInstance:
    """Example 5.3 verbatim: ``n = 7``, one type-2 flow per gadget."""
    return theorem_5_4(7, k=1)
