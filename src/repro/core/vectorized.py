"""NumPy-vectorized float water-filling (the ``vectorized`` backend).

The reference heap solver (:mod:`repro.core.maxmin`) walks flows and
links one Python object at a time.  For the large float simulations —
thousands of flows over a few dozen Clos links — the interpreter loop
dominates.  This module compiles a routing *once* into a
CSR-style sparse flow×link incidence (plain int arrays) and then runs
water-filling as a handful of array operations per round:

- per-link saturation levels via one vectorized divide,
- the next water level via one ``min``,
- a tolerance band selecting every link saturating at that level,
- the frozen flows via one mask over all incidence entries (the owner
  row of every entry on a saturating link, kept if still active),
- residual/count updates via one ``bincount`` over the frozen rows'
  entries, picked by the same mask.

Rounds are bounded by the number of finite links (every round saturates
at least one), so total cost is ``O(rounds · (nnz + L))`` in C instead
of per-element Python, in under ten NumPy calls per round: their fixed
cost dominates small instances, the O(nnz) scans large ones with many
rounds (``docs/PERFORMANCE.md`` measures both sides).

Compilation has two entry points over one array core.  A Clos routing
is a middle switch per flow, so :func:`clos_link_ids` derives each
flow's four link ids by arithmetic and :func:`compile_link_ids` lowers
those int rows with array operations only (a :class:`LinkTable` drops
the infinite links).  Any other routing goes through
:func:`compile_routing`, which numbers the traversed links in one
Python pass over the paths and then shares the same core.  Neither
builds a link → flow transpose.  Callers that re-solve one routing
under changing capacities should compile once, then call
:func:`waterfill` per capacity vector.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.errors import InfeasibleRoutingError, UnboundedRateError
from repro.core.allocation import Allocation, Rate
from repro.core.maxmin import _BAND, validate_capacities
from repro.core.routing import Link, Routing
from repro.obs import counter, trace_span

_INF = float("inf")

#: :class:`LinkTable` remap codes for links that are not finite.
_INFINITE = -1
_INVALID = -2  # missing from the capacity map, negative or non-numeric

#: Observability instruments (no-ops unless ``repro.obs`` is enabled).
_SOLVES = counter("vectorized.solves")
_COMPILES = counter("vectorized.compiles")
_ROUNDS = counter("vectorized.rounds")

__all__ = [
    "CompiledRouting",
    "LinkTable",
    "clos_link_ids",
    "compile_link_ids",
    "compile_routing",
    "capacity_vector",
    "waterfill",
    "max_min_fair_vectorized",
]


class CompiledRouting:
    """A routing lowered to CSR-style integer incidence arrays.

    ``flows[i]`` is the flow with index ``i``; ``links[j]`` the finite
    link with index ``j`` (infinite-capacity links never constrain and
    are dropped at compile time).  ``flow_link[flow_ptr[i]:flow_ptr[i+1]]``
    are the link indices on flow ``i``'s path.  There is no link → flow
    transpose: the round kernel finds a link's flows with a mask over
    the flow rows instead.
    """

    __slots__ = ("flows", "links", "flow_ptr", "flow_link")

    def __init__(
        self, flows: Sequence, links: List[Link], flow_ptr, flow_link
    ) -> None:
        self.flows = flows
        self.links = links
        self.flow_ptr = flow_ptr
        self.flow_link = flow_link

    def __len__(self) -> int:
        return len(self.flows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledRouting({len(self.flows)} flows, "
            f"{len(self.links)} finite links)"
        )


class LinkTable:
    """Global link ids → finite-link indices under one capacity map.

    ``links[g]`` is the link with global id ``g``; ``remap[g]`` is its
    index among the finite links (``finite_links``, in global-id order,
    with float capacities ``caps``), or a negative code for an infinite
    link (dropped from every incidence compiled through this table) or
    one whose capacity is missing, negative or non-numeric (compiling a
    flow across it raises the reference solver's error).  Build one per
    capacity map and reuse it for every compile under that map.
    """

    __slots__ = ("links", "capacities", "remap", "finite_links", "caps")

    def __init__(
        self, links: Sequence[Link], capacities: Mapping[Link, Rate]
    ) -> None:
        self.links = list(links)
        self.capacities = capacities
        remap: List[int] = []
        finite: List[Link] = []
        caps: List[float] = []
        for link in self.links:
            capacity = capacities.get(link)
            try:
                invalid = capacity is None or capacity < 0
            except TypeError:
                invalid = True
            if invalid:
                remap.append(_INVALID)
                continue
            value = float(capacity)
            if value == _INF:
                remap.append(_INFINITE)
            else:
                remap.append(len(finite))
                finite.append(link)
                caps.append(value)
        self.remap = np.asarray(remap, dtype=np.int64)
        self.finite_links = finite
        self.caps = np.asarray(caps, dtype=np.float64)


@functools.lru_cache(maxsize=None)
def _clos_layout(n: int, m: int):
    """:func:`clos_link_ids`' constants for one Clos shape: the bounds
    of the ``(i, j, k, l, m)`` columns and the affine map of the 0-based
    columns to link ids (each link block's offset plus its row-major
    index within the block).  Shared by every call; never mutated."""
    tors, servers = 2 * n, 2 * n * n
    tops = np.array([[tors], [n], [tors], [n], [m]], dtype=np.int64)
    weights_t = np.array(
        [
            [n, 1, 0, 0, 0],  # s_i^j → I_i
            [m, 0, 0, 0, 1],  # I_i → M_m
            [0, 0, 1, 0, tors],  # M_m → O_k
            [0, 0, n, 1, 0],  # O_k → t_k^l
        ],
        dtype=np.int64,
    ).T
    offsets = np.array(
        [0, 2 * servers, 2 * servers + tors * m, servers], dtype=np.int64
    )
    return tops, weights_t, offsets


def clos_link_ids(
    network, src_switch, src_server, dst_switch, dst_server, middles
):
    """Each Clos flow's four link ids, as an ``(F, 4)`` int array.

    Arguments are equal-length sequences of 1-based indices as in the
    paper's ``s_i^j → M_m → t_k^l``: source ToR ``i`` and server ``j``,
    destination ToR ``k`` and server ``l``, middle switch ``m``.  Row
    ``f`` lists flow ``f``'s links in path order (server uplink,
    ToR→middle, middle→ToR, server downlink); the ids index
    ``list(network.graph.capacities())``, the order in which
    :class:`~repro.core.topology.ClosNetwork` builds its links (sources,
    destinations, ``I×M``, ``M×O``; ``num_middles`` may differ from
    ``n``).  Out-of-range indices raise
    :class:`~repro.errors.InfeasibleRoutingError`, as
    :meth:`~repro.core.topology.ClosNetwork.path_via` does.
    """
    tops, weights_t, offsets = _clos_layout(network.n, network.num_middles)
    fields = np.array(
        [src_switch, src_server, dst_switch, dst_server, middles],
        dtype=np.int64,
    ).reshape(5, -1) - 1
    bad = (fields < 0) | (fields >= tops)
    if bad.any():
        row = int(bad.any(axis=1).argmax())
        name = ("source ToR", "source server", "destination ToR",
                "destination server", "middle switch")[row]
        raise InfeasibleRoutingError(
            f"{name} index out of range [1, {int(tops[row, 0])}]: "
            f"{(fields[row][bad[row]] + 1)[:5].tolist()}"
        )
    return fields.T @ weights_t + offsets


def compile_link_ids(
    link_ids, table: LinkTable, flows: Sequence
) -> CompiledRouting:
    """Lower fixed-width rows of global link ids to incidence arrays.

    ``link_ids`` is an ``(F, k)`` int array (one row per flow, e.g. from
    :func:`clos_link_ids`); ``flows`` labels the rows (``compiled.flows``)
    and ``table`` maps the ids to finite links.  Array operations only —
    no per-flow Python, and no sort: a remap gather, one ``cumsum`` for
    the row pointers and one mask that drops infinite links.  Raises
    what :func:`compile_routing` raises on the same routing:
    :class:`~repro.errors.UnknownLinkError` /
    :class:`~repro.errors.CapacityValidationError` for a traversed link
    the capacity map lacks or rejects, and
    :class:`~repro.errors.UnboundedRateError` for a flow crossing only
    infinite links.
    """
    link_ids = np.asarray(link_ids, dtype=np.int64)
    n_flows, width = link_ids.shape
    row_ptr = np.arange(0, n_flows * width + 1, width, dtype=np.int64)
    return _compile(row_ptr, link_ids.reshape(-1), table, flows)


def compile_routing(
    routing: Routing, capacities: Mapping[Link, Rate]
) -> CompiledRouting:
    """Lower ``routing`` to incidence arrays over its finite links.

    ``capacities`` is consulted only to decide which links are finite —
    the compiled structure stays valid across capacity *changes* (link
    degradations) as long as no finite link becomes infinite or vice
    versa.  Links are numbered in first-traversal order, flows in
    routing order.  Raises :class:`~repro.errors.UnboundedRateError` if
    some flow crosses only infinite links.
    """
    link_index: Dict[Link, int] = {}
    row_ptr = [0]
    ids: List[int] = []
    for _, path in routing.items():
        for link in zip(path, path[1:]):
            ids.append(link_index.setdefault(link, len(link_index)))
        row_ptr.append(len(ids))
    return _compile(
        np.asarray(row_ptr, dtype=np.int64),
        np.asarray(ids, dtype=np.int64),
        LinkTable(link_index, capacities),
        routing.flows(),
    )


def _compile(row_ptr, link_ids, table: LinkTable, flows) -> CompiledRouting:
    """The array core of both compile entry points: ragged rows of
    global link ids (``link_ids[row_ptr[i]:row_ptr[i+1]]``) → finite
    incidence arrays."""
    local = table.remap[link_ids]
    if local.size and int(local.min()) == _INVALID:
        # Same error, naming the same links in the same order, as the
        # reference solver's check over the traversed links.
        ids, first = np.unique(link_ids, return_index=True)
        traversed = [table.links[g] for g in ids[np.argsort(first)]]
        validate_capacities(dict.fromkeys(traversed), table.capacities)
    keep = local >= 0
    kept = np.zeros(keep.size + 1, dtype=np.int64)
    keep.cumsum(out=kept[1:])
    flow_ptr = kept[row_ptr]
    empty = flow_ptr[1:] == flow_ptr[:-1]
    if empty.any():
        raise UnboundedRateError(
            "flows with no finite-capacity link on their path: "
            f"{[flows[i] for i in empty.nonzero()[0]]!r}"
        )
    _COMPILES.inc()
    return CompiledRouting(flows, table.finite_links, flow_ptr, local[keep])


def _row_owner(flow_ptr):
    """The CSR row of every entry: each row id repeated by its length."""
    return np.arange(flow_ptr.size - 1, dtype=np.int64).repeat(
        np.diff(flow_ptr)
    )


def _csr_transpose(flow_ptr, flow_link, n_links):
    """The link → flows CSR of a flow → links CSR: one stable
    ``argsort`` (each link's flows stay in ascending flow order) plus
    one ``bincount`` for the row pointers.  Only the batched kernel
    uses it; per-instance compiles do not build it."""
    link_ptr = np.zeros(n_links + 1, dtype=np.int64)
    np.bincount(flow_link, minlength=n_links).cumsum(out=link_ptr[1:])
    return link_ptr, _row_owner(flow_ptr)[flow_link.argsort(kind="stable")]


def capacity_vector(
    compiled: CompiledRouting, capacities: Mapping[Link, Rate]
):
    """The float capacity array matching ``compiled.links`` order."""
    return np.asarray(
        [float(capacities[link]) for link in compiled.links],
        dtype=np.float64,
    )


def _csr_gather(ptr, values, rows):
    """``values[ptr[r]:ptr[r+1]]`` for every ``r`` in ``rows``, back to
    back, without a Python loop: a repeat/arange construction enumerates
    the index ranges in the order a per-row concatenation would."""
    starts = ptr[rows]
    lens = ptr[rows + 1] - starts
    ends = lens.cumsum()
    total = int(ends[-1]) if ends.size else 0
    offsets = (starts - (ends - lens)).repeat(lens)
    return values[np.arange(total, dtype=np.int64) + offsets]


def _row_hits(flow_ptr, flow_link, frozen_ids, n_links):
    """Per-link occurrence counts over ``frozen_ids``' CSR rows.

    A vectorized multi-slice gather of the rows followed by one
    ``bincount``: the "remove these flows from every link they cross"
    step of the batched multi-scenario kernel (:mod:`repro.core.batched`).
    """
    columns = _csr_gather(flow_ptr, flow_link, frozen_ids)
    return np.bincount(columns, minlength=n_links)


def _run_rounds(
    flow_ptr,
    flow_link,
    n_links,
    residual,
    count,
    active,
    rates,
    remaining,
    on_round_end=None,
):
    """The water-filling round loop over raw incidence arrays.

    Mutates ``residual`` / ``count`` / ``active`` / ``rates`` in place
    and returns the number of rounds executed.  Only the first
    ``active.size`` rows of the CSR are read (the streaming solver's
    slot arrays carry spare capacity past them), and rows that are not
    active — dead slots, frozen flows — are masked out.
    ``on_round_end`` observes each round's freeze level and frozen ids;
    it may not mutate the arrays.

    A round is a handful of NumPy calls: levels, their minimum, the band
    over links, one O(nnz) mask over all entries for the frozen rows,
    and one masked ``bincount`` of those rows' entries for the per-link
    hits.
    """
    n_rows = active.size
    entries = flow_link[: int(flow_ptr[n_rows])]
    owner = _row_owner(flow_ptr[: n_rows + 1])
    levels = np.empty(n_links, dtype=np.float64)
    mark = np.zeros(n_rows, dtype=bool)
    rnd = 0
    while remaining > 0:
        alive = count > 0
        if not alive.any():
            # Cannot happen: every active flow keeps each of its
            # links' counts positive.
            raise AssertionError("water-filling invariant violated")
        levels.fill(_INF)
        np.divide(residual, count, out=levels, where=alive)
        lam = float(levels.min())
        if lam < 0.0:
            # Float rounding can leave a residual at -1e-16; clamp
            # so the resulting rates stay non-negative.
            lam = 0.0
        sat = levels <= lam + _BAND * (1.0 + lam)

        # Freeze the active flows crossing a saturating link: mark the
        # owner row of every entry on such a link, then keep the active
        # rows.  ``nonzero`` lists them in ascending order, as
        # ``np.unique`` would, without a sort.
        mark[owner[sat[entries]]] = True
        mark &= active
        frozen_ids = mark.nonzero()[0]
        if frozen_ids.size == 0:
            # Every member of the argmin link was already frozen —
            # impossible while its count stays positive.
            raise AssertionError("water-filling invariant violated")
        # The frozen rows' entries, counted per link, while the mark
        # still holds them.
        hit = np.bincount(entries[mark[owner]], minlength=n_links)
        mark[frozen_ids] = False
        rates[frozen_ids] = lam
        active[frozen_ids] = False
        remaining -= int(frozen_ids.size)

        residual -= lam * hit
        count -= hit
        if on_round_end is not None:
            on_round_end(rnd, lam, frozen_ids)
        rnd += 1
        _ROUNDS.inc()
    return rnd


def waterfill(compiled: CompiledRouting, caps) -> "Sequence[float]":
    """Vectorized progressive filling; returns per-flow rates as a
    float array indexed like ``compiled.flows``.

    Each round: compute every unsaturated link's saturation level
    ``residual / unfrozen_count``, take the minimum ``λ``, saturate every
    link within a relative tolerance band of ``λ`` (batching exact ties
    and divide-rounding twins), freeze their unfrozen flows at ``λ``, and
    decrement residuals/counts on all links those flows cross via one
    ``bincount``.  Freeze levels are non-decreasing, so the result is the
    max-min fair allocation — agreeing with the reference solver to well
    under 1e-12.
    """
    n_flows = len(compiled.flows)
    n_links = len(compiled.links)
    rates = np.zeros(n_flows, dtype=np.float64)
    if n_flows == 0:
        return rates

    residual = np.asarray(caps, dtype=np.float64).copy()
    if residual.shape != (n_links,):
        raise ValueError(
            f"capacity vector has shape {residual.shape}, "
            f"expected ({n_links},)"
        )
    count = np.bincount(compiled.flow_link, minlength=n_links).astype(
        np.float64
    )
    active = np.ones(n_flows, dtype=bool)
    remaining = n_flows

    _SOLVES.inc()
    with trace_span("maxmin.water_fill_vectorized", flows=n_flows) as span:
        rounds = _run_rounds(
            compiled.flow_ptr,
            compiled.flow_link,
            n_links,
            residual,
            count,
            active,
            rates,
            remaining,
        )
        span.set(rounds=rounds)

    _check_waterfill(compiled, np.asarray(caps, dtype=np.float64), rates)
    return rates


def _check_waterfill(compiled: CompiledRouting, caps, rates) -> None:
    """The ``cheap``-level certificate, vectorized.

    Runs whenever validation is enabled (``full`` adds nothing here —
    the bottleneck certificate needs flow/link objects and lives in the
    :class:`~repro.core.allocation.Allocation`-returning entry points).
    NaN/overflow detection and per-link feasibility are pure array ops
    so the check stays cheap on the hot simulation path.
    """
    from repro import validate as _validate

    level = _validate.validation_level()
    if level == "off":
        return
    failures = []
    if not np.isfinite(rates).all():
        bad = [
            compiled.flows[i]
            for i in np.nonzero(~np.isfinite(rates))[0][:5]
        ]
        failures.append(f"non-finite (NaN/inf) rates for flows: {bad!r}")
    elif rates.size and float(rates.min()) < 0.0:
        failures.append(f"negative rates (min {float(rates.min())!r})")
    else:
        weights = np.repeat(rates, np.diff(compiled.flow_ptr))
        loads = np.bincount(
            compiled.flow_link, weights=weights, minlength=len(compiled.links)
        )
        slack = caps + _validate.FLOAT_TOL * (1.0 + np.abs(caps))
        over = np.nonzero(loads > slack)[0]
        for j in over[:5]:
            failures.append(
                f"link {compiled.links[j]!r} overloaded: load "
                f"{float(loads[j])!r} > capacity {float(caps[j])!r}"
            )
    _validate.record_check("cheap", "maxmin.vectorized", failures)


def max_min_fair_vectorized(
    routing: Routing,
    capacities: Mapping[Link, Rate],
    compiled: CompiledRouting = None,
) -> Allocation:
    """Float max-min fair allocation via the vectorized kernel.

    Semantics identical to :func:`repro.core.maxmin.max_min_fair` with
    ``exact=False``.  Pass a pre-built ``compiled`` (from
    :func:`compile_routing`) to skip recompilation when re-solving the
    same routing under different capacities.
    """
    if compiled is None:
        if not routing.flows():
            return Allocation({})
        compiled = compile_routing(routing, capacities)
    rates = waterfill(compiled, capacity_vector(compiled, capacities))
    allocation = Allocation(
        {flow: float(rate) for flow, rate in zip(compiled.flows, rates)}
    )
    from repro import validate as _validate

    # waterfill already ran the cheap array checks; only the full-level
    # bottleneck certificate needs the allocation-level pass.
    if _validate.validation_level() == "full":
        _validate.validate_allocation(
            routing, capacities, allocation,
            level="full", context="maxmin.vectorized",
        )
    return allocation
