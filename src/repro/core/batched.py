"""Batched multi-scenario water-filling (``solve_max_min_batch``).

The E4/E5 sweeps, the router comparisons, and the enumeration searches
solve thousands of *independent* max-min instances.  Solving them one
at a time pays the per-round Python/NumPy dispatch overhead once per
instance per round; for the small-to-medium instances those workloads
produce, dispatch dominates arithmetic.  This module stacks N
independent routings into **one block-diagonal CSR incidence** (each
scenario's flows and links occupy a contiguous index range, reusing the
:func:`repro.core.vectorized.compile_routing` compile path per
scenario) and water-fills *all scenarios simultaneously*:

- one masked divide computes every unsaturated link's level across the
  whole batch,
- one segmented ``minimum.reduceat`` takes each scenario's own water
  level ``λ_s`` (block boundaries are segment boundaries),
- one tolerance-band comparison selects every saturating link batch-wide,
- one gather of those links' member rows (the stacked link → flow
  transpose) freezes flows, and one ``bincount`` finds the links they
  cross; residuals, counts and levels are recomputed on those links
  only.

Finished scenarios stop contributing work: their water level is forced
to ``-inf`` so the saturation band never selects their links again, and
the loop runs until every scenario's per-scenario termination mask
drains.  Because the incidence is block diagonal, no arithmetic ever
mixes scenarios — every per-element float operation is *identical* to
the one the per-instance :func:`repro.core.vectorized.waterfill` kernel
performs, so batched rates are **byte-identical** to per-instance
solves (property-tested in ``tests/test_batched.py``).

Exact (``Fraction``) requests gain nothing from NumPy batching and are
dispatched per-instance to the reference solver — still through the one
:func:`solve_max_min_batch` front door, so callers keep a single entry
point for both modes.

The whole batch is compiled and water-filled in the calling process.
Compilation, not the water-fill, is most of a batched sweep's cost.

See ``docs/PERFORMANCE.md`` ("Batched multi-scenario solving") for
measured crossover points and the CI gate that holds the batched
kernel to ≥10× over per-instance solves.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.allocation import Allocation, Rate
from repro.core.routing import Link, Routing
from repro.core.vectorized import (
    CompiledRouting,
    _csr_gather,
    _csr_transpose,
    _row_hits,
    capacity_vector,
    compile_routing,
)
from repro.core import vectorized as _vectorized
from repro.obs import counter, trace_span

_INF = float("inf")

#: Observability instruments (no-ops unless ``repro.obs`` is enabled).
_SOLVES = counter("batched.solves")
_SCENARIOS = counter("batched.scenarios")
_ROUNDS = counter("batched.rounds")

__all__ = [
    "CompiledBatch",
    "compile_batch",
    "solve_max_min_batch",
    "waterfill_batch",
]


class CompiledBatch:
    """N routings stacked into one block-diagonal CSR incidence.

    Scenario ``s`` owns the flow index range
    ``scn_flow_ptr[s]:scn_flow_ptr[s+1]`` and the link index range
    ``scn_link_ptr[s]:scn_link_ptr[s+1]``; ``flow_ptr``/``flow_link``
    and ``link_ptr``/``link_flow`` are the global CSR incidence and its
    transpose (indices already offset into the global ranges), and
    ``caps`` is the concatenated per-scenario capacity vector.
    ``scn_of_flow``/``scn_of_link`` map global ids back to scenarios.

    ``parts`` holds each scenario's :class:`CompiledRouting` so rate
    arrays can be lifted back to :class:`Allocation` objects.
    """

    __slots__ = (
        "parts",
        "flow_ptr",
        "flow_link",
        "link_ptr",
        "link_flow",
        "scn_flow_ptr",
        "scn_link_ptr",
        "scn_of_flow",
        "scn_of_link",
        "caps",
    )

    def __init__(self, parts: List[CompiledRouting], **arrays) -> None:
        self.parts = parts
        for name, array in arrays.items():
            setattr(self, name, array)

    @property
    def num_scenarios(self) -> int:
        return len(self.scn_flow_ptr) - 1

    @property
    def num_flows(self) -> int:
        return int(self.scn_flow_ptr[-1])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledBatch({self.num_scenarios} scenarios, "
            f"{self.num_flows} flows, {len(self.caps)} links)"
        )


def compile_batch(
    instances: Sequence[Tuple[Routing, Mapping[Link, Rate]]],
) -> CompiledBatch:
    """Compile every ``(routing, capacities)`` pair and stack the results.

    Each scenario goes through the per-instance
    :func:`~repro.core.vectorized.compile_routing` path (so unbounded
    flows and malformed capacities raise the same typed errors), then
    the CSR arrays are concatenated with per-scenario offsets into one
    block-diagonal incidence, and its link → flows transpose is built
    once over the stacked arrays (the parts carry none): each stacked
    link lists its flows in ascending global id, i.e. routing order.
    """
    parts: List[CompiledRouting] = []
    caps_vectors = []
    for routing, capacities in instances:
        compiled = compile_routing(routing, capacities)
        parts.append(compiled)
        caps_vectors.append(capacity_vector(compiled, capacities))

    S = len(parts)
    flow_counts = np.asarray([len(p.flows) for p in parts], dtype=np.int64)
    link_counts = np.asarray([len(p.links) for p in parts], dtype=np.int64)
    scn_flow_ptr = np.zeros(S + 1, dtype=np.int64)
    np.cumsum(flow_counts, out=scn_flow_ptr[1:])
    scn_link_ptr = np.zeros(S + 1, dtype=np.int64)
    np.cumsum(link_counts, out=scn_link_ptr[1:])

    # The leading empty chunk keeps ``concatenate`` defined for S = 0.
    none = [np.zeros(0, dtype=np.int64)]
    flow_ptr = np.zeros(int(scn_flow_ptr[-1]) + 1, dtype=np.int64)
    np.cumsum(
        np.concatenate(none + [np.diff(p.flow_ptr) for p in parts]),
        out=flow_ptr[1:],
    )
    flow_link = np.concatenate(
        none + [p.flow_link + scn_link_ptr[s] for s, p in enumerate(parts)]
    )
    link_ptr, link_flow = _csr_transpose(
        flow_ptr, flow_link, int(scn_link_ptr[-1])
    )
    _SCENARIOS.inc(S)
    return CompiledBatch(
        parts,
        flow_ptr=flow_ptr,
        flow_link=flow_link,
        link_ptr=link_ptr,
        link_flow=link_flow,
        scn_flow_ptr=scn_flow_ptr,
        scn_link_ptr=scn_link_ptr,
        scn_of_flow=np.repeat(np.arange(S, dtype=np.int64), flow_counts),
        scn_of_link=np.repeat(np.arange(S, dtype=np.int64), link_counts),
        caps=np.concatenate([np.zeros(0)] + caps_vectors),
    )


def waterfill_batch(batch: CompiledBatch, on_round_end=None):
    """Water-fill every scenario of ``batch`` simultaneously.

    Returns the float rate array over the batch's global flow ids.
    Every per-element float operation matches the per-instance
    :func:`~repro.core.vectorized.waterfill` kernel exactly, so the
    rates are byte-identical to solving each scenario alone.
    ``on_round_end(rnd, lam, frozen)`` observes each round's
    per-scenario levels (``-inf`` once finished) and the ascending
    global ids it froze; it may not mutate them.
    """
    n_flows = batch.num_flows
    n_links = len(batch.caps)
    S = batch.num_scenarios
    rates = np.zeros(n_flows, dtype=np.float64)
    if n_flows == 0:
        return rates

    flow_ptr, flow_link = batch.flow_ptr, batch.flow_link
    link_ptr, link_flow = batch.link_ptr, batch.link_flow
    residual = np.asarray(batch.caps, dtype=np.float64).copy()
    count = np.diff(link_ptr).astype(np.float64)
    active = np.ones(n_flows, dtype=bool)
    remaining = np.diff(batch.scn_flow_ptr).astype(np.int64)
    scn_link = batch.scn_of_link
    scn_flow = batch.scn_of_flow
    links_per_scn = np.diff(batch.scn_link_ptr)
    # Segment starts for the per-scenario min; a scenario with no links
    # (no flows) never activates, but its degenerate segment must not
    # index out of bounds or swallow a neighbor's minimum.
    empty_seg = links_per_scn == 0
    reduce_at = np.minimum(batch.scn_link_ptr[:-1], max(n_links - 1, 0))

    levels = np.full(n_links, _INF, dtype=np.float64)
    np.divide(residual, count, out=levels, where=count > 0.0)
    frozen_mask = np.zeros(n_flows, dtype=bool)
    band = _vectorized._BAND
    scn_active = remaining > 0
    rounds = 0
    _SOLVES.inc()
    with trace_span(
        "maxmin.water_fill_batched", scenarios=S, flows=n_flows
    ) as span:
        while scn_active.any():
            lam = np.minimum.reduceat(levels, reduce_at)
            lam[empty_seg] = _INF
            if not np.isfinite(lam[scn_active]).all():
                # Cannot happen: every unfinished scenario keeps at
                # least one of its links' counts positive.
                raise AssertionError("water-filling invariant violated")
            # Clamp float-rounding negatives (the per-instance kernel's
            # ``lam = 0.0`` guard), then silence finished scenarios so
            # the saturation band never selects their links again.
            lam[scn_active & (lam < 0.0)] = 0.0
            lam[~scn_active] = -_INF

            # Per-element the threshold formula matches the per-instance
            # kernel's scalar ``lam + _BAND * (1.0 + lam)`` exactly;
            # finished scenarios' ``-inf`` makes their band unreachable.
            threshold = np.repeat(lam + band * (1.0 + lam), links_per_scn)
            sat_idx = np.nonzero(levels <= threshold)[0]
            # The saturated links' member rows, back to back.
            members = _csr_gather(link_ptr, link_flow, sat_idx)
            candidates = members[active[members]]
            if candidates.size == 0:
                raise AssertionError("water-filling invariant violated")
            # Sorted-unique via a scatter mask — same result as
            # ``np.unique`` without its per-round sort.
            frozen_mask[candidates] = True
            frozen = np.nonzero(frozen_mask)[0]
            frozen_mask[frozen] = False
            rates[frozen] = lam[scn_flow[frozen]]
            active[frozen] = False
            remaining -= np.bincount(scn_flow[frozen], minlength=S)

            # Update only the crossed links: elsewhere the per-instance
            # kernel's ``residual -= lam * hit`` and ``count -= hit``
            # subtract zeros, which leave every value and level as is.
            hit = _row_hits(flow_ptr, flow_link, frozen, n_links)
            touched = np.nonzero(hit)[0]
            hit = hit[touched]
            residual[touched] -= lam[scn_link[touched]] * hit
            count[touched] -= hit
            res, cnt = residual[touched], count[touched]
            new_levels = np.full(touched.size, _INF, dtype=np.float64)
            np.divide(res, cnt, out=new_levels, where=cnt > 0.0)
            levels[touched] = new_levels
            if on_round_end is not None:
                on_round_end(rounds, lam, frozen)
            scn_active = remaining > 0
            rounds += 1
        span.set(rounds=rounds)
    _ROUNDS.inc(rounds)
    _check_batch(batch, rates)
    return rates


def _check_batch(batch: CompiledBatch, rates) -> None:
    """The cheap-level certificate over the whole batch, vectorized.

    Mirrors :func:`repro.core.vectorized._check_waterfill` on the
    stacked arrays; failure messages cite scenario/flow *indices*, the
    unit the stacked arrays are addressed in.
    """
    from repro import validate as _validate

    if _validate.validation_level() == "off":
        return
    failures = []
    if not np.isfinite(rates).all():
        bad = np.nonzero(~np.isfinite(rates))[0][:5]
        scenarios = batch.scn_of_flow[bad]
        failures.append(
            "non-finite (NaN/inf) rates for flow indices "
            f"{bad.tolist()!r} (scenarios {scenarios.tolist()!r})"
        )
    elif rates.size and float(rates.min()) < 0.0:
        failures.append(f"negative rates (min {float(rates.min())!r})")
    else:
        weights = np.repeat(rates, np.diff(batch.flow_ptr))
        caps = np.asarray(batch.caps, dtype=np.float64)
        loads = np.bincount(
            batch.flow_link, weights=weights, minlength=len(caps)
        )
        slack = caps + _validate.FLOAT_TOL * (1.0 + np.abs(caps))
        over = np.nonzero(loads > slack)[0]
        for j in over[:5]:
            failures.append(
                f"link index {int(j)} (scenario "
                f"{int(batch.scn_of_link[j])}) overloaded: load "
                f"{float(loads[j])!r} > capacity {float(caps[j])!r}"
            )
    _validate.record_check("cheap", "maxmin.batched", failures)


# ----------------------------------------------------------------------
# The front door
# ----------------------------------------------------------------------
def solve_max_min_batch(
    instances: Sequence[Tuple[Routing, Mapping[Link, Rate]]],
    backend: str = "batched",
    exact: Optional[bool] = None,
) -> List[Allocation]:
    """Max-min fair allocations for N independent instances at once.

    ``instances`` is a sequence of ``(routing, capacities)`` pairs;
    the result list is index-aligned with it.

    - ``backend="batched"`` (default) compiles all float scenarios into
      one block-diagonal incidence and water-fills them simultaneously,
      in the calling process; rates are byte-identical to per-instance
      ``vectorized`` solves.
    - ``backend="batched"`` with ``exact=True`` dispatches per-instance
      to the exact reference solver (NumPy batching cannot speed up
      ``Fraction`` arithmetic) — same entry point, ``Fraction``-identical
      results.
    - Any other ``backend`` name loops per-instance through
      :func:`repro.core.solve.solve_max_min` — callers can route every
      multi-instance workload through this one function and pick the
      kernel per call site.
    """
    pairs = [(routing, capacities) for routing, capacities in instances]
    if backend != "batched":
        from repro.core.solve import solve_max_min

        return [
            solve_max_min(routing, capacities, backend=backend, exact=exact)
            for routing, capacities in pairs
        ]
    if exact:
        from repro.core.solve import solve_max_min

        return [
            solve_max_min(routing, capacities, backend="reference", exact=True)
            for routing, capacities in pairs
        ]
    if not pairs:
        return []

    batch = compile_batch(pairs)
    rates = waterfill_batch(batch)

    from repro import validate as _validate

    full = _validate.validation_level() == "full"
    allocations: List[Allocation] = []
    for scenario, (routing, capacities) in enumerate(pairs):
        compiled = batch.parts[scenario]
        lo = int(batch.scn_flow_ptr[scenario])
        hi = int(batch.scn_flow_ptr[scenario + 1])
        allocation = Allocation(
            {
                flow: float(rate)
                for flow, rate in zip(compiled.flows, rates[lo:hi])
            }
        )
        if full:
            _validate.validate_allocation(
                routing, capacities, allocation,
                level="full", context="maxmin.batched",
            )
        allocations.append(allocation)
    return allocations
