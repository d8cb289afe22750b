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
- one gather + ``bincount`` freezes flows and updates residuals/counts.

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

With ``jobs > 1`` the batch is compiled once in the parent and the
stacked arrays are placed in :mod:`multiprocessing.shared_memory` via
:func:`repro.parallel.shared_arrays`; workers attach zero-copy and each
solves a contiguous scenario range directly into a shared output rates
array, so only ``(first, last)`` index pairs ever cross the pipe.

See ``docs/PERFORMANCE.md`` ("Batched multi-scenario solving") for
measured crossover points and the CI gate that holds the batched
kernel to ≥10× over per-instance solves.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.allocation import Allocation, Rate
from repro.core.routing import Link, Routing
from repro.core.vectorized import (
    CompiledRouting,
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

#: Names (and stacking order) of the arrays a :class:`CompiledBatch`
#: carries — the schema of the shared-memory transport.
ARRAY_NAMES = (
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

__all__ = [
    "ARRAY_NAMES",
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
    arrays can be lifted back to :class:`Allocation` objects; a batch
    rebuilt from bare arrays in a worker process (:meth:`from_arrays`)
    has ``parts is None`` — the kernel never needs the objects.
    """

    __slots__ = ("parts",) + ARRAY_NAMES

    def __init__(self, parts: Optional[List[CompiledRouting]], arrays) -> None:
        self.parts = parts
        for name in ARRAY_NAMES:
            setattr(self, name, arrays[name])

    @property
    def num_scenarios(self) -> int:
        return len(self.scn_flow_ptr) - 1

    @property
    def num_flows(self) -> int:
        return int(self.scn_flow_ptr[-1])

    def as_arrays(self) -> Dict[str, Any]:
        """The bare-array view (the shared-memory transport payload)."""
        return {name: getattr(self, name) for name in ARRAY_NAMES}

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, Any]) -> "CompiledBatch":
        """Rebuild a kernel-ready batch from bare arrays (worker side)."""
        return cls(None, arrays)

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
    block-diagonal incidence.
    """
    parts: List[CompiledRouting] = []
    caps_vectors = []
    for routing, capacities in instances:
        compiled = compile_routing(routing, capacities)
        parts.append(compiled)
        caps_vectors.append(capacity_vector(compiled, capacities))
    return _stack_parts(parts, caps_vectors)


def _stack_parts(
    parts: List[CompiledRouting], caps_vectors: List[Any]
) -> CompiledBatch:
    """Stack already-compiled scenarios into one block-diagonal batch."""
    S = len(parts)
    flow_counts = np.asarray([len(p.flows) for p in parts], dtype=np.int64)
    link_counts = np.asarray([len(p.links) for p in parts], dtype=np.int64)
    scn_flow_ptr = np.zeros(S + 1, dtype=np.int64)
    np.cumsum(flow_counts, out=scn_flow_ptr[1:])
    scn_link_ptr = np.zeros(S + 1, dtype=np.int64)
    np.cumsum(link_counts, out=scn_link_ptr[1:])

    flow_ptr_parts = [np.zeros(1, dtype=np.int64)]
    flow_link_parts = []
    link_ptr_parts = [np.zeros(1, dtype=np.int64)]
    link_flow_parts = []
    nnz = 0
    for s, p in enumerate(parts):
        flow_ptr_parts.append(np.asarray(p.flow_ptr[1:], dtype=np.int64) + nnz)
        flow_link_parts.append(
            np.asarray(p.flow_link, dtype=np.int64) + scn_link_ptr[s]
        )
        link_ptr_parts.append(np.asarray(p.link_ptr[1:], dtype=np.int64) + nnz)
        link_flow_parts.append(
            np.asarray(p.link_flow, dtype=np.int64) + scn_flow_ptr[s]
        )
        nnz += int(p.flow_link.size)

    def _concat(chunks, dtype):
        if not chunks:
            return np.zeros(0, dtype=dtype)
        return np.concatenate(chunks).astype(dtype, copy=False)

    arrays = {
        "flow_ptr": _concat(flow_ptr_parts, np.int64),
        "flow_link": _concat(flow_link_parts, np.int64),
        "link_ptr": _concat(link_ptr_parts, np.int64),
        "link_flow": _concat(link_flow_parts, np.int64),
        "scn_flow_ptr": scn_flow_ptr,
        "scn_link_ptr": scn_link_ptr,
        "scn_of_flow": np.repeat(np.arange(S, dtype=np.int64), flow_counts),
        "scn_of_link": np.repeat(np.arange(S, dtype=np.int64), link_counts),
        "caps": _concat(caps_vectors, np.float64),
    }
    _SCENARIOS.inc(S)
    return CompiledBatch(parts, arrays)


def _round_estimates(parts: List[CompiledRouting], caps_vectors) -> List[int]:
    """Estimated water-filling round count per scenario.

    Each round freezes every link sitting at the current water level, so
    the number of rounds a scenario takes is at most — and in practice
    close to — its number of *distinct initial fill levels*
    ``capacity / degree`` over links with at least one flow.  The
    estimate only drives scheduling (:func:`solve_max_min_batch`'s
    ``sub_batches=`` ordering); it never touches the arithmetic.
    """
    estimates: List[int] = []
    for compiled, caps in zip(parts, caps_vectors):
        degree = np.diff(np.asarray(compiled.link_ptr, dtype=np.int64))
        loaded = degree > 0
        if not loaded.any():
            estimates.append(0)
            continue
        levels = np.asarray(caps, dtype=np.float64)[loaded] / degree[loaded]
        estimates.append(int(np.unique(levels).size))
    return estimates


def waterfill_batch(batch: CompiledBatch, first: int = 0, last=None, out=None):
    """Water-fill scenarios ``[first, last)`` of ``batch`` simultaneously.

    Returns the float rate array for the range's flows (a view into
    ``out`` when given — the shared-memory path passes the global
    output array and each worker writes only its own slice).  Every
    per-element float operation matches the per-instance
    :func:`~repro.core.vectorized.waterfill` kernel exactly, so the
    rates are byte-identical to solving each scenario alone.
    """
    if last is None:
        last = batch.num_scenarios
    fa = int(batch.scn_flow_ptr[first])
    fb = int(batch.scn_flow_ptr[last])
    la = int(batch.scn_link_ptr[first])
    lb = int(batch.scn_link_ptr[last])
    n_flows, n_links, S = fb - fa, lb - la, last - first

    if out is None:
        rates = np.zeros(n_flows, dtype=np.float64)
    else:
        rates = out[fa:fb]
        rates[:] = 0.0
    if n_flows == 0:
        return rates

    flow_ptr, flow_link = batch.flow_ptr, batch.flow_link
    link_ptr, link_flow = batch.link_ptr, batch.link_flow
    residual = np.asarray(batch.caps[la:lb], dtype=np.float64).copy()
    count = np.diff(batch.link_ptr[la:lb + 1]).astype(np.float64)
    active = np.ones(n_flows, dtype=bool)
    remaining = np.diff(batch.scn_flow_ptr[first:last + 1]).astype(np.int64)
    scn_link = np.asarray(batch.scn_of_link[la:lb], dtype=np.int64) - first
    scn_flow = np.asarray(batch.scn_of_flow[fa:fb], dtype=np.int64) - first
    # Segment starts for the per-scenario min; a scenario with no links
    # (no flows) never activates, but its degenerate segment must not
    # index out of bounds or swallow a neighbor's minimum.
    seg_start = np.asarray(batch.scn_link_ptr[first:last], dtype=np.int64) - la
    empty_seg = np.diff(batch.scn_link_ptr[first:last + 1]) == 0
    reduce_at = np.minimum(seg_start, max(n_links - 1, 0))

    levels = np.empty(n_links, dtype=np.float64)
    delta = np.empty(n_links, dtype=np.float64)
    frozen_mask = np.zeros(n_flows, dtype=bool)
    band = _vectorized._BAND
    scn_active = remaining > 0
    rounds = 0
    _SOLVES.inc()
    with trace_span(
        "maxmin.water_fill_batched", scenarios=S, flows=n_flows
    ) as span:
        while scn_active.any():
            levels.fill(_INF)
            np.divide(residual, count, out=levels, where=count > 0.0)
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
            lam_links = lam[scn_link]
            sat_idx = np.nonzero(
                levels <= lam_links + band * (1.0 + lam_links)
            )[0]
            # Gather the saturated links' member rows without a Python
            # loop: for each saturated link j, the row is
            # link_flow[starts[j]:starts[j]+lens[j]]; the repeat/arange
            # construction enumerates those index ranges back to back,
            # in the same order a per-link concatenation would.
            if sat_idx.size:
                starts = link_ptr[sat_idx + la]
                lens = link_ptr[sat_idx + la + 1] - starts
                total = int(lens.sum())
                ends = np.cumsum(lens)
                idx = (
                    np.arange(total, dtype=np.int64)
                    + np.repeat(starts - (ends - lens), lens)
                )
                members = link_flow[idx] - fa
            else:
                members = np.zeros(0, dtype=np.int64)
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

            hit = _row_hits(
                flow_ptr, flow_link, frozen + fa, n_links, link_base=la
            )
            # ``lam[scn_link] * hit`` would be -inf·0 = NaN on finished
            # scenarios' untouched links; masking the multiply leaves
            # those deltas at 0.0, so ``residual -= delta`` is
            # bit-for-bit the per-instance kernel's
            # ``residual -= lam * hit`` (which subtracts 0.0 there too).
            delta.fill(0.0)
            np.multiply(lam_links, hit, out=delta, where=hit > 0)
            residual -= delta
            count -= hit
            scn_active = remaining > 0
            rounds += 1
        span.set(rounds=rounds)
    _ROUNDS.inc(rounds)
    _check_batch(batch, first, last, rates)
    return rates


def _check_batch(batch: CompiledBatch, first: int, last: int, rates) -> None:
    """The cheap-level certificate over the solved range, vectorized.

    Mirrors :func:`repro.core.vectorized._check_waterfill` on the
    stacked arrays; failure messages cite scenario/flow *indices*
    because worker-side batches carry no flow objects.
    """
    from repro import validate as _validate

    if _validate.validation_level() == "off":
        return
    fa = int(batch.scn_flow_ptr[first])
    fb = int(batch.scn_flow_ptr[last])
    la = int(batch.scn_link_ptr[first])
    lb = int(batch.scn_link_ptr[last])
    failures = []
    if not np.isfinite(rates).all():
        bad = np.nonzero(~np.isfinite(rates))[0][:5]
        scenarios = batch.scn_of_flow[bad + fa]
        failures.append(
            "non-finite (NaN/inf) rates for flow indices "
            f"{bad.tolist()!r} (scenarios {scenarios.tolist()!r})"
        )
    elif rates.size and float(rates.min()) < 0.0:
        failures.append(f"negative rates (min {float(rates.min())!r})")
    else:
        row_lens = np.diff(batch.flow_ptr[fa:fb + 1])
        weights = np.repeat(rates, row_lens)
        base = int(batch.flow_ptr[fa])
        columns = batch.flow_link[base:int(batch.flow_ptr[fb])] - la
        loads = np.bincount(columns, weights=weights, minlength=lb - la)
        caps = np.asarray(batch.caps[la:lb], dtype=np.float64)
        slack = caps + _validate.FLOAT_TOL * (1.0 + np.abs(caps))
        over = np.nonzero(loads > slack)[0]
        for j in over[:5]:
            failures.append(
                f"link index {int(j)} (scenario "
                f"{int(batch.scn_of_link[j + la])}) overloaded: load "
                f"{float(loads[j])!r} > capacity {float(caps[j])!r}"
            )
    _validate.record_check("cheap", "maxmin.batched", failures)


# ----------------------------------------------------------------------
# Shared-memory parallel solving
# ----------------------------------------------------------------------
def _solve_shared_chunk(task: Tuple[int, int]) -> int:
    """Worker: solve scenarios ``[first, last)`` from the shared batch.

    The stacked arrays (and the output rates array) live in the
    parent's shared-memory block — attached zero-copy by
    :func:`repro.parallel.shared_array`; only this ``(first, last)``
    pair crossed the pipe.
    """
    from repro.parallel import shared_array

    first, last = task
    batch = CompiledBatch.from_arrays(
        {name: shared_array(name) for name in ARRAY_NAMES}
    )
    waterfill_batch(batch, first=first, last=last, out=shared_array("rates"))
    return last - first


def _sub_batch_ranges(S: int, sub_batches: int) -> List[Tuple[int, int]]:
    """Split ``S`` scenarios into ``sub_batches`` contiguous near-equal
    ranges (fewer when ``S < sub_batches``)."""
    k = max(1, min(sub_batches, S))
    bounds = [round(S * i / k) for i in range(k + 1)]
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]


def _batch_rates_parallel(
    batch: CompiledBatch,
    jobs: int,
    chunksize: Optional[int],
    tasks: Optional[List[Tuple[int, int]]] = None,
):
    """Solve the whole batch across worker processes, zero-copy.

    The parent compiled once; workers attach to the shared block and
    write disjoint slices of the shared ``rates`` array, so results
    need no transport at all.  Scenario ranges are contiguous — a
    range of a block-diagonal batch is itself a valid batch.  ``tasks``
    overrides the default even chunking (the ``sub_batches=`` path
    passes its round-sorted ranges directly).
    """
    from repro import parallel

    S = batch.num_scenarios
    if tasks is None:
        if chunksize is None:
            # A few chunks per worker evens out uneven scenario sizes
            # without drowning in per-task dispatch.
            chunksize = max(1, -(-S // (jobs * 4)))
        tasks = [(a, min(a + chunksize, S)) for a in range(0, S, chunksize)]
    arrays = dict(batch.as_arrays())
    arrays["rates"] = np.zeros(batch.num_flows, dtype=np.float64)
    with parallel.shared_arrays(arrays) as block:
        parallel.parallel_map(
            _solve_shared_chunk, tasks, jobs=jobs, shared=block
        )
        return block["rates"].copy()


# ----------------------------------------------------------------------
# The front door
# ----------------------------------------------------------------------
def solve_max_min_batch(
    instances: Sequence[Tuple[Routing, Mapping[Link, Rate]]],
    backend: str = "batched",
    exact: Optional[bool] = None,
    jobs: int = 1,
    chunksize: Optional[int] = None,
    sub_batches: int = 1,
) -> List[Allocation]:
    """Max-min fair allocations for N independent instances at once.

    ``instances`` is a sequence of ``(routing, capacities)`` pairs;
    the result list is index-aligned with it.

    - ``backend="batched"`` (default) stacks all float scenarios into
      one block-diagonal incidence and water-fills them simultaneously;
      rates are byte-identical to per-instance ``vectorized`` solves.
      ``jobs > 1`` splits the batch across worker processes over
      shared memory (``chunksize`` scenarios per task); results stay
      byte-identical to ``jobs=1``.
    - ``sub_batches > 1`` orders scenarios by estimated round count
      (distinct initial link-fill levels, :func:`_round_estimates`) and
      water-fills that order in ``sub_batches`` contiguous groups, so
      the whole batch no longer spins empty rounds waiting for the
      single deepest scenario.  Scenario arithmetic is independent
      (block-diagonal), so results stay byte-identical to
      ``sub_batches=1`` — ordering changes wall-clock only.  Composes
      with ``jobs``: each group becomes one shared-memory task.
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

    order = list(range(len(pairs)))
    groups: Optional[List[Tuple[int, int]]] = None
    if sub_batches and sub_batches > 1 and len(pairs) > 1:
        parts: List[CompiledRouting] = []
        caps_vectors = []
        for routing, capacities in pairs:
            compiled = compile_routing(routing, capacities)
            parts.append(compiled)
            caps_vectors.append(capacity_vector(compiled, capacities))
        estimates = _round_estimates(parts, caps_vectors)
        order = sorted(order, key=lambda s: (estimates[s], s))
        batch = _stack_parts(
            [parts[s] for s in order], [caps_vectors[s] for s in order]
        )
        groups = _sub_batch_ranges(batch.num_scenarios, sub_batches)
    else:
        batch = compile_batch(pairs)

    if jobs and jobs > 1 and batch.num_scenarios > 1:
        rates = _batch_rates_parallel(batch, jobs, chunksize, tasks=groups)
    elif groups is not None:
        rates = np.zeros(batch.num_flows, dtype=np.float64)
        for first, last in groups:
            waterfill_batch(batch, first=first, last=last, out=rates)
    else:
        rates = waterfill_batch(batch)

    from repro import validate as _validate

    full = _validate.validation_level() == "full"
    allocations: List[Optional[Allocation]] = [None] * len(pairs)
    for position, scenario in enumerate(order):
        compiled = batch.parts[position]
        routing, capacities = pairs[scenario]
        lo = int(batch.scn_flow_ptr[position])
        hi = int(batch.scn_flow_ptr[position + 1])
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
        allocations[scenario] = allocation
    return allocations
