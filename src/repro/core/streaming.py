"""Incremental max-min water-filling under live flow churn (the
``streaming`` backend).

The flow-level simulator re-derives the max-min allocation every time
the unsplittable-flow set changes; solving from scratch on every
arrival/departure makes each event cost a full water-fill.
:class:`StreamingMaxMin` keeps the solver state of the *last* solve —
the CSR flow×link incidence (the :mod:`repro.core.vectorized` array
layout over mutable slots), the non-decreasing sequence of per-round
freeze levels ``λ_0 ≤ λ_1 ≤ …``, each flow's freeze round, and periodic
``(residual, count)`` checkpoints — and on the next batch of
arrivals/departures recomputes only the *suffix* of rounds the batch can
actually affect.

Why a suffix is enough:

- A **departing** flow frozen at round ``r`` cannot change rounds
  ``< r``: none of its links saturates before ``r`` (a saturating link
  freezes all its active members, the departing flow included), so its
  presence only contributed an unfrozen ``count`` entry that never
  entered the saturating set — levels and freeze groups of the prefix
  are unchanged.
- An **arriving** flow only lowers the saturation levels of the links it
  crosses.  Scanning each such link's stored residual/count trajectory
  finds the first round where its new level ``residual / (count + Δ)``
  enters the round's saturation band; before that round the prefix is
  unchanged.

The resume round ``r*`` is the minimum over both.  State at ``r*`` is
rebuilt **bit-exactly**: the nearest checkpoint at ``r0 ≤ r*`` is
replayed forward with the same ``residual -= λ_r · hit`` array
operations the kernel performed, so the suffix re-solve continues the
identical float operation sequence a from-scratch solve would have run —
streaming rates are *byte-identical* to fresh
:func:`~repro.core.vectorized.waterfill` results, not merely close
(property-tested in ``tests/test_streaming.py``).

Structural changes fall back safely: capacity-value changes invalidate
the trace (next solve is full), a finite↔infinite membership flip
(which would leave a stale compiled incidence) or an accumulated
backlog of dead slots triggers a recompile of the incidence itself.
``exact=True`` switches to a ``Fraction`` implementation of the same
prefix-reuse argument (order never matters for exact arithmetic — the
max-min allocation is unique).

Every solve can be cross-checked against the exact reference solver —
``shadow=`` a fraction, or the ambient ``REPRO_SHADOW`` environment
variable (:data:`SHADOW_ENV`; streaming is its only reader).  A
disagreement is quarantined (reason ``stream-mismatch``) with the event
prefix that produced it, counted, answered with the reference rates, and
the next solve is forced full.
"""

from __future__ import annotations

import os
from collections import deque
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import UnboundedRateError, UnknownLinkError
from repro.core.allocation import Allocation, Rate
from repro.core.flows import Flow
from repro.core.routing import Link, Routing
from repro.core.vectorized import (
    _BAND,
    _INF,
    _csr_gather,
    _csr_transpose,
    _row_hits,
    _run_rounds,
)
from repro.obs import counter, get_logger, trace_span

#: Freeze round assigned to slots no solve has frozen yet (staged
#: arrivals); compares greater than any real round index.
_NEVER = 1 << 60

#: Observability instruments (no-ops unless ``repro.obs`` is enabled).
_PATCHED = counter("solver.stream.patched")
_FULLSOLVE = counter("solver.stream.fullsolve")
_RECOMPILES = counter("solver.stream.recompiles")
_SHADOW_CHECKS = counter("solver.stream.shadow_checks")
_MISMATCHES = counter("solver.stream.mismatches")

#: Environment variable: fraction of streaming solves shadow-checked
#: against the exact reference (0 disables; 1 checks every solve) when
#: no ``shadow=`` is given.
SHADOW_ENV = "REPRO_SHADOW"

__all__ = ["StreamingMaxMin", "streaming_max_min"]


def _path_links(path) -> List[Link]:
    return list(zip(path, path[1:]))


def _shadow_interval() -> int:
    """Shadow every N-th solve (0 = shadow checking disabled)."""
    raw = os.environ.get(SHADOW_ENV, "").strip()
    if not raw:
        return 0
    try:
        fraction = float(raw)
    except ValueError:
        raise ValueError(
            f"{SHADOW_ENV} must be a fraction in [0, 1], got {raw!r}"
        ) from None
    if fraction <= 0:
        return 0
    return max(1, round(1.0 / min(fraction, 1.0)))


def _fmt_event(event) -> str:
    """Render a lazily-recorded event-log entry (kept as tuples on the
    hot path; formatting only happens when a bundle is quarantined)."""
    kind = event[0]
    if kind == "add":
        return f"add {event[1]!r} via {event[2][1:-1]!r}"
    if kind == "remove":
        return f"remove {event[1]!r}"
    if kind == "remove-staged":
        return f"remove {event[1]!r} (cancelled staged add)"
    return f"set_capacities ({event[1]})"


class StreamingMaxMin:
    """A max-min fair allocator that absorbs flow churn incrementally.

    ``capacities`` is the link → capacity map of the whole fabric (the
    usual ``network.graph.capacities()``).  Flows are added with their
    pinned path (:meth:`add`), removed on completion (:meth:`remove`),
    and :meth:`solve` returns the max-min rates of the current set —
    reusing the unaffected prefix of the previous solve's bottleneck
    rounds whenever it can (``solver.stream.patched``) and falling back
    to a full re-solve otherwise (``solver.stream.fullsolve``).

    Keys should be :class:`~repro.core.flows.Flow` objects (tag them to
    distinguish parallel transfers); paths are node sequences as in
    :class:`~repro.core.routing.Routing`.  Rates are floats, or exact
    ``Fraction`` values with ``exact=True``.

    ``checkpoint_every`` controls how often ``(residual, count)`` round
    snapshots are kept for bit-exact replay (float mode);
    ``max_dead_fraction`` bounds the tolerated fraction of dead slots
    before the incidence is compacted; ``shadow`` cross-checks that
    fraction of solves against the exact reference (``None`` defers to
    the ``REPRO_SHADOW`` environment variable).
    """

    def __init__(
        self,
        capacities: Mapping[Link, Rate],
        exact: bool = False,
        checkpoint_every: int = 16,
        max_dead_fraction: float = 0.25,
        shadow: Optional[float] = None,
        quarantine_dir: Optional[str] = None,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self._exact = bool(exact)
        self._checkpoint_every = int(checkpoint_every)
        self._max_dead_fraction = float(max_dead_fraction)
        self._shadow = shadow
        self._quarantine_dir = quarantine_dir

        #: Committed flow → path (reflects the last applied batch).
        self._paths: Dict[Flow, Tuple] = {}
        self._pending_add: Dict[Flow, Tuple] = {}
        self._pending_remove: Dict[Flow, None] = {}
        self._rates: Dict[Flow, Rate] = {}
        #: Bounded event log since construction — the "event prefix"
        #: captured into ``stream-mismatch`` quarantine bundles.
        self._events: deque = deque(maxlen=256)

        # Float-mode state (built lazily at the first solve).
        self._compiled = False
        self._needs_recompile = True
        self._full_needed = True
        self._trace = None  # (levels: List[float], ckpts: {round: (res, cnt)})

        # Exact-mode state.
        self._x_links: Dict[Flow, List[Link]] = {}
        self._x_members: Dict[Link, Dict[Flow, None]] = {}
        self._x_caps: Dict[Link, Fraction] = {}
        self._x_levels: Optional[List[Fraction]] = None
        self._x_fr: Dict[Flow, int] = {}
        self._x_rates: Dict[Flow, Fraction] = {}

        # Lifetime statistics (mirrored into the obs counters).
        self._solves = 0
        self._patched = 0
        self._fullsolves = 0
        self._recompiles = 0
        self._shadow_checks = 0
        self._mismatches = 0
        self.last_bundle: Optional[str] = None

        self._caps: Dict[Link, Rate] = {}
        self._finite_set = frozenset()
        # Lazy link registry: only links actually traversed by a
        # compiled flow get an array slot, so a solver whose flows touch
        # a small corner of a large fabric carries arrays sized to that
        # corner instead of rebuilding full-fabric state on every
        # (re)compile.
        self._link_index: Dict[Link, int] = {}
        self._link_of: List[Link] = []
        self._nlinks = 0
        self._install_capacities(capacities)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._paths) + len(self._pending_add) - len(
            self._pending_remove
        )

    def flows(self) -> List[Flow]:
        """The tracked flows (committed plus staged, minus staged removes)."""
        current = [
            flow for flow in self._paths if flow not in self._pending_remove
        ]
        current.extend(self._pending_add)
        return current

    def routing(self) -> Routing:
        """The committed flow set as a :class:`Routing` (post-:meth:`solve`)."""
        return Routing(dict(self._paths))

    @property
    def stats(self) -> Dict[str, int]:
        """Lifetime solve statistics for this instance."""
        return {
            "solves": self._solves,
            "patched": self._patched,
            "fullsolve": self._fullsolves,
            "recompiles": self._recompiles,
            "shadow_checks": self._shadow_checks,
            "mismatches": self._mismatches,
        }

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, flow: Flow, path) -> None:
        """Stage an arrival: ``flow`` pinned to ``path`` (a node sequence).

        Validated eagerly: every link must exist in the capacity map and
        at least one must be finite (else the flow's rate would be
        unbounded).  Takes effect at the next :meth:`solve`.
        """
        path = tuple(path)
        if len(path) < 2:
            raise ValueError(f"path must have >= 2 nodes: {path!r}")
        if flow in self._pending_add or (
            flow in self._paths and flow not in self._pending_remove
        ):
            raise ValueError(f"flow is already tracked: {flow!r}")
        caps = self._caps
        finite = self._finite_set
        bounded = False
        missing = None
        for link in zip(path, path[1:]):
            if link not in caps:
                missing = link
                break
            if link in finite:
                bounded = True
        if missing is not None:
            raise UnknownLinkError(
                f"path links missing from the capacity map: {[missing]!r}"
            )
        if not bounded:
            raise UnboundedRateError(
                f"flow with no finite-capacity link on its path: {flow!r}"
            )
        self._pending_add[flow] = path
        self._events.append(("add", flow, path))

    def remove(self, flow: Flow) -> None:
        """Stage a departure.  Takes effect at the next :meth:`solve`."""
        if flow in self._pending_add:
            del self._pending_add[flow]  # arrived and left within one batch
            self._events.append(("remove-staged", flow))
            return
        if flow not in self._paths or flow in self._pending_remove:
            raise KeyError(f"flow is not tracked: {flow!r}")
        self._pending_remove[flow] = None
        self._events.append(("remove", flow))

    def set_capacities(self, capacities: Mapping[Link, Rate]) -> None:
        """Replace the capacity map (link degradations / recoveries).

        Value-only changes keep the compiled incidence and cost one full
        re-solve; a change to *which* links are finite (a total failure
        modeled as infinite, or vice versa — the stale-incidence
        class) additionally recompiles the incidence.
        """
        caps = dict(capacities)
        new_finite = frozenset(
            link for link, value in caps.items() if float(value) != _INF
        )
        structural = (
            new_finite != self._finite_set
            or frozenset(caps) != frozenset(self._caps)
        )
        self._caps = caps
        self._full_needed = True
        if structural:
            self._finite_set = new_finite
            self._needs_recompile = True
            self._events.append(("caps", "structural"))
        else:
            self._events.append(("caps", "values"))
            if self._compiled:
                for link, j in self._link_index.items():
                    self._caps_arr[j] = float(caps[link])
            if self._x_levels is not None:
                self._x_caps = {
                    link: Fraction(caps[link]) for link in self._x_caps
                }

    def _install_capacities(self, capacities: Mapping[Link, Rate]) -> None:
        caps = dict(capacities)
        self._caps = caps
        self._finite_set = frozenset(
            link for link, value in caps.items() if float(value) != _INF
        )
        self._needs_recompile = True
        self._full_needed = True

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self) -> Dict[Flow, Rate]:
        """Apply staged events and return the max-min rates per flow."""
        adds = self._pending_add
        removes = list(self._pending_remove)
        self._pending_add = {}
        self._pending_remove = {}
        self._solves += 1
        if self._exact:
            rates = self._solve_exact(adds, removes)
        else:
            rates = self._solve_float(adds, removes)
        self._rates = rates
        rates = self._maybe_shadow(rates)
        self._validate_full(rates)
        return dict(rates)

    # -------------------------- float mode ----------------------------
    def _solve_float(self, adds, removes) -> Dict[Flow, float]:
        with trace_span(
            "maxmin.water_fill_streaming",
            adds=len(adds),
            removes=len(removes),
            flows=len(self._paths) + len(adds) - len(removes),
        ) as span:
            for flow in removes:
                del self._paths[flow]
            for flow, path in adds.items():
                self._paths[flow] = path

            dead_after = (0 if self._needs_recompile else self._dead) + len(
                removes
            )
            compact = (
                not self._needs_recompile
                and self._nslots
                and dead_after > 32
                and dead_after > self._max_dead_fraction * self._nslots
            )
            full = self._full_needed or self._trace is None or compact

            if full:
                self._trace = None  # skip checkpoint upkeep during apply
                if self._needs_recompile:
                    self._recompile()
                else:
                    add_rows = {
                        flow: self._compile_row(path)
                        for flow, path in adds.items()
                    }
                    self._apply_batch(add_rows, removes, rebuild=compact)
                    if compact:
                        self._compact()
                self._full_solve()
                self._fullsolves += 1
                _FULLSOLVE.inc()
                span.set(mode="full")
            else:
                add_rows = {
                    flow: self._compile_row(path)
                    for flow, path in adds.items()
                }
                delta = self._link_delta(add_rows, removes)
                r_star = self._divergence_round(add_rows, removes, delta)
                self._apply_batch(add_rows, removes, delta)
                if r_star <= 0:
                    self._trace = None
                    self._full_solve()
                    self._fullsolves += 1
                    _FULLSOLVE.inc()
                    span.set(mode="full", resume_round=0)
                else:
                    self._resume_solve(r_star)
                    self._patched += 1
                    _PATCHED.inc()
                    span.set(mode="patched", resume_round=r_star)
            self._full_needed = False

            alive_slots = np.nonzero(self._alive[: self._nslots])[0]
            flow_of = self._flow_of
            arr = self._rates_arr
            rates = {
                flow_of[slot]: float(arr[slot]) for slot in alive_slots
            }
        self._check_cheap()
        return rates

    def _recompile(self) -> None:
        """Rebuild slot arrays, member lists, and per-link counts from
        the committed path map (drops the trace).

        Links are (re-)registered lazily as the committed paths are
        compiled, so cost scales with the *traversed* footprint of the
        flow set, not the size of the capacity map."""
        self._link_index = {}
        self._link_of = []
        self._nlinks = 0
        self._caps_arr = np.zeros(64, dtype=np.float64)
        self._link_count = np.zeros(64, dtype=np.int64)
        n_flows = len(self._paths)
        slot_cap = max(16, 2 * n_flows)
        nnz_cap = max(64, 8 * max(1, n_flows))
        self._flow_ptr = np.zeros(slot_cap + 1, dtype=np.int64)
        self._flow_link = np.zeros(nnz_cap, dtype=np.int64)
        self._alive = np.zeros(slot_cap, dtype=bool)
        self._fr = np.full(slot_cap, _NEVER, dtype=np.int64)
        self._rates_arr = np.zeros(slot_cap, dtype=np.float64)
        self._nslots = 0
        self._nnz = 0
        self._dead = 0
        self._slot_of: Dict[Flow, int] = {}
        self._flow_of: List[Optional[Flow]] = []
        for flow, path in self._paths.items():
            self._append_slot(flow, self._compile_row(path))
        self._rebuild_members()
        self._trace = None
        self._compiled = True
        self._needs_recompile = False
        self._recompiles += 1
        _RECOMPILES.inc()

    def _rebuild_members(self) -> None:
        """Rebuild the link→member-slot CSR (and alive counts) from the
        flow→link CSR by a stable transpose — array ops only.  Valid
        when every slot is alive (post-recompile/-compaction).  Only
        divergence detection (:meth:`_scan_link`) reads member lists;
        the round kernel masks the flow rows instead."""
        self._member_ptr, self._member_rows = _csr_transpose(
            self._flow_ptr[: self._nslots + 1],
            self._flow_link[: self._nnz],
            self._nlinks,
        )
        self._member_extra: Dict[int, List[int]] = {}
        self._link_count[: self._nlinks] = np.diff(self._member_ptr)

    def _link_members(self, j: int):
        """Member slots of link ``j``: the CSR base plus any slots
        appended since the last rebuild (may include dead slots — the
        callers mask by ``_alive``)."""
        ptr = self._member_ptr
        if j + 1 < ptr.size:
            base = self._member_rows[ptr[j] : ptr[j + 1]]
        else:  # registered after the last rebuild
            base = self._member_rows[:0]
        extra = self._member_extra.get(j)
        if extra is None:
            return base
        return np.concatenate(
            (base, np.asarray(extra, dtype=np.int64))
        )

    def _compact(self) -> None:
        """Repack the CSR over the alive slots, keeping the link registry.

        Unlike :meth:`_recompile` this never re-derives rows from paths:
        alive CSR segments are gathered wholesale with array ops, so
        reclaiming dead slots costs O(nnz) regardless of how the flows
        route.  The trace is dropped (slot ids change), so the caller
        follows up with a full solve."""
        nslots = self._nslots
        alive_idx = np.nonzero(self._alive[:nslots])[0]
        ptr = self._flow_ptr
        lens = ptr[alive_idx + 1] - ptr[alive_idx]
        total = int(lens.sum())
        starts = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(lens))
        )
        if total:
            idx = (
                np.repeat(ptr[alive_idx], lens)
                + np.arange(total, dtype=np.int64)
                - np.repeat(starts[:-1], lens)
            )
            new_link = self._flow_link[idx]
        else:
            new_link = np.empty(0, dtype=np.int64)
        n_alive = int(alive_idx.size)
        slot_cap = max(16, 2 * n_alive)
        nnz_cap = max(64, 2 * max(1, total))
        flow_ptr = np.zeros(slot_cap + 1, dtype=np.int64)
        flow_ptr[1 : n_alive + 1] = starts[1:]
        flow_link = np.zeros(nnz_cap, dtype=np.int64)
        flow_link[:total] = new_link
        flow_of_old = self._flow_of
        self._flow_of = [flow_of_old[slot] for slot in alive_idx]
        self._slot_of = {
            flow: slot for slot, flow in enumerate(self._flow_of)
        }
        alive = np.zeros(slot_cap, dtype=bool)
        alive[:n_alive] = True
        self._flow_ptr = flow_ptr
        self._flow_link = flow_link
        self._alive = alive
        self._fr = np.full(slot_cap, _NEVER, dtype=np.int64)
        self._rates_arr = np.zeros(slot_cap, dtype=np.float64)
        self._nslots = n_alive
        self._nnz = total
        self._dead = 0
        self._rebuild_members()
        self._trace = None
        self._recompiles += 1
        _RECOMPILES.inc()

    def _register_link(self, link: Link) -> int:
        """Assign an array slot to a finite link on first traversal."""
        try:
            cap = float(self._caps[link])
        except KeyError:  # pragma: no cover - guarded in add()
            raise UnknownLinkError(
                f"path link missing from the capacity map: {link!r}"
            ) from None
        j = self._nlinks
        if j >= self._caps_arr.size:
            grow = max(64, self._caps_arr.size)
            self._caps_arr = np.concatenate(
                (self._caps_arr, np.zeros(grow, dtype=np.float64))
            )
            self._link_count = np.concatenate(
                (self._link_count, np.zeros(grow, dtype=np.int64))
            )
        self._caps_arr[j] = cap
        self._link_count[j] = 0
        self._link_of.append(link)
        self._link_index[link] = j
        self._nlinks = j + 1
        return j

    def _compile_row(self, path):
        """The finite-link-id row of a path under the current index,
        registering links the solver has not seen traversed yet."""
        index = self._link_index
        finite = self._finite_set
        links = []
        for link in _path_links(path):
            if link not in finite:
                continue
            j = index.get(link)
            if j is None:
                j = self._register_link(link)
            links.append(j)
        if not links:
            raise UnboundedRateError(
                f"flow with no finite-capacity link on its path: {path!r}"
            )
        return np.asarray(links, dtype=np.int64)

    def _append_slot(self, flow: Flow, row) -> int:
        slot = self._nslots
        if slot >= self._alive.size:
            grow = max(16, self._alive.size)
            self._flow_ptr = np.concatenate(
                (self._flow_ptr, np.zeros(grow, dtype=np.int64))
            )
            self._alive = np.concatenate(
                (self._alive, np.zeros(grow, dtype=bool))
            )
            self._fr = np.concatenate(
                (self._fr, np.full(grow, _NEVER, dtype=np.int64))
            )
            self._rates_arr = np.concatenate(
                (self._rates_arr, np.zeros(grow, dtype=np.float64))
            )
        end = self._nnz + row.size
        if end > self._flow_link.size:
            grow = max(end - self._flow_link.size, self._flow_link.size)
            self._flow_link = np.concatenate(
                (self._flow_link, np.zeros(grow, dtype=np.int64))
            )
        self._flow_link[self._nnz : end] = row
        self._flow_ptr[slot + 1] = end
        self._nnz = end
        self._alive[slot] = True
        self._fr[slot] = _NEVER
        self._rates_arr[slot] = 0.0
        self._slot_of[flow] = slot
        self._flow_of.append(flow)
        self._nslots = slot + 1
        return slot

    def _link_delta(self, add_rows, removes) -> Dict[int, int]:
        """Net change in alive member count per finite link id."""
        delta: Dict[int, int] = {}
        for row in add_rows.values():
            for j in row:
                j = int(j)
                delta[j] = delta.get(j, 0) + 1
        flow_ptr, flow_link = self._flow_ptr, self._flow_link
        for flow in removes:
            slot = self._slot_of[flow]
            for j in flow_link[flow_ptr[slot] : flow_ptr[slot + 1]]:
                j = int(j)
                delta[j] = delta.get(j, 0) - 1
        return delta

    def _divergence_round(self, add_rows, removes, delta) -> int:
        """The first round the batch can change, ``R`` if none.

        Departures bound it by their freeze rounds; each link gaining
        members is scanned for the first stored round where its new
        level enters the saturation band (bit-exact reconstruction of
        the kernel's residual trajectory, so the decision agrees with
        what a from-scratch solve would do).
        """
        levels_list = self._trace[0]
        n_rounds = len(levels_list)
        if n_rounds == 0:
            return 0
        r_star = n_rounds
        for flow in removes:
            r_star = min(r_star, int(self._fr[self._slot_of[flow]]))
            if r_star == 0:
                return 0
        levels_arr = np.asarray(levels_list, dtype=np.float64)
        band = levels_arr + _BAND * (1.0 + levels_arr)
        for j, extra in delta.items():
            if extra <= 0:
                continue  # net departures only raise this link's levels
            first = self._scan_link(j, extra, levels_arr, band)
            r_star = min(r_star, first)
            if r_star == 0:
                return 0
        return r_star

    def _scan_link(self, j, extra, levels_arr, band) -> int:
        n_rounds = levels_arr.size
        cap = float(self._caps_arr[j])
        members = self._link_members(j)
        members = members[self._alive[members]]
        if members.size:
            fr = self._fr[members]
            if int(fr.max()) >= n_rounds:
                raise AssertionError(
                    "streaming trace invariant violated: alive member "
                    "with stale freeze round"
                )
            frozen_per_round = np.bincount(fr, minlength=n_rounds)
        else:
            frozen_per_round = np.zeros(n_rounds, dtype=np.int64)
        # Start-of-round residual, reproduced with the kernel's own
        # subtraction sequence (accumulate is defined left-to-right):
        # residual_r = cap - Σ_{q<r} λ_q · (#flows frozen on j at q).
        drained = levels_arr * frozen_per_round
        residual = np.add.accumulate(
            np.concatenate((np.asarray([cap]), -drained))
        )[:n_rounds]
        unfrozen = members.size - np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(frozen_per_round))
        )[:n_rounds]
        denom = unfrozen + extra
        new_level = np.full(n_rounds, _INF, dtype=np.float64)
        np.divide(residual, denom, out=new_level, where=denom > 0)
        hits = np.nonzero(new_level <= band)[0]
        return int(hits[0]) if hits.size else n_rounds

    def _apply_batch(self, add_rows, removes, delta=None, rebuild=False) -> None:
        if delta is None and not rebuild:
            # Must precede the kill loop: _link_delta resolves removed
            # flows through _slot_of, which the kills pop.
            delta = self._link_delta(add_rows, removes)
        for flow in removes:
            slot = self._slot_of.pop(flow)
            self._alive[slot] = False
            self._flow_of[slot] = None
            self._dead += 1
        if rebuild:
            # A compaction follows immediately: it rebuilds the member
            # CSR, alive counts, and (dropped) trace wholesale, so the
            # per-link bookkeeping below would be thrown away.
            for flow, row in add_rows.items():
                self._append_slot(flow, row)
            return
        member_extra = self._member_extra
        for flow, row in add_rows.items():
            slot = self._append_slot(flow, row)
            for j in row:
                member_extra.setdefault(int(j), []).append(slot)
        for j, extra in delta.items():
            self._link_count[j] += extra
        if self._trace is not None and delta:
            # Kept checkpoints stay valid for the new flow set after a
            # count shift: every departed flow was still unfrozen at
            # rounds ≤ r* (its freeze round bounds r*), and arrivals are
            # unfrozen everywhere — neither contributes to residuals.
            # Links registered since a checkpoint was recorded carried
            # no flow during that solve, so their state at every stored
            # round is exactly (capacity, 0) — pad before shifting.
            nl = self._nlinks
            ckpts = self._trace[1]
            for rnd, (res, count) in list(ckpts.items()):
                if count.size < nl:
                    res = np.concatenate((res, self._caps_arr[count.size:nl]))
                    count = np.concatenate(
                        (count, np.zeros(nl - count.size, dtype=count.dtype))
                    )
                    ckpts[rnd] = (res, count)
                for j, extra in delta.items():
                    count[j] += extra

    def _full_solve(self) -> None:
        self._assert_bounded()
        n_links = self._nlinks
        residual = self._caps_arr[:n_links].copy()
        count = self._link_count[:n_links].astype(np.float64)
        active = self._alive[: self._nslots].copy()
        remaining = int(active.sum())
        self._rates_arr[: self._nslots] = 0.0
        self._trace = ([], {})
        if remaining:
            _run_rounds(
                self._flow_ptr,
                self._flow_link,
                n_links,
                residual,
                count,
                active,
                self._rates_arr,
                remaining,
                start_round=0,
                on_round_start=self._on_round_start,
                on_round_end=self._on_round_end,
            )

    def _resume_solve(self, r_star: int) -> None:
        levels_list, checkpoints = self._trace
        # Nearest checkpoint at or below the resume round (round 0 is
        # implicit: full capacities and current alive counts).
        r0 = 0
        for rnd in checkpoints:
            if r0 < rnd <= r_star:
                r0 = rnd
        if r0:
            res, cnt = checkpoints[r0]
            residual = res.copy()
            count = cnt.copy()
        else:
            residual = self._caps_arr[: self._nlinks].copy()
            count = self._link_count[: self._nlinks].astype(np.float64)
        for rnd in list(checkpoints):
            if rnd >= r_star:
                del checkpoints[rnd]

        n_links = self._nlinks
        fr = self._fr[: self._nslots]
        alive = self._alive[: self._nslots]
        if r_star > r0:
            # Replay rounds r0..r*-1 with the identical array ops the
            # kernel performed, so the state entering the suffix is
            # bit-exact.
            sel = np.nonzero(alive & (fr >= r0) & (fr < r_star))[0]
            if sel.size:
                order = np.argsort(fr[sel], kind="stable")
                sel = sel[order]
                bounds = np.searchsorted(
                    fr[sel], np.arange(r0, r_star + 1)
                )
                for k in range(r_star - r0):
                    group = sel[bounds[k] : bounds[k + 1]]
                    if group.size == 0:
                        continue
                    hit = _row_hits(
                        self._flow_ptr, self._flow_link, group, n_links
                    )
                    residual -= levels_list[r0 + k] * hit
                    count -= hit

        del levels_list[r_star:]
        active = alive & (fr >= r_star)
        remaining = int(active.sum())
        if remaining:
            _run_rounds(
                self._flow_ptr,
                self._flow_link,
                n_links,
                residual,
                count,
                active,
                self._rates_arr,
                remaining,
                start_round=r_star,
                on_round_start=self._on_round_start,
                on_round_end=self._on_round_end,
            )

    def _on_round_start(self, rnd, residual, count) -> None:
        if rnd and rnd % self._checkpoint_every == 0:
            self._trace[1][rnd] = (residual.copy(), count.copy())

    def _on_round_end(self, rnd, lam, frozen_ids) -> None:
        self._trace[0].append(lam)
        self._fr[frozen_ids] = rnd

    def _assert_bounded(self) -> None:
        lens = np.diff(self._flow_ptr[: self._nslots + 1])
        empty = self._alive[: self._nslots] & (lens == 0)
        if empty.any():
            bad = [
                self._flow_of[slot] for slot in np.nonzero(empty)[0][:5]
            ]
            raise UnboundedRateError(
                f"flows with no finite-capacity link on their path: {bad!r}"
            )

    def _check_cheap(self) -> None:
        """The cheap-level certificate over the alive rows (array ops)."""
        from repro import validate as _validate

        if _validate.validation_level() == "off":
            return
        failures: List[str] = []
        alive_slots = np.nonzero(self._alive[: self._nslots])[0]
        rates = self._rates_arr[alive_slots]
        if not np.isfinite(rates).all():
            bad = [
                self._flow_of[alive_slots[i]]
                for i in np.nonzero(~np.isfinite(rates))[0][:5]
            ]
            failures.append(f"non-finite (NaN/inf) rates for flows: {bad!r}")
        elif rates.size and float(rates.min()) < 0.0:
            failures.append(f"negative rates (min {float(rates.min())!r})")
        elif alive_slots.size:
            lens = (
                self._flow_ptr[alive_slots + 1] - self._flow_ptr[alive_slots]
            )
            n_links = self._nlinks
            loads = np.bincount(
                _csr_gather(self._flow_ptr, self._flow_link, alive_slots),
                weights=np.repeat(rates, lens),
                minlength=n_links,
            )
            caps = self._caps_arr[:n_links]
            slack = caps + _validate.FLOAT_TOL * (1.0 + np.abs(caps))
            over = np.nonzero(loads > slack)[0]
            for j in over[:5]:
                failures.append(
                    f"link {self._link_of[j]!r} overloaded: load "
                    f"{float(loads[j])!r} > capacity "
                    f"{float(caps[j])!r}"
                )
        _validate.record_check("cheap", "maxmin.streaming", failures)

    # -------------------------- exact mode ----------------------------
    def _solve_exact(self, adds, removes) -> Dict[Flow, Fraction]:
        with trace_span(
            "maxmin.water_fill_streaming",
            adds=len(adds),
            removes=len(removes),
            exact=True,
        ) as span:
            for flow in removes:
                del self._paths[flow]
            for flow, path in adds.items():
                self._paths[flow] = path
            if self._x_levels is None or self._full_needed:
                self._exact_rebuild()
                self._exact_waterfill(0)
                self._fullsolves += 1
                _FULLSOLVE.inc()
                span.set(mode="full")
            else:
                r_star = self._exact_divergence(adds, removes)
                self._exact_apply(adds, removes)
                self._exact_waterfill(r_star)
                if r_star > 0:
                    self._patched += 1
                    _PATCHED.inc()
                    span.set(mode="patched", resume_round=r_star)
                else:
                    self._fullsolves += 1
                    _FULLSOLVE.inc()
                    span.set(mode="full", resume_round=0)
            self._full_needed = False
            self._needs_recompile = False
            return {flow: self._x_rates[flow] for flow in self._paths}

    def _exact_finite_links(self, path) -> List[Link]:
        links = [
            link for link in _path_links(path) if link in self._finite_set
        ]
        if not links:
            raise UnboundedRateError(
                f"flow with no finite-capacity link on its path: {path!r}"
            )
        return links

    def _x_cap(self, link: Link) -> Fraction:
        """Exact capacity of a traversed link, memoized lazily."""
        cap = self._x_caps.get(link)
        if cap is None:
            cap = self._x_caps[link] = Fraction(self._caps[link])
        return cap

    def _exact_rebuild(self) -> None:
        self._x_caps = {}
        self._x_links = {}
        self._x_members = {}
        for flow, path in self._paths.items():
            links = self._exact_finite_links(path)
            self._x_links[flow] = links
            for link in links:
                self._x_cap(link)
                self._x_members.setdefault(link, {})[flow] = None
        self._x_levels = []
        self._x_fr = {}
        self._x_rates = {}
        self._recompiles += 1
        _RECOMPILES.inc()

    def _exact_divergence(self, adds, removes) -> int:
        levels = self._x_levels
        n_rounds = len(levels)
        if n_rounds == 0:
            return 0
        r_star = n_rounds
        for flow in removes:
            r_star = min(r_star, self._x_fr[flow])
            if r_star == 0:
                return 0
        delta: Dict[Link, int] = {}
        for flow, path in adds.items():
            for link in self._exact_finite_links(path):
                delta[link] = delta.get(link, 0) + 1
        for flow in removes:
            for link in self._x_links[flow]:
                delta[link] = delta.get(link, 0) - 1
        for link, extra in delta.items():
            if extra <= 0:
                continue
            members = self._x_members.get(link, {})
            per_round: Dict[int, int] = {}
            for flow in members:
                rnd = self._x_fr[flow]
                per_round[rnd] = per_round.get(rnd, 0) + 1
            residual = self._x_cap(link)
            cnt = len(members)
            for rnd in range(r_star):
                # new level residual/(cnt+extra) <= λ_rnd joins (or
                # undercuts) the round's saturation set — exact
                # comparison, no float band.
                if residual <= levels[rnd] * (cnt + extra):
                    r_star = rnd
                    break
                frozen = per_round.get(rnd, 0)
                if frozen:
                    residual -= levels[rnd] * frozen
                    cnt -= frozen
            if r_star == 0:
                return 0
        return r_star

    def _exact_apply(self, adds, removes) -> None:
        for flow in removes:
            for link in self._x_links.pop(flow):
                members = self._x_members[link]
                del members[flow]
                if not members:
                    del self._x_members[link]
            self._x_fr.pop(flow, None)
            self._x_rates.pop(flow, None)
        for flow, path in adds.items():
            links = self._exact_finite_links(path)
            self._x_links[flow] = links
            for link in links:
                self._x_cap(link)
                self._x_members.setdefault(link, {})[flow] = None

    def _exact_waterfill(self, r_star: int) -> None:
        """Re-solve rounds ``r_star, r_star+1, …`` over exact state."""
        levels = self._x_levels
        del levels[r_star:]
        fr = self._x_fr
        rates = self._x_rates
        unfrozen = {
            flow
            for flow in self._x_links
            if fr.get(flow, _NEVER) >= r_star
        }
        residual: Dict[Link, Fraction] = {}
        cnt: Dict[Link, int] = {}
        for link, members in self._x_members.items():
            left = self._x_caps[link]
            live = 0
            for flow in members:
                if fr.get(flow, _NEVER) < r_star:
                    left -= rates[flow]
                else:
                    live += 1
            residual[link] = left
            cnt[link] = live
        rnd = r_star
        while unfrozen:
            lam = None
            for link, live in cnt.items():
                if live > 0:
                    level = residual[link] / live
                    if lam is None or level < lam:
                        lam = level
            if lam is None:
                raise AssertionError("water-filling invariant violated")
            frozen = set()
            for link, live in cnt.items():
                if live > 0 and residual[link] == lam * live:
                    for flow in self._x_members[link]:
                        if flow in unfrozen:
                            frozen.add(flow)
            if not frozen:
                raise AssertionError("water-filling invariant violated")
            for flow in frozen:
                rates[flow] = lam
                fr[flow] = rnd
                for link in self._x_links[flow]:
                    residual[link] -= lam
                    cnt[link] -= 1
            levels.append(lam)
            unfrozen -= frozen
            rnd += 1

    # ---------------------- cross-checking ----------------------------
    def _shadow_interval(self) -> int:
        if self._shadow is not None:
            fraction = float(self._shadow)
            if fraction <= 0:
                return 0
            return max(1, round(1.0 / min(fraction, 1.0)))
        return _shadow_interval()

    def _maybe_shadow(self, rates: Dict[Flow, Rate]) -> Dict[Flow, Rate]:
        interval = self._shadow_interval()
        if not interval or self._solves % interval:
            return rates
        return self._shadow_check(rates)

    def _shadow_check(self, rates: Dict[Flow, Rate]) -> Dict[Flow, Rate]:
        """Compare against the exact reference; quarantine the event
        prefix on disagreement (reason ``stream-mismatch``) and degrade
        gracefully by answering with the reference rates and forcing the
        next solve full."""
        from repro.core.maxmin import max_min_fair
        from repro.validate import rate_disagreements, validation

        self._shadow_checks += 1
        _SHADOW_CHECKS.inc()
        routing = self.routing()
        with validation("off"):
            reference = max_min_fair(routing, self._caps, exact=True)
        tol = 0.0 if self._exact else 1e-6
        diffs = rate_disagreements(rates, reference.rates(), tol=tol)
        if not diffs:
            return rates
        self._mismatches += 1
        _MISMATCHES.inc()
        from repro.quarantine import quarantine_failure

        failures = list(diffs)
        failures.extend(
            f"event[{index}]: {_fmt_event(event)}"
            for index, event in enumerate(self._events)
        )
        self.last_bundle = quarantine_failure(
            routing,
            self._caps,
            "stream-mismatch",
            "streaming",
            self._exact,
            context="streaming.shadow",
            failures=failures,
            rates=rates,
            directory=self._quarantine_dir,
        )
        get_logger("solver").warning(
            "streaming solve disagreed with reference; answering with "
            "the reference result and forcing a full re-solve",
            disagreements=len(diffs),
            bundle=self.last_bundle,
        )
        self._full_needed = True
        ref_rates = reference.rates()
        if not self._exact:
            ref_rates = {
                flow: float(rate) for flow, rate in ref_rates.items()
            }
        self._rates = dict(ref_rates)
        return ref_rates

    def _validate_full(self, rates: Dict[Flow, Rate]) -> None:
        from repro import validate as _validate

        if _validate.validation_level() != "full":
            return
        _validate.validate_allocation(
            self.routing(),
            self._caps,
            Allocation(dict(rates)),
            level="full",
            context="maxmin.streaming",
        )


def streaming_max_min(
    routing: Routing,
    capacities: Mapping[Link, Rate],
    exact: bool = False,
) -> Allocation:
    """One-shot solve through :class:`StreamingMaxMin` (the dispatch
    target of ``solve_max_min(backend="streaming")``).

    Semantically identical to the vectorized backend for floats and to
    the exact reference for ``exact=True``; the point of the streaming
    backend is :class:`StreamingMaxMin` reuse across churn — a one-shot
    call simply runs one full solve.
    """
    solver = StreamingMaxMin(capacities, exact=exact)
    for flow in routing.flows():
        solver.add(flow, routing.path(flow))
    return Allocation(solver.solve())
