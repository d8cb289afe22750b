"""Max-min water-filling under live flow churn (the ``streaming``
backend).

The flow-level simulator re-derives the max-min allocation every time
the unsplittable-flow set changes.  :class:`StreamingMaxMin` keeps the
CSR flow×link incidence of the current flow set (the
:mod:`repro.core.vectorized` array layout over mutable *slots*) between
solves: an arrival appends one row, a departure kills its slot, and a
backlog of dead slots is compacted away with array operations.  No
event recompiles the incidence from paths.

Every float solve is one full pass of the vectorized round kernel
(:func:`~repro.core.vectorized._run_rounds`) from round 0 over the
alive slots, so streaming rates are *byte-identical* to a fresh
:func:`~repro.core.vectorized.waterfill` of the same flow set
(property-tested in ``tests/test_streaming.py``).  There is no resume
from a suffix of the previous solve's rounds: once a round costs a few
NumPy calls, scanning each touched link's round history for the first
round a batch could change costs more than the rounds it skips, and a
full solve won on the ``churn`` benchmark.

Capacity-value changes update the capacity array in place; a
finite↔infinite membership flip (which would leave a stale compiled
incidence) recompiles the incidence from the committed paths.
``exact=True`` solves the committed routing with the exact reference
solver (:func:`repro.core.maxmin.max_min_fair`).

Every solve can be cross-checked against the exact reference solver —
``shadow=`` a fraction, or the ambient ``REPRO_SHADOW`` environment
variable (:data:`SHADOW_ENV`; streaming is its only reader).  A
disagreement is quarantined (reason ``stream-mismatch``) with the event
prefix that produced it, counted, answered with the reference rates, and
the next solve recompiles the incidence from the committed paths.
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
from repro.core.vectorized import _INF, _csr_gather, _run_rounds
from repro.obs import counter, get_logger, trace_span

#: Observability instruments (no-ops unless ``repro.obs`` is enabled).
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
    and :meth:`solve` returns the max-min rates of the current set.
    What is incremental is the incidence: staged events append or kill
    slot rows instead of recompiling.  Each solve then water-fills all
    alive slots from round 0 (``solver.stream.fullsolve``); no solve
    resumes from the previous one's rounds, because on churn the scan
    that finds a safe resume round costs more than the rounds it saves.

    Keys should be :class:`~repro.core.flows.Flow` objects (tag them to
    distinguish parallel transfers); paths are node sequences as in
    :class:`~repro.core.routing.Routing`.  Rates are floats, or exact
    ``Fraction`` values with ``exact=True``.

    ``max_dead_fraction`` bounds the tolerated fraction of dead slots
    before the incidence is compacted; ``shadow`` cross-checks that
    fraction of solves against the exact reference (``None`` defers to
    the ``REPRO_SHADOW`` environment variable).
    """

    def __init__(
        self,
        capacities: Mapping[Link, Rate],
        exact: bool = False,
        max_dead_fraction: float = 0.25,
        shadow: Optional[float] = None,
        quarantine_dir: Optional[str] = None,
    ) -> None:
        self._exact = bool(exact)
        self._max_dead_fraction = float(max_dead_fraction)
        self._shadow = shadow
        self._quarantine_dir = quarantine_dir

        #: Committed flow → path (reflects the last applied batch).
        self._paths: Dict[Flow, Tuple] = {}
        self._pending_add: Dict[Flow, Tuple] = {}
        self._pending_remove: Dict[Flow, None] = {}
        #: Bounded event log since construction — the "event prefix"
        #: captured into ``stream-mismatch`` quarantine bundles.
        self._events: deque = deque(maxlen=256)

        # Float-mode slot arrays (built lazily at the first solve).
        self._needs_recompile = True

        # Lifetime statistics (mirrored into the obs counters).
        self._solves = 0
        self._recompiles = 0
        self._shadow_checks = 0
        self._mismatches = 0
        self.last_bundle: Optional[str] = None

        self._caps: Dict[Link, Rate] = dict(capacities)
        self._finite_set = frozenset(
            link for link, value in self._caps.items() if float(value) != _INF
        )
        # Lazy link registry: only links actually traversed by a
        # compiled flow get an array slot, so a solver whose flows touch
        # a small corner of a large fabric carries arrays sized to that
        # corner instead of rebuilding full-fabric state on every
        # (re)compile.
        self._link_index: Dict[Link, int] = {}
        self._link_of: List[Link] = []
        self._nlinks = 0

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
            # Every solve is a full water-fill; the key stays so that
            # readers of the patched/full split keep working.
            "patched": 0,
            "fullsolve": self._solves,
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

        Value-only changes keep the compiled incidence and update the
        capacity array in place; a change to *which* links are finite (a
        total failure modeled as infinite, or vice versa — the
        stale-incidence class) recompiles the incidence.
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
        if structural:
            self._finite_set = new_finite
            self._needs_recompile = True
            self._events.append(("caps", "structural"))
        else:
            self._events.append(("caps", "values"))
            if not self._needs_recompile:
                for link, j in self._link_index.items():
                    self._caps_arr[j] = float(caps[link])

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self) -> Dict[Flow, Rate]:
        """Apply staged events and return the max-min rates per flow.

        The returned dict is built fresh by each solve; the solver keeps
        no reference to it.
        """
        adds = self._pending_add
        removes = list(self._pending_remove)
        self._pending_add = {}
        self._pending_remove = {}
        self._solves += 1
        _FULLSOLVE.inc()
        if self._exact:
            rates = self._solve_exact(adds, removes)
        else:
            rates = self._solve_float(adds, removes)
        rates = self._maybe_shadow(rates)
        if not self._exact:
            # The exact path's reference solve certifies itself.
            self._validate_full(rates)
        return rates

    def _commit(self, adds, removes) -> None:
        for flow in removes:
            del self._paths[flow]
        self._paths.update(adds)

    # -------------------------- float mode ----------------------------
    def _solve_float(self, adds, removes) -> Dict[Flow, float]:
        with trace_span(
            "maxmin.water_fill_streaming",
            adds=len(adds),
            removes=len(removes),
            flows=len(self._paths) + len(adds) - len(removes),
        ):
            self._commit(adds, removes)
            if self._needs_recompile:
                self._recompile()
            else:
                self._apply_batch(adds, removes)
            self._full_solve()
            nslots = self._nslots
            # Dead slots map to ``None``; one pop drops them all.
            rates = dict(
                zip(self._flow_of, self._rates_arr[:nslots].tolist())
            )
            rates.pop(None, None)
        self._check_cheap()
        return rates

    def _recompile(self) -> None:
        """Rebuild the link registry, slot arrays and per-link counts
        from the committed path map.

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
        self._rates_arr = np.zeros(slot_cap, dtype=np.float64)
        self._nslots = 0
        self._nnz = 0
        self._dead = 0
        self._slot_of: Dict[Flow, int] = {}
        self._flow_of: List[Optional[Flow]] = []
        for flow, path in self._paths.items():
            self._append_slot(flow, self._compile_row(path))
        self._needs_recompile = False
        self._recompiles += 1
        _RECOMPILES.inc()

    def _compact(self) -> None:
        """Repack the CSR over the alive slots, keeping the link registry
        and the per-link counts (neither changes).

        Unlike :meth:`_recompile` this never re-derives rows from paths:
        alive CSR segments are gathered wholesale with array ops, so
        reclaiming dead slots costs O(nnz) regardless of how the flows
        route."""
        alive_idx = np.nonzero(self._alive[: self._nslots])[0]
        lens = self._flow_ptr[alive_idx + 1] - self._flow_ptr[alive_idx]
        new_link = _csr_gather(self._flow_ptr, self._flow_link, alive_idx)
        total = int(new_link.size)
        n_alive = int(alive_idx.size)
        slot_cap = max(16, 2 * n_alive)
        nnz_cap = max(64, 2 * max(1, total))
        flow_ptr = np.zeros(slot_cap + 1, dtype=np.int64)
        lens.cumsum(out=flow_ptr[1 : n_alive + 1])
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
        self._rates_arr = np.zeros(slot_cap, dtype=np.float64)
        self._nslots = n_alive
        self._nnz = total
        self._dead = 0
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

    def _append_slot(self, flow: Flow, row) -> None:
        """A new alive slot for ``flow``; counts it on its links."""
        slot = self._nslots
        if slot >= self._alive.size:
            grow = max(16, self._alive.size)
            self._flow_ptr = np.concatenate(
                (self._flow_ptr, np.zeros(grow, dtype=np.int64))
            )
            self._alive = np.concatenate(
                (self._alive, np.zeros(grow, dtype=bool))
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
        np.add.at(self._link_count, row, 1)
        self._alive[slot] = True
        self._slot_of[flow] = slot
        self._flow_of.append(flow)
        self._nslots = slot + 1

    def _apply_batch(self, adds, removes) -> None:
        """Kill the departed flows' slots and append the arrivals' rows;
        compact first when dead slots would pile up past the bound."""
        ptr, links = self._flow_ptr, self._flow_link
        for flow in removes:
            slot = self._slot_of.pop(flow)
            np.subtract.at(
                self._link_count, links[ptr[slot] : ptr[slot + 1]], 1
            )
            self._alive[slot] = False
            self._flow_of[slot] = None
            self._dead += 1
        if self._dead > 32 and self._dead > (
            self._max_dead_fraction * self._nslots
        ):
            self._compact()
        for flow, path in adds.items():
            self._append_slot(flow, self._compile_row(path))

    def _full_solve(self) -> None:
        self._assert_bounded()
        nslots = self._nslots
        active = self._alive[:nslots].copy()
        remaining = nslots - self._dead
        if remaining:
            n_links = self._nlinks
            _run_rounds(
                self._flow_ptr,
                self._flow_link,
                n_links,
                self._caps_arr[:n_links].copy(),
                self._link_count[:n_links].astype(np.float64),
                active,
                self._rates_arr,
                remaining,
            )

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
        """One exact reference solve of the committed routing."""
        from repro.core.maxmin import max_min_fair

        with trace_span(
            "maxmin.water_fill_streaming",
            adds=len(adds),
            removes=len(removes),
            exact=True,
        ):
            self._commit(adds, removes)
            return max_min_fair(self.routing(), self._caps).rates()

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
        self._needs_recompile = True
        ref_rates = reference.rates()
        if not self._exact:
            ref_rates = {
                flow: float(rate) for flow, rate in ref_rates.items()
            }
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
