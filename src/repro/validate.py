"""Invariant certificates for solver outputs — the self-checking runtime.

Four backends, an LRU cache, and an incremental move evaluator can all
produce "the max-min fair allocation"; this module certifies a result
*before* experiments and theorem checks consume it.  Three levels:

- ``off``   — no checking (the default; zero overhead).
- ``cheap`` — structural sanity: every routed flow has a rate, rates are
  non-negative / finite / not NaN, and no link is loaded beyond its
  capacity (within tolerance).  O(flows · path length), cheap enough
  for hot loops.
- ``full``  — everything ``cheap`` checks, plus routing well-formedness
  (each path joins its flow's endpoints) and the bottleneck-saturation
  certificate of max-min *optimality* (Lemma 2.2, via
  :mod:`repro.core.bottleneck`): every flow must have a saturated link
  on which its rate is maximal among crossing flows.

The level is resolved per check from, in priority order: an explicit
``level=`` argument, the process-wide override set by
:func:`set_validation_level` (what ``--validate`` uses), then the
``REPRO_VALIDATE`` environment variable.  Violations raise
:class:`~repro.errors.CertificateError` carrying the full defect list —
which the ``backend="auto"`` dispatch chain (:mod:`repro.core.solve`)
catches to fall back to the exact reference solver, and the quarantine
layer (:mod:`repro.quarantine`) serializes for replay.

Tolerances: exact (``Fraction``/``int``) rates are checked with
``tol=0``; float rates default to ``tol=1e-9`` — three orders looser
than the 1e-12 cross-backend agreement contract, so a healthy float
backend never trips a certificate, while a genuinely wrong answer
(a mis-frozen tie, an overfilled link) lands far outside the band.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from fractions import Fraction
from typing import Dict, List, Mapping, Optional

from repro.errors import CertificateError
from repro.core.allocation import Allocation, Rate
from repro.core.bottleneck import common_scale
from repro.core.flows import Flow
from repro.core.routing import Link, Routing
from repro.obs import counter

_INF = float("inf")

#: Recognized validation levels, weakest to strongest.
LEVELS = ("off", "cheap", "full")

#: Environment variable consulted when no override or argument is given.
ENV_VAR = "REPRO_VALIDATE"

#: Default tolerance for float-rate checks (see module docstring).
FLOAT_TOL = 1e-9

#: Observability instruments (no-ops unless ``repro.obs`` is enabled).
_CHECKS = counter("validate.checks")
_FAILURES = counter("validate.failures")
_CHEAP = counter("validate.cheap_checks")
_FULL = counter("validate.full_checks")

__all__ = [
    "ENV_VAR",
    "FLOAT_TOL",
    "LEVELS",
    "allocation_failures",
    "default_tolerance",
    "rate_disagreements",
    "record_check",
    "set_validation_level",
    "structure_failures",
    "validate_allocation",
    "validate_structure",
    "validation",
    "validation_level",
]

#: Process-wide override; ``None`` defers to the environment.
_OVERRIDE: Optional[str] = None


def _check_level(level: str) -> str:
    if level not in LEVELS:
        raise ValueError(
            f"unknown validation level {level!r}; expected one of {LEVELS}"
        )
    return level


def validation_level() -> str:
    """The validation level currently in force.

    Priority: :func:`set_validation_level` override, then the
    ``REPRO_VALIDATE`` environment variable, then ``"off"``.  An
    unrecognized environment value raises rather than silently
    disabling checks the user asked for.
    """
    if _OVERRIDE is not None:
        return _OVERRIDE
    return _check_level(os.environ.get(ENV_VAR, "off").strip() or "off")


def set_validation_level(level: Optional[str]) -> None:
    """Set (or with ``None`` clear) the process-wide validation level.

    Takes precedence over ``REPRO_VALIDATE``; this is what the CLI's
    ``--validate`` flag calls.
    """
    global _OVERRIDE
    _OVERRIDE = None if level is None else _check_level(level)


@contextmanager
def validation(level: str):
    """Context manager pinning the validation level (tests, fuzzing)."""
    global _OVERRIDE
    previous = _OVERRIDE
    _OVERRIDE = _check_level(level)
    try:
        yield
    finally:
        _OVERRIDE = previous


def _resolve(level: Optional[str]) -> str:
    return validation_level() if level is None else _check_level(level)


def default_tolerance(rates: Mapping[Flow, Rate]) -> float:
    """``0`` when every rate is exact (``Fraction``/``int``), else 1e-9."""
    # Exact class tests first: isinstance(r, Fraction) routes through
    # ABCMeta and dominates micro-solve validation cost if used per rate.
    for rate in rates.values():
        cls = rate.__class__
        if cls is Fraction or cls is int:
            continue
        if not isinstance(rate, (Fraction, int)):
            return FLOAT_TOL
    return 0.0


def _bump(value: Rate, tol: float) -> Rate:
    """``value`` plus a relative+absolute slack band.

    ``tol`` scales with the magnitude (``tol · (1 + |value|)``) so huge
    capacities do not trip on proportionally-tiny float rounding; with
    ``tol == 0`` the value is returned untouched, keeping exact
    ``Fraction`` comparisons exact.
    """
    return value + tol * (1.0 + abs(float(value))) if tol else value


def structure_failures(
    link_flows: Mapping[Link, List[Flow]],
    flow_links: Mapping[Flow, List[Link]],
    rates: Mapping[Flow, Rate],
    capacities: Mapping[Link, Rate],
    level: str,
    tol: float,
) -> List[str]:
    """Certificate defects of ``rates`` against a link-occupancy structure.

    The occupancy-level core shared by :func:`allocation_failures` and
    the incremental move evaluator (whose patched occupancy never
    materializes a :class:`~repro.core.routing.Routing`).  ``level``
    must be ``"cheap"`` or ``"full"``; returns a list of human-readable
    defect strings, empty when the certificate holds.
    """
    failures: List[str] = []

    # --- numeric sanity + coverage (cheap) -----------------------------
    exact = True
    for flow in flow_links:
        try:
            rate = rates[flow]
        except KeyError:
            failures.append(f"no rate assigned to routed flow {flow!r}")
            continue
        # Exact rates cannot be NaN/inf, and float(Fraction) costs a
        # bignum division per flow — test the class before converting.
        if rate.__class__ is Fraction or rate.__class__ is int:
            if rate < 0:
                failures.append(
                    f"negative rate {rate!r} for flow {flow!r}"
                )
            continue
        exact = False
        value = float(rate)
        if math.isnan(value):
            failures.append(f"NaN rate for flow {flow!r}")
        elif value == _INF:
            failures.append(f"infinite rate for flow {flow!r}")
        elif value < 0:
            failures.append(f"negative rate {rate!r} for flow {flow!r}")

    if failures:
        return failures  # loads/bottlenecks are meaningless on bad rates

    # --- per-link feasibility (cheap) ----------------------------------
    loads: Dict[Link, Rate] = {}
    if exact:
        # Sum on the integers (values times the LCM of the rate
        # denominators), then convert each link's load back.
        scale = common_scale(rates[flow] for flow in flow_links)
        for flow, links in flow_links.items():
            rate = rates[flow]
            value = rate.numerator * (scale // rate.denominator)
            for link in links:
                loads[link] = loads.get(link, 0) + value
        for link, total in loads.items():
            loads[link] = Fraction(total, scale)
    else:
        for flow, links in flow_links.items():
            rate = rates[flow]
            for link in links:
                loads[link] = loads.get(link, 0.0) + rate
    for link, load in loads.items():
        capacity = capacities[link]
        if capacity == _INF:
            continue
        if load > _bump(capacity, tol):
            if exact and not any(
                rates[f].__class__ is Fraction for f in link_flows[link]
            ):
                load = int(load)  # a sum of int rates reads as an int
            failures.append(
                f"link {link!r} overloaded: load {load!r} > "
                f"capacity {capacity!r}"
            )
    if failures or level != "full":
        return failures

    # --- bottleneck-saturation certificate (full; Lemma 2.2) -----------
    # A feasible allocation is max-min fair iff every flow has a
    # *bottleneck*: a saturated link on which its rate is maximal among
    # crossing flows.  Precompute the per-link max once (the n = 64
    # certifications cross links with thousands of members).
    link_max: Dict[Link, Rate] = {
        link: max(rates[f] for f in members)
        for link, members in link_flows.items()
        if members
    }
    for flow, links in flow_links.items():
        rate = rates[flow]
        for link in links:
            capacity = capacities[link]
            if capacity == _INF:
                continue
            if loads[link] < capacity - (
                tol * (1.0 + abs(float(capacity))) if tol else 0
            ):
                continue  # not saturated
            if link_max[link] <= _bump(rate, tol):
                break  # bottleneck found
        else:
            failures.append(
                f"flow {flow!r} has no bottleneck link (rate {rate!r} "
                "is not maximal on any saturated link) — "
                "allocation is not max-min fair"
            )
    return failures


def allocation_failures(
    routing: Routing,
    capacities: Mapping[Link, Rate],
    allocation: Allocation,
    level: Optional[str] = None,
    tol: Optional[float] = None,
) -> List[str]:
    """Certificate defects of ``allocation`` for ``routing``; [] = valid.

    ``level=None`` resolves the ambient level (``off`` returns []);
    ``tol=None`` picks :func:`default_tolerance` from the rate types.
    """
    level = _resolve(level)
    if level == "off":
        return []
    # Missing flows are a *defect to report* (via the coverage check in
    # structure_failures), not a crash — hence no allocation.rate(),
    # which raises on unknown flows.
    all_rates = allocation.rates()
    rates = {
        flow: all_rates[flow]
        for flow in routing.flows()
        if flow in all_rates
    }
    if tol is None:
        tol = default_tolerance(rates)

    failures: List[str] = []
    if level == "full":
        # Routing well-formedness: each path joins its flow's endpoints.
        for flow in routing.flows():
            path = routing.path(flow)
            if not path or path[0] != flow.source or path[-1] != flow.dest:
                failures.append(
                    f"path for {flow!r} does not join its endpoints: {path!r}"
                )
        if failures:
            return failures

    flow_links = {f: routing.links_of(f) for f in routing.flows()}
    failures.extend(
        structure_failures(
            routing.flows_per_link(), flow_links, rates, capacities,
            level, tol,
        )
    )
    return failures


def record_check(level: str, context: str, failures: List[str]) -> None:
    """Book a completed certificate check into the ``validate.*`` counters.

    Raises :class:`CertificateError` when ``failures`` is non-empty.
    Backends with their own check implementations (the NumPy cheap check
    inside :func:`repro.core.vectorized.waterfill`) report through this
    so counter semantics stay uniform across solver paths.
    """
    _CHECKS.inc()
    (_FULL if level == "full" else _CHEAP).inc()
    if failures:
        _FAILURES.inc()
        counter(f"validate.failures.{context}").inc()
        raise CertificateError(context, failures)


def validate_allocation(
    routing: Routing,
    capacities: Mapping[Link, Rate],
    allocation: Allocation,
    level: Optional[str] = None,
    tol: Optional[float] = None,
    context: str = "solver",
) -> Allocation:
    """Certify ``allocation``; raises :class:`CertificateError` on defects.

    Returns the allocation unchanged so call sites can wrap a solve in
    one expression.  ``context`` names the solver path for the error and
    the ``validate.*`` counters (e.g. ``"maxmin.reference"``).
    """
    level = _resolve(level)
    if level == "off":
        return allocation
    failures = allocation_failures(
        routing, capacities, allocation, level=level, tol=tol
    )
    record_check(level, context, failures)
    return allocation


def validate_structure(
    link_flows: Mapping[Link, List[Flow]],
    flow_links: Mapping[Flow, List[Link]],
    rates: Mapping[Flow, Rate],
    capacities: Mapping[Link, Rate],
    level: Optional[str] = None,
    tol: Optional[float] = None,
    context: str = "solver",
) -> None:
    """:func:`validate_allocation` for a raw link-occupancy structure.

    The incremental move evaluator certifies its patched occupancy
    through this (no :class:`Routing` ever materializes for a candidate
    move); raises :class:`CertificateError` on defects.
    """
    level = _resolve(level)
    if level == "off":
        return
    if tol is None:
        tol = default_tolerance(rates)
    failures = structure_failures(
        link_flows, flow_links, rates, capacities, level, tol
    )
    record_check(level, context, failures)


def rate_disagreements(
    left: Mapping[Flow, Rate],
    right: Mapping[Flow, Rate],
    tol: float = 1e-6,
) -> List[str]:
    """Per-flow discrepancies between two rate maps; [] = agreement.

    Used by shadow checks and the chaos harness to compare backends.
    Exact-vs-exact comparisons should pass ``tol=0``; float-vs-exact
    uses a tolerance well above accumulated water-fill rounding.
    """
    diffs: List[str] = []
    for flow in set(left) | set(right):
        if flow not in left:
            diffs.append(f"flow {flow!r} missing from left allocation")
            continue
        if flow not in right:
            diffs.append(f"flow {flow!r} missing from right allocation")
            continue
        a, b = left[flow], right[flow]
        if tol:
            fa, fb = float(a), float(b)
            differs = abs(fa - fb) > tol * (1.0 + max(abs(fa), abs(fb)))
        else:
            differs = a != b
        if differs:
            diffs.append(f"flow {flow!r}: {a!r} vs {b!r}")
    return diffs
