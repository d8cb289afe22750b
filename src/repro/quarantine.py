"""Replayable quarantine bundles for solver failures.

When a certificate rejects a solver result or two backends disagree,
the instance is too valuable to lose: it is a reproducer for a solver
bug.  This module serializes the complete instance — routing (full
paths), capacities, suspect backend, seed, and the observed defects —
as a *quarantine bundle* via the atomic writers in
:mod:`repro.io.serialize`, and replays bundles later:

- :func:`quarantine_failure` — best-effort bundle capture (never raises;
  a quarantine write must not mask the original failure).
- :func:`load_bundle` — reconstruct the routing/capacities from disk.
- :func:`replay` — re-certify the stored rates, re-run the suspect
  backend against the exact reference, and (when the failure still
  reproduces) shrink the flow set with delta debugging
  (:func:`ddmin`) to a minimal failing reproducer, written alongside
  the original as ``<bundle>.min.json``.

Bundle filenames are content-addressed (``q-<reason>-<sha256[:12]>.json``),
so re-quarantining the same instance is idempotent.  The directory
defaults to ``./quarantine`` and is overridden with the
``REPRO_QUARANTINE_DIR`` environment variable.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from fractions import Fraction
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.errors import CertificateError, ReproError
from repro.core.allocation import Allocation, Rate
from repro.core.flows import Flow
from repro.core.routing import Link, Routing
from repro.core.solve import BACKENDS, solve_max_min
from repro.failures.schedule import _node_from_data, _node_to_data
from repro.io.serialize import ScenarioError, read_json, write_json_atomic
from repro.obs import counter, get_logger

FORMAT_NAME = "repro-quarantine"
FORMAT_VERSION = 1

#: Backend names a bundle can be replayed on: every
#: :func:`repro.core.solve.solve_max_min` backend plus ``"batched"``
#: (:func:`repro.core.batched.solve_max_min_batch`).
REPLAY_BACKENDS = BACKENDS + ("batched",)

#: Environment variable overriding the bundle directory.
ENV_DIR = "REPRO_QUARANTINE_DIR"
DEFAULT_DIR = "quarantine"

#: Float-vs-exact comparison tolerance for replay disagreement checks —
#: matching the shadow-check tolerance in :mod:`repro.core.streaming`.
REPLAY_TOL = 1e-6

#: Observability instruments (no-ops unless ``repro.obs`` is enabled).
_BUNDLES = counter("quarantine.bundles")
_WRITE_ERRORS = counter("quarantine.write_errors")
_REPLAYS = counter("quarantine.replays")
_REPRODUCED = counter("quarantine.reproduced")

__all__ = [
    "DEFAULT_DIR",
    "ENV_DIR",
    "QuarantineBundle",
    "REPLAY_BACKENDS",
    "ReplayResult",
    "bundle_to_dict",
    "ddmin",
    "load_bundle",
    "quarantine_dir",
    "quarantine_failure",
    "replay",
    "write_bundle",
]


def quarantine_dir() -> str:
    """The directory bundles are written to (see module docstring)."""
    return os.environ.get(ENV_DIR, "").strip() or DEFAULT_DIR


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
def _rate_to_data(rate: Rate) -> Any:
    """Exact rates as ``"p/q"`` strings, floats as JSON numbers.

    Python's ``json`` emits floats via ``repr``, which round-trips
    IEEE-754 doubles bit-for-bit — so a float-backend defect replays on
    the exact bits that produced it.
    """
    if isinstance(rate, (Fraction, int)):
        fraction = Fraction(rate)
        return f"{fraction.numerator}/{fraction.denominator}"
    return float(rate)


def _rate_from_data(data: Any) -> Rate:
    if isinstance(data, str):
        if data == "inf":
            return float("inf")
        numerator, denominator = data.split("/")
        return Fraction(int(numerator), int(denominator))
    return float(data)


def _capacity_to_data(capacity: Rate) -> Any:
    if isinstance(capacity, float) and math.isinf(capacity):
        return "inf"
    return _rate_to_data(capacity)


def bundle_to_dict(
    routing: Routing,
    capacities: Mapping[Link, Rate],
    reason: str,
    backend: str,
    exact: Optional[bool],
    seed: Optional[int] = None,
    context: str = "",
    failures: Sequence[str] = (),
    rates: Optional[Mapping[Flow, Rate]] = None,
) -> Dict[str, Any]:
    """The plain-data bundle document (deterministic for hashing)."""
    flows = routing.flows()
    capacity_entries = sorted(
        (
            [_node_to_data(u), _node_to_data(v), _capacity_to_data(cap)]
            for (u, v), cap in capacities.items()
        ),
    )
    document: Dict[str, Any] = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "reason": reason,
        "context": context,
        "backend": backend,
        "exact": exact,
        "seed": seed,
        "failures": list(failures),
        "flows": [
            {
                "src": _node_to_data(flow.source),
                "dst": _node_to_data(flow.dest),
                "tag": flow.tag,
                "path": [_node_to_data(node) for node in routing.path(flow)],
            }
            for flow in flows
        ],
        "capacities": capacity_entries,
    }
    if rates is not None:
        document["rates"] = {
            str(index): _rate_to_data(rates[flow])
            for index, flow in enumerate(flows)
            if flow in rates
        }
    return document


def write_bundle(
    routing: Routing,
    capacities: Mapping[Link, Rate],
    reason: str,
    backend: str,
    exact: Optional[bool],
    seed: Optional[int] = None,
    context: str = "",
    failures: Sequence[str] = (),
    rates: Optional[Mapping[Flow, Rate]] = None,
    directory: Optional[str] = None,
) -> str:
    """Serialize a bundle atomically; returns its path.

    Unlike :func:`quarantine_failure`, errors propagate — use this when
    the caller (the replay minimizer, tests) needs the write to succeed.
    """
    document = bundle_to_dict(
        routing, capacities, reason, backend, exact,
        seed=seed, context=context, failures=failures, rates=rates,
    )
    digest = hashlib.sha256(
        json.dumps(document, sort_keys=True).encode("utf-8")
    ).hexdigest()[:12]
    target = os.path.join(
        directory if directory is not None else quarantine_dir(),
        f"q-{reason}-{digest}.json",
    )
    write_json_atomic(target, document)
    _BUNDLES.inc()
    return target


def quarantine_failure(
    routing: Routing,
    capacities: Mapping[Link, Rate],
    reason: str,
    backend: str,
    exact: Optional[bool],
    seed: Optional[int] = None,
    context: str = "",
    failures: Sequence[str] = (),
    rates: Optional[Mapping[Flow, Rate]] = None,
    directory: Optional[str] = None,
) -> Optional[str]:
    """Best-effort bundle capture: returns the path, or ``None`` if the
    write itself failed (logged and counted, never raised — quarantine
    must not mask the solver failure being contained)."""
    try:
        return write_bundle(
            routing, capacities, reason, backend, exact,
            seed=seed, context=context, failures=failures, rates=rates,
            directory=directory,
        )
    except Exception as error:  # pragma: no cover - disk-full etc.
        _WRITE_ERRORS.inc()
        get_logger("quarantine").warning(
            "failed to write quarantine bundle", error=repr(error)
        )
        return None


class QuarantineBundle(NamedTuple):
    """A deserialized bundle (see :func:`load_bundle`)."""

    routing: Routing
    capacities: Dict[Link, Rate]
    reason: str
    backend: str
    exact: Optional[bool]
    seed: Optional[int]
    context: str
    failures: List[str]
    #: The rates the suspect backend produced, or ``None`` if unrecorded.
    rates: Optional[Dict[Flow, Rate]]
    path: Optional[str]


def _bundle_from_dict(
    document: Dict[str, Any], path: Optional[str] = None
) -> QuarantineBundle:
    if document.get("format") != FORMAT_NAME:
        raise ScenarioError(
            f"not a {FORMAT_NAME} document: format={document.get('format')!r}"
        )
    if document.get("version") != FORMAT_VERSION:
        raise ScenarioError(
            f"unsupported quarantine version: {document.get('version')!r}"
        )
    try:
        flows: List[Flow] = []
        assignment: Dict[Flow, Tuple] = {}
        for entry in document["flows"]:
            flow = Flow(
                _node_from_data(entry["src"]),
                _node_from_data(entry["dst"]),
                tag=int(entry.get("tag", 0)),
            )
            flows.append(flow)
            assignment[flow] = tuple(
                _node_from_data(node) for node in entry["path"]
            )
        capacities: Dict[Link, Rate] = {}
        for u, v, cap in document["capacities"]:
            link = (_node_from_data(u), _node_from_data(v))
            capacities[link] = (
                float("inf") if cap == "inf" else _rate_from_data(cap)
            )
        rates: Optional[Dict[Flow, Rate]] = None
        if document.get("rates") is not None:
            rates = {
                flows[int(index)]: _rate_from_data(value)
                for index, value in document["rates"].items()
            }
    except (KeyError, IndexError, TypeError, ValueError, ReproError) as error:
        raise ScenarioError(f"malformed quarantine bundle: {error}") from error
    return QuarantineBundle(
        routing=Routing(assignment),
        capacities=capacities,
        reason=str(document.get("reason", "")),
        backend=str(document.get("backend", "")),
        exact=document.get("exact"),
        seed=document.get("seed"),
        context=str(document.get("context", "")),
        failures=[str(f) for f in document.get("failures", [])],
        rates=rates,
        path=path,
    )


def load_bundle(path: str) -> QuarantineBundle:
    """Read and reconstruct a quarantine bundle from disk."""
    return _bundle_from_dict(read_json(path), path=path)


# ----------------------------------------------------------------------
# Replay + minimization
# ----------------------------------------------------------------------
def ddmin(items: Sequence, predicate) -> List:
    """Delta debugging (Zeller's ddmin over complements).

    Shrinks ``items`` to a small subset on which ``predicate`` still
    returns True.  ``predicate`` must hold on the full sequence; the
    result is 1-minimal with respect to the chunk sizes tried (removing
    any tried chunk breaks it).
    """
    current = list(items)
    granularity = 2
    while len(current) >= 2:
        chunk = max(1, len(current) // granularity)
        reduced = False
        for start in range(0, len(current), chunk):
            complement = current[:start] + current[start + chunk:]
            if complement and predicate(complement):
                current = complement
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(current):
                break
            granularity = min(len(current), granularity * 2)
    return current


class ReplayResult(NamedTuple):
    """What :func:`replay` established about a bundle."""

    #: The failure still occurs when the suspect backend re-runs here.
    reproduced: bool
    #: Defects of the *stored* rates under the full certificate.
    stored_failures: List[str]
    #: Defects of the freshly recomputed rates (certificate + reference
    #: disagreement), empty when the live run is healthy.
    live_failures: List[str]
    #: Flow count of the minimized reproducer (== original if not run).
    minimized_flows: int
    #: Path of the minimized bundle, when minimization ran and shrank.
    minimized_path: Optional[str]


def _raw_solve(
    routing: Routing,
    capacities: Mapping[Link, Rate],
    backend: str,
    exact: Optional[bool],
) -> Allocation:
    """One uncertified solve on ``backend`` (validation forced off);
    ``"batched"`` bundles re-run as a batch of one."""
    from repro.validate import validation

    with validation("off"):
        if backend == "batched":
            from repro.core.batched import solve_max_min_batch

            (allocation,) = solve_max_min_batch(
                [(routing, capacities)], exact=exact
            )
            return allocation
        return solve_max_min(routing, capacities, backend=backend, exact=exact)


def _live_failures(
    routing: Routing,
    capacities: Mapping[Link, Rate],
    backend: str,
    exact: Optional[bool],
) -> List[str]:
    """Re-run the suspect backend and report every defect found live."""
    from repro.core.maxmin import max_min_fair
    from repro.validate import (
        allocation_failures,
        default_tolerance,
        rate_disagreements,
        validation,
    )

    try:
        allocation = _raw_solve(routing, capacities, backend, exact)
    except CertificateError as error:
        return list(error.failures)
    except ReproError as error:
        return [f"backend {backend!r} failed: {error}"]
    rates = allocation.rates()
    failures = allocation_failures(
        routing, capacities, allocation, level="full"
    )
    if backend != "reference":
        with validation("off"):
            reference = max_min_fair(routing, capacities, exact=True)
        tol = 0.0 if default_tolerance(rates) == 0.0 else REPLAY_TOL
        failures.extend(
            f"disagrees with reference: {diff}"
            for diff in rate_disagreements(rates, reference.rates(), tol=tol)
        )
    return failures


def replay(
    bundle, minimize: bool = True, directory: Optional[str] = None
) -> ReplayResult:
    """Re-run a quarantine bundle; optionally minimize the reproducer.

    ``bundle`` is a path or a :class:`QuarantineBundle`.  Three steps:

    1. re-certify the *stored* rates at ``full`` (deterministically
       reproduces the original certificate rejection);
    2. re-run the suspect backend on this machine and certify the fresh
       result against the exact reference;
    3. if the live run still fails and ``minimize`` is set, delta-debug
       the flow set down to a minimal failing subset and write it as a
       new bundle next to the original.
    """
    from repro.validate import rate_failures

    if isinstance(bundle, str):
        bundle = load_bundle(bundle)
    _REPLAYS.inc()

    stored_failures: List[str] = []
    if bundle.rates is not None:
        covered = {
            flow: bundle.rates[flow]
            for flow in bundle.routing.flows()
            if flow in bundle.rates
        }
        if len(covered) < len(bundle.routing):
            stored_failures.append("stored rates do not cover every flow")
        else:
            # Certify the raw map: a NaN or negative stored rate is a
            # defect to list, which an ``Allocation`` would refuse.
            stored_failures = rate_failures(
                bundle.routing, bundle.capacities, covered, level="full"
            )

    live_failures = _live_failures(
        bundle.routing, bundle.capacities, bundle.backend, bundle.exact
    )
    reproduced = bool(live_failures)
    if reproduced:
        _REPRODUCED.inc()

    minimized_flows = len(bundle.routing)
    minimized_path: Optional[str] = None
    if reproduced and minimize and len(bundle.routing) > 1:
        def still_fails(flows: Sequence[Flow]) -> bool:
            subset = Routing(
                {flow: bundle.routing.path(flow) for flow in flows}
            )
            return bool(
                _live_failures(
                    subset, bundle.capacities, bundle.backend, bundle.exact
                )
            )

        survivors = ddmin(bundle.routing.flows(), still_fails)
        minimized_flows = len(survivors)
        if minimized_flows < len(bundle.routing):
            minimized = Routing(
                {flow: bundle.routing.path(flow) for flow in survivors}
            )
            minimized_path = write_bundle(
                minimized,
                bundle.capacities,
                f"{bundle.reason}-min" if bundle.reason else "min",
                bundle.backend,
                bundle.exact,
                seed=bundle.seed,
                context=bundle.context,
                failures=_live_failures(
                    minimized, bundle.capacities, bundle.backend, bundle.exact
                ),
                directory=(
                    directory
                    if directory is not None
                    else (
                        os.path.dirname(bundle.path)
                        if bundle.path
                        else None
                    )
                ),
            )

    return ReplayResult(
        reproduced=reproduced,
        stored_failures=stored_failures,
        live_failures=live_failures,
        minimized_flows=minimized_flows,
        minimized_path=minimized_path,
    )
