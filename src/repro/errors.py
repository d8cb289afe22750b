"""The library-wide typed exception hierarchy.

Every failure a solver, router, or experiment driver can signal derives
from :class:`ReproError`, so ``except ReproError`` catches "the library
rejected this input or could not produce an answer" without also
swallowing programming errors.  Subclasses additionally derive from the
builtin exception the pre-typed code raised (``ValueError``,
``KeyError``), so code written against the old behavior keeps working.

The hierarchy::

    ReproError
    ├── CapacityValidationError (ValueError)   malformed capacity maps
    │   ├── UnknownLinkError (KeyError)        links absent from the map
    │   └── UnboundedRateError                 flow sees no finite link
    ├── InfeasibleRoutingError (ValueError)    routing cannot be realized
    │   ├── UnknownFlowError (KeyError)        flow not in the routing
    │   └── DisconnectedFlowError              no surviving path at all
    ├── CertificateError                       solver output failed validation
    │   └── SolverDisagreementError            backends returned different rates
    └── ExperimentError                        experiment-runner failures
        └── StepTimeoutError                   per-step wall clock blown

This module intentionally imports nothing from the rest of the library
so any module — ``core``, ``sim``, ``routers``, the CLI — can raise
typed errors without import cycles.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error this library raises deliberately."""


class CapacityValidationError(ReproError, ValueError):
    """A capacity map is malformed: wrong links, negative or non-numeric
    capacities, or an impossible degradation request."""


class UnknownLinkError(CapacityValidationError, KeyError):
    """One or more links are absent from a capacity map.

    ``links`` carries *every* offending link, not just the first, so a
    caller can fix a whole batch of typos in one round trip.
    """

    def __init__(self, links) -> None:
        self.links = list(links)
        super().__init__(f"unknown links: {self.links!r}")

    def __str__(self) -> str:  # KeyError.__str__ would repr() the message
        return self.args[0]


class UnboundedRateError(CapacityValidationError):
    """Raised when some flow crosses only infinite-capacity links."""


class InfeasibleRoutingError(ReproError, ValueError):
    """A routing request cannot be realized in the given network:
    unassigned flows, invalid middle-switch indices, endpoints outside
    the topology, or paths that do not exist in the graph."""


class UnknownFlowError(InfeasibleRoutingError, KeyError):
    """A flow is absent from the routing or collection being queried."""

    def __init__(self, flow) -> None:
        self.flow = flow
        super().__init__(f"unknown flow: {flow!r}")

    def __str__(self) -> str:  # KeyError.__str__ would repr() the message
        return self.args[0]


class DisconnectedFlowError(InfeasibleRoutingError):
    """Flows have *no* usable path at all (every candidate crosses a
    failed component).  ``flows`` lists every disconnected flow."""

    def __init__(self, flows, message: str = "") -> None:
        self.flows = list(flows)
        super().__init__(
            message or f"no surviving path for flows: {self.flows!r}"
        )


class CertificateError(ReproError):
    """A computed allocation failed an invariant certificate.

    Raised by :mod:`repro.validate` when a solver result is infeasible,
    numerically corrupt, or not max-min fair (no bottleneck link for
    some flow).  ``failures`` lists every violated invariant;
    ``context`` names the solver path that produced the allocation.
    """

    def __init__(self, context: str, failures) -> None:
        self.context = context
        self.failures = list(failures)
        detail = "; ".join(self.failures[:3])
        more = len(self.failures) - 3
        if more > 0:
            detail += f" (+{more} more)"
        super().__init__(f"certificate failure in {context}: {detail}")


class SolverDisagreementError(CertificateError):
    """Two solver backends disagreed on the same instance's rates."""


class ExperimentError(ReproError):
    """Base class for experiment-runner failures (see :mod:`repro.runner`)."""


class StepTimeoutError(ExperimentError):
    """A runner step exceeded its wall-clock budget."""

    def __init__(self, step: str, timeout: float) -> None:
        self.step = step
        self.timeout = timeout
        super().__init__(f"step {step!r} exceeded {timeout:g}s wall clock")

