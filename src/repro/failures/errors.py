"""The typed exception hierarchy, re-exported for the failures package.

The canonical definitions live in :mod:`repro.errors` (which imports
nothing, so every layer of the library can raise typed errors without
import cycles); this module exists so failure-handling code can import
errors and injectors from one place.
"""

from repro.errors import (
    CapacityValidationError,
    DisconnectedFlowError,
    ExperimentError,
    InfeasibleRoutingError,
    ReproError,
    StepTimeoutError,
    UnboundedRateError,
    UnknownLinkError,
)

__all__ = [
    "CapacityValidationError",
    "DisconnectedFlowError",
    "ExperimentError",
    "InfeasibleRoutingError",
    "ReproError",
    "StepTimeoutError",
    "UnboundedRateError",
    "UnknownLinkError",
]
