"""Routing-space search: symmetry-reduced enumeration and local search.

Local search moves one flow to another middle switch at a time and
scores each move with a plain :func:`~repro.core.maxmin.max_min_fair`
solve of the moved routing.
"""

from repro.search.enumeration import (
    all_assignments,
    canonical_assignments,
    enumerate_routings,
    routing_space_size,
)
from repro.search.local_search import improve_routing, is_local_optimum

__all__ = [
    "all_assignments",
    "canonical_assignments",
    "enumerate_routings",
    "improve_routing",
    "is_local_optimum",
    "routing_space_size",
]
