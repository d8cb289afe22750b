"""One front door to every max-min fair solver backend.

``solve_max_min(routing, capacities, backend=...)`` dispatches to:

- ``"reference"`` — :func:`repro.core.maxmin.max_min_fair`; exact
  ``Fraction`` arithmetic by default (``exact=False`` for floats).
- ``"vectorized"`` — :func:`repro.core.vectorized.max_min_fair_vectorized`;
  float, NumPy array kernel, fastest for dense instances (thousands of
  flows over few links).
- ``"quotient"`` — :func:`repro.core.quotient.quotient_max_min`; exact
  ``Fraction`` rates via symmetry reduction, the only exact option that
  scales to the n ≥ 64 adversarial constructions.
- ``"streaming"`` — :func:`repro.core.streaming.streaming_max_min`;
  float by default, ``exact=True`` for ``Fraction`` rates.  One-shot
  solves match the vectorized backend bit-for-bit (float) or the
  reference exactly; the backend exists for
  :class:`repro.core.streaming.StreamingMaxMin` reuse under flow churn,
  where arrivals/departures update a kept incidence instead of a
  fresh compile.

All four backends return the same allocation: exactly for the exact
backends, within 1e-12 between the float backends (property-tested in
``tests/test_vectorized_quotient.py``).  See ``docs/PERFORMANCE.md``
("Scaling to large n") for measured crossover points.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.core.allocation import Allocation, Rate
from repro.core.routing import Link, Routing

#: Recognized backend names, in documentation order.
BACKENDS = ("reference", "vectorized", "quotient", "streaming")

#: Backends whose rates are exact ``Fraction`` values.
EXACT_BACKENDS = ("reference", "quotient")

__all__ = [
    "BACKENDS",
    "EXACT_BACKENDS",
    "solve_max_min",
]


def solve_max_min(
    routing: Routing,
    capacities: Mapping[Link, Rate],
    backend: str = "reference",
    exact: Optional[bool] = None,
) -> Allocation:
    """The max-min fair allocation for ``routing`` via ``backend``.

    ``exact`` is only meaningful for the ``reference`` and ``streaming``
    backends (which support both modes); passing ``exact=True`` for
    ``vectorized`` or ``exact=False`` for ``quotient`` raises
    ``ValueError`` rather than silently returning rates of the wrong
    kind.  An unknown ``backend`` name raises ``ValueError`` too.
    """
    if backend == "reference":
        from repro.core.maxmin import max_min_fair

        return max_min_fair(
            routing, capacities, exact=True if exact is None else exact
        )
    if backend == "vectorized":
        if exact:
            raise ValueError("backend 'vectorized' computes float rates only")
        from repro.core.vectorized import max_min_fair_vectorized

        return max_min_fair_vectorized(routing, capacities)
    if backend == "quotient":
        if exact is not None and not exact:
            raise ValueError("backend 'quotient' computes exact rates only")
        from repro.core.quotient import quotient_max_min

        return quotient_max_min(routing, capacities)
    if backend == "streaming":
        from repro.core.streaming import streaming_max_min

        return streaming_max_min(routing, capacities, exact=bool(exact))
    raise ValueError(
        f"unknown backend {backend!r}; expected one of {BACKENDS}"
    )
