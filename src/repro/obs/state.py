"""The single on/off switch every instrument consults.

Observability must be *zero-cost when disabled*: the solvers' hot loops
call ``Counter.inc`` unconditionally, so the disabled fast path has to
be one attribute load and an early return — no dict lookups, no
``os.environ`` reads, no locks.  That flag lives here, in a module with
no other imports, so :mod:`repro.obs.metrics` and
:mod:`repro.obs.trace` can share it without a cycle.

The initial value comes from the ``REPRO_OBS`` environment variable
(default off); :func:`repro.obs.enable` / :func:`repro.obs.disable`
flip it at runtime.
"""

from __future__ import annotations

import os

_FALSY = ("", "0", "false", "no", "off")
#: ``REPRO_OBS`` values that additionally turn on tracemalloc peaks.
_MEMORY = ("mem", "memory", "2")


def _environment_value() -> str:
    return os.environ.get("REPRO_OBS", "0").strip().lower()


class ObsState:
    """Mutable process-wide observability switches."""

    __slots__ = ("enabled", "memory")

    def __init__(self) -> None:
        value = _environment_value()
        self.enabled: bool = value not in _FALSY
        #: Track peak memory (tracemalloc) inside spans.  Off unless
        #: ``REPRO_OBS=mem`` — tracemalloc slows allocation-heavy code
        #: noticeably, so plain ``REPRO_OBS=1`` stays wall-clock only.
        self.memory: bool = value in _MEMORY


STATE = ObsState()
