"""The structured logger: one event, one line, machine-parseable.

``logger.info("experiment.done", id="e3", elapsed=1.25)`` renders as::

    repro.report experiment.done id=e3 elapsed=1.25

on ``stderr`` (never stdout — experiment tables and the runner's
summary own stdout, and structured logs must not corrupt golden
captures).  Values render via ``repr``-free ``str`` except strings
containing whitespace, which are quoted.  Fractions render exactly.

Loggers are named and cached (:func:`get_logger`), follow the global
observability switch (silent when ``repro.obs`` is disabled, unless
constructed with ``always=True``), and keep their recent records in a
ring buffer so tests can assert on events without parsing text.
"""

from __future__ import annotations

import sys
from collections import deque
from typing import Any, Deque, Dict, Optional, TextIO, Tuple

from repro.obs.state import STATE

#: How many recent records each logger retains for inspection.
RING_SIZE = 256


def _render_value(value: Any) -> str:
    text = str(value)
    if any(ch.isspace() for ch in text) or text == "":
        return '"' + text.replace('"', '\\"') + '"'
    return text


class StructuredLogger:
    """Event + key-value logging gated on the observability switch."""

    def __init__(
        self,
        name: str,
        stream: Optional[TextIO] = None,
        always: bool = False,
    ) -> None:
        self.name = name
        self.stream = stream
        self.always = always
        self.records: Deque[Tuple[str, str, Dict[str, Any]]] = deque(
            maxlen=RING_SIZE
        )

    def _emit(self, level: str, event: str, fields: Dict[str, Any]) -> None:
        if not (STATE.enabled or self.always):
            return
        self.records.append((level, event, fields))
        parts = [self.name, event]
        parts.extend(f"{key}={_render_value(value)}" for key, value in fields.items())
        if level != "info":
            parts.insert(0, level.upper())
        stream = self.stream if self.stream is not None else sys.stderr
        stream.write(" ".join(parts) + "\n")

    def info(self, event: str, **fields: Any) -> None:
        self._emit("info", event, fields)

    def warning(self, event: str, **fields: Any) -> None:
        self._emit("warning", event, fields)

    def error(self, event: str, **fields: Any) -> None:
        self._emit("error", event, fields)

    def events(self) -> list:
        """The retained event names, oldest first."""
        return [event for _, event, _ in self.records]


_LOGGERS: Dict[str, StructuredLogger] = {}


def get_logger(name: str) -> StructuredLogger:
    """The cached structured logger for ``name``."""
    logger = _LOGGERS.get(name)
    if logger is None:
        logger = StructuredLogger(name)
        _LOGGERS[name] = logger
    return logger
