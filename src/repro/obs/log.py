"""A small structured, level-aware logger for CLI-facing progress output.

Long-running verbs used to carry their own ad-hoc ``say()`` closures,
each one a different opinion about where progress lines go.  This
module is the single shared answer: named loggers, numeric levels,
``key=value`` structured fields, everything on stderr so
machine-readable stdout stays clean.  :func:`set_level` moves the
threshold; the ``REPRO_LOG_LEVEL`` environment variable sets the process
default.

Deliberately not :mod:`logging`: no handler graphs, no global config
pickling into process pools — just enough structure for a CLI.
"""

from __future__ import annotations

import os
import sys
from typing import Any, Dict, Optional

__all__ = [
    "StructuredLogger",
    "get_logger",
    "set_level",
    "level_of",
    "DEBUG",
    "INFO",
    "WARNING",
    "ERROR",
    "LOG_ENV",
]

DEBUG = 10
INFO = 20
WARNING = 30
ERROR = 40

LOG_ENV = "REPRO_LOG_LEVEL"

_NAMES = {"debug": DEBUG, "info": INFO, "warning": WARNING, "warn": WARNING,
          "error": ERROR}
_LABELS = {DEBUG: "debug", INFO: "info", WARNING: "warning", ERROR: "error"}


def level_of(level) -> int:
    """Normalize a level name or number to its numeric value."""
    if isinstance(level, str):
        try:
            return _NAMES[level.strip().lower()]
        except KeyError:
            raise ValueError(f"unknown log level {level!r}") from None
    return int(level)


def _default_level() -> int:
    env = os.environ.get(LOG_ENV, "").strip()
    if env:
        try:
            return level_of(env)
        except ValueError:
            pass
    return INFO


_threshold = _default_level()


def set_level(level) -> None:
    """Set the process-wide threshold (name or number); lower = chattier."""
    global _threshold
    _threshold = level_of(level)


class StructuredLogger:
    """Writes ``... [name] message key=value`` lines to a stream.

    The stream is resolved at emit time (default ``sys.stderr``) so
    pytest's capture fixtures see the output.
    """

    def __init__(self, name: str, stream=None):
        self.name = name
        self._stream = stream

    def log(self, level: int, message: str, **fields: Any) -> None:
        if level < _threshold:
            return
        stream = self._stream if self._stream is not None else sys.stderr
        extras = " ".join(f"{k}={v}" for k, v in sorted(fields.items()))
        label = _LABELS.get(level, str(level))
        tag = f" {label}:" if level >= WARNING else ""
        print(f"...{tag} [{self.name}] {message}" + (f" {extras}" if extras else ""),
              file=stream)

    def debug(self, message: str, **fields: Any) -> None:
        self.log(DEBUG, message, **fields)

    def info(self, message: str, **fields: Any) -> None:
        self.log(INFO, message, **fields)

    def warning(self, message: str, **fields: Any) -> None:
        self.log(WARNING, message, **fields)

    def error(self, message: str, **fields: Any) -> None:
        self.log(ERROR, message, **fields)


_loggers: Dict[str, StructuredLogger] = {}


def get_logger(name: str, stream: Optional[Any] = None) -> StructuredLogger:
    """One shared :class:`StructuredLogger` per name."""
    logger = _loggers.get(name)
    if logger is None or stream is not None:
        logger = StructuredLogger(name, stream=stream)
        _loggers[name] = logger
    return logger
