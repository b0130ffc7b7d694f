"""Structured query log: opt-in JSON-lines stream of completed statements.

When a query log is open, every :class:`~repro.obs.recorder.QueryRecord`
the flight recorder retires is also appended to a JSON-lines file, one
self-describing event per line.  Two modes: **full** (every statement)
and **slow-query log** (``slow_only``: only statements the recorder found
slow — its ``slow_threshold_seconds``, the line that raises a
``query.slow`` incident — or that raised).

The log is off by default and costs one flag check per statement while
closed.  Writes are serialized by a mutex and flushed per line, so an
operator can ``tail -f`` the file while the server runs.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

__all__ = ["QueryLog", "get_query_log", "enable", "disable"]


class QueryLog:
    """A JSON-lines sink for completed-statement records."""

    def __init__(self) -> None:
        self._fh = None
        self._lock = threading.Lock()
        self.path: Path | None = None
        self.slow_only = False
        self.events_written = 0

    def open(self, path, slow_only: bool = False) -> Path:
        """Start logging to ``path`` (parent directories are created).

        ``slow_only`` turns this into a slow-query log: only statements
        the recorder flags slow, or that raised, are written.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            if self._fh is not None:
                self._fh.close()
            self._fh = open(path, "a", encoding="utf-8")
            self.path = path
            self.slow_only = slow_only
            self.events_written = 0  # counts events on the current file
        return path

    def emit(self, record, slow: bool) -> bool:
        """Write one completed-statement event; returns True if written.

        ``record`` is a :class:`~repro.obs.recorder.QueryRecord` and
        ``slow`` the recorder's verdict on it.  Never raises on a closed
        log — the serving path must not fail because logging is off.
        """
        fh = self._fh
        if fh is None:
            return False
        # Errors are always interesting: even a slow-only log records a
        # statement that raised, however fast it failed.
        if self.slow_only and not slow and record.ok:
            return False
        event = {"event": "query", "slow": slow}
        event.update(record.to_dict())
        line = json.dumps(event, separators=(",", ":"))
        with self._lock:
            if self._fh is None:
                return False
            self._fh.write(line + "\n")
            self._fh.flush()
            self.events_written += 1
        return True

    def close(self) -> None:
        """Stop logging and close the file (idempotent)."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __repr__(self) -> str:
        state = f"-> {self.path}" if self._fh is not None else "closed"
        mode = "slow-only " if self.slow_only else ""
        return f"QueryLog({mode}{state}, {self.events_written} events)"


_QLOG = QueryLog()


def get_query_log() -> QueryLog:
    """The process-wide query log."""
    return _QLOG


def enable(path, slow_only: bool = False) -> Path:
    """Open the process-wide query log at ``path``."""
    return _QLOG.open(path, slow_only=slow_only)


def disable() -> None:
    """Close the process-wide query log."""
    _QLOG.close()
