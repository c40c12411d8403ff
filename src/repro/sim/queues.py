"""A blocking queue for simulation processes.

:class:`Queue` mirrors the classic simpy store but is intentionally small:
an unbounded FIFO whose ``get()`` returns an event a process can yield on.
PE message queues and reduction results use it.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .events import Event

__all__ = ["Queue"]


class Queue:
    """Unbounded FIFO queue with event-based blocking ``get``.

    Items put while getters are waiting are handed over in FIFO order of the
    waiters.  ``put`` never blocks.
    """

    def __init__(self, engine, name: Optional[str] = None):
        self.engine = engine
        self.name = name or "queue"
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def waiting(self) -> int:
        """Number of processes blocked in ``get``."""
        return len(self._getters)

    def put(self, item: Any) -> None:
        """Enqueue ``item``; wakes the oldest waiting getter, if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        ev = Event(self.engine, name=f"{self.name}.get")
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def clear(self) -> int:
        """Discard all queued items; returns how many were dropped."""
        count = len(self._items)
        self._items.clear()
        return count

    def drain(self) -> list:
        """Remove and return all queued items."""
        items = list(self._items)
        self._items.clear()
        return items
