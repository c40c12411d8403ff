"""Watch streams: asynchronous change notification from the API server.

Controllers (the kube-scheduler, the kubelets, the MPI operator, the elastic
scheduler) all react to ``ADDED`` / ``MODIFIED`` / ``DELETED`` events.
Delivery is asynchronous — events are dispatched through the simulation
engine, never synchronously from the mutation call — which reproduces the
eventually-consistent behaviour real controllers must tolerate.

Order contract: a publish posts one dispatch per matching active watch (a
plain ``post_at`` entry at the current time), in subscription order (``kind=None`` watches merge in where
they were subscribed).  A watch sees only events published after it
subscribed, and ``stop()`` drops the deliveries already queued for it.
The hub keeps the matching watches per kind cached, so a publish visits
only the watches of its object's kind; stopped watches are pruned lazily,
the first time a publish meets one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

__all__ = ["EventType", "WatchEvent", "Watch", "WatchHub"]


class EventType(str, enum.Enum):
    ADDED = "ADDED"
    MODIFIED = "MODIFIED"
    DELETED = "DELETED"


@dataclass(frozen=True)
class WatchEvent:
    """A single change notification."""

    type: EventType
    object: Any  # the live ApiObject (consumers must not mutate it)

    @property
    def key(self) -> tuple:
        return self.object.key


class Watch:
    """A subscription to API-server changes.

    Parameters
    ----------
    kind:
        Only objects of this kind are delivered (``None`` = all kinds).
    namespace:
        Only objects in this namespace (``None`` = all).
    handler:
        Callable invoked as ``handler(event)`` for each delivery.
    """

    _ids = iter(range(1, 1 << 62))

    def __init__(
        self,
        engine,
        handler: Callable[[WatchEvent], None],
        kind: Optional[str] = None,
        namespace: Optional[str] = None,
    ):
        self.engine = engine
        self.handler = handler
        self.kind = kind
        self.namespace = namespace
        self.id = next(Watch._ids)
        self.active = True
        self.delivered = 0

    def matches(self, obj) -> bool:
        if self.kind is not None and obj.kind != self.kind:
            return False
        if self.namespace is not None and obj.namespace != self.namespace:
            return False
        return True

    def deliver(self, event: WatchEvent) -> None:
        """Queue asynchronous delivery of ``event`` to the handler."""
        if not self.active or not self.matches(event.object):
            return
        self.engine.call_soon(self._dispatch, event)

    def _dispatch(self, event: WatchEvent) -> None:
        if not self.active:
            return
        self.delivered += 1
        self.handler(event)

    def stop(self) -> None:
        """Cancel the subscription; queued events are dropped."""
        self.active = False


class WatchHub:
    """Fan-out of watch events to subscriptions (owned by the API server)."""

    def __init__(self, engine):
        self.engine = engine
        #: Every subscription in subscription order, stopped ones included
        #: until a publish meets one.
        self._watches: List[Watch] = []
        #: ``kind -> the watches of _watches that take that kind``.
        self._by_kind: Dict[str, List[Watch]] = {}

    def subscribe(
        self,
        handler: Callable[[WatchEvent], None],
        kind: Optional[str] = None,
        namespace: Optional[str] = None,
    ) -> Watch:
        watch = Watch(self.engine, handler, kind=kind, namespace=namespace)
        self._watches.append(watch)
        for cached_kind, watches in self._by_kind.items():
            if kind is None or kind == cached_kind:
                watches.append(watch)
        return watch

    def publish(self, event: WatchEvent) -> None:
        obj = event.object
        kind = obj.kind
        watches = self._by_kind.get(kind)
        if watches is None:
            watches = self._by_kind[kind] = [
                w for w in self._watches if w.kind is None or w.kind == kind
            ]
        engine = self.engine
        post_at = engine.post_at
        now = engine.now
        namespace = obj.namespace
        stale = False
        for watch in watches:
            if not watch.active:
                stale = True
            elif watch.namespace is None or watch.namespace == namespace:
                post_at(now, watch._dispatch, event)
        if stale:
            self._prune()

    def _prune(self) -> None:
        """Drop stopped watches from the subscription list and the caches."""
        self._watches = [w for w in self._watches if w.active]
        self._by_kind.clear()
