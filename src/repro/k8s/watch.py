"""Watch streams: asynchronous change notification from the API server.

Controllers (the kube-scheduler, the kubelets, the MPI operator, the elastic
scheduler) all react to ``ADDED`` / ``MODIFIED`` / ``DELETED`` events.
Delivery is asynchronous — events are dispatched through the simulation
engine, never synchronously from the mutation call — which reproduces the
eventually-consistent behaviour real controllers must tolerate.

A watch may narrow what it receives with two selectors, as a real client
does with ``fieldSelector=spec.nodeName=<node>`` and ``labelSelector``:
``node_name`` takes only objects bound to that node, and ``selector`` (a
:class:`~repro.k8s.meta.LabelSelector`) only objects carrying all of its
labels.  Both are applied to the object's state at publish time.

Order contract: a publish posts one dispatch per matching active watch (a
plain ``post_at`` entry at the current time), in subscription order, i.e.
by ``Watch.id``: ``kind=None`` watches and selected watches merge in where
they were subscribed.  A watch sees only events published after it
subscribed, and ``stop()`` drops the deliveries already queued for it,
and its handler, so a stopped watch keeps no subscriber alive.
The hub caches, per kind, the unselected watches in one list and the
selected ones in buckets keyed by node name or by their selector's first
label pair, so a publish visits only the watches of its object's kind and
the buckets its object falls in.  ``stop()`` takes a watch out of every
list and bucket at once.
"""

from __future__ import annotations

import enum
from bisect import insort
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional

from .meta import LabelSelector

__all__ = ["EventType", "WatchEvent", "Watch", "WatchHub"]

_watch_id = attrgetter("id")


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
    node_name:
        Only objects whose ``node_name`` is this node (``None`` = any).
    selector:
        Only objects whose labels match this selector (``None`` or an
        empty selector = any).
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
        node_name: Optional[str] = None,
        selector: Optional[LabelSelector] = None,
        hub: Optional["WatchHub"] = None,
    ):
        self.engine = engine
        self.handler = handler
        self.kind = kind
        self.namespace = namespace
        self.node_name = node_name
        self.selector = None if selector is None or selector.is_empty() else selector
        self.id = next(Watch._ids)
        self.active = True
        self.delivered = 0
        self._hub = hub

    def matches(self, obj) -> bool:
        if self.kind is not None and obj.kind != self.kind:
            return False
        if self.namespace is not None and obj.namespace != self.namespace:
            return False
        node_name = self.node_name
        if node_name is not None and getattr(obj, "node_name", None) != node_name:
            return False
        if self.selector is not None and not self.selector.matches(obj.meta.labels):
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
        """Cancel the subscription; queued events are dropped.

        The handler goes too, so a stopped watch keeps no subscriber alive.
        """
        self.active = False
        self.handler = None
        if self._hub is not None:
            self._hub._remove(self)
            self._hub = None


class _KindIndex:
    """The watches that take one kind, each in one list by how it selects.

    Every list is in subscription (``Watch.id``) order.
    """

    __slots__ = ("plain", "by_node", "by_label")

    def __init__(self) -> None:
        #: Watches with no selector: they take every event of the kind.
        self.plain: List[Watch] = []
        #: ``node_name -> watches`` selecting on that node.
        self.by_node: Dict[str, List[Watch]] = {}
        #: ``label -> value -> watches`` whose selector's first pair it is.
        self.by_label: Dict[str, Dict[str, List[Watch]]] = {}

    def add(self, watch: Watch) -> None:
        if watch.node_name is not None:
            self.by_node.setdefault(watch.node_name, []).append(watch)
        elif watch.selector is not None:
            label, value = watch.selector.match_labels[0]
            self.by_label.setdefault(label, {}).setdefault(value, []).append(watch)
        else:
            self.plain.append(watch)

    def remove(self, watch: Watch) -> None:
        if watch.node_name is not None:
            _discard(self.by_node, watch.node_name, watch)
        elif watch.selector is not None:
            label, value = watch.selector.match_labels[0]
            _discard(self.by_label[label], value, watch)
            if not self.by_label[label]:
                del self.by_label[label]
        else:
            self.plain.remove(watch)

    def __contains__(self, watch: Watch) -> bool:
        buckets = [self.plain, *self.by_node.values(),
                   *(b for values in self.by_label.values() for b in values.values())]
        return any(watch in bucket for bucket in buckets)

    def targets(self, obj) -> List[Watch]:
        """The plain watches merged, by id, with the selected ones ``obj``
        matches (the namespace of plain watches is left to the caller)."""
        selected: List[Watch] = []
        if self.by_node:
            bucket = self.by_node.get(getattr(obj, "node_name", None))
            if bucket:
                selected += bucket
        if self.by_label:
            labels = obj.meta.labels
            for label, values in self.by_label.items():
                bucket = values.get(labels.get(label))
                if bucket:
                    selected += bucket
        if not selected:
            return self.plain
        # A publish matches a handful of selected watches: inserting each
        # into a copy of the sorted plain list beats re-sorting the union.
        targets = self.plain.copy()
        for watch in selected:
            if watch.matches(obj):
                insort(targets, watch, key=_watch_id)
        return targets


def _discard(buckets: Dict[Any, List[Watch]], key: Any, watch: Watch) -> None:
    bucket = buckets[key]
    bucket.remove(watch)
    if not bucket:
        del buckets[key]


class WatchHub:
    """Fan-out of watch events to subscriptions (owned by the API server)."""

    def __init__(self, engine):
        self.engine = engine
        #: Every active subscription, in subscription order.
        self._watches: List[Watch] = []
        #: ``kind -> the watches of _watches that take that kind``, built
        #: the first time that kind is published.
        self._by_kind: Dict[str, _KindIndex] = {}

    def subscribe(
        self,
        handler: Callable[[WatchEvent], None],
        kind: Optional[str] = None,
        namespace: Optional[str] = None,
        node_name: Optional[str] = None,
        selector: Optional[LabelSelector] = None,
    ) -> Watch:
        watch = Watch(self.engine, handler, kind=kind, namespace=namespace,
                      node_name=node_name, selector=selector, hub=self)
        self._watches.append(watch)
        for cached_kind, index in self._by_kind.items():
            if kind is None or kind == cached_kind:
                index.add(watch)
        return watch

    def publish(self, event: WatchEvent) -> None:
        obj = event.object
        kind = obj.kind
        index = self._by_kind.get(kind)
        if index is None:
            index = self._by_kind[kind] = _KindIndex()
            for watch in self._watches:
                if watch.kind is None or watch.kind == kind:
                    index.add(watch)
        engine = self.engine
        post_at = engine.post_at
        now = engine.now
        namespace = obj.namespace
        for watch in index.targets(obj):
            if watch.namespace is None or watch.namespace == namespace:
                post_at(now, watch._dispatch, event)

    def _remove(self, watch: Watch) -> None:
        """Take a stopped watch out of the subscription list and the caches."""
        self._watches.remove(watch)
        for kind, index in self._by_kind.items():
            if watch.kind is None or watch.kind == kind:
                index.remove(watch)
