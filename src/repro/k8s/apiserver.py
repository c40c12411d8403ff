"""The API server: typed object store with CRUD, versions, and watches.

This is the hub every controller talks through.  Semantics follow
Kubernetes where the paper's system depends on them:

* objects are keyed by ``(kind, namespace, name)``;
* every successful mutation bumps the object's ``resource_version`` and
  publishes a watch event asynchronously;
* deletion is graceful for bound pods: ``delete`` marks the object
  terminating (sets ``deletion_timestamp``) and the responsible kubelet
  finalizes it, releasing node resources — mirroring how the operator's
  shrink step removes worker pods only after the Charm++ ack (§3.1).

Indexes
-------
The store is per kind: ``kind -> {(namespace, name): object}``.  ``get``
is two dict lookups, and ``list``, watch replay and ``object_count`` touch
only the requested kind.  A second index maps ``(kind, label, value)`` to
the keys of the objects carrying that label; a selector ``list`` starts
from its smallest bucket and then applies the full selector and the
namespace filter to the stored objects.  ``create``, ``update``/``patch``
(re-indexing when the labels changed) and ``finalize_delete`` maintain
both, so a label edit must go through ``update`` or ``patch`` to be seen
by selector lists.  ``list`` results are sorted by ``(namespace, name)``
and replay by ``(kind, namespace, name)``, exactly as a full scan would
order them.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from ..errors import AlreadyExistsError, NotFoundError
from .meta import ApiObject, LabelSelector
from .watch import EventType, WatchEvent, WatchHub

__all__ = ["ApiServer"]


class ApiServer:
    """In-memory Kubernetes-style API server bound to a simulation engine."""

    def __init__(self, engine, tracer=None):
        self.engine = engine
        self.tracer = tracer
        #: ``kind -> {(namespace, name): object}``: the one object store.
        self._kinds: Dict[str, Dict[tuple, ApiObject]] = {}
        #: ``(kind, label, value) -> {(namespace, name)}``.
        self._by_label: Dict[tuple, Set[tuple]] = {}
        #: The labels each stored object is indexed under, by store key.
        self._indexed_labels: Dict[tuple, Dict[str, str]] = {}
        self._version = 0
        self._hub = WatchHub(engine)

    # ------------------------------------------------------------------
    # CRUD
    # ------------------------------------------------------------------

    def create(self, obj: ApiObject) -> ApiObject:
        """Store a new object; publishes ``ADDED``."""
        obj.validate()
        store = self._kinds.setdefault(obj.kind, {})
        ref = (obj.namespace, obj.name)
        if ref in store:
            raise AlreadyExistsError(f"{obj.kind} {obj.namespace}/{obj.name} exists")
        obj.meta.creation_time = self.engine.now
        self._bump(obj)
        store[ref] = obj
        self._index_labels(obj.kind, ref, obj.meta.labels)
        self._trace("create", obj)
        self._hub.publish(WatchEvent(EventType.ADDED, obj))
        return obj

    def get(self, kind: str, name: str, namespace: str = "default") -> ApiObject:
        """Fetch one object; raises :class:`NotFoundError`."""
        try:
            return self._kinds[kind][(namespace, name)]
        except KeyError:
            raise NotFoundError(f"{kind} {namespace}/{name} not found") from None

    def try_get(self, kind: str, name: str, namespace: str = "default") -> Optional[ApiObject]:
        """Fetch one object or ``None``."""
        try:
            return self._kinds[kind].get((namespace, name))
        except KeyError:
            return None

    def exists(self, kind: str, name: str, namespace: str = "default") -> bool:
        store = self._kinds.get(kind)
        return store is not None and (namespace, name) in store

    def list(
        self,
        kind: str,
        namespace: Optional[str] = "default",
        selector: Optional[LabelSelector] = None,
    ) -> List[ApiObject]:
        """List objects of ``kind``, optionally filtered.

        Results are sorted by (namespace, name) for determinism.
        """
        store = self._kinds.get(kind)
        if not store:
            return []
        if selector is None or not selector.match_labels:
            refs = store if namespace is None else [r for r in store if r[0] == namespace]
            return [store[ref] for ref in sorted(refs)]
        by_label = self._by_label
        buckets = [by_label.get((kind, label, value), ())
                   for label, value in selector.match_labels]
        refs = [ref for ref in min(buckets, key=len)
                if namespace is None or ref[0] == namespace]
        matches = selector.matches
        return [o for o in (store[ref] for ref in sorted(refs))
                if matches(o.meta.labels)]

    def update(self, obj: ApiObject) -> ApiObject:
        """Record a mutation of a stored object; publishes ``MODIFIED``."""
        kind = obj.kind
        ref = (obj.namespace, obj.name)
        labels = self._stored(kind, ref).meta.labels
        if labels != self._indexed_labels[(kind, ref)]:
            self._unindex_labels(kind, ref)
            self._index_labels(kind, ref, labels)
        self._bump(obj)
        self._trace("update", obj)
        self._hub.publish(WatchEvent(EventType.MODIFIED, obj))
        return obj

    def patch(self, obj: ApiObject, mutate: Callable[[ApiObject], None]) -> ApiObject:
        """Apply ``mutate(obj)`` then record the update."""
        mutate(obj)
        return self.update(obj)

    def delete(self, obj: ApiObject) -> None:
        """Delete an object.

        Bound, unfinished pods are deleted *gracefully*: the object is marked
        terminating and stays in the store until the kubelet finalizes it.
        Everything else is removed immediately.
        """
        self._stored(obj.kind, (obj.namespace, obj.name))
        graceful = (
            obj.kind == "Pod"
            and getattr(obj, "is_bound", False)
            and not getattr(obj, "is_finished", False)
        )
        if graceful and not obj.terminating:
            obj.meta.deletion_timestamp = self.engine.now
            self._bump(obj)
            self._trace("terminate", obj)
            self._hub.publish(WatchEvent(EventType.MODIFIED, obj))
            return
        self.finalize_delete(obj)

    def finalize_delete(self, obj: ApiObject) -> None:
        """Remove the object from the store; publishes ``DELETED``."""
        kind = obj.kind
        ref = (obj.namespace, obj.name)
        self._stored(kind, ref)
        del self._kinds[kind][ref]
        self._unindex_labels(kind, ref)
        self._bump(obj)
        self._trace("delete", obj)
        self._hub.publish(WatchEvent(EventType.DELETED, obj))

    # ------------------------------------------------------------------
    # Watches
    # ------------------------------------------------------------------

    def watch(
        self,
        handler,
        kind: Optional[str] = None,
        namespace: Optional[str] = None,
        replay: bool = True,
    ):
        """Subscribe to changes.

        With ``replay`` (the default, mirroring list+watch), existing
        matching objects are delivered as synthetic ``ADDED`` events before
        any live event.
        """
        watch = self._hub.subscribe(handler, kind=kind, namespace=namespace)
        if replay:
            kinds = sorted(self._kinds) if kind is None else [kind]
            for store in (self._kinds.get(k, {}) for k in kinds):
                for ref in sorted(store):
                    watch.deliver(WatchEvent(EventType.ADDED, store[ref]))
        return watch

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _stored(self, kind: str, ref: tuple) -> ApiObject:
        try:
            return self._kinds[kind][ref]
        except KeyError:
            raise NotFoundError(f"{kind} {ref[0]}/{ref[1]} not found") from None

    def _index_labels(self, kind: str, ref: tuple, labels: Dict[str, str]) -> None:
        for label, value in labels.items():
            self._by_label.setdefault((kind, label, value), set()).add(ref)
        self._indexed_labels[(kind, ref)] = dict(labels)

    def _unindex_labels(self, kind: str, ref: tuple) -> None:
        by_label = self._by_label
        for label, value in self._indexed_labels.pop((kind, ref)).items():
            bucket = by_label[(kind, label, value)]
            bucket.discard(ref)
            if not bucket:
                del by_label[(kind, label, value)]

    def _bump(self, obj: ApiObject) -> None:
        self._version += 1
        obj.meta.resource_version = self._version

    def _trace(self, verb: str, obj: ApiObject) -> None:
        if self.tracer is not None:
            self.tracer.emit(
                f"k8s.api.{verb}",
                f"{obj.kind} {obj.namespace}/{obj.name}",
                rv=obj.meta.resource_version,
            )

    def object_count(self, kind: Optional[str] = None) -> int:
        if kind is None:
            return sum(len(store) for store in self._kinds.values())
        return len(self._kinds.get(kind, ()))
