"""Chares, chare arrays, and proxies.

A chare is a migratable object addressed by an array index.  Entry methods
are invoked through proxies, which serialize the call into an
:class:`~repro.charm.message.Envelope` delivered via the runtime.  Chares
never hold direct references to each other — only proxies — which is what
makes them migratable.

Migration fidelity: chare state crosses checkpoints through real pickling
(``__getstate__`` strips runtime bindings), so a shrink/expand in this
substrate exercises genuine serialize/restore of application state.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from ..errors import CharmError

__all__ = ["Chare", "ChareArray", "ArrayProxy", "ElementProxy"]

#: Attributes stripped by __getstate__ and re-bound after migration/restore.
_RUNTIME_FIELDS = ("_rts", "_array_id", "_charged")


class Chare:
    """Base class for migratable objects.

    Subclasses implement entry methods as plain methods.  Inside an entry
    method, a chare may:

    * send messages via ``self.proxy`` / other proxies;
    * record virtual compute time via :meth:`charge`;
    * contribute to reductions via :meth:`contribute`;
    * request migration hints (the load balancer uses recorded load).
    """

    def __init__(self, index: Any):
        self.index = index
        self._rts = None
        self._array_id: Optional[int] = None
        self._charged = 0.0

    # ------------------------------------------------------------------
    # Runtime binding (managed by the RTS; not for application use)
    # ------------------------------------------------------------------

    def _bind(self, rts, array_id: int) -> None:
        self._rts = rts
        self._array_id = array_id
        self._charged = 0.0

    def _unbind(self) -> None:
        self._rts = None
        self._array_id = None

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        for field in _RUNTIME_FIELDS:
            state.pop(field, None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._rts = None
        self._array_id = None
        self._charged = 0.0

    # ------------------------------------------------------------------
    # Entry-method facilities
    # ------------------------------------------------------------------

    @property
    def proxy(self) -> "ArrayProxy":
        """Proxy to this chare's own array (``thisProxy`` in Charm++)."""
        return self._require_rts().proxy_for(self._array_id)

    @property
    def rts(self):
        return self._require_rts()

    @property
    def my_pe(self) -> int:
        """The PE currently hosting this chare."""
        return self._require_rts().location_of(self._array_id, self.index)

    def charge(self, seconds: float) -> None:
        """Record ``seconds`` of virtual compute for the current method.

        The hosting PE advances virtual time by the accumulated charge after
        the entry method returns; the load balancer uses the same number as
        the chare's measured load.
        """
        if seconds < 0:
            raise CharmError("cannot charge negative time")
        self._charged += seconds

    def contribute(self, value: Any, op: str = "sum") -> None:
        """Contribute to the current reduction over this chare's array."""
        self._require_rts().contribute(self._array_id, self.index, value, op)

    def migrate_me(self, dest_pe: int) -> None:
        """Explicitly migrate this chare (rarely needed; LB drives moves)."""
        self._require_rts().migrate(self._array_id, self.index, dest_pe)

    def pup_extra_bytes(self) -> int:
        """Additional *virtual* state bytes counted by PUP accounting.

        Modeled applications represent large problem data (e.g. a 2 GB grid
        block) without allocating it; they override this to report the
        nominal size so checkpoint/migration costs and /dev/shm capacity
        checks behave as if the data were real.  Real-compute apps return 0.
        """
        return 0

    def pup_bytes(self) -> int:
        """Serialized size of this chare's state (PUP accounting)."""
        from .message import payload_bytes

        real = 64 + sum(payload_bytes(v) for v in self.__getstate__().values())
        return real + self.pup_extra_bytes()

    def _consume_charge(self) -> float:
        charged, self._charged = self._charged, 0.0
        return charged

    def _require_rts(self):
        if self._rts is None:
            raise CharmError(
                f"chare {type(self).__name__}[{self.index}] is not bound to a runtime"
            )
        return self._rts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}[{self.index}]>"


class ChareArray:
    """Bookkeeping for one chare array (indices, class, proxy identity)."""

    def __init__(self, array_id: int, cls, indices: List[Any]):
        self.array_id = array_id
        self.cls = cls
        self.indices = list(indices)
        if len(set(self.indices)) != len(self.indices):
            raise CharmError("chare array indices must be unique")

    @property
    def num_elements(self) -> int:
        return len(self.indices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ChareArray #{self.array_id} {self.cls.__name__} n={self.num_elements}>"


class ElementProxy:
    """Proxy to a single array element: attribute access sends messages."""

    __slots__ = ("_rts", "_array_id", "_index")

    def __init__(self, rts, array_id: int, index: Any):
        self._rts = rts
        self._array_id = array_id
        self._index = index

    def __getattr__(self, method: str):
        if method.startswith("_"):
            raise AttributeError(method)
        rts, array_id, index = self._rts, self._array_id, self._index

        def entry(*args: Any, **kwargs: Any) -> None:
            rts.send(array_id, index, method, args, kwargs)

        entry.__name__ = method
        return entry


class ArrayProxy:
    """Proxy to a whole chare array.

    ``proxy[idx]`` addresses one element; :meth:`broadcast` sends an entry
    method to every element.
    """

    __slots__ = ("_rts", "_array_id")

    def __init__(self, rts, array_id: int):
        self._rts = rts
        self._array_id = array_id

    @property
    def array_id(self) -> int:
        return self._array_id

    def __getitem__(self, index: Any) -> ElementProxy:
        return ElementProxy(self._rts, self._array_id, index)

    def broadcast(self, method: str, *args: Any, **kwargs: Any) -> None:
        """Invoke ``method`` on every element of the array."""
        self._rts.broadcast(self._array_id, method, args, kwargs)

    def section(self, indices: Iterable[Any]) -> List[ElementProxy]:
        """Element proxies for a subset of indices (section multicast)."""
        return [self[ix] for ix in indices]

    @property
    def indices(self) -> List[Any]:
        return list(self._rts.array(self._array_id).indices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ArrayProxy #{self._array_id}>"
