"""The Charm++ runtime system (RTS).

Owns the PE set, chare arrays, location management, message routing,
reductions, quiescence detection, and load balancing — the §2.1 machinery
the elastic scheduler builds on.  Rescaling (shrink/expand) is orchestrated
by :mod:`repro.charm.rescale` on top of the hooks exposed here.

Virtual time model
------------------
* message delivery costs come from the configured
  :class:`~repro.charm.commlayer.CommLayer` (α/β, same-node aware);
* entry-method compute is whatever the method :meth:`~Chare.charge`\\ s;
* reductions pay a log-tree cost.

Real state, modelled time: chare data is genuine Python/numpy state and
migrations/checkpoints serialize it for real — only *time* is simulated.

Lifecycle
---------
A runtime boots its PEs on construction, restarts them in place on every
rescale (:meth:`CharmRuntime.replace_pes`), and ends in one of two ways:
:meth:`CharmRuntime.shutdown` kills the PE loops and keeps the state
readable (a crashed or aborted application), while
:meth:`CharmRuntime.close` also unbinds the chares and drops the PEs,
arrays, locations and reductions, so a completed application's runtime is
freed by reference counting.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import CharmError, LocationError
from ..sim import Engine, Event
from .chare import ArrayProxy, Chare, ChareArray
from .commlayer import MPI_LAYER, CommLayer
from .loadbalance import LBResult, get_strategy
from .location import LocationManager
from .message import Envelope
from .pe import PE, HostBinding
from .reduction import ReductionManager

__all__ = ["CharmRuntime"]


class CharmRuntime:
    """A running Charm++ application instance.

    Parameters
    ----------
    engine:
        Simulation engine providing virtual time.
    num_pes:
        Initial PE count (non-SMP: one PE per process/worker pod).
    commlayer:
        Machine-layer cost model (``MPI_LAYER`` by default, the build the
        paper contributes rescaling support for).
    hosts:
        Optional per-PE :class:`HostBinding` list (worker pods).  Length
        must equal ``num_pes``; defaults to standalone local bindings.
    """

    def __init__(
        self,
        engine: Engine,
        num_pes: int,
        commlayer: CommLayer = MPI_LAYER,
        hosts: Optional[Sequence[HostBinding]] = None,
        tracer=None,
    ):
        if num_pes < 1:
            raise CharmError("runtime needs at least one PE")
        self.engine = engine
        self.commlayer = commlayer
        self.tracer = tracer
        self._pes: Dict[int, PE] = {}
        self._arrays: Dict[int, ChareArray] = {}
        self._next_array_id = 0
        self._loc = LocationManager()
        self._reductions = ReductionManager(engine, commlayer, tracer=tracer)
        self._loads: Dict[tuple, float] = {}
        self._sent = 0
        self._delivered = 0
        self._quiescence_waiters: List[Event] = []
        self._current_pe: Optional[int] = None
        self._generation = 0  # bumped on every restart (rescale)
        self.rescale_count = 0
        self._boot_pes(num_pes, hosts)

    # ------------------------------------------------------------------
    # PE management
    # ------------------------------------------------------------------

    def _boot_pes(self, num_pes: int, hosts: Optional[Sequence[HostBinding]]) -> None:
        if hosts is not None and len(hosts) != num_pes:
            raise CharmError(
                f"hosts has {len(hosts)} entries for {num_pes} PEs"
            )
        for pe_id in range(num_pes):
            host = hosts[pe_id] if hosts is not None else None
            pe = PE(self.engine, pe_id, host=host)
            pe._process = self.engine.process(self._pe_loop(pe), name=f"pe-{pe_id}")
            self._pes[pe_id] = pe
        self._num_pes = num_pes

    @property
    def num_pes(self) -> int:
        """The PE count; after :meth:`close`, the final one."""
        return self._num_pes

    @property
    def pes(self) -> List[PE]:
        return [self._pes[k] for k in sorted(self._pes)]

    def pe(self, pe_id: int) -> PE:
        try:
            return self._pes[pe_id]
        except KeyError:
            raise CharmError(f"no such PE {pe_id}") from None

    # ------------------------------------------------------------------
    # Arrays and proxies
    # ------------------------------------------------------------------

    def create_array(
        self,
        cls,
        indices: Iterable[Any],
        args: tuple = (),
        kwargs: Optional[dict] = None,
        mapping: str = "block",
    ) -> ArrayProxy:
        """Instantiate a chare array over the current PE set.

        ``mapping`` is ``"block"`` (contiguous index ranges per PE, the
        Charm++ default for dense arrays) or ``"roundrobin"``.
        """
        if not issubclass(cls, Chare):
            raise CharmError(f"{cls.__name__} must derive from Chare")
        indices = list(indices)
        if not indices:
            raise CharmError("chare array needs at least one element")
        array = ChareArray(self._next_array_id, cls, indices)
        self._next_array_id += 1
        self._arrays[array.array_id] = array
        self._reductions.register_array(array.array_id)
        pe_ids = sorted(self._pes)
        placements = _place(indices, pe_ids, mapping)
        for index, pe_id in placements:
            chare = cls(index, *args, **(kwargs or {}))
            self._install(array.array_id, index, chare, pe_id)
        if self.tracer is not None:
            self.tracer.emit(
                "charm.array.create", f"{cls.__name__} x{len(indices)}",
                array=array.array_id, pes=len(pe_ids),
            )
        return ArrayProxy(self, array.array_id)

    def array(self, array_id: int) -> ChareArray:
        try:
            return self._arrays[array_id]
        except KeyError:
            raise CharmError(f"no such array {array_id}") from None

    def proxy_for(self, array_id: int) -> ArrayProxy:
        self.array(array_id)
        return ArrayProxy(self, array_id)

    def _install(self, array_id: int, index: Any, chare: Chare, pe_id: int) -> None:
        chare._bind(self, array_id)
        self._pes[pe_id].add_chare((array_id, index), chare)
        self._loc.register(array_id, index, pe_id)

    def element(self, array_id: int, index: Any) -> Chare:
        """Direct access to a chare object (tests/diagnostics only)."""
        pe_id = self._loc.lookup(array_id, index)
        chare = self._pes[pe_id].get_chare((array_id, index))
        if chare is None:
            raise CharmError(f"array {array_id} element {index!r} missing on PE {pe_id}")
        return chare

    def elements(self, array_id: int) -> List[Chare]:
        return [self.element(array_id, ix) for ix in self.array(array_id).indices]

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------

    def send(self, array_id: int, index: Any, method: str,
             args: tuple = (), kwargs: Optional[dict] = None) -> None:
        """Send an entry-method invocation to one element."""
        env = Envelope(
            array_id=array_id, index=index, method=method,
            args=args, kwargs=dict(kwargs or {}),
            src_pe=self._current_pe, send_time=self.engine.now,
        )
        dest = self._loc.lookup(array_id, index)
        self._route(env, dest)

    def broadcast(self, array_id: int, method: str,
                  args: tuple = (), kwargs: Optional[dict] = None) -> None:
        """Send an entry method to every element (tree-cost latency)."""
        array = self.array(array_id)
        extra = self.commlayer.barrier_time(self.num_pes)
        for index in array.indices:
            env = Envelope(
                array_id=array_id, index=index, method=method,
                args=args, kwargs=dict(kwargs or {}),
                src_pe=self._current_pe, send_time=self.engine.now,
            )
            dest = self._loc.lookup(array_id, index)
            self._route(env, dest, extra_latency=extra)

    def _route(self, env: Envelope, dest_pe_id: int, extra_latency: float = 0.0) -> None:
        dest = self._pes.get(dest_pe_id)
        if dest is None or not dest.alive:
            raise CharmError(
                f"cannot route {env!r}: PE {dest_pe_id} is not alive"
            )
        same_node = False
        if env.src_pe is not None and env.src_pe in self._pes:
            same_node = self._pes[env.src_pe].node_name == dest.node_name
        latency = self.commlayer.latency(env.size_bytes, same_node=same_node)
        self._sent += 1
        generation = self._generation
        self.engine.schedule(latency + extra_latency, self._arrive, env, dest, generation)

    def _arrive(self, env: Envelope, dest: PE, generation: int) -> None:
        if generation != self._generation:
            # The runtime restarted (rescale) while this message was in
            # flight; rescales only happen at quiescence so this indicates
            # a protocol violation.
            raise CharmError(f"message {env!r} crossed a restart boundary")
        dest.enqueue(env)

    def _pe_loop(self, pe: PE):
        while True:
            env = yield pe.queue.get()
            key = (env.array_id, env.index)
            try:
                current = self._loc.lookup(env.array_id, env.index)
            except LocationError:
                raise CharmError(f"delivery to unknown element {key}") from None
            if current != pe.id:
                # The chare migrated after this message was queued: forward,
                # as Charm++'s location manager does.
                env.hops += 1
                self._delivered += 1  # this leg is done...
                self._route(env, current)  # ...and a new leg begins
                self._maybe_quiescent()
                continue
            chare = pe.get_chare(key)
            if chare is None:
                raise CharmError(f"location says PE {pe.id} hosts {key} but it doesn't")
            pe.busy = True
            self._current_pe = pe.id
            try:
                handler = getattr(chare, env.method)
            except AttributeError:
                raise CharmError(
                    f"{type(chare).__name__} has no entry method {env.method!r}"
                ) from None
            handler(*env.args, **env.kwargs)
            self._current_pe = None
            cost = chare._consume_charge()
            if cost > 0.0:
                yield cost
                pe.busy_time += cost
                self._loads[key] = self._loads.get(key, 0.0) + cost
            pe.busy = False
            pe.delivered_count += 1
            self._delivered += 1
            self._maybe_quiescent()

    # ------------------------------------------------------------------
    # Quiescence
    # ------------------------------------------------------------------

    @property
    def quiescent(self) -> bool:
        """True when no message is in flight, queued, or being executed."""
        return self._sent == self._delivered

    def wait_quiescence(self) -> Event:
        """Event that fires (with ``None``) at the next quiescent point."""
        ev = Event(self.engine, name="quiescence")
        if self.quiescent:
            ev.succeed(None)
        else:
            self._quiescence_waiters.append(ev)
        return ev

    def _maybe_quiescent(self) -> None:
        if self._sent == self._delivered and self._quiescence_waiters:
            waiters, self._quiescence_waiters = self._quiescence_waiters, []
            for ev in waiters:
                ev.succeed(None)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------

    def contribute(self, array_id: int, index: Any, value: Any, op: str) -> None:
        expected = self.array(array_id).num_elements
        self._reductions.contribute(array_id, index, value, op, expected, self.num_pes)

    def next_reduction(self, proxy_or_id) -> Event:
        """Event yielding the next completed reduction of an array."""
        array_id = getattr(proxy_or_id, "array_id", proxy_or_id)
        return self._reductions.results_queue(array_id).get()

    # ------------------------------------------------------------------
    # Migration and load balancing
    # ------------------------------------------------------------------

    def location_of(self, array_id: int, index: Any) -> int:
        return self._loc.lookup(array_id, index)

    def migrate(self, array_id: int, index: Any, dest_pe: int) -> int:
        """Move one chare; returns its PUP size in bytes."""
        if dest_pe not in self._pes or not self._pes[dest_pe].alive:
            raise CharmError(f"cannot migrate to dead/unknown PE {dest_pe}")
        src_pe = self._loc.lookup(array_id, index)
        if src_pe == dest_pe:
            return 0
        key = (array_id, index)
        chare = self._pes[src_pe].pop_chare(key)
        self._pes[dest_pe].add_chare(key, chare)
        self._loc.move(array_id, index, dest_pe)
        return chare.pup_bytes()

    def chare_loads(self) -> Dict[tuple, float]:
        """Measured load per element since the last reset (LB input).

        Elements that never charged get a nominal epsilon so placement stays
        well-defined for compute-free test apps.
        """
        loads = {}
        for key in self._loc.all_elements():
            loads[key] = self._loads.get(key, 1e-9)
        return loads

    def reset_loads(self) -> None:
        self._loads.clear()
        for pe in self._pes.values():
            pe.reset_load()

    def load_balance(
        self,
        strategy: str = "greedy",
        exclude_pes: Iterable[int] = (),
        reset: bool = True,
    ) -> LBResult:
        """Run a load-balancing step (must be called at quiescence).

        Returns an :class:`LBResult` whose ``cost_seconds`` the caller is
        responsible for advancing (drivers ``yield result.cost_seconds``).
        """
        if not self.quiescent:
            raise CharmError("load balancing requires quiescence (AtSync)")
        exclude = set(exclude_pes)
        allowed = [pe_id for pe_id in sorted(self._pes) if pe_id not in exclude]
        if not allowed:
            raise CharmError("load balancing needs at least one allowed PE")
        strategy_fn = get_strategy(strategy)
        assignment = {key: self._loc.lookup(*key) for key in self._loc.all_elements()}
        moves = strategy_fn(self.chare_loads(), assignment, allowed)
        moved_bytes = 0
        for key, dest in moves.items():
            moved_bytes += self.migrate(key[0], key[1], dest)
        cost = self._lb_cost(len(moves), moved_bytes)
        if reset:
            self.reset_loads()
        result = LBResult(
            strategy=strategy, moves=len(moves),
            moved_bytes=moved_bytes, cost_seconds=cost,
        )
        if self.tracer is not None:
            self.tracer.emit(
                "charm.lb", strategy, moves=result.moves,
                bytes=moved_bytes, cost=round(cost, 6),
            )
        return result

    def _lb_cost(self, move_count: int, moved_bytes: int) -> float:
        # Stats collection is a reduction; migrations pay α+bytes/β each.
        cost = self.commlayer.barrier_time(self.num_pes) * 2
        cost += move_count * self.commlayer.alpha
        cost += moved_bytes / self.commlayer.beta
        return cost

    # ------------------------------------------------------------------
    # Restart hooks (used by repro.charm.rescale and checkpoint/restore)
    # ------------------------------------------------------------------

    def snapshot_elements(self) -> List[Tuple[int, Any]]:
        """All (array_id, index) keys in deterministic order."""
        return self._loc.all_elements()

    def replace_pes(self, num_pes: int, hosts: Optional[Sequence[HostBinding]] = None) -> None:
        """Kill every PE and boot a fresh set (the 'restart' of §2.2).

        All chares must have been checkpointed first; their in-memory
        instances die with the PEs.  The caller restores them afterwards.
        """
        if not self.quiescent:
            raise CharmError("restart requires quiescence")
        for pe in self._pes.values():
            pe.kill()
        self._pes.clear()
        self._loc.clear()
        self._loads.clear()
        self._generation += 1
        self._boot_pes(num_pes, hosts)

    def reinstall(self, array_id: int, index: Any, chare: Chare, pe_id: int) -> None:
        """Re-register a restored chare on a (new) PE."""
        if array_id not in self._arrays:
            raise CharmError(f"cannot reinstall into unknown array {array_id}")
        self._install(array_id, index, chare, pe_id)

    def reset_reductions(self, array_id: int) -> None:
        self._reductions.reset_membership(array_id)

    def shutdown(self) -> None:
        """Stop all PE loops (end of application)."""
        for pe in self._pes.values():
            pe.kill()

    def close(self) -> None:
        """Stop all PE loops and free the runtime (application completed).

        Each chare's ``_rts`` is the only edge back to the runtime, so
        unbinding the chares and dropping the PEs, arrays, locations and
        reductions lets reference counting free them without the cyclic
        collector.  :attr:`num_pes` keeps reporting the final width.
        """
        for pe in self._pes.values():
            pe.kill()
            for chare in pe.chares.values():
                chare._unbind()
        self._pes.clear()
        self._arrays.clear()
        self._loc.clear()
        self._loads.clear()
        self._reductions.clear()

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {
            "num_pes": self.num_pes,
            "elements": len(self._loc),
            "sent": self._sent,
            "delivered": self._delivered,
            "rescales": self.rescale_count,
            "population": self._loc.population(),
        }


def _place(indices: List[Any], pe_ids: List[int], mapping: str) -> List[Tuple[Any, int]]:
    n, p = len(indices), len(pe_ids)
    if mapping == "block":
        base, rem = divmod(n, p)
        placements = []
        cursor = 0
        for rank, pe_id in enumerate(pe_ids):
            count = base + (1 if rank < rem else 0)
            for index in indices[cursor : cursor + count]:
                placements.append((index, pe_id))
            cursor += count
        return placements
    if mapping == "roundrobin":
        return [(index, pe_ids[i % p]) for i, index in enumerate(indices)]
    raise CharmError(f"unknown mapping {mapping!r}")
