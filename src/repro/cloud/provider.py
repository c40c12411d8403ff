"""Node pools and the simulated cloud provider.

The paper's scheduler runs *on the cloud* (§2), where cluster capacity is
bought, not given: nodes take real time to provision, cost real money per
second, and — on the spot market — can be reclaimed by the provider with
no regard for what is running on them.  This module models exactly that
surface and nothing more:

* :class:`NodePool` — an instance-type configuration (slots per node,
  price, provision/teardown latency, fleet limits, and — for spot pools —
  a mean lifetime for the exponential interruption process);
* :class:`Node` — one machine's lifecycle
  (``provisioning → ready → draining → released``) with the timestamps
  the billing meter prices;
* :class:`CloudProvider` — the node ledger over the shared event engine:
  it owns the provisioning/interruption timers and reports lifecycle
  transitions to the substrate through two callbacks.

Interruptions draw from :func:`repro.sim.rng.stream`, keyed by the
provider seed and the pool name, so every trial's spot weather is
reproducible and independent of any other randomness in the simulation
(the CLUES elasticity manager's power-on/power-off ledger is the shape
reference here; the spot process is the cloud twist on top).
"""

from __future__ import annotations

import enum
import itertools
import math
from bisect import insort
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import CloudError, ProvisioningError
from ..sim.rng import stream

__all__ = ["NodePool", "Node", "NodeState", "CloudProvider"]

_node_id = attrgetter("id")


class NodeState(str, enum.Enum):
    PROVISIONING = "Provisioning"
    READY = "Ready"
    DRAINING = "Draining"
    RELEASED = "Released"


@dataclass(frozen=True)
class NodePool:
    """One instance-type configuration the provider can allocate from.

    Parameters
    ----------
    slots_per_node:
        Scheduler slots (vCPUs) one node contributes.
    price_per_hour:
        On-demand or spot price in dollars per node-hour.
    provision_delay:
        Seconds between requesting a node and its capacity coming online.
    teardown_delay:
        Seconds a released node keeps billing while it deprovisions.
    min_nodes / max_nodes:
        Fleet bounds the autoscaler must respect.
    initial_nodes:
        Nodes already running (and billing) when the simulation starts —
        the fixed cluster every pre-cloud layer assumed.
    spot:
        Spot-market pool: cheaper, but interruptible.
    mean_lifetime:
        Mean of the exponential time-to-interruption for ready spot
        nodes; ``None`` disables interruptions (an on-demand pool in all
        but price).
    """

    name: str
    slots_per_node: int
    price_per_hour: float
    provision_delay: float = 60.0
    teardown_delay: float = 0.0
    min_nodes: int = 0
    max_nodes: int = 16
    initial_nodes: int = 0
    spot: bool = False
    mean_lifetime: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise CloudError(f"pool name must be a non-empty string, got {self.name!r}")
        if self.slots_per_node < 1:
            raise CloudError(f"{self.name}: slots_per_node must be >= 1")
        if self.price_per_hour < 0:
            raise CloudError(f"{self.name}: price_per_hour must be non-negative")
        if self.provision_delay < 0 or self.teardown_delay < 0:
            raise CloudError(f"{self.name}: provisioning delays must be non-negative")
        if not 0 <= self.min_nodes <= self.max_nodes:
            raise CloudError(
                f"{self.name}: need 0 <= min_nodes <= max_nodes, got "
                f"[{self.min_nodes}, {self.max_nodes}]"
            )
        if not self.min_nodes <= self.initial_nodes <= self.max_nodes:
            raise CloudError(
                f"{self.name}: initial_nodes ({self.initial_nodes}) outside "
                f"[{self.min_nodes}, {self.max_nodes}]"
            )
        if self.mean_lifetime is not None:
            if not self.spot:
                raise CloudError(
                    f"{self.name}: mean_lifetime only applies to spot pools"
                )
            if not self.mean_lifetime > 0 or math.isnan(self.mean_lifetime):
                raise CloudError(f"{self.name}: mean_lifetime must be positive")


class Node:
    """One machine: lifecycle state plus the timestamps billing prices."""

    __slots__ = (
        "id",
        "pool",
        "state",
        "requested_at",
        "ready_at",
        "released_at",
        "drain_remaining",
        "interrupted",
        "provision_failed",
    )

    def __init__(self, node_id: int, pool: NodePool, requested_at: float):
        self.id = node_id
        self.pool = pool
        self.state = NodeState.PROVISIONING
        #: Billing starts here — the cloud charges while the node boots.
        self.requested_at = requested_at
        self.ready_at: Optional[float] = None
        #: Billing ends here (teardown included); ``None`` while alive.
        self.released_at: Optional[float] = None
        #: Slots of this node the scheduler still holds while draining.
        self.drain_remaining = 0
        self.interrupted = False
        #: The boot attempt failed (injected fault) — never came online.
        self.provision_failed = False

    @property
    def slots(self) -> int:
        return self.pool.slots_per_node

    @property
    def alive(self) -> bool:
        return self.state in (NodeState.PROVISIONING, NodeState.READY,
                              NodeState.DRAINING)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.pool.name}/{self.id} {self.state.value}>"


class CloudProvider:
    """The node ledger: provisioning, draining, interruption, release.

    The provider never talks to the policy engine; it reports capacity
    transitions to whoever bound it (the cloud simulator) via callbacks:

    ``on_ready(node)``
        A requested node finished provisioning; its slots may join the
        cluster.
    ``on_interrupt(node, slots_held)``
        A spot node was reclaimed; ``slots_held`` is the capacity the
        scheduler still held on it (a draining node has already given
        part back).
    """

    def __init__(self, pools: Sequence[NodePool], seed: int = 0,
                 faults=None):
        pools = tuple(pools)
        if not pools:
            raise CloudError("CloudProvider needs at least one pool")
        names = [pool.name for pool in pools]
        if len(set(names)) != len(names):
            raise CloudError(f"pool names must be unique, got {names}")
        self.pools: Tuple[NodePool, ...] = pools
        self.seed = int(seed)
        #: Optional :class:`repro.faults.FaultInjector`.  When ``None``
        #: (the default) every fault path below is skipped outright, so a
        #: fault-free provider is byte-identical to the pre-fault one.
        self.faults = faults
        self.nodes: List[Node] = []
        #: Nodes not yet released (provisioning/ready/draining), in id
        #: order.  The full ledger ``nodes`` grows with every replacement
        #: ever provisioned (billing needs it); the live set stays fleet
        #: sized.  The per-event questions the simulator asks (fleet
        #: size, booting nodes, pool headroom, in-flight drains) do not
        #: scan it either: :meth:`_move` keeps counters per state and per
        #: pool, plus the draining nodes, on every lifecycle transition,
        #: and :meth:`check_invariants` recounts them from this list.
        self._live: List[Node] = []
        self._provisioning = 0
        self._ready = 0
        self._ready_slots = 0
        #: Provisioning + ready nodes per pool name (what max_nodes caps).
        self._pool_active: Dict[str, int] = {pool.name: 0 for pool in pools}
        #: Draining nodes in id (ledger) order, the order drains advance.
        self._draining: List[Node] = []
        #: Pools are frozen, so the fleet bounds are fixed at construction.
        self.min_total_nodes = sum(pool.min_nodes for pool in pools)
        self.max_total_nodes = sum(pool.max_nodes for pool in pools)
        self.interruptions = 0
        self.crashes = 0
        self.provision_failures = 0
        self.provision_timeouts = 0
        self.provision_retries = 0
        self.capacity_shortages = 0
        self._engine = None
        self._on_ready: Optional[Callable[[Node], None]] = None
        self._on_interrupt: Optional[Callable[[Node, int], None]] = None
        self._on_interrupt_notice: Optional[
            Callable[[Node, float], None]] = None
        self._on_provision_failed: Optional[
            Callable[[Node, bool], None]] = None
        self._ids = itertools.count(1)
        self._spot_rng: Dict[str, object] = {
            pool.name: stream(self.seed, f"cloud.spot.{pool.name}")
            for pool in pools
            if pool.spot and pool.mean_lifetime is not None
        }

    # ------------------------------------------------------------------
    # Binding and the initial fleet
    # ------------------------------------------------------------------

    def bind(
        self,
        engine,
        on_ready: Optional[Callable[[Node], None]] = None,
        on_interrupt: Optional[Callable[[Node, int], None]] = None,
        on_interrupt_notice: Optional[Callable[[Node, float], None]] = None,
        on_provision_failed: Optional[Callable[[Node, bool], None]] = None,
    ) -> None:
        """Attach to the event engine and materialize the initial fleet.

        Initial nodes come up ready instantly (they are the cluster the
        experiment starts with) — no ``on_ready`` callback fires for
        them, but initial *spot* nodes do get their interruption draw.

        The two fault callbacks only ever fire when a fault injector is
        attached: ``on_interrupt_notice(node, notice)`` announces a
        reclaim ``notice`` seconds before it lands, and
        ``on_provision_failed(node, will_retry)`` reports a failed boot
        attempt (``will_retry`` says the provider will try again).
        """
        if self._engine is not None:
            raise CloudError("CloudProvider is already bound to an engine")
        self._engine = engine
        self._on_ready = on_ready
        self._on_interrupt = on_interrupt
        self._on_interrupt_notice = on_interrupt_notice
        self._on_provision_failed = on_provision_failed
        for pool in self.pools:
            for _ in range(pool.initial_nodes):
                node = self._new_node(pool)
                self._move(node, NodeState.READY)
                node.ready_at = engine.now
                self._schedule_interruption(node)
        if self.faults is not None:
            self.faults.bind(self, engine)

    def _require_engine(self):
        if self._engine is None:
            raise CloudError("CloudProvider.bind() must be called first")
        return self._engine

    # ------------------------------------------------------------------
    # Capacity views
    # ------------------------------------------------------------------

    def nodes_in(self, pool: NodePool, *states: NodeState) -> List[Node]:
        wanted = states or (NodeState.PROVISIONING, NodeState.READY,
                            NodeState.DRAINING)
        return [n for n in self._live if n.pool is pool and n.state in wanted]

    @property
    def ready_slots(self) -> int:
        """Slots on ready nodes (what the scheduler can currently hold)."""
        return self._ready_slots

    @property
    def active_count(self) -> int:
        """Fleet size counted for scaling: provisioning + ready nodes."""
        return self._provisioning + self._ready

    @property
    def pending_count(self) -> int:
        """Nodes still provisioning."""
        return self._provisioning

    @property
    def draining_count(self) -> int:
        return len(self._draining)

    @property
    def active_nodes(self) -> List[Node]:
        """Nodes the fleet counts for scaling: provisioning or ready."""
        return [n for n in self._live if n.state is not NodeState.DRAINING]

    @property
    def draining_nodes(self) -> List[Node]:
        """A snapshot of the draining nodes, oldest first."""
        return list(self._draining)

    @property
    def nodes_provisioned(self) -> int:
        return len(self.nodes)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def request_node(self, pool: Optional[NodePool] = None) -> Node:
        """Start provisioning one node; capacity arrives after the delay.

        With no explicit pool, the first pool with headroom (declaration
        order) takes the request — declare the cheap spot pool first to
        prefer it, or last to use it as overflow.
        """
        self._require_engine()
        if pool is None:
            pool = self._open_pool()
            if pool is None:
                raise ProvisioningError("every pool is at max_nodes")
        elif pool not in self.pools:
            raise CloudError(f"pool {pool.name!r} is not one of this "
                             f"provider's pools")
        elif self._pool_active[pool.name] >= pool.max_nodes:
            raise ProvisioningError(f"pool {pool.name!r} is at max_nodes")
        return self._provision(pool, attempt=0)

    def _open_pool(self) -> Optional[NodePool]:
        """The first pool (declaration order) below its ``max_nodes``."""
        active = self._pool_active
        for pool in self.pools:
            if active[pool.name] < pool.max_nodes:
                return pool
        return None

    def _provision(self, pool: NodePool, attempt: int) -> Node:
        """One boot attempt; the fault injector decides its fate."""
        engine = self._engine
        node = self._new_node(pool)
        verdict = (
            self.faults.provision_outcome(pool, engine.now)
            if self.faults is not None else None
        )
        if verdict is None:
            # Never cancelled (cancel_node flips the node's state and the
            # callback self-guards), so the plain-entry path applies.
            engine.post(pool.provision_delay, self._node_ready, node)
        else:
            # Doomed attempt: it bills while it burns (requested_at up to
            # the failure detection), then reports through the failure
            # callback and — per the retry policy — tries again.
            kind, delay = verdict
            engine.post(delay, self._provision_failed, node, attempt, kind)
        return node

    def _provision_failed(self, node: Node, attempt: int,
                          kind: str) -> None:
        if node.state != NodeState.PROVISIONING:
            return  # cancelled while (not) booting
        self._move(node, NodeState.RELEASED)
        node.released_at = self._engine.now
        node.provision_failed = True
        self.provision_failures += 1
        if kind == "timeout":
            self.provision_timeouts += 1
        elif kind == "shortage":
            self.capacity_shortages += 1
        retry = self.faults.retry
        will_retry = retry is not None and attempt < retry.max_retries
        if self._on_provision_failed is not None:
            self._on_provision_failed(node, will_retry)
        if will_retry:
            self.provision_retries += 1
            self._engine.post(
                self.faults.backoff(attempt),
                self._retry_provision, node.pool, attempt + 1,
            )

    def _retry_provision(self, pool: NodePool, attempt: int) -> None:
        if self._pool_active[pool.name] >= pool.max_nodes:
            return  # the fleet recovered by other means; drop the retry
        self._provision(pool, attempt)

    def has_headroom(self) -> bool:
        """Whether any pool can still take a node request."""
        return self._open_pool() is not None

    def _node_ready(self, node: Node) -> None:
        if node.state != NodeState.PROVISIONING:
            return  # cancelled while booting
        self._move(node, NodeState.READY)
        node.ready_at = self._engine.now
        self._schedule_interruption(node)
        if self._on_ready is not None:
            self._on_ready(node)

    def cancel_node(self, node: Node) -> None:
        """Abort a node that is still provisioning (billed until now)."""
        if node.state != NodeState.PROVISIONING:
            raise ProvisioningError(
                f"cannot cancel node in state {node.state.value}"
            )
        self._move(node, NodeState.RELEASED)
        node.released_at = self._engine.now

    def begin_drain(self, node: Node) -> None:
        """Cordon a ready node: its slots leave the cluster as they free."""
        if node.state != NodeState.READY:
            raise ProvisioningError(
                f"cannot drain node in state {node.state.value}"
            )
        self._move(node, NodeState.DRAINING)
        node.drain_remaining = node.slots

    def drained(self, node: Node, slots: int) -> bool:
        """Record ``slots`` reclaimed from a draining node.

        Returns True (and releases the node) once nothing remains.
        """
        if node.state != NodeState.DRAINING:
            raise ProvisioningError(
                f"cannot drain node in state {node.state.value}"
            )
        if slots < 0 or slots > node.drain_remaining:
            raise ProvisioningError(
                f"drained {slots} slots from a node holding "
                f"{node.drain_remaining}"
            )
        node.drain_remaining -= slots
        if node.drain_remaining == 0:
            self.release_node(node)
            return True
        return False

    def release_node(self, node: Node) -> None:
        """Give a node back; billing runs through the teardown window."""
        if not node.alive:
            raise ProvisioningError(f"node {node.id} is already released")
        self._move(node, NodeState.RELEASED)
        node.drain_remaining = 0
        node.released_at = self._engine.now + node.pool.teardown_delay

    # ------------------------------------------------------------------
    # Live-node bookkeeping
    # ------------------------------------------------------------------

    def _new_node(self, pool: NodePool) -> Node:
        """Ledger a fresh node; it starts out provisioning."""
        node = Node(next(self._ids), pool, self._engine.now)
        self.nodes.append(node)
        self._live.append(node)
        self._tally(node, 1)
        return node

    def _move(self, node: Node, state: NodeState) -> None:
        """The one lifecycle transition: set the state, keep the counters."""
        self._tally(node, -1)
        node.state = state
        self._tally(node, 1)
        if state is NodeState.RELEASED:
            self._live.remove(node)

    def _tally(self, node: Node, sign: int) -> None:
        """Add (``sign=1``) or remove (``-1``) ``node`` in its state's books."""
        state = node.state
        if state is NodeState.DRAINING:
            if sign > 0:
                insort(self._draining, node, key=_node_id)
            else:
                self._draining.remove(node)
            return
        if state is NodeState.PROVISIONING:
            self._provisioning += sign
        elif state is NodeState.READY:
            self._ready += sign
            self._ready_slots += sign * node.slots
        else:
            return  # released nodes are in no books
        self._pool_active[node.pool.name] += sign

    def check_invariants(self) -> None:
        """Recount the live set and compare it with the kept counters.

        Raises :class:`CloudError` (never ``assert``, so the check also
        runs under ``python -O``) naming the first counter that drifted.
        """
        live = self._live
        if any(n.state is NodeState.RELEASED for n in live):
            raise CloudError("a released node is still in the live set")
        ready = [n for n in live if n.state is NodeState.READY]
        checks = [
            ("provisioning", self._provisioning,
             sum(1 for n in live if n.state is NodeState.PROVISIONING)),
            ("ready", self._ready, len(ready)),
            ("ready_slots", self._ready_slots, sum(n.slots for n in ready)),
        ]
        checks += [
            (f"pool {pool.name!r} active", self._pool_active[pool.name],
             len(self.nodes_in(pool, NodeState.PROVISIONING,
                               NodeState.READY)))
            for pool in self.pools
        ]
        for name, kept, value in checks:
            if kept != value:
                raise CloudError(
                    f"{name} count is {kept}, recount gives {value}")
        draining = [n for n in live if n.state is NodeState.DRAINING]
        if self._draining != draining:
            raise CloudError(
                f"draining list {[n.id for n in self._draining]} != "
                f"recount {[n.id for n in draining]}")

    # ------------------------------------------------------------------
    # Injected faults (driven by repro.faults.FaultInjector)
    # ------------------------------------------------------------------

    def fault_victim(self, pool_name: Optional[str] = None) -> Optional[Node]:
        """Deterministic target for a point fault: the oldest READY node
        (falling back to DRAINING), optionally restricted to one pool."""
        for state in (NodeState.READY, NodeState.DRAINING):
            for pool in self.pools:
                if pool_name is not None and pool.name != pool_name:
                    continue
                candidates = self.nodes_in(pool, state)
                if candidates:
                    return candidates[0]
        return None

    def crash_node(self, node: Node) -> None:
        """Kill a node outright — no notice, running work is lost."""
        if node.state not in (NodeState.READY, NodeState.DRAINING):
            return
        self.crashes += 1
        self._interrupt(node)

    def interrupt_with_notice(self, node: Node, notice: float) -> None:
        """Announce a reclaim ``notice`` seconds ahead (the spot-market
        "two-minute warning"), then take the node."""
        if node.state not in (NodeState.READY, NodeState.DRAINING):
            return
        if notice <= 0.0:
            self._interrupt(node)
            return
        if self._on_interrupt_notice is not None:
            self._on_interrupt_notice(node, float(notice))
        # The reclaim self-guards, so a node released meanwhile no-ops.
        self._engine.post(notice, self._interrupt, node)

    # ------------------------------------------------------------------
    # Spot interruptions
    # ------------------------------------------------------------------

    def _schedule_interruption(self, node: Node) -> None:
        rng = self._spot_rng.get(node.pool.name)
        if rng is None:
            return
        lifetime = float(rng.exponential(node.pool.mean_lifetime))
        # Reclaims on released nodes no-op in _interrupt; never cancelled.
        self._engine.post(lifetime, self._interrupt, node)

    def _interrupt(self, node: Node) -> None:
        if node.state not in (NodeState.READY, NodeState.DRAINING):
            return  # released before the reclaim landed
        slots_held = (
            node.drain_remaining
            if node.state == NodeState.DRAINING
            else node.slots
        )
        self._move(node, NodeState.RELEASED)
        node.drain_remaining = 0
        node.interrupted = True
        # A reclaimed instance is gone now — no teardown grace is billed.
        node.released_at = self._engine.now
        self.interruptions += 1
        if self._on_interrupt is not None:
            self._on_interrupt(node, slots_held)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ready = sum(1 for n in self.nodes if n.state == NodeState.READY)
        return (
            f"<CloudProvider pools={[p.name for p in self.pools]} "
            f"nodes={len(self.nodes)} ready={ready}>"
        )
