"""Autoscaling policies: how many nodes should the fleet hold right now?

An autoscaler is a pure target function over the observable cluster
state: the simulator snapshots queue depth, slot occupancy, and fleet
size into a :class:`ClusterState` on every scheduling event (plus a
periodic tick) and reconciles the fleet toward
:meth:`Autoscaler.desired_nodes`.  Four policies ship:

* :class:`StaticAutoscaler` — never changes the fleet; with it the cloud
  substrate is bit-for-bit the fixed-capacity simulator every earlier
  layer assumed (the golden-equivalence tests pin this).
* :class:`QueueDepthAutoscaler` — scale out when queued jobs' minimum
  demand cannot fit in the free slots; scale in after the queue has been
  empty and a whole node's worth of slots idle for a cool-down.
* :class:`UtilizationAutoscaler` — hold occupancy inside a target band
  (scale out above ``high``, in below ``low``), with the queue-demand
  rule as a floor so a too-big job can never deadlock below the band.
* :class:`IdleTimeoutAutoscaler` — CLUES-style: power on exactly what a
  stuck queue needs, power off any whole-node chunk of capacity that has
  sat idle longer than ``idle_timeout`` (the indigo-dc elasticity
  manager's ``POWOFF`` rule, transplanted to slot arithmetic).

Autoscalers may keep state between evaluations (idle clocks); they are
constructed per-simulation and never shared.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Protocol, runtime_checkable

from ..errors import CloudError

__all__ = [
    "ClusterState",
    "Autoscaler",
    "StaticAutoscaler",
    "QueueDepthAutoscaler",
    "UtilizationAutoscaler",
    "IdleTimeoutAutoscaler",
    "ProvisioningCircuitBreaker",
    "make_autoscaler",
    "AUTOSCALER_NAMES",
]


class ClusterState(NamedTuple):
    """What an autoscaler may observe (one evaluation's snapshot).

    Immutable.  A named tuple rather than a frozen dataclass because the
    simulator builds one on every scheduling event, and a frozen
    dataclass's ``__init__`` (one ``object.__setattr__`` per field)
    costs several times the tuple's construction.
    """

    now: float
    #: Slots currently schedulable (ready nodes minus drained capacity).
    total_slots: int
    used_slots: int
    free_slots: int
    running_jobs: int
    queued_jobs: int
    #: Sum of ``min_replicas`` over the queue — the slots needed to start
    #: everything currently waiting.
    queued_demand: int
    #: Fleet size counted for scaling: provisioning + ready nodes.
    nodes: int
    pending_nodes: int
    #: Slots one additional node would contribute (first pool with
    #: headroom; scaling arithmetic assumes roughly homogeneous pools).
    slots_per_node: int

    @property
    def utilization(self) -> float:
        return self.used_slots / self.total_slots if self.total_slots else 1.0

    @property
    def unmet_demand(self) -> int:
        """Queue demand the current free slots cannot satisfy."""
        return max(0, self.queued_demand - self.free_slots)


@runtime_checkable
class Autoscaler(Protocol):
    """A fleet-size target policy."""

    name: str

    def desired_nodes(self, state: ClusterState) -> int:
        """The fleet size (provisioning + ready) this policy wants."""
        ...  # pragma: no cover - protocol


def _nodes_for(slots: int, slots_per_node: int) -> int:
    return int(math.ceil(slots / slots_per_node)) if slots > 0 else 0


class StaticAutoscaler:
    """The fixed-fleet baseline: today's constant cluster, as a policy.

    The target is the fleet size first observed, held forever — like a
    managed node group with a pinned desired count.  Without spot pools
    the fleet never deviates, so no capacity event ever fires and the
    run is decision-identical to the fixed-capacity simulator; *with*
    spot pools, holding the target is what replaces interrupted nodes
    (a static fleet that silently shrank on every reclaim could strand
    a rigid job whose pinned width needs the full cluster).
    """

    name = "static"

    def __init__(self):
        self._target: Optional[int] = None

    def desired_nodes(self, state: ClusterState) -> int:
        if self._target is None:
            self._target = state.nodes
        return self._target


class QueueDepthAutoscaler:
    """Scale out for unmet queue demand; scale in after a quiet cool-down.

    Scale-out is demand-sized, not step-sized: enough nodes to cover the
    queued jobs' minimum replicas that the free slots cannot.  Scale-in
    releases whole idle nodes, but only once the queue has been empty
    *and* at least one node's slots free for ``cooldown`` seconds —
    avoiding thrash on bursty arrivals.
    """

    name = "queue"

    def __init__(self, cooldown: float = 300.0):
        if cooldown < 0:
            raise CloudError("cooldown must be non-negative")
        self.cooldown = float(cooldown)
        self._quiet_since: Optional[float] = None

    def desired_nodes(self, state: ClusterState) -> int:
        if state.unmet_demand > 0:
            self._quiet_since = None
            return state.nodes + _nodes_for(state.unmet_demand,
                                            state.slots_per_node)
        if state.queued_jobs == 0 and state.free_slots >= state.slots_per_node:
            if self._quiet_since is None:
                self._quiet_since = state.now
            if state.now - self._quiet_since >= self.cooldown:
                return state.nodes - state.free_slots // state.slots_per_node
        else:
            self._quiet_since = None
        return state.nodes


class UtilizationAutoscaler:
    """Hold slot occupancy inside a [low, high] band, one node per step.

    The queue-demand floor overrides the band: a queued job whose
    minimum cannot fit always triggers scale-out, whatever the current
    occupancy, so the band can never starve a stuck queue.
    """

    name = "utilization"

    def __init__(self, low: float = 0.30, high: float = 0.85):
        if not 0.0 <= low < high <= 1.0:
            raise CloudError(
                f"need 0 <= low < high <= 1, got [{low}, {high}]"
            )
        self.low = float(low)
        self.high = float(high)

    def desired_nodes(self, state: ClusterState) -> int:
        if state.unmet_demand > 0:
            return state.nodes + _nodes_for(state.unmet_demand,
                                            state.slots_per_node)
        if state.total_slots and state.utilization > self.high:
            return state.nodes + 1
        if (
            state.utilization < self.low
            and state.queued_jobs == 0
            and state.free_slots >= state.slots_per_node
        ):
            return state.nodes - 1
        return state.nodes


class IdleTimeoutAutoscaler:
    """CLUES-style elasticity: power on for need, power off after idleness.

    Scale-out mirrors CLUES' scheduler hook — a job that cannot start
    powers on exactly the nodes its minimum needs.  Scale-in mirrors the
    idle-node rule: once at least one node's worth of slots has been
    continuously free for ``idle_timeout`` seconds, every wholly-idle
    node is released at once.
    """

    name = "idle"

    def __init__(self, idle_timeout: float = 600.0):
        if idle_timeout <= 0:
            raise CloudError("idle_timeout must be positive")
        self.idle_timeout = float(idle_timeout)
        self._idle_since: Optional[float] = None

    def desired_nodes(self, state: ClusterState) -> int:
        if state.unmet_demand > 0:
            self._idle_since = None
            return state.nodes + _nodes_for(state.unmet_demand,
                                            state.slots_per_node)
        if state.free_slots >= state.slots_per_node and state.queued_jobs == 0:
            if self._idle_since is None:
                self._idle_since = state.now
            if state.now - self._idle_since >= self.idle_timeout:
                return state.nodes - state.free_slots // state.slots_per_node
        else:
            self._idle_since = None
        return state.nodes


class ProvisioningCircuitBreaker:
    """Hold scale-up after repeated provisioning failures.

    Hammering a provider that keeps failing boots burns billed boot
    windows for nothing (and, on a real cloud, API quota).  The breaker
    counts *consecutive* failures; at ``threshold`` it opens and every
    scale-up request is held for a cool-off that doubles on each
    consecutive trip (capped at ``max_cooloff``).  Any successful boot
    closes it and resets the streak.

    The breaker is deterministic state over deterministic inputs — no
    wall clock, no randomness — so faulted runs stay replayable.
    """

    def __init__(self, threshold: int = 3, cooloff: float = 120.0,
                 max_cooloff: float = 1920.0):
        if threshold < 1:
            raise CloudError("threshold must be >= 1")
        if cooloff <= 0 or max_cooloff < cooloff:
            raise CloudError("need 0 < cooloff <= max_cooloff")
        self.threshold = int(threshold)
        self.cooloff = float(cooloff)
        self.max_cooloff = float(max_cooloff)
        self.failures = 0
        self.trips = 0
        self._consecutive = 0
        self._open_until: Optional[float] = None

    @property
    def open_until(self) -> Optional[float]:
        """When the current hold expires (``None`` = closed)."""
        return self._open_until

    def allows(self, now: float) -> bool:
        """Whether a scale-up request may go to the provider at ``now``."""
        if self._open_until is not None:
            if now < self._open_until:
                return False
            # Half-open: let the next attempt probe the provider.  The
            # streak is preserved, so one more failure re-trips at once.
            self._open_until = None
        return True

    def record_failure(self, now: float) -> bool:
        """Count a failed boot; returns True when this trips the breaker."""
        self.failures += 1
        self._consecutive += 1
        if self._open_until is None and self._consecutive >= self.threshold:
            self.trips += 1
            hold = min(self.max_cooloff,
                       self.cooloff * (2.0 ** (self.trips - 1)))
            self._open_until = now + hold
            return True
        return False

    def record_success(self) -> None:
        """A node came online: close the breaker, reset the streak."""
        self._consecutive = 0
        self._open_until = None


AUTOSCALER_NAMES = ("static", "queue", "utilization", "idle")


def make_autoscaler(name: str, **kwargs) -> Autoscaler:
    """Build one of the shipped autoscaler policies by name."""
    if name == "static":
        return StaticAutoscaler()
    if name == "queue":
        return QueueDepthAutoscaler(**kwargs)
    if name == "utilization":
        return UtilizationAutoscaler(**kwargs)
    if name == "idle":
        return IdleTimeoutAutoscaler(**kwargs)
    raise CloudError(
        f"unknown autoscaler {name!r}; available: {AUTOSCALER_NAMES}"
    )
