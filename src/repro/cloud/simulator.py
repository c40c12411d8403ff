"""The cloud-substrate scheduler simulator: elastic capacity end to end.

:class:`CloudScheduleSimulator` extends the §4.3.1 simulator with the
one thing a cloud adds: ``total_slots`` becomes a function of time.  The
policy engine is still the exact Figure-2/3 implementation — capacity
changes flow through its :meth:`~repro.scheduling.elastic
.ElasticPolicyEngine.grow_capacity` / :meth:`shrink_capacity`
transitions, which reuse the shrink-victim and redistribution machinery
— so a static fleet reproduces the fixed-capacity simulator decision for
decision (the equivalence tests pin this).

Event flow
----------
* Every submission/completion also snapshots a :class:`~repro.cloud
  .autoscaler.ClusterState` and reconciles the fleet toward the
  autoscaler's target (plus a periodic tick, so idle-timeout policies
  see quiet stretches).  The fleet half of the snapshot (nodes counted
  for scaling, nodes still booting) and the in-flight-drain test read
  counters the provider keeps on every node lifecycle transition, so an
  evaluation is O(1) in the fleet and in the ledger; the verdict is
  only spelled out when a tracer or metrics registry is attached.
* Scale-up requests nodes from the provider; their slots join the
  cluster only when the provisioning delay elapses (``cloud.node.ready``
  capacity-change events).
* Scale-down cancels still-provisioning nodes first, then cordons ready
  nodes and *drains* them: capacity comes off as the Figure-2 drain walk
  and subsequent completions free it, and the node is released only when
  its last slot is reclaimed.
* Spot interruptions (``cloud.node.interrupt`` events) force capacity
  out immediately: running jobs are shrunk ignoring the rescale gap and,
  if need be, evicted back to the queue (losing their progress — unless
  a checkpoint store is attached and a notice window let the job
  checkpoint first).
* Every node's lifetime is billed; the result carries a
  :class:`~repro.cloud.billing.CostReport` next to the usual metrics.

Fault injection and recovery
----------------------------
When the provider carries a :class:`~repro.faults.FaultInjector`, the
simulator grows the recovery semantics around it: reclaim *notices*
checkpoint the jobs a forced shrink would evict (through the
``checkpoints`` store, when the write fits inside the notice window),
restarted jobs resume from their checkpoint instead of step zero, a
:class:`~repro.cloud.autoscaler.ProvisioningCircuitBreaker` holds
scale-up after repeated boot failures, and the run's
:class:`~repro.faults.FaultReport` accounts goodput versus throughput.
Every fault hook is ``None``-guarded: without an injector or a store the
decision sequence is byte-identical to the fault-free simulator (the
golden suite pins this).

A :class:`~repro.sim.trace.Tracer` may be attached to observe the
capacity-change and interruption events (categories ``cloud.node.*``,
``cloud.capacity``, ``cloud.autoscale``, ``fault.*``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..errors import CloudError
from ..faults.recovery import FaultReport, FaultStats
from ..scheduling import PolicyConfig, ReplicaTimeline
from ..scheduling.elastic import ElasticPolicyEngine
from ..schedsim.simulator import (
    DISK_BANDWIDTH,
    ScheduleSimulator,
    SimulationResult,
)
from ..schedsim.workload import Submission
from ..sim import Engine
from ..sim.trace import Tracer
from ..units import format_duration
from .autoscaler import (
    Autoscaler,
    ClusterState,
    ProvisioningCircuitBreaker,
    StaticAutoscaler,
)
from .billing import BillingMeter, CostModel, CostReport
from .provider import CloudProvider, Node, NodeState

__all__ = ["CloudScheduleSimulator", "CloudSimulationResult"]


@dataclass
class CloudSimulationResult:
    """One cloud run: the §4.3 metrics plus the money and fleet story."""

    result: SimulationResult
    cost: CostReport
    #: Step function of schedulable slots over time (capacity breathing).
    capacity: ReplicaTimeline
    autoscaler: str
    #: Goodput/recovery accounting; ``None`` unless the run was faulted
    #: (a fault injector on the provider) or checkpoint-enabled.
    faults: Optional[FaultReport] = None

    @property
    def metrics(self):
        return self.result.metrics

    @property
    def outcomes(self):
        return self.result.outcomes

    @property
    def makespan(self) -> float:
        return self.result.makespan

    def describe(self) -> str:
        # The stored metrics row divides by the *initial* fleet (so a
        # static run stays bit-identical to the fixed-capacity path);
        # for humans, print utilization against provisioned capacity.
        m = self.metrics
        line = (
            f"{m.policy:>13}: total={format_duration(m.total_time)} "
            f"util={self.cost.elastic_utilization * 100:.2f}% "
            f"resp={m.weighted_mean_response:.2f}s "
            f"compl={m.weighted_mean_completion:.2f}s"
        )
        described = f"{line}\n{' ' * 15}{self.cost.describe()}"
        if self.faults is not None:
            described += (
                f"\n{' ' * 15}"
                f"goodput={self.faults.goodput_fraction * 100:.2f}% "
                f"lost={self.faults.lost_slot_seconds:,.0f} slot-s "
                f"recovered={self.faults.recovered_slot_seconds:,.0f} slot-s"
            )
        return described


class CloudScheduleSimulator(ScheduleSimulator):
    """Simulate one workload on an autoscaled, interruptible fleet."""

    def __init__(
        self,
        policy: PolicyConfig,
        provider: CloudProvider,
        autoscaler: Optional[Autoscaler] = None,
        cost_model: Optional[CostModel] = None,
        overhead=None,
        engine: Optional[Engine] = None,
        policy_engine_cls: type = ElasticPolicyEngine,
        tick: float = 60.0,
        tracer: Optional[Tracer] = None,
        checkpoints=None,
        breaker: Optional[ProvisioningCircuitBreaker] = None,
    ):
        if tick <= 0:
            raise CloudError("autoscaler tick must be positive")
        engine = engine or Engine()
        provider.bind(
            engine,
            on_ready=self._on_node_ready,
            on_interrupt=self._on_node_interrupted,
            on_interrupt_notice=self._on_interrupt_notice,
            on_provision_failed=self._on_provision_failed,
        )
        initial = provider.ready_slots
        if initial < 1:
            raise CloudError(
                "the initial fleet must contribute at least one slot "
                "(give some pool initial_nodes > 0)"
            )
        super().__init__(
            policy,
            total_slots=initial,
            overhead=overhead,
            engine=engine,
            policy_engine_cls=policy_engine_cls,
            tracer=tracer,
        )
        self.provider = provider
        self.autoscaler = autoscaler or StaticAutoscaler()
        self.meter = BillingMeter(cost_model)
        self.tick = float(tick)
        self.capacity_timeline = ReplicaTimeline()
        self.capacity_timeline.record(engine.now, initial)
        # Scaling arithmetic uses the first pool's node size; multi-pool
        # fleets are assumed roughly homogeneous (see autoscaler module).
        self._slots_per_node = provider.pools[0].slots_per_node
        self._arrived_count = 0
        self._last_completion = engine.now
        #: provider.interruptions as of the last completion — reclaims
        #: drawn beyond the workload belong to nobody's experiment.
        self._interruptions_in_window = 0
        self._tick_timer = None
        #: begin_drain time per node id — the reclaim-latency clock.
        self._drain_began: dict = {}
        from ..obs.metrics import active_registry

        registry = active_registry()
        if registry.enabled:
            self._obs = registry
            self._obs_provision = registry.histogram("cloud.node.provision_seconds")
            self._obs_reclaim = registry.histogram("cloud.node.reclaim_seconds")
            self._obs_interruptions = registry.counter("cloud.interruptions")
        else:
            self._obs = None
            self._obs_provision = None
            self._obs_reclaim = None
            self._obs_interruptions = None
        #: A :class:`~repro.charm.faulttolerance.DiskCheckpointStore` (or
        #: ``None``): with a store attached, reclaim notices checkpoint
        #: the jobs at risk and restarts resume from the checkpoint.
        self._ckpt = checkpoints
        if breaker is None and provider.faults is not None:
            breaker = ProvisioningCircuitBreaker()
        self._breaker = breaker
        self._breaker_wake_at = None
        self.fault_stats = FaultStats()
        #: Jobs evicted and not yet restarted — distinguishes a restart
        #: (scratch or checkpoint) from a first start in ``_start``.
        self._evicted_pending: set = set()
        if provider.faults is not None:
            # Wake when degraded-provisioning windows end: a queue that
            # stalled behind a capacity shortage must re-provision as
            # soon as capacity returns, even if the tick clock wound
            # down waiting.
            for closing in provider.faults.window_closings():
                engine.post_at(closing, self._fault_window_closed)
        #: When the next autoscaler evaluation is due (None = disarmed).
        #: Scheduling events postpone this deadline instead of cancelling
        #: and re-pushing the tick timer on every submit/finish; the armed
        #: timer fires, notices it is early, and re-arms itself at the
        #: current deadline — one heap push per elapsed tick interval
        #: instead of one per scheduling event, with evaluations landing
        #: at exactly the times the cancel-and-reschedule scheme produced.
        self._tick_deadline = None

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------

    def run(self, submissions: Iterable[Submission], retain: str = "full"):
        base = super().run(submissions, retain=retain)
        end = self._last_completion
        if self._accumulator is not None:
            busy = self._accumulator.busy_slot_seconds
        else:
            busy = sum(
                o.timeline.slot_seconds(end) for o in base.outcomes
            )
        # Integrate provisioned capacity over the same window the §4.3
        # metrics use (first start .. last completion): on a static fleet
        # elastic_utilization then reduces *exactly* to the paper's
        # utilization, and on a breathing fleet the denominator breathes.
        begin = end - base.metrics.total_time
        capacity_ss = self.capacity_timeline.slot_seconds(end) - (
            self.capacity_timeline.slot_seconds(begin)
        )
        cost = self.meter.report(
            self.provider.nodes,
            end=end,
            jobs_completed=self._completed_count,
            busy_slot_seconds=busy,
            capacity_slot_seconds=capacity_ss,
            interruptions=self._interruptions_in_window,
        )
        if self._obs is not None:
            self._obs.gauge("cloud.billed_node_seconds").set(
                cost.node_hours * 3600.0
            )
        return CloudSimulationResult(
            result=base,
            cost=cost,
            capacity=self.capacity_timeline,
            autoscaler=self.autoscaler.name,
            faults=self._fault_report(busy),
        )

    def _fault_report(self, busy_slot_seconds: float):
        provider = self.provider
        if provider.faults is None and self._ckpt is None:
            return None
        stats = self.fault_stats
        stats.crashes = provider.crashes
        stats.provision_failures = provider.provision_failures
        stats.provision_timeouts = provider.provision_timeouts
        stats.provision_retries = provider.provision_retries
        stats.capacity_shortages = provider.capacity_shortages
        if self._breaker is not None:
            stats.breaker_trips = self._breaker.trips
        report = FaultReport.build(
            stats, busy_slot_seconds, provider.interruptions
        )
        if self._obs is not None:
            self._obs.gauge("faults.goodput_fraction").set(
                report.goodput_fraction
            )
            self._obs.gauge("faults.lost_slot_seconds").set(
                report.lost_slot_seconds
            )
            self._obs.gauge("faults.recovered_slot_seconds").set(
                report.recovered_slot_seconds
            )
        return report

    # ------------------------------------------------------------------
    # Scheduling-event hooks
    # ------------------------------------------------------------------

    def _on_submit(self, sub: Submission) -> None:
        self._arrived_count += 1
        super()._on_submit(sub)
        self._autoscale()

    def _on_finish(self, name: str) -> None:
        self._last_completion = self.engine.now
        self._interruptions_in_window = self.provider.interruptions
        if self._ckpt is not None:
            self._ckpt.drop(name)
        super()._on_finish(name)
        self._push_drains()
        if self._workload_done():
            self._cancel_tick()
        else:
            self._autoscale()

    def _workload_done(self) -> bool:
        return (
            self._submitted_count > 0
            and self._completed_count == self._submitted_count
        )

    # ------------------------------------------------------------------
    # Decision handlers with recovery semantics
    # ------------------------------------------------------------------

    def _start(self, decision) -> None:
        """Start a job — resuming from its checkpoint when one exists.

        The restore pays the checkpoint's read back from disk
        (``io_seconds``) before stepping resumes; only then is the
        banked progress subtracted from the work remaining.
        """
        super()._start(decision)
        name = decision.job.name
        restarted = name in self._evicted_pending
        if restarted:
            self._evicted_pending.discard(name)
        store = self._ckpt
        if store is not None and store.has(name):
            checkpoint = store.read(name)
            job = self._running[name]
            resumed = min(float(checkpoint.completed_steps), job.total_steps)
            if resumed > 0.0:
                job.remaining_steps = job.total_steps - resumed
                job.progress_start += checkpoint.io_seconds
                self._schedule_finish(job, self.engine.now)
                self.fault_stats.restarts_from_checkpoint += 1
                self._trace("fault.restart", "restarted from checkpoint",
                            job=name, steps=resumed)
                if self._obs is not None:
                    self._obs.counter(
                        "faults.restarts_from_checkpoint").inc()
                return
        if restarted:
            self.fault_stats.restarts_from_scratch += 1
            self._trace("fault.restart", "restarted from scratch",
                        job=name)
            if self._obs is not None:
                self._obs.counter("faults.restarts_from_scratch").inc()

    def _evict(self, decision) -> None:
        """Account the work an eviction destroys (or a checkpoint saves).

        ``lost`` is progress beyond the last checkpoint — it will be
        redone, so it counts against goodput; ``recovered`` is banked
        progress an uncheckpointed eviction would also have destroyed.
        """
        name = decision.job.name
        job = self._running.get(name)
        if job is not None:
            now = self.engine.now
            done = (
                job.total_steps - job.remaining_steps
                + min(job.steps_done_by(now), job.remaining_steps)
            )
            banked = 0.0
            store = self._ckpt
            if store is not None:
                checkpoint = store.peek(name)
                if checkpoint is not None:
                    banked = min(float(checkpoint.completed_steps), done)
            slot_seconds_per_step = job.current_step_time() * job.replicas
            stats = self.fault_stats
            stats.evictions += 1
            stats.lost_slot_seconds += (done - banked) * slot_seconds_per_step
            stats.recovered_slot_seconds += banked * slot_seconds_per_step
            self._evicted_pending.add(name)
        super()._evict(decision)

    # ------------------------------------------------------------------
    # Capacity events
    # ------------------------------------------------------------------

    def _on_node_ready(self, node: Node) -> None:
        if self._breaker is not None:
            self._breaker.record_success()
        if self._workload_done():
            # Too late to matter: hand it straight back (billing covers
            # the boot window — scale-up that misses the workload is a
            # cost signal, not an error).
            self.provider.release_node(node)
            self._trace("cloud.node.released",
                        "node came up after the workload; released",
                        node=node.id, slots=node.slots)
            return
        latency = self.engine.now - node.requested_at
        self._trace("cloud.node.ready", f"{node.pool.name} node online",
                    node=node.id, slots=node.slots, latency=latency)
        if self._obs_provision is not None:
            self._obs_provision.observe(latency)
        decisions = self.policy.grow_capacity(node.slots, self.engine.now)
        self._record_capacity()
        self._apply(decisions)

    def _on_node_interrupted(self, node: Node, slots_held: int) -> None:
        self._trace("cloud.node.interrupt",
                    f"spot reclaim took {node.pool.name} node",
                    node=node.id, slots=slots_held)
        if self._obs_interruptions is not None:
            self._obs_interruptions.inc()
        if slots_held > 0:
            removed, decisions = self.policy.shrink_capacity(
                slots_held, self.engine.now, force=True
            )
            self._apply(decisions)
            # Evictions may have freed more than the dead node held;
            # restart whatever fits on the surviving capacity.
            self._apply(self.policy.rebalance(self.engine.now))
            self._record_capacity()
        if not self._workload_done():
            self._autoscale()

    # ------------------------------------------------------------------
    # Fault events (only ever fired by an attached FaultInjector)
    # ------------------------------------------------------------------

    def _on_interrupt_notice(self, node: Node, notice: float) -> None:
        """A reclaim lands in ``notice`` seconds: checkpoint what we can.

        The candidates are the jobs a forced shrink of the node's slots
        would evict (a conservative superset — checkpointing a job that
        ends up merely shrunk costs nothing but the modeled write).  A
        job checkpoints only if its write — ``data_bytes`` over the
        shared-filesystem bandwidth — fits inside the window; otherwise
        the miss is counted and the eviction will lose all progress.
        """
        self.fault_stats.notices += 1
        self._trace("fault.notice",
                    f"reclaim notice for {node.pool.name} node",
                    node=node.id, notice=notice)
        if self._obs is not None:
            self._obs.counter("faults.notices").inc()
        store = self._ckpt
        if store is None:
            return
        at_risk = (
            node.drain_remaining
            if node.state == NodeState.DRAINING else node.slots
        )
        if at_risk <= 0:
            return
        now = self.engine.now
        for candidate in self.policy.eviction_candidates(at_risk):
            running = self._running.get(candidate.name)
            if running is None:
                continue
            io_seconds = running.data_bytes / DISK_BANDWIDTH
            if io_seconds > notice:
                self.fault_stats.checkpoints_missed += 1
                self._trace("fault.checkpoint",
                            "notice window too short; checkpoint skipped",
                            job=running.name, io_seconds=io_seconds)
                if self._obs is not None:
                    self._obs.counter("faults.checkpoints_missed").inc()
                continue
            done = (
                running.total_steps - running.remaining_steps
                + min(running.steps_done_by(now), running.remaining_steps)
            )
            store.write_state(running.name, int(done), running.data_bytes,
                              now)
            self.fault_stats.checkpoints_written += 1
            self._trace("fault.checkpoint",
                        "checkpointed inside the notice window",
                        job=running.name, steps=int(done),
                        io_seconds=io_seconds)
            if self._obs is not None:
                self._obs.counter("faults.checkpoints_written").inc()

    def _on_provision_failed(self, node: Node, will_retry: bool) -> None:
        self._trace("fault.provision",
                    f"{node.pool.name} boot attempt failed",
                    node=node.id, will_retry=will_retry)
        if self._obs is not None:
            self._obs.counter("faults.provision_failures").inc()
        breaker = self._breaker
        if breaker is not None and breaker.record_failure(self.engine.now):
            self._trace("fault.breaker", "circuit breaker opened",
                        until=breaker.open_until)
            if self._obs is not None:
                self._obs.counter("faults.breaker_trips").inc()
            self._arm_breaker_wake()
        if not will_retry and not self._workload_done():
            # The provider gave up on this boot chain; the autoscaler
            # decides whether to ask again (the breaker may hold it).
            self._autoscale()

    def _fault_window_closed(self) -> None:
        self._fault_poke()

    def _arm_breaker_wake(self) -> None:
        """Re-evaluate when the hold expires, even if the ticks wound down."""
        breaker = self._breaker
        at = breaker.open_until if breaker is not None else None
        if at is None or self._breaker_wake_at == at:
            return
        self._breaker_wake_at = at
        self.engine.post_at(at, self._breaker_wake, at)

    def _breaker_wake(self, at: float) -> None:
        if at != self._breaker_wake_at:
            return  # superseded by a later trip
        self._breaker_wake_at = None
        self._fault_poke()

    def _fault_poke(self) -> None:
        """Deterministic re-evaluation after a fault condition clears."""
        if self._workload_done():
            return
        self._push_drains()
        self._autoscale()

    # ------------------------------------------------------------------
    # Autoscaling
    # ------------------------------------------------------------------

    def _cluster_state(self) -> ClusterState:
        policy = self.policy
        queue = policy.queue
        provider = self.provider
        total = policy.total_slots
        free = policy.free_slots
        # Positional, in field order: this runs on every evaluation.
        return ClusterState(
            self.engine.now, total, total - free, free,
            len(policy.running), len(queue), queue.min_replicas_total,
            provider.active_count, provider.pending_count,
            self._slots_per_node,
        )

    def _autoscale(self) -> None:
        if self._workload_done():
            self._cancel_tick()
            return
        state = self._cluster_state()
        provider = self.provider
        target = min(max(self.autoscaler.desired_nodes(state),
                         provider.min_total_nodes),
                     provider.max_total_nodes)
        current = state.nodes
        if self.tracer is not None or self._obs is not None:
            verdict = "up" if target > current else (
                "down" if target < current else "hold"
            )
            self._trace("cloud.autoscale.verdict",
                        f"autoscaler says {verdict}",
                        action=verdict, target=target, nodes=current,
                        queued=state.queued_jobs)
            if self._obs is not None:
                self._obs.counter("cloud.autoscale." + verdict).inc()
        acted = False
        if target > current:
            if self._breaker is not None and not self._breaker.allows(
                self.engine.now
            ):
                self._trace("fault.breaker",
                            "scale-up held by the circuit breaker",
                            until=self._breaker.open_until)
                self._arm_breaker_wake()
            else:
                for _ in range(target - current):
                    if not provider.has_headroom():
                        break
                    node = provider.request_node()
                    acted = True
                    self._trace("cloud.autoscale",
                                f"requested {node.pool.name} node",
                                node=node.id, target=target)
        elif target < current:
            acted = self._scale_in(current - target)
        self._reschedule_tick(state, acted)

    def _scale_in(self, count: int) -> bool:
        """Remove up to ``count`` nodes: cancel booting ones, drain ready.

        Ready victims are chosen newest-first from the last pool
        backwards, keeping the oldest (cheapest-per-useful-hour) fleet
        core; pools never go below ``min_nodes``.
        """
        acted = False
        for pool in reversed(self.provider.pools):
            if count <= 0:
                break
            keep = pool.min_nodes
            active = self.provider.nodes_in(
                pool, NodeState.PROVISIONING, NodeState.READY
            )
            removable = len(active) - keep
            for node in reversed(active):
                if count <= 0 or removable <= 0:
                    break
                if node.state == NodeState.PROVISIONING:
                    self.provider.cancel_node(node)
                    self._trace("cloud.autoscale", "cancelled booting node",
                                node=node.id)
                else:
                    self.provider.begin_drain(node)
                    self._drain_began[node.id] = self.engine.now
                    self._trace("cloud.autoscale", "draining node",
                                node=node.id)
                    self._drain_node(node)
                count -= 1
                removable -= 1
                acted = True
        return acted

    def _drain_node(self, node: Node) -> None:
        """Pull as much of a draining node's capacity as is free now."""
        removed, decisions = self.policy.shrink_capacity(
            node.drain_remaining, self.engine.now
        )
        self._apply(decisions)
        if removed:
            self._record_capacity()
            if self.provider.drained(node, removed):
                began = self._drain_began.pop(node.id, None)
                if began is None:
                    self._trace("cloud.node.drained",
                                "node drained and released", node=node.id)
                else:
                    reclaim = self.engine.now - began
                    self._trace("cloud.node.drained",
                                "node drained and released",
                                node=node.id, reclaim=reclaim)
                    if self._obs_reclaim is not None:
                        self._obs_reclaim.observe(reclaim)

    def _push_drains(self) -> None:
        """Advance every in-flight drain (called as completions free slots)."""
        if self.provider.draining_count:
            for node in self.provider.draining_nodes:
                self._drain_node(node)

    # ------------------------------------------------------------------
    # Tick plumbing
    # ------------------------------------------------------------------

    def _reschedule_tick(self, state: ClusterState, acted: bool) -> None:
        """Keep a periodic evaluation alive only while it can change things.

        Ticks continue while anything is in flight (running jobs,
        pending arrivals, booting or draining nodes) or the last
        evaluation acted.  A stuck queue with nothing in flight and an
        autoscaler that won't (or can't) act stops ticking — the event
        heap then drains and the simulator's unfinished-job diagnosis
        surfaces, instead of an infinite idle tick loop.

        The deadline only ever moves *later* here, so the armed timer
        (which fires no later than any postponed deadline) is left in
        place and re-arms itself on a premature firing — see
        :meth:`_on_tick`.
        """
        in_flight = (
            state.running_jobs > 0
            or self._arrived_count < self._submitted_count
            or state.pending_nodes > 0
            or self.provider.draining_count > 0
        )
        if acted or in_flight:
            self._tick_deadline = due = self.engine.now + self.tick
            if self._tick_timer is None:
                self._tick_timer = self.engine.schedule_at(due, self._on_tick)
        else:
            self._cancel_tick()

    def _on_tick(self) -> None:
        timer, self._tick_timer = self._tick_timer, None
        due = self._tick_deadline
        if due is None:
            return
        now = self.engine.now
        if due > now:
            # Scheduling events postponed the evaluation; re-arm at the
            # current deadline (reusing the fired handle's slot when
            # possible) rather than evaluating early.
            self._tick_timer = self.engine.reschedule_at(
                timer, due, self._on_tick
            )
            return
        self._tick_deadline = None
        self._push_drains()
        self._autoscale()

    def _cancel_tick(self) -> None:
        self._tick_deadline = None
        if self._tick_timer is not None:
            self._tick_timer.cancel()
            self._tick_timer = None

    # ------------------------------------------------------------------

    def _record_capacity(self) -> None:
        self.capacity_timeline.record(self.engine.now, self.policy.total_slots)
        self._trace("cloud.capacity", "schedulable capacity changed",
                    slots=self.policy.total_slots)

    def _trace(self, category: str, message: str, **fields) -> None:
        if self.tracer is not None:
            self.tracer.emit(category, message, **fields)
