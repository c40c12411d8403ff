"""Decision types and policy configuration.

The policy engine consumes job events and emits :class:`Decision` objects;
the substrate (scheduler simulator or Kubernetes operator) applies them.
Keeping decisions explicit makes the Figure-2/3 algorithm testable without
any cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Optional, Protocol, runtime_checkable

from .job import JobRequest, SchedulerJob

__all__ = [
    "Decision",
    "StartJob",
    "ShrinkJob",
    "ExpandJob",
    "EnqueueJob",
    "RequeueJob",
    "PreemptJob",
    "ResumeJob",
    "PolicyConfig",
    "BackfillRule",
    "CapacityConstraint",
    "PriorityRule",
    "StaticPriority",
    "Aging",
]

#: How far ahead of its computed time :meth:`Aging.next_change` reports a
#: step, relative to the step's magnitude: float rounding may flip the
#: waiting-time expression a few ulps either side of the product.
_STEP_SLACK = 1e-9


@dataclass(frozen=True)
class Decision:
    """Base class for scheduling decisions."""

    job: SchedulerJob


@dataclass(frozen=True)
class StartJob(Decision):
    """Launch ``job`` with ``replicas`` workers (createOrExpandJob on a new
    or queued job)."""

    replicas: int


@dataclass(frozen=True)
class ShrinkJob(Decision):
    """Scale a running job down (shrinkJob in Figure 2)."""

    from_replicas: int
    to_replicas: int


@dataclass(frozen=True)
class ExpandJob(Decision):
    """Scale a running job up (createOrExpandJob in Figure 3)."""

    from_replicas: int
    to_replicas: int


@dataclass(frozen=True)
class EnqueueJob(Decision):
    """Hold ``job`` in the internal priority queue."""


@dataclass(frozen=True)
class RequeueJob(Decision):
    """Evict a running job back to the queue because its capacity vanished.

    Emitted only by forced capacity shrinks (a spot-instance interruption
    reclaiming a node out from under the scheduler, §2's cloud reality) —
    never by the Figure-2/3 policy logic itself.  Unlike
    :class:`PreemptJob` the eviction is not a scheduling choice and
    carries no checkpoint: the substrate decides what survives (the
    schedsim model restarts the job from scratch).
    """

    released_replicas: int


@dataclass(frozen=True)
class PreemptJob(Decision):
    """Checkpoint a running job to disk and release all its slots.

    Emitted by the preemption stage (``PolicyConfig.preempt``).  The job
    returns to the queue with its progress preserved; the substrate must
    charge the disk checkpoint cost and, on resume, the restore cost.
    """

    released_replicas: int


@dataclass(frozen=True)
class ResumeJob(Decision):
    """A preempted job restarting from its disk checkpoint."""

    replicas: int


@runtime_checkable
class BackfillRule(Protocol):
    """Backfill-eligibility stage: may this out-of-order start happen?

    Consulted by the engine whenever a job would start while older queued
    work is still waiting (an arrival starting past a non-empty queue, or
    a Figure-3 redistribution reaching a job behind a blocked one).  EASY
    backfilling lives here: ``allows`` returns ``False`` when the start
    would push back the reserved queue head.

    A rule may also define ``overtaken(head)``, which the engine calls
    whenever the queue head is displaced: a job enters the queue ahead of
    every waiter (an arrival that must wait, an eviction, a preemption),
    or the head no longer leads once an event's aging re-keys are done.
    EASY uses it to retire that head's reservation.

    A rule may also define ``rejects_block(engine, block, now)``, which
    the Figure-3 walk calls on a queue block once a waiter that ranks
    above the block's remaining members has been left behind.  True
    promises that ``allows`` would deny every member that reaches it at
    ``now``, at any width from its ``min_replicas`` up; the walk then
    steps over the whole block.  The block offers ``min_needed`` (its
    least ``min_replicas``) and ``floor(floor_of)`` (the least of a
    per-request bound over its members).  Aggressive EASY uses it to
    deny blocks by Lifka's test.

    The engine's ``transitions`` counter changes with every
    slot-accounting transition, so a rule may cache what it priced per
    ``(engine, engine.transitions, now)``.
    """

    def allows(self, engine, job: SchedulerJob, replicas: int,
               now: float) -> bool:
        """True if ``job`` may start with ``replicas`` workers at ``now``."""
        ...


@runtime_checkable
class CapacityConstraint(Protocol):
    """Capacity-constraint stage: a budget tighter than the slot count.

    The engine keeps its slot accounting, but additionally charges every
    replica-count transition against this constraint and caps starts and
    expansions by :meth:`admit`.  The power-capped scenario implements it
    as a watt budget with per-size-class weights; elastic shrink/expand
    becomes the power-capping actuator.
    """

    def weight(self, request: JobRequest) -> float:
        """Budget units consumed per replica of ``request``."""
        ...

    def admit(self, request: JobRequest) -> int:
        """How many replicas of ``request`` fit in the remaining budget."""
        ...

    def charge(self, request: JobRequest, delta: int) -> None:
        """Record a replica-count change of ``delta`` for ``request``."""
        ...

    def headroom(self) -> float:
        """Remaining budget units."""
        ...


@runtime_checkable
class PriorityRule(Protocol):
    """Priority stage: a job's effective priority over time.

    The shape of vLLM's ``Policy.get_priority(now, seq_group)``: bigger
    schedules sooner.  The engine keys a job by :meth:`get_priority` at
    submission and re-keys a waiter whenever :meth:`next_change` comes
    due, so its indexed queue stays sorted by effective priority at
    every event.  Running jobs keep their submission key.  A waiter's
    priority must never fall: EASY's head reservation is retired only
    when another waiter rises past the head.
    """

    def get_priority(self, now: float, job: SchedulerJob) -> float:
        """``job``'s effective priority at ``now``."""
        ...

    def next_change(self, now: float, job: SchedulerJob) -> float:
        """A time no later than :meth:`get_priority`'s next change after
        ``now`` (``inf`` if it never changes again)."""
        ...


@dataclass(frozen=True)
class StaticPriority:
    """A priority fixed at submission: ``fn(request)``.

    The default ``fn`` is the user-supplied ``request.priority``, and
    ``StaticPriority()`` is every policy's default priority stage; the
    EWT and PRB rules of :mod:`repro.scheduling.literature` are static
    too.  The engine never re-keys a job under a static rule.
    """

    fn: Callable[[JobRequest], float] = attrgetter("priority")

    def get_priority(self, now: float, job: SchedulerJob) -> float:
        return self.fn(job.request)

    def next_change(self, now: float, job: SchedulerJob) -> float:
        return math.inf


@dataclass(frozen=True)
class Aging:
    """Aging priorities (§3.2.2): waiting raises a queued job's priority.

    Wraps a static ``base`` rule (the user priority by default).  A
    waiter gains one unit of the base rule per ``interval`` seconds
    since its submission, up to ``max_priority``, which is in the base
    rule's units too; a base priority already at or above the cap stays
    as it is, so aging never lowers one.  :meth:`get_priority` is a step
    function of the waiting time, and :meth:`next_change` says when it
    can next step.

    Over EWT (``Aging(StaticPriority(ewt_priority), interval=1.0,
    max_priority=0)``) a waiter's priority is its wait minus its
    estimated runtime, in seconds, until it reaches the cap of 0.  Below
    the cap, a job submitted ``d`` seconds before another outranks it
    iff ``d`` is at least the difference of their estimates (to within
    one step).
    """

    base: StaticPriority = StaticPriority()
    interval: float = 600.0
    max_priority: int = 10

    def __post_init__(self):
        if not isinstance(self.base, StaticPriority):
            raise ValueError(
                f"aging base must be a StaticPriority, got {self.base!r}"
            )
        interval = self.interval
        if isinstance(interval, bool) or not (
            isinstance(interval, (int, float)) and 0 < interval < math.inf
        ):
            raise ValueError(
                f"aging interval must be a positive finite number, "
                f"got {interval!r}"
            )
        if isinstance(self.max_priority, bool) or not isinstance(
            self.max_priority, int
        ):
            raise ValueError(
                f"max_priority must be an integer, got {self.max_priority!r}"
            )

    def _boost(self, now: float, job: SchedulerJob) -> int:
        return int(max(0.0, now - job.submit_time) // self.interval)

    def get_priority(self, now: float, job: SchedulerJob) -> float:
        priority = self.base.get_priority(now, job)
        if priority >= self.max_priority:
            return priority
        return min(self.max_priority, priority + self._boost(now, job))

    def next_change(self, now: float, job: SchedulerJob) -> float:
        boost = self._boost(now, job)
        if self.base.get_priority(now, job) + boost >= self.max_priority:
            return math.inf
        step = job.submit_time + (boost + 1) * self.interval
        return step - _STEP_SLACK * max(1.0, abs(step))


@dataclass
class PolicyConfig:
    """Tunable parameters of the elastic policy (§3.2.1).

    The only configuration :class:`~repro.scheduling.elastic
    .ElasticPolicyEngine` runs, and what every registry factory returns.
    Four hook stages generalize the paper's fixed algorithm:

    ``priority``
        queue order: the user priority, a static rule such as EWT or
        PRB (:class:`StaticPriority`), or :class:`Aging` over one (§3.2.2).
    ``backfill``
        gates out-of-order starts (EASY).
    ``capacity_constraint``
        factory for a per-engine budget tighter than the slot count
        (power capping).
    ``preempt``
        a last resort after Figure 2 enqueues an arrival: checkpoint
        lower-priority running jobs to disk (§3.2.2).

    Parameters
    ----------
    rescale_gap:
        :math:`T_{rescale\\_gap}` — the minimum gap between any two
        scheduling events (creation, shrink, expand) for one job.
        ``math.inf`` turns the elastic policy into the moldable policy
        (§4.3.2: "emulated by setting a large T_rescale_gap").
    launcher_slots:
        Slots consumed by a job's launcher pod in addition to its workers.
        The paper's Figure-2 pseudocode reserves one slot
        (``freeSlots - 1``); its simulator models none ("we do not consider
        the overhead added by the operator"), so the default here is 0 and
        the Kubernetes path uses 1.
    job_transform:
        Applied to every submission before scheduling; the rigid baselines
        pin ``min == max`` here, exactly how the paper emulates them.
    shrink_filter:
        Failure-injection hook: return ``False`` to make a shrink attempt
        fail (the pseudocode's ``if shrinkJob(...)`` guard).
    literal_completion_budget:
        Figure 3 taken literally redistributes only the workers freed by
        *this* completion; slots left over from earlier events are never
        re-offered to the queue, which can strand a queued job forever
        (its minimum larger than any single completion).  The default
        (``False``) uses the accumulated free slots as the budget —
        deadlock-free and faithful to the stated intent ("the freed CPUs
        are reassigned ... to start new jobs").  Set ``True`` to study the
        literal pseudocode.  Must be a bool.
    priority:
        Priority stage (:class:`PriorityRule`): a job's *effective*
        priority (any real number; bigger schedules sooner), computed
        from the submission after ``job_transform``.  The default keeps
        the user-supplied priority; :class:`StaticPriority` wraps any
        other fixed rule (EWT, PRB), and :class:`Aging` raises a
        waiter's priority over time, so Figure 3 hands freed slots to
        long-starved work first.  The submission itself is never
        rewritten: metrics weight by the user's priority.
    backfill:
        Backfill-eligibility stage (:class:`BackfillRule`): gates any
        start that would jump ahead of older queued work.  ``None``
        keeps the paper's behaviour (head-of-queue starts only via the
        shrink walk; Figure 3 stops at the first blocked job's priority).
    capacity_constraint:
        Capacity-constraint stage: a zero-argument factory producing one
        fresh :class:`CapacityConstraint` per engine (engines must not
        share budget state).  ``None`` means slots are the only budget.
    preempt:
        Preemption stage (§3.2.2): when Figure 2 leaves a strictly
        higher-priority arrival waiting, checkpoint running jobs of
        lower priority to disk — lowest first, never the index-0 job —
        until it fits (:class:`PreemptJob`); they resume from disk
        through Figure 3 (:class:`ResumeJob`).  It cannot be combined
        with a capacity constraint, whose charge and admit points a
        preemption bypasses.
    """

    name: str = "elastic"
    rescale_gap: float = 180.0
    launcher_slots: int = 0
    job_transform: Callable[[JobRequest], JobRequest] = field(
        default=lambda request: request
    )
    shrink_filter: Optional[Callable[[SchedulerJob, int], bool]] = None
    literal_completion_budget: bool = False
    priority: PriorityRule = StaticPriority()
    backfill: Optional[BackfillRule] = None
    capacity_constraint: Optional[Callable[[], CapacityConstraint]] = None
    preempt: bool = False

    def __post_init__(self):
        # Catch bad parameters at construction with a message naming the
        # field, instead of latent misbehavior (a NaN gap silently failing
        # every rescale-eligibility comparison, a float launcher slot
        # corrupting the O(1) slot accounting) deep inside the engine.
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(
                f"policy name must be a non-empty string, got {self.name!r}"
            )

        def fail(message: str):
            # Registry-built configs surface which policy misfired, not
            # just which field: "policy 'easy-backfill': rescale_gap ...".
            raise ValueError(f"policy {self.name!r}: {message}")

        if isinstance(self.rescale_gap, bool) or not isinstance(
            self.rescale_gap, (int, float)
        ):
            fail(f"rescale_gap must be a number, got {self.rescale_gap!r}")
        if math.isnan(self.rescale_gap):
            fail("rescale_gap must not be NaN")
        if self.rescale_gap < 0:
            fail(f"rescale_gap must be non-negative, got {self.rescale_gap!r}")
        if isinstance(self.launcher_slots, bool) or not isinstance(
            self.launcher_slots, int
        ):
            fail(
                f"launcher_slots must be an integer, got {self.launcher_slots!r}"
            )
        if self.launcher_slots < 0:
            fail(
                f"launcher_slots must be non-negative, "
                f"got {self.launcher_slots!r}"
            )
        if not callable(self.job_transform):
            fail("job_transform must be callable")
        if self.shrink_filter is not None and not callable(self.shrink_filter):
            fail("shrink_filter must be callable or None")
        for flag in ("literal_completion_budget", "preempt"):
            value = getattr(self, flag)
            if not isinstance(value, bool):
                fail(f"{flag} must be a bool, got {value!r}")
        if not isinstance(self.priority, PriorityRule):
            fail(f"priority must be a PriorityRule, got {self.priority!r}")
        if self.backfill is not None and not callable(
            getattr(self.backfill, "allows", None)
        ):
            fail("backfill must provide an allows() method or be None")
        if self.capacity_constraint is not None and not callable(
            self.capacity_constraint
        ):
            fail("capacity_constraint must be a zero-argument factory or None")
        if self.preempt and self.capacity_constraint is not None:
            fail("preemption cannot be combined with a capacity constraint")

    @property
    def is_moldable(self) -> bool:
        return math.isinf(self.rescale_gap)
