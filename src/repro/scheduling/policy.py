"""Decision types and policy configuration.

The policy engine consumes job events and emits :class:`Decision` objects;
the substrate (scheduler simulator or Kubernetes operator) applies them.
Keeping decisions explicit makes the Figure-2/3 algorithm testable without
any cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol, runtime_checkable

from .job import JobRequest, SchedulerJob

__all__ = [
    "Decision",
    "StartJob",
    "ShrinkJob",
    "ExpandJob",
    "EnqueueJob",
    "RequeueJob",
    "PolicyConfig",
    "SchedulingPolicy",
    "BackfillRule",
    "CapacityConstraint",
]


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
    :class:`~repro.scheduling.extensions.PreemptJob` the eviction is not a
    scheduling choice and carries no checkpoint: the substrate decides
    what survives (the schedsim model restarts the job from scratch).
    """

    released_replicas: int


@runtime_checkable
class BackfillRule(Protocol):
    """Backfill-eligibility stage: may this out-of-order start happen?

    Consulted by the engine whenever a job would start while older queued
    work is still waiting (an arrival starting past a non-empty queue, or
    a Figure-3 redistribution reaching a job behind a blocked one).  EASY
    backfilling lives here: ``allows`` returns ``False`` when the start
    would push back the reserved queue head.

    A rule may also define ``overtakes(engine, job)``, which the engine
    calls whenever a job enters its queue ahead of every waiter (an
    arrival that must wait, an eviction, a preemption).  EASY uses it to
    retire the reservation of the head that job displaced.  The engine's
    ``transitions`` counter changes with every slot-accounting
    transition, so a rule may cache what it priced per
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
class SchedulingPolicy(Protocol):
    """The policy surface :class:`~repro.scheduling.elastic.ElasticPolicyEngine`
    consumes.

    :class:`PolicyConfig` is the canonical implementation; anything with
    these attributes (e.g. a third-party config registered through
    :mod:`repro.scheduling.registry`) drives the engine equally.  The
    three hook stages generalize the paper's fixed algorithm:

    ``priority_rule``
        queue-ordering stage — rewrites a submission's effective priority
        (EWT/PRB priority rules).
    ``backfill``
        backfill-eligibility stage — gates out-of-order starts (EASY).
    ``capacity_constraint``
        capacity-constraint stage — factory for a per-engine budget
        tighter than the slot count (power capping).
    """

    name: str
    rescale_gap: float
    launcher_slots: int
    job_transform: Callable[[JobRequest], JobRequest]
    shrink_filter: Optional[Callable[[SchedulerJob, int], bool]]
    literal_completion_budget: bool
    priority_rule: Optional[Callable[[JobRequest], float]]
    backfill: Optional[BackfillRule]
    capacity_constraint: Optional[Callable[[], CapacityConstraint]]


@dataclass
class PolicyConfig:
    """Tunable parameters of the elastic policy (§3.2.1).

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
        literal pseudocode (see the ablation bench).
    priority_rule:
        Queue-ordering stage: maps a submission to its *effective*
        priority (any real number; bigger schedules sooner).  Applied
        after ``job_transform``; ``None`` keeps the user-supplied
        priority.  Expressed as a priority rewrite rather than a
        comparator so the engine's priority-keyed indexes stay valid.
    backfill:
        Backfill-eligibility stage (:class:`BackfillRule`): gates any
        start that would jump ahead of older queued work.  ``None``
        keeps the paper's behaviour (head-of-queue starts only via the
        shrink walk; Figure 3 stops at the first blocked job's priority).
    capacity_constraint:
        Capacity-constraint stage: a zero-argument factory producing one
        fresh :class:`CapacityConstraint` per engine (engines must not
        share budget state).  ``None`` means slots are the only budget.
    """

    name: str = "elastic"
    rescale_gap: float = 180.0
    launcher_slots: int = 0
    job_transform: Callable[[JobRequest], JobRequest] = field(
        default=lambda request: request
    )
    shrink_filter: Optional[Callable[[SchedulerJob, int], bool]] = None
    literal_completion_budget: bool = False
    priority_rule: Optional[Callable[[JobRequest], float]] = None
    backfill: Optional[BackfillRule] = None
    capacity_constraint: Optional[Callable[[], CapacityConstraint]] = None

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
        if self.priority_rule is not None and not callable(self.priority_rule):
            fail("priority_rule must be callable or None")
        if self.backfill is not None and not callable(
            getattr(self.backfill, "allows", None)
        ):
            fail("backfill must provide an allows() method or be None")
        if self.capacity_constraint is not None and not callable(
            self.capacity_constraint
        ):
            fail("capacity_constraint must be a zero-argument factory or None")

    @property
    def is_moldable(self) -> bool:
        return math.isinf(self.rescale_gap)
