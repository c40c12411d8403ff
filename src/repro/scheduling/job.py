"""Job descriptors used by the scheduling policy engine.

The policy engine is substrate-independent: the scheduler simulator
(§4.3.1) and the Kubernetes operator path (§4.3.2) both feed it
:class:`JobRequest` objects and keep :class:`SchedulerJob` records in sync
with reality.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..errors import JobStateError

__all__ = ["JobRequest", "SchedulerJob", "JobState", "priority_order_key"]

_seq = itertools.count(1)


@dataclass(frozen=True, slots=True)
class JobRequest:
    """An immutable job submission.

    Attributes
    ----------
    priority:
        User-defined priority; **larger is more important**.  Two jobs with
        the same priority are ordered by submission time (earlier wins).
    size_class:
        Optional workload label ("small"/"medium"/"large"/"xlarge",
        §4.3.1); carried for the simulators and reports.
    params:
        Application parameters (problem size, timesteps, ...).
    """

    name: str
    min_replicas: int
    max_replicas: int
    priority: int = 1
    size_class: Optional[str] = None
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.min_replicas < 1:
            raise JobStateError(f"{self.name}: min_replicas must be >= 1")
        if self.max_replicas < self.min_replicas:
            raise JobStateError(
                f"{self.name}: max_replicas ({self.max_replicas}) < "
                f"min_replicas ({self.min_replicas})"
            )

    def with_rigid_replicas(self, replicas: int) -> "JobRequest":
        """A copy pinned to a fixed size (the paper's rigid emulation)."""
        return JobRequest(
            name=self.name,
            min_replicas=replicas,
            max_replicas=replicas,
            priority=self.priority,
            size_class=self.size_class,
            params=dict(self.params),
        )


class JobState(str, enum.Enum):
    QUEUED = "Queued"
    RUNNING = "Running"
    COMPLETED = "Completed"


@dataclass(slots=True)
class SchedulerJob:
    """The policy engine's live record for one job."""

    request: JobRequest
    submit_time: float = 0.0
    seq: int = field(default_factory=_seq.__next__)
    #: Effective priority at submission (the policy's priority stage);
    #: defaults to the user's ``request.priority``.  Figure 2's victim
    #: walk and preemption compare it.
    priority: Optional[float] = None
    #: Cached :func:`priority_order_key` — every component is fixed at
    #: submission (priority, submission time, sequence), and the sorted
    #: containers ask for the key often enough that rebuilding the tuple
    #: showed up in trace-scale profiles.  A time-varying priority stage
    #: re-keys a waiter here; the engine drops that key when it starts.
    sort_key: tuple = field(init=False, repr=False, compare=False, default=())
    state: JobState = JobState.QUEUED
    replicas: int = 0
    #: Time of the last scheduling event (create/shrink/expand); -inf means
    #: the T_rescale_gap check always passes (queued jobs, §3.2.1).
    last_action: float = -math.inf
    start_time: Optional[float] = None
    completion_time: Optional[float] = None
    rescale_count: int = 0

    def __post_init__(self):
        if self.priority is None:
            self.priority = self.request.priority

    # Short accessors mirroring the pseudocode's field names ----------------

    @property
    def name(self) -> str:
        return self.request.name

    @property
    def min_replicas(self) -> int:
        return self.request.min_replicas

    @property
    def max_replicas(self) -> int:
        return self.request.max_replicas

    @property
    def is_running(self) -> bool:
        return self.state == JobState.RUNNING

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SchedulerJob {self.name} p{self.priority} "
            f"{self.state.value} r={self.replicas}>"
        )


def priority_order_key(job: SchedulerJob):
    """Sort key for *decreasing* effective priority.

    Higher effective priority (:attr:`SchedulerJob.priority`) first;
    among equals, earlier submission first (§3.2.1), with the submission
    sequence as the final deterministic tie-break.  The tuple is cached
    on the job.
    """
    return job.sort_key or _build_sort_key(job)


def _build_sort_key(job: SchedulerJob) -> tuple:
    key = (-job.priority, job.submit_time, job.seq)
    job.sort_key = key
    return key
