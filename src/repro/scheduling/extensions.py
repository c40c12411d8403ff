"""Policy extensions the paper discusses but does not evaluate (§3.2.2, §6).

* :class:`AgingPolicyEngine` — "a dynamic priority system could be
  implemented to gradually increase the priority of waiting jobs, ensuring
  that low-priority jobs get resources during times of high traffic"
  (§3.2.2, *Aging priorities*).
* :class:`PreemptivePolicyEngine` — "lower-priority jobs could be sent a
  signal to checkpoint to disk and then be preempted to make room for
  higher-priority jobs ... restarted from [the] checkpoint at a later
  time" (§3.2.2, *Job preemption*).

Both extend the Figure-2/3 engine without modifying it; the evaluated
system is untouched when these classes are not used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, List, Optional

from ..errors import SchedulingError
from .elastic import ElasticPolicyEngine
from .job import JobState, SchedulerJob
from .policy import Decision, EnqueueJob, PolicyConfig, StartJob

__all__ = ["AgingPolicyEngine", "PreemptivePolicyEngine", "PreemptJob",
           "ResumeJob"]


class AgingPolicyEngine(ElasticPolicyEngine):
    """Elastic policy with queue aging.

    A queued job's effective priority grows by one level per
    ``aging_interval`` seconds of waiting (capped at ``max_priority``), so
    long-starved submissions eventually outrank fresher, nominally-higher
    work when completions hand out freed slots.  Running jobs keep their
    user priority — aging only orders the *queue*, so the evaluated
    shrink-victim logic (Figure 2) is unchanged.
    """

    def __init__(
        self,
        total_slots: int,
        config: Optional[PolicyConfig] = None,
        aging_interval: float = 600.0,
        max_priority: int = 10,
    ):
        super().__init__(total_slots, config)
        if aging_interval <= 0:
            raise ValueError("aging_interval must be positive")
        self.aging_interval = float(aging_interval)
        self.max_priority = int(max_priority)

    def effective_priority(self, job: SchedulerJob, now: float) -> int:
        if job.state != JobState.QUEUED:
            return job.priority
        waited = max(0.0, now - job.submit_time)
        boost = int(waited // self.aging_interval)
        return min(self.max_priority, job.priority + boost)

    def jobs_by_priority(self, now: Optional[float] = None) -> List[SchedulerJob]:
        """Decreasing *effective* priority (aged queue entries rise)."""
        if now is None:
            now = self._now_hint
        return sorted(
            self.running + self.queue,
            key=lambda j: (-self.effective_priority(j, now), j.submit_time, j.seq),
        )

    def _candidates_by_priority(self) -> Iterator[SchedulerJob]:
        # Effective priorities are time-dependent, so the base engine's
        # lazy static-key merge does not apply: aging keeps the O(n log n)
        # snapshot sort (queues under aging are completion-ordered anyway).
        return iter(self.jobs_by_priority())

    def _redistribute(self, num_workers, now, decisions):
        # The base engine's indexed Figure-3 walk skips queue blocks from
        # aggregates keyed on *static* priority order; aged queues are
        # ordered by effective priority, so aging keeps the literal scan.
        self._redistribute_scan(num_workers, now, decisions)

    # The base on_complete calls jobs_by_priority() with no argument; stash
    # the event time so the aged ordering is computed against it.
    _now_hint: float = 0.0

    def on_submit(self, request, now: float):
        self._now_hint = now
        return super().on_submit(request, now)

    def on_complete(self, name: str, now: float):
        self._now_hint = now
        return super().on_complete(name, now)

    # Capacity transitions redistribute through _candidates_by_priority
    # too, so the aged ordering needs the event time stashed the same way.

    def grow_capacity(self, slots: int, now: float):
        self._now_hint = now
        return super().grow_capacity(slots, now)

    def shrink_capacity(self, slots: int, now: float, *, force: bool = False):
        self._now_hint = now
        return super().shrink_capacity(slots, now, force=force)

    def rebalance(self, now: float):
        self._now_hint = now
        return super().rebalance(now)


@dataclass(frozen=True)
class PreemptJob(Decision):
    """Checkpoint a running job to disk and release all its slots.

    The job returns to the queue with its progress preserved; the
    substrate must charge the disk checkpoint cost and, on resume, the
    restore cost.
    """

    released_replicas: int


@dataclass(frozen=True)
class ResumeJob(Decision):
    """A preempted job restarting from its disk checkpoint."""

    replicas: int


class PreemptivePolicyEngine(ElasticPolicyEngine):
    """Elastic policy with checkpoint-to-disk preemption as a last resort.

    Figure-2 semantics are tried first (free slots, then shrinking).  Only
    when a *strictly higher-priority* arrival still cannot reach its
    minimum does the engine preempt running lower-priority jobs — lowest
    effective priority first, never the protected index-0 job — until the
    arrival fits or no victims remain.  Preempted jobs re-enter the queue
    and resume through the normal Figure-3 path (:class:`ResumeJob` is
    emitted instead of :class:`StartJob` so the substrate can charge the
    disk restore).  A config with a capacity constraint is rejected:
    preemption bypasses the constraint's charge and admit points.
    """

    def __init__(self, total_slots: int, config: Optional[PolicyConfig] = None):
        super().__init__(total_slots, config)
        if self._constraint is not None:
            # A preemption releases its victims and restarts the arrival
            # outside the constraint's charge and admit() points, so the
            # charged budget would drift from the actual draw.
            raise SchedulingError(
                f"policy {self.config.name!r} sets a capacity constraint, "
                "which the preemptive engine cannot honour"
            )
        self.preempted: set = set()

    def on_submit(self, request, now: float):
        decisions = super().on_submit(request, now)
        if not decisions or not isinstance(decisions[-1], EnqueueJob):
            return decisions
        job = decisions[-1].job
        preemptions = self._try_preempt(job, now)
        if not preemptions:
            return decisions
        # The arrival now fits: pull it back out of the queue and start it.
        self.queue.remove(job)
        replicas = min(
            self.free_slots - self.config.launcher_slots, job.max_replicas
        )
        start = self._start(job, replicas, now)
        return self._log(decisions[:-1] + preemptions + [start])

    def _try_preempt(self, job: SchedulerJob, now: float) -> List[Decision]:
        reserve = self.config.launcher_slots
        needed = job.min_replicas - (self.free_slots - reserve)
        victims: List[SchedulerJob] = []
        freed = 0
        # Lowest priority first, index-0 protected; islice over the lazy
        # reverse iterator stops before the head without materializing
        # the whole running list on every preemption attempt.
        protected = islice(reversed(self.running), max(0, len(self.running) - 1))
        for candidate in protected:
            if freed >= needed:
                break
            if candidate.priority >= job.priority:
                break
            victims.append(candidate)
            freed += candidate.replicas + reserve
        if freed < needed:
            return []
        decisions: List[Decision] = []
        self.transitions += 1
        for victim in victims:
            self.running.remove(victim)
            released = victim.replicas
            self._used_slots -= released + reserve
            victim.replicas = 0
            victim.last_action = now
            self.preempted.add(victim.name)
            self._park(victim)
            decisions.append(PreemptJob(job=victim, released_replicas=released))
        return decisions

    def _start_queued(self, job: SchedulerJob, replicas: int, now: float):
        start = super()._start_queued(job, replicas, now)
        if job.name in self.preempted:
            self.preempted.discard(job.name)
            return ResumeJob(job=job, replicas=replicas)
        return start
