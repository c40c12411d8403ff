"""Oracle for the preemption stage: the subclass it replaced.

:class:`PreemptivePolicyEngine` is copied verbatim from the engine as it
was before preemption became the ``PolicyConfig.preempt`` stage: it ran
Figure 2 through the base engine and, when the arrival ended up
enqueued, walked the victims and started the arrival afterwards.  It
logs its own decisions on top of the base engine's, so only the
returned lists are compared.

:class:`PreemptOracle` runs that copy on a ``preempt=False`` copy of its
config, so a config with the stage on drives the shipped engine and the
oracle alike without preempting twice.  ``fig2_oracle.py`` and
``fig3_oracle.py`` build their preemptive oracles on it.  Not a test
module: no test here is collected.
"""

import dataclasses
from itertools import islice
from typing import List, Optional

from repro.errors import SchedulingError
from repro.scheduling import ElasticPolicyEngine
from repro.scheduling.job import SchedulerJob
from repro.scheduling.policy import (
    Decision,
    EnqueueJob,
    PolicyConfig,
    PreemptJob,
    ResumeJob,
)


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
        self._unpark(job)
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


class PreemptOracle(PreemptivePolicyEngine):
    """The copy above with the engine's own preemption stage off."""

    def __init__(self, total_slots: int, config: Optional[PolicyConfig] = None):
        config = dataclasses.replace(config or PolicyConfig(), preempt=False)
        super().__init__(total_slots, config)
