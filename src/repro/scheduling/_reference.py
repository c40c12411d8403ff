"""Frozen pre-optimization reference of the Figure-2/3 policy engine.

:mod:`repro.scheduling.elastic` was reworked for per-event speed
(incremental slot accounting, permanently sorted job lists, a lazy merge
for the Figure-3 walk).  This module preserves the original direct
transliteration of the paper's pseudocode **verbatim** so the optimized
engine can be proven equivalent:

* ``tests/scheduling/test_decision_log_equivalence.py`` drives randomized
  workloads through both implementations and asserts byte-identical
  decision sequences;
* ``benchmarks/bench_policy_engine.py`` and ``repro bench`` run both on
  the same synthetic workload to report the events/sec speedup.

Do **not** optimize this module; its entire value is staying slow and
obviously faithful to the paper.  Behavioural fixes that change decision
sequences must be applied to both implementations in lockstep (and the
equivalence test will insist on it).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import CapacityError, JobStateError
from .job import JobRequest, JobState, SchedulerJob, priority_order_key
from .policy import (
    Decision,
    EnqueueJob,
    ExpandJob,
    PolicyConfig,
    ShrinkJob,
    StartJob,
)

__all__ = [
    "ReferenceElasticPolicyEngine",
    "ReferencePreemptivePolicyEngine",
]


class ReferenceElasticPolicyEngine:
    """The original O(n)-per-event Figure-2/3 engine (pre-PR-2)."""

    def __init__(self, total_slots: int, config: Optional[PolicyConfig] = None):
        if total_slots < 1:
            raise CapacityError("total_slots must be positive")
        self.total_slots = int(total_slots)
        self.config = config or PolicyConfig()
        self.running: List[SchedulerJob] = []  # decreasing priority order
        self.queue: List[SchedulerJob] = []  # decreasing priority order
        self._jobs: Dict[str, SchedulerJob] = {}
        self.decision_log: List[Decision] = []

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    @property
    def free_slots(self) -> int:
        """Slots not held by running jobs (workers + launcher reservations)."""
        used = sum(j.replicas + self.config.launcher_slots for j in self.running)
        free = self.total_slots - used
        if free < 0:
            raise CapacityError(
                f"scheduler over-committed: {used}/{self.total_slots} slots"
            )
        return free

    def job(self, name: str) -> SchedulerJob:
        try:
            return self._jobs[name]
        except KeyError:
            raise JobStateError(f"unknown job {name!r}") from None

    def jobs_by_priority(self) -> List[SchedulerJob]:
        """Running and queued jobs in decreasing priority (Fig 3's allJobs)."""
        return sorted(self.running + self.queue, key=priority_order_key)

    # ------------------------------------------------------------------
    # Event: new job submitted (Figure 2)
    # ------------------------------------------------------------------

    def on_submit(self, request: JobRequest, now: float) -> List[Decision]:
        request = self.config.job_transform(request)
        if request.name in self._jobs:
            raise JobStateError(f"job {request.name!r} already submitted")
        job = SchedulerJob(request=request, submit_time=now)
        self._jobs[job.name] = job
        reserve = self.config.launcher_slots
        gap = self.config.rescale_gap
        decisions: List[Decision] = []

        # replicas = min(freeSlots - 1, job.maxReplicas)
        replicas = min(self.free_slots - reserve, job.max_replicas)
        if replicas >= job.min_replicas:
            decisions.append(self._start(job, replicas, now))
            return self._log(decisions)

        # Dry run: would shrinking lower-priority jobs free enough slots to
        # reach the new job's minimum?
        num_to_free = job.min_replicas - (self.free_slots - reserve)
        index = len(self.running) - 1
        while num_to_free > 0 and index > 0:
            candidate = self.running[index]
            index -= 1
            if now - candidate.last_action < gap:
                continue
            if candidate.priority > job.priority:
                break
            if candidate.replicas > candidate.min_replicas:
                new_replicas = max(
                    candidate.min_replicas, candidate.replicas - num_to_free
                )
                num_to_free -= candidate.replicas - new_replicas
        if num_to_free > 0:
            decisions.append(self._enqueue(job))
            return self._log(decisions)

        # Real pass: shrink towards freeing up to maxReplicas' worth.
        min_to_free = job.min_replicas - (self.free_slots - reserve)
        max_to_free = job.max_replicas - (self.free_slots - reserve)
        index = len(self.running) - 1
        while max_to_free > 0 and index > 0:
            candidate = self.running[index]
            index -= 1
            if now - candidate.last_action < gap:
                continue
            if candidate.priority > job.priority:
                break
            if candidate.replicas > candidate.min_replicas:
                new_replicas = max(
                    candidate.min_replicas, candidate.replicas - max_to_free
                )
                old_replicas = candidate.replicas
                shrink = self._shrink(candidate, new_replicas, now)
                if shrink is not None:
                    decisions.append(shrink)
                    freed = old_replicas - new_replicas
                    min_to_free -= freed
                    max_to_free -= freed
        if min_to_free > 0:
            decisions.append(self._enqueue(job))
            return self._log(decisions)

        replicas = min(self.free_slots - reserve, job.max_replicas)
        decisions.append(self._start(job, replicas, now))
        return self._log(decisions)

    # ------------------------------------------------------------------
    # Event: job finished (Figure 3)
    # ------------------------------------------------------------------

    def on_complete(self, name: str, now: float) -> List[Decision]:
        job = self.job(name)
        if job.state != JobState.RUNNING:
            raise JobStateError(f"job {name!r} is {job.state.value}, not Running")
        # freeWorkers(job): release the job's pods.
        job.state = JobState.COMPLETED
        job.completion_time = now
        self.running.remove(job)
        freed = job.replicas + self.config.launcher_slots
        job.replicas = 0
        if self.config.literal_completion_budget:
            # Figure 3 verbatim: redistribute only this job's workers.
            num_workers = freed
        else:
            # Deadlock-free default: the budget is everything now free
            # (this completion plus leftovers from earlier events).
            num_workers = self.free_slots

        reserve = self.config.launcher_slots
        gap = self.config.rescale_gap
        decisions: List[Decision] = []
        for candidate in self.jobs_by_priority():
            if num_workers <= 0:
                break
            if now - candidate.last_action < gap:
                continue
            if candidate.replicas < candidate.max_replicas:
                add = min(num_workers, candidate.max_replicas - candidate.replicas)
                if candidate.state == JobState.QUEUED:
                    # Starting a queued job also needs its launcher slot.
                    add = min(num_workers - reserve, candidate.max_replicas)
                    if add >= candidate.min_replicas:
                        decisions.append(self._start_queued(candidate, add, now))
                        num_workers -= add + reserve
                elif candidate.replicas + add >= candidate.min_replicas:
                    decisions.append(self._expand(candidate, candidate.replicas + add, now))
                    num_workers -= add
        # Remaining freed workers return to the free pool implicitly.
        return self._log(decisions)

    # ------------------------------------------------------------------
    # Substrate feedback
    # ------------------------------------------------------------------

    def on_rescale_failed(self, name: str, actual_replicas: int) -> None:
        job = self.job(name)
        if job.state != JobState.RUNNING:
            raise JobStateError(f"job {name!r} is not running")
        job.replicas = int(actual_replicas)
        if self.free_slots < 0:  # pragma: no cover - defensive
            raise CapacityError("rescale failure reconciliation over-committed")

    # ------------------------------------------------------------------
    # Internal transitions (each updates lastAction, per §3.2.1)
    # ------------------------------------------------------------------

    def _start(self, job: SchedulerJob, replicas: int, now: float) -> StartJob:
        self._validate_capacity(replicas + self.config.launcher_slots)
        job.state = JobState.RUNNING
        job.replicas = replicas
        job.last_action = now
        job.start_time = now
        self.running.append(job)
        self.running.sort(key=priority_order_key)
        return StartJob(job=job, replicas=replicas)

    def _start_queued(self, job: SchedulerJob, replicas: int, now: float) -> StartJob:
        self.queue.remove(job)
        return self._start(job, replicas, now)

    def _enqueue(self, job: SchedulerJob) -> EnqueueJob:
        # NOTE: lastAction deliberately untouched (see repro.scheduling.elastic).
        job.state = JobState.QUEUED
        self.queue.append(job)
        self.queue.sort(key=priority_order_key)
        return EnqueueJob(job=job)

    def _shrink(self, job: SchedulerJob, new_replicas: int, now: float) -> Optional[ShrinkJob]:
        if self.config.shrink_filter is not None and not self.config.shrink_filter(
            job, new_replicas
        ):
            return None
        old = job.replicas
        job.replicas = new_replicas
        job.last_action = now
        job.rescale_count += 1
        return ShrinkJob(job=job, from_replicas=old, to_replicas=new_replicas)

    def _expand(self, job: SchedulerJob, new_replicas: int, now: float) -> ExpandJob:
        self._validate_capacity(new_replicas - job.replicas)
        old = job.replicas
        job.replicas = new_replicas
        job.last_action = now
        job.rescale_count += 1
        return ExpandJob(job=job, from_replicas=old, to_replicas=new_replicas)

    def _validate_capacity(self, extra_slots: int) -> None:
        if extra_slots > self.free_slots:
            raise CapacityError(
                f"decision needs {extra_slots} slots but only "
                f"{self.free_slots} are free"
            )

    def _log(self, decisions: List[Decision]) -> List[Decision]:
        self.decision_log.extend(decisions)
        return decisions

    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Tuple[str, int]]:
        """(state, replicas) per job — used by invariant tests."""
        return {
            name: (job.state.value, job.replicas) for name, job in self._jobs.items()
        }


class ReferencePreemptivePolicyEngine(ReferenceElasticPolicyEngine):
    """Frozen copy of the preemptive engine, now the
    ``PolicyConfig.preempt`` stage (the ``preemptive`` policy)."""

    def __init__(self, total_slots: int, config: Optional[PolicyConfig] = None):
        super().__init__(total_slots, config)
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
        from .policy import PreemptJob

        reserve = self.config.launcher_slots
        needed = job.min_replicas - (self.free_slots - reserve)
        victims: List[SchedulerJob] = []
        freed = 0
        for candidate in reversed(self.running[1:]):  # index-0 protected
            if freed >= needed:
                break
            if candidate.priority >= job.priority:
                break
            victims.append(candidate)
            freed += candidate.replicas + reserve
        if freed < needed:
            return []
        decisions: List[Decision] = []
        for victim in victims:
            self.running.remove(victim)
            released = victim.replicas
            victim.replicas = 0
            victim.state = JobState.QUEUED
            victim.last_action = now
            self.preempted.add(victim.name)
            self.queue.append(victim)
            decisions.append(PreemptJob(job=victim, released_replicas=released))
        self.queue.sort(key=lambda j: (-j.priority, j.submit_time, j.seq))
        return decisions

    def _start_queued(self, job: SchedulerJob, replicas: int, now: float):
        from .policy import ResumeJob

        start = super()._start_queued(job, replicas, now)
        if job.name in self.preempted:
            self.preempted.discard(job.name)
            return ResumeJob(job=job, replicas=replicas)
        return start
