"""Oracle for Figure 3: the literal scan and the aging engine it served.

Copied verbatim from the engine as it was before aging became a
:class:`~repro.scheduling.policy.PolicyConfig` stage:

* :class:`Fig3Scan` — ``_candidates_by_priority`` and
  ``_redistribute_scan``, the literal Figure-3 scan over a merged
  snapshot of ``running + queue``, wired in as ``_redistribute``;
* :class:`AgingPolicyEngine` — the subclass that ran aging through that
  scan, sorting every candidate by effective priority at each hand-out
  (it keeps its capped ``min(max_priority, priority + boost)``, which
  demotes a waiter above the cap; the randomized streams draw
  priorities below it);
* :class:`ReferenceAgingPolicyEngine` — the pre-optimization aging
  engine, on top of :mod:`repro.scheduling._reference`, that the golden
  decision-log suite pins the aging stage against.

:class:`PreemptiveScanEngine` and :class:`PreemptiveAgingEngine` add the
preemption oracle of :mod:`tests.scheduling.preempt_oracle` to the scan.

``test_hooked_walk.py`` and ``test_aging_walk.py`` diff the shipped
indexed walk against these engines.  Not a test module: no test here is
collected.
"""

import heapq
from typing import Iterator, List, Optional

from repro.scheduling import ElasticPolicyEngine
from repro.scheduling._reference import ReferenceElasticPolicyEngine
from repro.scheduling.job import JobState, SchedulerJob, priority_order_key
from repro.scheduling.policy import Decision, PolicyConfig

from .preempt_oracle import PreemptOracle


class Fig3Scan:
    """Mixin: Figure 3 as the literal scan instead of the indexed walk."""

    def _candidates_by_priority(self) -> Iterator[SchedulerJob]:
        """Lazy merge of the two sorted sequences in decreasing priority.

        Both are permanently sorted by :func:`priority_order_key` with
        unique keys, so the merge reproduces exactly what
        ``sorted(running + queue)`` used to build — without materializing
        it.  Callers must not structurally mutate ``running``/``queue``
        while consuming the iterator.
        """
        return heapq.merge(self.running, self.queue, key=priority_order_key)

    def _redistribute(self, num_workers, now, decisions):
        self._redistribute_scan(num_workers, now, decisions)

    def _redistribute_scan(
        self, num_workers: int, now: float, decisions: List[Decision]
    ) -> None:
        """The literal Figure-3 scan over :meth:`_candidates_by_priority`.

        It was the live path only for aging (:class:`AgingPolicyEngine`
        below), whose time-dependent candidate order it sorted afresh at
        every hand-out.  It is the reference shape the indexed walk is
        tested against.
        """
        reserve = self.config.launcher_slots
        gap = self.config.rescale_gap
        cons = self._constraint
        backfill = self._backfill
        passed_queued = False  # a queued job was left waiting upstream
        for candidate in self._candidates_by_priority():
            if num_workers <= 0:
                break
            if now - candidate.last_action < gap:
                if candidate.state == JobState.QUEUED:
                    passed_queued = True
                continue
            if candidate.replicas < candidate.max_replicas:
                add = min(num_workers, candidate.max_replicas - candidate.replicas)
                if candidate.state == JobState.QUEUED:
                    # Starting a queued job also needs its launcher slot.
                    add = min(num_workers - reserve, candidate.max_replicas)
                    if cons is not None:
                        room = cons.admit(candidate.request)
                        if room < add:
                            add = room
                    if add >= candidate.min_replicas and (
                        backfill is None
                        or not passed_queued
                        or backfill.allows(self, candidate, add, now)
                    ):
                        decisions.append(self._start_queued(candidate, add, now))
                        num_workers -= add + reserve
                    else:
                        passed_queued = True
                else:
                    if cons is not None:
                        room = cons.admit(candidate.request)
                        if room < add:
                            add = room
                    if add > 0 and candidate.replicas + add >= candidate.min_replicas:
                        decisions.append(
                            self._expand(candidate, candidate.replicas + add, now)
                        )
                        num_workers -= add


class ScanEngine(Fig3Scan, ElasticPolicyEngine):
    """The shipped engine with Figure 3 as the literal scan."""


class PreemptiveScanEngine(Fig3Scan, PreemptOracle):
    """The preemption oracle with Figure 3 as the literal scan."""


class AgingPolicyEngine(ScanEngine):
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


class PreemptiveAgingEngine(AgingPolicyEngine, PreemptOracle):
    """Aging through the scan, with the preemption oracle's Figure 2."""


class ReferenceAgingPolicyEngine(ReferenceElasticPolicyEngine):
    """Pre-optimization copy of :class:`AgingPolicyEngine`."""

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
        if now is None:
            now = self._now_hint
        return sorted(
            self.running + self.queue,
            key=lambda j: (-self.effective_priority(j, now), j.submit_time, j.seq),
        )

    _now_hint: float = 0.0

    def on_submit(self, request, now: float):
        self._now_hint = now
        return super().on_submit(request, now)

    def on_complete(self, name: str, now: float):
        self._now_hint = now
        return super().on_complete(name, now)

