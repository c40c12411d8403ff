"""Oracle for the EASY backfilling rule: the per-candidate rescan.

A verbatim copy of ``EasyBackfill`` as it stood before the rule priced
the cluster once per engine state: every ``allows`` rebuilds the release
profile over every running job and runs the with- and without-candidate
projections.  ``test_easy_oracle.py`` diffs the engine's decision logs
under this rule against the shipped one.  Not a test module: no test
here is collected.
"""

import heapq
import math
from typing import Dict, List, Tuple

from repro.scheduling.job import JobRequest, JobState, SchedulerJob, priority_order_key
from repro.scheduling.literature import estimate_runtime


class EasyBackfill:
    """EASY backfilling as a backfill-eligibility stage.

    ``allows`` projects the cluster forward using the same runtime
    estimates the simulator integrates: the *reserved* jobs (the queue
    head, or every waiting job when ``conservative``) each get the
    earliest time enough slots accumulate for their minimum size.  A
    backfill candidate is admitted only if every reservation computed
    *with* the candidate running is no later than *without* it.

    ``last_reservations`` keeps the most recent with-candidate
    projection (job name → reserved start time).  Only the *head* entry
    is a hard bound: non-head projections under ``conservative`` commit
    each reserved job at its minimum size, while the engine's moldable
    sizing may start an earlier job wider and push later waiters out —
    so ``last_head_reservations`` tracks the head entries alone, and the
    property suite asserts heads actually start by their reserved times.
    """

    #: Estimate-memo epoch bound: cleared wholesale at this size, so
    #: streaming runs don't pin every completed job's request forever.
    _EST_CACHE_LIMIT = 20_000

    def __init__(self, conservative: bool = False):
        self.conservative = bool(conservative)
        self.last_reservations: Dict[str, float] = {}
        self.last_head_reservations: Dict[str, float] = {}
        self._est_cache: Dict[Tuple[int, int], Tuple[JobRequest, float]] = {}

    def _estimate(self, request: JobRequest, replicas: int) -> float:
        # Keyed by identity (requests carry an unhashable params dict);
        # the stored reference keeps the id from being recycled while
        # the entry lives, and the estimate is a pure function of the
        # request, so a hit is always exact.
        key = (id(request), replicas)
        hit = self._est_cache.get(key)
        if hit is not None and hit[0] is request:
            return hit[1]
        if len(self._est_cache) >= self._EST_CACHE_LIMIT:
            self._est_cache.clear()
        est = estimate_runtime(request, replicas)
        self._est_cache[key] = (request, est)
        return est

    # -- BackfillRule --------------------------------------------------

    def allows(self, engine, job: SchedulerJob, replicas: int,
               now: float) -> bool:
        # The queue iterates in priority_order_key order, so everything
        # "ahead" of the candidate sits before it (and before the first
        # key >= its own): break there instead of scanning the whole
        # backlog, and after one hit in the aggressive variant — this
        # runs per scan candidate, and O(queue) here is what used to
        # make deep-backlog walks quadratic.
        key = priority_order_key(job)
        ahead: List[SchedulerJob] = []
        for q in engine.queue:
            if q is job or priority_order_key(q) >= key:
                break
            if q.state == JobState.QUEUED:
                ahead.append(q)
                if not self.conservative:
                    break
        if not ahead:
            return True  # starting the head is never a backfill
        launcher = engine.config.launcher_slots
        free, releases = self._release_profile(engine, now, launcher)
        base = self._project(ahead, free, list(releases), now, launcher)
        need = replicas + launcher
        releases.append((now + self._estimate(job.request, replicas), need))
        trial = self._project(ahead, free - need, releases, now, launcher)
        for name, reserved_at in trial.items():
            if reserved_at > base[name] + 1e-9:
                return False
        self.last_reservations.update(trial)
        head = ahead[0].name
        self.last_head_reservations[head] = trial[head]
        return True

    # -- the shadow-profile projection ---------------------------------

    def _release_profile(
        self, engine, now: float, launcher: int
    ) -> Tuple[int, List[Tuple[float, int]]]:
        """Free slots plus the (finish, slots) release of every running
        job — including pending starts deferred mid-walk (the engine
        parks them on ``_pending_starts`` while they are still
        physically in the queue; their slots are already charged).
        Shared by the with- and without-candidate projections so each
        ``allows`` prices the running set once.
        """
        releases: List[Tuple[float, int]] = []

        def finish(record: SchedulerJob) -> float:
            remaining = self._estimate(record.request, record.replicas)
            started = record.last_action
            if started == -math.inf or math.isnan(started):
                started = now
            done = started + remaining
            return done if done > now else now

        for record in engine.running:
            releases.append((finish(record), record.replicas + launcher))
        pending = getattr(engine, "_pending_starts", None)
        if pending:
            for record in pending:
                releases.append((finish(record), record.replicas + launcher))
        return engine.free_slots, releases

    def _project(
        self,
        reserved: List[SchedulerJob],
        free: int,
        releases: List[Tuple[float, int]],
        now: float,
        launcher: int,
    ) -> Dict[str, float]:
        """Earliest start time per reserved job under estimated finishes.

        Reserved jobs are committed at their minimum size in order, each
        adding its own release for the conservative chain.  ``releases``
        is consumed (heapified in place).
        """
        heapq.heapify(releases)
        out: Dict[str, float] = {}
        for head in reserved:
            need = head.request.min_replicas + launcher
            at = now
            while free < need and releases:
                at, slots = heapq.heappop(releases)
                free += slots
            if free < need:
                out[head.name] = math.inf  # can never start in this profile
                continue
            out[head.name] = at
            free -= need
            heapq.heappush(
                releases,
                (at + self._estimate(head.request,
                                     head.request.min_replicas), need),
            )
        return out
