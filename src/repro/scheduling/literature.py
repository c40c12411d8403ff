"""Schedulers from the literature, registered on the policy registry.

The paper's evaluation stops at its four policies; the ROADMAP's "policy
diversity" item asks for the classic space next to them.  This module
ships the first residents, built entirely on the
:class:`~repro.scheduling.policy.SchedulingPolicy` hook stages:

* **ewt** — estimated-waiting-time priority rule: jobs with less
  estimated work outrank longer ones at equal user priority
  (queue-ordering stage; the SJF-flavoured EWT heuristic of the
  accasim schedulers-from-literature collection).
* **prb** — priority-rule-based ordering (Borghesi et al.): a weighted
  blend of user priority, estimated runtime, and requested size.
* **easy-backfill** — EASY backfilling (Lifka's aggressive variant):
  an arrival may jump the queue only if it provably does not delay the
  *reserved queue head*; ``conservative=True`` protects every waiting
  job, not just the head (backfill-eligibility stage).

Runtime estimates come from the same §4.3.1 performance model the
simulator integrates (``timesteps × step_time(replicas)``), so for
non-rescaling jobs the estimate is *exact* — which is why
``easy-backfill`` defaults to ``rescale_gap = inf`` (moldable sizing):
under it the reservation bound is not a heuristic but a guarantee, and
the property suite can assert heads are never delayed.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Tuple

from .job import JobRequest, JobState, SchedulerJob, priority_order_key
from .policies import DEFAULT_RESCALE_GAP
from .policy import PolicyConfig
from .registry import REGISTRY

__all__ = [
    "estimate_runtime",
    "ewt_priority",
    "prb_priority",
    "EasyBackfill",
    "DEFAULT_RUNTIME_ESTIMATE",
]

#: Fallback when a request carries neither a size class nor an estimate.
DEFAULT_RUNTIME_ESTIMATE = 3600.0

# Lazy import memo: repro.scheduling must stay importable without the
# performance-model stack, but estimate_runtime sits on the EASY path
# (once per job and replica count its memo has not priced yet), so the
# import machinery must run once, not per call.
_PERFMODEL = None


def _perfmodel():
    global _PERFMODEL
    if _PERFMODEL is None:
        from ..perfmodel.datasets import size_class, step_time_model

        _PERFMODEL = (size_class, step_time_model)
    return _PERFMODEL


def estimate_runtime(request: JobRequest, replicas: int) -> float:
    """Estimated runtime of ``request`` at a fixed ``replicas``.

    Uses the §4.3.1 size-class model exactly as the simulator does
    (``params["timesteps"]`` overriding the class default), so the
    estimate matches the simulated runtime of a job that never rescales.
    Requests outside the model fall back to ``params["est_runtime"]``,
    then to :data:`DEFAULT_RUNTIME_ESTIMATE`.
    """
    params = request.params or {}
    name = params.get("size_class") or request.size_class
    if name is not None:
        size_class, step_time_model = _perfmodel()
        try:
            cls = size_class(name)
        except KeyError:
            cls = None
        if cls is not None:
            steps = params.get("timesteps", cls.timesteps)
            fixed = min(max(replicas, cls.min_replicas), cls.max_replicas)
            return float(steps) * float(step_time_model(cls)(fixed))
    est = params.get("est_runtime")
    if est is not None:
        return float(est)
    return DEFAULT_RUNTIME_ESTIMATE


def ewt_priority(request: JobRequest) -> float:
    """Queue-ordering stage: less estimated work ⇒ higher rank.

    At its minimum size a job's estimated runtime is the longest it can
    take; negating it makes short jobs outrank long ones while the
    submission-time tie-break keeps FIFO among equals.
    """
    return -estimate_runtime(request, request.min_replicas)


def prb_priority(request: JobRequest) -> float:
    """Priority-rule-based blend (Borghesi et al.-style weights).

    User priority dominates (weight 2 per level); among similar
    priorities, shorter and narrower jobs rank first.  Log scales keep
    one term from drowning the others across the §4.3.1 size range.
    """
    est = estimate_runtime(request, request.min_replicas)
    return (
        2.0 * request.priority
        - math.log2(1.0 + est / 60.0)
        - math.log2(float(request.min_replicas))
    )


class EasyBackfill:
    """EASY backfilling as a backfill-eligibility stage.

    ``allows`` projects the cluster forward using the same runtime
    estimates the simulator integrates: the *reserved* jobs (the queue
    head, or every waiting job when ``conservative``) each get the
    earliest time enough slots accumulate for their minimum size.  A
    backfill candidate is admitted only if every reservation computed
    *with* the candidate running is no later than *without* it.

    Cost: the release profile — free slots plus the estimated finish of
    every running job, sorted — is built once per engine state, keyed on
    the engine object, its ``transitions`` counter and ``now``, so every
    candidate of one Figure-3 walk shares it.  The aggressive variant
    also prices the head once per state: its shadow time ``S`` (earliest
    start) and the extra slots ``E`` still free at ``S``.  A candidate's
    release can only push the head later, so the start delays the head
    iff it needs more than ``E`` slots and runs past ``S`` (Lifka's
    test): O(1) per candidate.  Only an admitted start runs the exact
    projection, to record the reservation.  The conservative variant
    keeps its chained projections over the shared profile.

    ``last_reservations`` keeps the most recent with-candidate
    projection (job name → reserved start time).  Only the *head* entry
    is a hard bound: non-head projections under ``conservative`` commit
    each reserved job at its minimum size, while the engine's moldable
    sizing may start an earlier job wider and push later waiters out —
    so ``last_head_reservations`` tracks the head entries alone, and the
    property suite asserts heads actually start by their reserved times.
    A head that a higher-ranked job overtakes while it still waits (the
    newcomer enters the queue ahead of it, or starts ahead of every
    waiter) loses both entries: its reservation guarded it against
    backfills, not against higher priorities.
    """

    #: Estimate-memo entries allowed beyond two per live job before a
    #: profile rebuild prunes the memo back to the live jobs.
    _EST_SLACK = 64

    def __init__(self, conservative: bool = False):
        self.conservative = bool(conservative)
        self.last_reservations: Dict[str, float] = {}
        self.last_head_reservations: Dict[str, float] = {}
        # The priced engine state: engine object (held, never its id:
        # engines built from one resolved config share this rule), its
        # transition count, the event time, free slots and the sorted
        # (finish, slots) releases of the running jobs.
        self._engine = None
        self._transitions = -1
        self._now = math.nan
        self._free = 0
        self._releases: List[Tuple[float, int]] = []
        # The aggressive head priced against that state: shadow time S
        # and extra slots E.
        self._head = None
        self._shadow = math.inf
        self._extra = 0
        # Estimate memo, keyed by request identity (requests carry an
        # unhashable params dict) and replicas; the stored request keeps
        # the id from being recycled.  Each profile rebuild bounds it by
        # the live (running and queued) jobs, so a streaming run never
        # pins the requests of jobs long finished.
        self._est: Dict[Tuple[int, int], Tuple[JobRequest, float]] = {}

    def _estimate(self, request: JobRequest, replicas: int) -> float:
        key = (id(request), replicas)
        hit = self._est.get(key)
        if hit is None or hit[0] is not request:
            hit = self._est[key] = (request, estimate_runtime(request, replicas))
        return hit[1]

    # -- BackfillRule --------------------------------------------------

    def allows(self, engine, job: SchedulerJob, replicas: int,
               now: float) -> bool:
        # The queue iterates in priority_order_key order, so everything
        # "ahead" of the candidate sits before it (and before the first
        # key >= its own): break there instead of scanning the whole
        # backlog, and after one hit in the aggressive variant.
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
            self.overtakes(engine, job)  # never a backfill
            return True
        launcher = engine.config.launcher_slots
        if (engine is not self._engine or now != self._now
                or engine.transitions != self._transitions):
            self._price(engine, now, launcher)
        need = replicas + launcher
        if not self.conservative:
            if ahead[0] is not self._head:
                self._price_head(ahead[0], launcher)
            # Lifka's test: the candidate delays the head iff it takes
            # slots the head needs at S and still holds them after S.
            if (need > self._extra and self._shadow < math.inf
                    and now + self._estimate(job.request, replicas)
                    > self._shadow + 1e-9):
                return False
        releases = self._releases.copy()
        releases.append((now + self._estimate(job.request, replicas), need))
        trial = self._project(ahead, self._free - need, releases, now, launcher)
        if self.conservative:
            base = self._project(ahead, self._free, self._releases.copy(),
                                 now, launcher)
            for name, reserved_at in trial.items():
                if reserved_at > base[name] + 1e-9:
                    return False
        self.last_reservations.update(trial)
        head = ahead[0].name
        self.last_head_reservations[head] = trial[head]
        return True

    def overtakes(self, engine, job: SchedulerJob) -> None:
        """``job`` goes ahead of every waiter: it entered ``engine``'s
        queue at the front, or starts past the queue without being a
        backfill.  The head it passes loses its reservation."""
        if not self.last_head_reservations:
            return
        for q in engine.queue:
            # Skip the job itself and starts deferred mid-walk.
            if q is not job and q.state == JobState.QUEUED:
                self.last_reservations.pop(q.name, None)
                self.last_head_reservations.pop(q.name, None)
                return

    # -- the shadow-profile projection ---------------------------------

    def _price(self, engine, now: float, launcher: int) -> None:
        """Price ``engine`` at ``now``: free slots plus the sorted
        (finish, slots) release of every running job — including pending
        starts deferred mid-walk (the engine parks them on
        ``_pending_starts`` while they are still physically in the queue;
        their slots are already charged).
        """
        running, queue = engine.running, engine.queue
        if len(self._est) > 2 * (len(running) + len(queue)) + self._EST_SLACK:
            self._prune(running, queue)
        estimate = self._estimate
        releases: List[Tuple[float, int]] = []
        for records in (running, engine._pending_starts or ()):
            for record in records:
                replicas = record.replicas
                started = record.last_action
                if started == -math.inf or math.isnan(started):
                    started = now
                done = started + estimate(record.request, replicas)
                releases.append((done if done > now else now,
                                 replicas + launcher))
        releases.sort()
        self._engine = engine
        self._transitions = engine.transitions
        self._now = now
        self._free = engine.free_slots
        self._releases = releases
        self._head = None

    def _prune(self, running, queue) -> None:
        """Keep only the memo entries of live jobs (pending starts still
        sit in the queue)."""
        live = {}
        for records in (running, queue):
            for record in records:
                live[id(record.request)] = record.request
        self._est = {key: hit for key, hit in self._est.items()
                     if live.get(key[0]) is hit[0]}

    def _price_head(self, head: SchedulerJob, launcher: int) -> None:
        """Shadow time ``S`` of ``head`` in the priced profile and the
        extra slots ``E``: free slots plus every release at or before
        ``S + 1e-9``, minus the head's need."""
        need = head.request.min_replicas + launcher
        releases = self._releases
        avail = self._free
        shadow = self._now if avail >= need else math.inf
        i = 0
        n = len(releases)
        while shadow == math.inf and i < n:
            at, slots = releases[i]
            i += 1
            avail += slots
            if avail >= need:
                shadow = at
        if shadow < math.inf:
            limit = shadow + 1e-9
            while i < n and releases[i][0] <= limit:
                avail += releases[i][1]
                i += 1
        self._head = head
        self._shadow = shadow
        self._extra = avail - need

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


# -- registrations -----------------------------------------------------


@REGISTRY.register(
    "ewt", tags=("literature", "priority-rule"),
    description="estimated-waiting-time ordering: least estimated work first",
)
def _ewt(
    rescale_gap: float = DEFAULT_RESCALE_GAP,
    launcher_slots: int = 0,
    shrink_filter=None,
) -> PolicyConfig:
    return PolicyConfig(
        name="ewt",
        rescale_gap=rescale_gap,
        launcher_slots=launcher_slots,
        shrink_filter=shrink_filter,
        priority_rule=ewt_priority,
    )


@REGISTRY.register(
    "prb", tags=("literature", "priority-rule"),
    description="priority-rule-based blend of priority, runtime, and width",
)
def _prb(
    rescale_gap: float = DEFAULT_RESCALE_GAP,
    launcher_slots: int = 0,
    shrink_filter=None,
) -> PolicyConfig:
    return PolicyConfig(
        name="prb",
        rescale_gap=rescale_gap,
        launcher_slots=launcher_slots,
        shrink_filter=shrink_filter,
        priority_rule=prb_priority,
    )


@REGISTRY.register(
    "easy-backfill", tags=("literature", "backfill"),
    description="EASY backfilling: starts may not delay the reserved "
                "queue head (conservative=True reserves every waiter)",
)
def _easy_backfill(
    rescale_gap: float = math.inf,  # accepted and ignored, like moldable
    launcher_slots: int = 0,
    shrink_filter=None,
    conservative: bool = False,
) -> PolicyConfig:
    # Gap pinned to inf (moldable sizing), exactly how moldable treats
    # the parameter: jobs never rescale, so the size-class runtime
    # estimates — and with them the head reservation — are exact rather
    # than heuristic, and sweep plumbing that threads a finite default
    # gap through cannot silently weaken the no-delay guarantee.
    return PolicyConfig(
        name="easy-backfill",
        rescale_gap=math.inf,
        launcher_slots=launcher_slots,
        shrink_filter=shrink_filter,
        backfill=EasyBackfill(conservative=conservative),
    )
