"""Schedulers from the literature, registered on the policy registry.

The paper's evaluation stops at its four policies; the ROADMAP's "policy
diversity" item asks for the classic space next to them.  This module
ships the first residents, built entirely on the
:class:`~repro.scheduling.policy.PolicyConfig` hook stages:

* **ewt** — estimated-waiting-time priority rule: jobs with less
  estimated work outrank longer ones at equal user priority
  (a static priority stage; the SJF-flavoured EWT heuristic of the
  accasim schedulers-from-literature collection).
* **prb** — priority-rule-based ordering (Borghesi et al.): a weighted
  blend of user priority, estimated runtime, and requested size.
* **easy-backfill** — EASY backfilling (Lifka's aggressive variant):
  an arrival may jump the queue only if it provably does not delay the
  *reserved queue head*; ``conservative=True`` protects every waiting
  job, not just the head (backfill-eligibility stage).

``ewt`` and ``prb`` are the elastic algorithm with a fixed priority
stage, registered by :func:`~repro.scheduling.policies.elastic_variant`;
``easy-backfill`` keeps a factory of its own for ``conservative``.

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
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .job import JobRequest, JobState, SchedulerJob, priority_order_key
from .policies import elastic_variant
from .policy import PolicyConfig, StaticPriority
from .registry import REGISTRY

__all__ = [
    "estimate_runtime",
    "runtime_floor",
    "ewt_priority",
    "prb_priority",
    "EasyBackfill",
    "DEFAULT_RUNTIME_ESTIMATE",
]

#: Fallback when a request carries neither a size class nor an estimate.
DEFAULT_RUNTIME_ESTIMATE = 3600.0

@lru_cache(maxsize=None)
def _step_time_range(name: str, low: int, high: int
                     ) -> Optional[Tuple[float, float, float]]:
    """Default timesteps of size class ``name`` and its least and
    greatest step time over widths ``low`` .. ``high``, each clamped
    into the class; None for a name the model does not know.

    Keyed by the class name, not the class: hashing a frozen size class
    on every call cost about 40% of :func:`runtime_floor`.  The import
    is lazy, so ``repro.scheduling`` stays importable without the
    performance-model stack; it runs once per key.
    """
    from ..perfmodel.datasets import size_class, step_time_model

    try:
        cls = size_class(name)
    except KeyError:
        return None
    step_time = step_time_model(cls)
    low = min(max(low, cls.min_replicas), cls.max_replicas)
    high = min(max(high, cls.min_replicas), cls.max_replicas)
    times = [float(step_time(width)) for width in range(low, high + 1)]
    return float(cls.timesteps), min(times), max(times)


def _model(request: JobRequest, low: int, high: int
           ) -> Optional[Tuple[float, float, float]]:
    """``(timesteps, least step time, greatest step time)`` of a request
    the §4.3.1 model prices, over widths ``low`` .. ``high``, or None
    (``params["timesteps"]`` overrides the class default)."""
    params = request.params
    name = (params and params.get("size_class")) or request.size_class
    if name is None:
        return None
    model = _step_time_range(name, low, high)
    if model is not None and params and "timesteps" in params:
        return float(params["timesteps"]), model[1], model[2]
    return model


def _fixed_estimate(request: JobRequest) -> float:
    """The estimate of a request outside the model: any width."""
    est = (request.params or {}).get("est_runtime")
    return float(est) if est is not None else DEFAULT_RUNTIME_ESTIMATE


def estimate_runtime(request: JobRequest, replicas: int) -> float:
    """Estimated runtime of ``request`` at a fixed ``replicas``.

    Uses the §4.3.1 size-class model exactly as the simulator does
    (``params["timesteps"]`` overriding the class default, the width
    clamped into the class), so the estimate matches the simulated
    runtime of a job that never rescales.  Requests outside the model
    fall back to ``params["est_runtime"]``, then to
    :data:`DEFAULT_RUNTIME_ESTIMATE`.
    """
    model = _model(request, replicas, replicas)
    if model is None:
        return _fixed_estimate(request)
    steps, step_time, _ = model
    return steps * step_time


def runtime_floor(request: JobRequest) -> float:
    """The least :func:`estimate_runtime` of ``request`` over the widths
    it may start at, ``min_replicas`` .. ``max_replicas``.

    Exact, not just a bound: the estimate is ``timesteps × step time``,
    and a product with a fixed factor is monotone in the other, so the
    minimum sits at the fastest or the slowest width.  The step-time
    range is computed once per (class name, min, max).  EASY's queue
    blocks call this at most once per job while the job is queued, and
    never on the submit path.
    """
    model = _model(request, request.min_replicas, request.max_replicas)
    if model is None:
        return _fixed_estimate(request)
    steps, fastest, slowest = model
    return min(steps * fastest, steps * slowest)


def ewt_priority(request: JobRequest) -> float:
    """Priority rule: less estimated work ⇒ higher rank.

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

    The number of candidates still grows with the backlog: a completion
    that starts nobody tests every waiter that fits the budget.  So the
    aggressive variant also answers :meth:`rejects_block` for a whole
    queue block at once: Lifka's test with the block's least need
    (``min_needed``) and its least estimated runtime at any allowed
    width (the block's cached minimum of its members'
    :func:`runtime_floor`) denies every member, so the Figure-3 walk
    steps over the block in O(1).  On the seed-32 Poisson stream at 256
    slots, ``allows`` ran about 22, 84 and 166 times per job at 1k, 4k
    and 8k jobs without the block test, and about 0.2 times per job with
    it.  The block keeps one floor per member, computed on the first
    block test after the job is queued and never on submit: about 0.8
    :func:`runtime_floor` calls per queue insertion at 1k to 4k jobs,
    where clearing the block's floor on every change and rescanning it
    took 12 to 16.

    ``last_reservations`` keeps the most recent with-candidate
    projection (job name → reserved start time).  Only the *head* entry
    is a hard bound: non-head projections under ``conservative`` commit
    each reserved job at its minimum size, while the engine's moldable
    sizing may start an earlier job wider and push later waiters out —
    so ``last_head_reservations`` tracks the head entries alone, and the
    property suite asserts heads actually start by their reserved times.
    A head that a higher-ranked job overtakes while it still waits (the
    newcomer enters the queue ahead of it, starts ahead of every waiter,
    or an aging re-key leaves another waiter ahead of it at the end of
    an event) loses both entries: its reservation guarded it against
    backfills, not against higher priorities.
    """

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
            # Never a backfill: ``job`` starts ahead of every waiter, and
            # the head it passes (the first waiter other than ``job``;
            # starts deferred mid-walk do not wait) is overtaken.
            if self.last_head_reservations:
                for q in engine.queue:
                    if q is not job and q.state == JobState.QUEUED:
                        self.overtaken(q)
                        break
            return True
        launcher = engine.config.launcher_slots
        self._price(engine, now, launcher)
        need = replicas + launcher
        if not self.conservative:
            if ahead[0] is not self._head:
                self._price_head(ahead[0], launcher)
            # Lifka's test: the candidate delays the head iff it takes
            # slots the head needs at S and still holds them after S.
            if (need > self._extra and self._shadow < math.inf
                    and now + estimate_runtime(job.request, replicas)
                    > self._shadow + 1e-9):
                return False
        releases = self._releases.copy()
        releases.append((now + estimate_runtime(job.request, replicas), need))
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

    def rejects_block(self, engine, block, now: float) -> bool:
        """True if :meth:`allows` would deny every member of the queue
        ``block`` that reaches it at ``now``.

        The engine asks only once a waiter that ranks above every member
        left in the block has been left behind, so each member's head is
        the first waiting job.  A member reaches :meth:`allows` with at
        least its ``min_replicas``, so with a need of at least
        ``block.min_needed`` plus the launcher, and with an estimate of
        at least the block's runtime floor.  A denial changes no engine
        state, so ``S`` and ``E`` hold for the whole block: if the least
        need exceeds ``E`` and the least runtime still ends past ``S``,
        Lifka's test denies them all.  The conservative variant protects
        every waiter, not just the head, and never rejects in bulk.
        """
        if self.conservative:
            return False
        launcher = engine.config.launcher_slots
        self._price(engine, now, launcher)
        for head in engine.queue:
            if head.state == JobState.QUEUED:
                break
        else:
            return False
        if head is not self._head:
            self._price_head(head, launcher)
        if (self._shadow == math.inf
                or block.min_needed + launcher <= self._extra):
            return False
        return now + block.floor(runtime_floor) > self._shadow + 1e-9

    def overtaken(self, head: SchedulerJob) -> None:
        """Another job went ahead of ``head``, which led the queue: it
        loses its reservation."""
        self.last_reservations.pop(head.name, None)
        self.last_head_reservations.pop(head.name, None)

    # -- the shadow-profile projection ---------------------------------

    def _price(self, engine, now: float, launcher: int) -> None:
        """Price ``engine`` at ``now``, unless that state is priced
        already: free slots plus the sorted (finish, slots) release of
        every running job — including pending starts deferred mid-walk
        (the engine parks them on ``_pending_starts`` while they are
        still physically in the queue; their slots are already charged).
        """
        if (engine is self._engine and now == self._now
                and engine.transitions == self._transitions):
            return
        releases: List[Tuple[float, int]] = []
        for records in (engine.running, engine._pending_starts or ()):
            for record in records:
                replicas = record.replicas
                started = record.last_action
                if started == -math.inf or math.isnan(started):
                    started = now
                done = started + estimate_runtime(record.request, replicas)
                releases.append((done if done > now else now,
                                 replicas + launcher))
        releases.sort()
        self._engine = engine
        self._transitions = engine.transitions
        self._now = now
        self._free = engine.free_slots
        self._releases = releases
        self._head = None

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
                (at + estimate_runtime(head.request,
                                       head.request.min_replicas), need),
            )
        return out


# -- registrations -----------------------------------------------------


elastic_variant(
    "ewt", tags=("literature", "priority-rule"),
    priority=StaticPriority(ewt_priority),
    description="estimated-waiting-time ordering: least estimated work first",
)
elastic_variant(
    "prb", tags=("literature", "priority-rule"),
    priority=StaticPriority(prb_priority),
    description="priority-rule-based blend of priority, runtime, and width",
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
