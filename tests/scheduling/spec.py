"""Executable spec of the scheduler: Figures 2 and 3, written out slowly.

:class:`Spec` is the scheduling algorithm of §3.2.1 and its stages as
their definitions read, with none of the engine's machinery: plain
lists kept sorted by re-sorting, every quantity recounted from the jobs
whenever it is needed, no block aggregates, no caches and no step heap.
``test_spec.py`` drives :class:`~repro.scheduling.ElasticPolicyEngine`
and this class through one randomized stream and diffs them.

It shares no code with the engine: it imports nothing from
``repro.scheduling.elastic``, ``.joblist``, ``.literature`` or
``.power``.  It reads the inputs — the requests, the ``PolicyConfig``
fields and each stage's parameters — and calls only the input models:
``job_transform``, ``shrink_filter``, the capacity constraint's
``weight`` and the §4.3.1 performance model.  ``test_spec.py`` checks
these imports.

The definitions, in the engine's own terms:

* **Order.** A job ranks by ``(-priority, submit_time, submission
  count)``.  Running jobs keep their priority at submission; waiters are
  re-priced at the start of every event (§3.2.2 aging).
* **Figure 2** (submission). Start with ``min(free - launcher, max,
  admit)`` replicas if that reaches the minimum.  Otherwise dry-run the
  victim walk — running jobs from the lowest priority up to index 1
  (the index-0 job is never shrunk), skipping those inside their rescale
  gap, stopping at the first of strictly higher priority — and, if it
  covers the deficit in slots and constraint units, shrink towards the
  maximum and start with what is then free.  An arrival past a non-empty
  queue under a backfill rule is a backfill: it must fit as is and pass
  the rule.  An arrival that cannot start waits, and under preemption
  (§3.2.2) checkpoints lower-priority jobs if that lets it start.  A
  checkpointed or evicted job waits as a never-started one does: the
  rescale gap governs rescales, not its restart.
* **Figure 3** (completion). Hand the budget (this completion's slots
  under ``literal_completion_budget``, else everything free) to
  ``sorted(running + queue)`` in order: a waiter starts with up to its
  maximum plus its launcher slot, a runner expands; once a waiter has
  been left behind, a later waiter starts only if the backfill rule
  allows it.
* **EASY** (Lifka). A backfill may not delay the earliest start of the
  queue head (conservative: of any waiter ahead of it), projected from
  runtime estimates.  A head that another job goes ahead of loses its
  reservation; under aging, only a head that no longer leads once the
  event's re-pricing is done.
* **Capacity.** Growth hands the new slots out like a completion; a
  shrink surrenders free slots, then runs the victim walk above every
  priority (forced: ignoring the rescale gap, then evicting whole jobs
  from the lowest priority up).

Not a test module: no test here is collected.
"""

import itertools
import math

from repro.errors import CapacityError, JobStateError
from repro.perfmodel.datasets import JOB_SIZE_CLASSES, step_time_model
from repro.scheduling.policy import (
    Aging,
    EnqueueJob,
    ExpandJob,
    PreemptJob,
    RequeueJob,
    ResumeJob,
    ShrinkJob,
    StartJob,
    StaticPriority,
)

#: EASY's tolerance on projected start times (seconds).
TOLERANCE = 1e-9
#: Slack on the constraint budget (fractional weights accumulate drift).
BUDGET_SLACK = 1e-9
#: Estimated runtime of a request outside the performance model.
DEFAULT_ESTIMATE = 3600.0


def estimate(request, replicas):
    """Runtime of ``request`` at a fixed width: the §4.3.1 size-class
    model (``timesteps`` × step time at the width clamped to the class),
    else the request's ``est_runtime``, else an hour."""
    params = request.params or {}
    cls = JOB_SIZE_CLASSES.get(params.get("size_class") or request.size_class)
    if cls is not None:
        width = min(max(replicas, cls.min_replicas), cls.max_replicas)
        steps = params.get("timesteps", cls.timesteps)
        return float(steps) * float(step_time_model(cls)(width))
    if params.get("est_runtime") is not None:
        return float(params["est_runtime"])
    return DEFAULT_ESTIMATE


def ewt(request):
    """Estimated waiting time: less work at the minimum width ranks first."""
    return -estimate(request, request.min_replicas)


def prb(request):
    """Priority-rule blend: two per user level, less log-runtime (minutes)
    and log-width."""
    est = estimate(request, request.min_replicas)
    return (2.0 * request.priority - math.log2(1.0 + est / 60.0)
            - math.log2(float(request.min_replicas)))


#: The static rules the spec defines, by the qualified name of the
#: function a ``StaticPriority`` wraps.
STATIC_RULES = {
    "repro.scheduling.literature.ewt_priority": ewt,
    "repro.scheduling.literature.prb_priority": prb,
}


def static_rule(fn):
    if fn is StaticPriority.fn:
        return lambda request: request.priority
    name = f"{getattr(fn, '__module__', '')}.{getattr(fn, '__qualname__', '')}"
    if name not in STATIC_RULES:
        raise ValueError(f"the spec does not define priority rule {fn!r}")
    return STATIC_RULES[name]


def rank(job):
    return job.key


class Job:
    """One job; attribute names follow the engine's ``SchedulerJob`` so a
    shrink filter or a stream reads either."""

    def __init__(self, request, now, seq, priority):
        self.request = request
        self.name = request.name
        self.min_replicas = request.min_replicas
        self.max_replicas = request.max_replicas
        self.submit_time = now
        self.seq = seq
        self.priority = priority  # at submission
        self.key = (-priority, now, seq)
        self.state = "Queued"
        self.replicas = 0
        self.last_action = -math.inf


class Spec:
    """The engine's event interface over plain sorted lists."""

    def __init__(self, total_slots, config):
        self.total_slots = total_slots
        self.config = config
        self.gap = config.rescale_gap
        self.launcher = config.launcher_slots
        rule = config.priority
        self.aging = rule if isinstance(rule, Aging) else None
        self.base_priority = static_rule(
            (rule.base if self.aging else rule).fn)
        self.constraint = (config.capacity_constraint()
                           if config.capacity_constraint else None)
        self.used = 0.0  # constraint units held by running jobs
        self.backfill = config.backfill
        self.jobs = {}
        self.running = []  # sorted by key
        self.queue = []  # sorted by key
        self.preempted = set()
        self.seq = itertools.count()
        #: EASY's head reservations: job name -> reserved start time.
        self.head_reservations = {}

    # -- accounting ----------------------------------------------------

    @property
    def free_slots(self):
        free = self.total_slots - sum(j.replicas + self.launcher
                                      for j in self.running)
        if free < 0:
            raise CapacityError(f"over-committed by {-free} slots")
        return free

    def weight(self, request):
        return self.constraint.weight(request) if self.constraint else 0.0

    def admit(self, request):
        """Replicas of ``request`` the constraint's remaining budget holds."""
        if self.constraint is None:
            return request.max_replicas
        w = self.weight(request)
        headroom = self.constraint.budget_watts - self.used
        if w <= 0:
            return request.max_replicas
        if headroom <= 0:
            return 0
        return int((headroom + BUDGET_SLACK) // w)

    def set_replicas(self, job, replicas):
        self.used += self.weight(job.request) * (replicas - job.replicas)
        job.replicas = replicas

    def snapshot(self):
        return {name: (job.state, job.replicas)
                for name, job in self.jobs.items()}

    # -- priorities ----------------------------------------------------

    def aged(self, job, now):
        """§3.2.2: one unit per whole interval waited, up to the cap; a
        base at or above the cap stays as it is."""
        rule = self.aging
        if job.priority >= rule.max_priority:
            return job.priority
        waited = int(max(0.0, now - job.submit_time) // rule.interval)
        return min(rule.max_priority, job.priority + waited)

    def reprice(self, now):
        if self.aging is None or not self.queue:
            return
        head = self.queue[0]
        for job in self.queue:
            job.key = (-self.aged(job, now), job.submit_time, job.seq)
        self.queue.sort(key=rank)
        if self.queue[0] is not head:
            self.head_reservations.pop(head.name, None)

    # -- Figure 2 ------------------------------------------------------

    def on_submit(self, request, now):
        request = self.config.job_transform(request)
        if request.name in self.jobs:
            raise JobStateError(f"job {request.name!r} already submitted")
        self.reprice(now)
        job = Job(request, now, next(self.seq), self.base_priority(request))
        self.jobs[job.name] = job
        out = []
        replicas = min(self.free_slots - self.launcher, job.max_replicas,
                       self.admit(request))
        if self.backfill is not None and self.queue:
            if replicas < job.min_replicas or not self.allows(job, replicas,
                                                              now):
                return self.wait(job, now, out)
        elif replicas < job.min_replicas:
            avail = self.free_slots - self.launcher
            w, headroom = self.weight(request), 0.0
            if self.constraint is not None:
                headroom = self.constraint.budget_watts - self.used
            if not self.can_free(job.priority, now,
                                 job.min_replicas - avail,
                                 job.min_replicas * w - headroom):
                return self.wait(job, now, out)
            self.shrink_walk(job.priority, now, job.max_replicas - avail,
                             job.max_replicas * w - headroom, self.gap, out)
            replicas = min(self.free_slots - self.launcher, job.max_replicas,
                           self.admit(request))
            if replicas < job.min_replicas:
                return self.wait(job, now, out)
        out.append(self.start(job, replicas, now))
        return out

    def victims(self, priority, now, gap):
        """Figure 2's walk: running jobs from the lowest priority up to
        index 1, past their rescale gap, until one outranks ``priority``."""
        for job in reversed(self.running[1:]):
            if now - job.last_action < gap:
                continue
            if job.priority > priority:
                return
            yield job

    def can_free(self, priority, now, slots, units):
        """The dry run: could the victims' surplus cover both deficits?"""
        for job in self.victims(priority, now, self.gap):
            if slots <= 0 and units <= 0:
                break
            extra = job.replicas - job.min_replicas
            if extra > 0:
                slots -= extra
                units -= extra * self.weight(job.request)
        return slots <= 0 and units <= 0

    def shrink_walk(self, priority, now, slots, units, gap, out):
        """Shrink each victim by what is still owed, in slots or in
        constraint units at its weight, down to its minimum."""
        for job in self.victims(priority, now, gap):
            if slots <= 0 and units <= 0:
                return
            if job.replicas <= job.min_replicas:
                continue
            w = self.weight(job.request)
            want = max(slots, 0)
            if units > 0 and w > 0:
                want = max(want, math.ceil(units / w))
            if want == 0:
                continue
            new = max(job.min_replicas, job.replicas - want)
            shrink_filter = self.config.shrink_filter
            if shrink_filter is not None and not shrink_filter(job, new):
                continue
            freed = job.replicas - new
            out.append(ShrinkJob(job=job, from_replicas=job.replicas,
                                 to_replicas=new))
            self.set_replicas(job, new)
            job.last_action = now
            slots -= freed
            units -= freed * w

    def wait(self, job, now, out):
        """Enqueue ``job``; under preemption, checkpoint lower-priority
        runners (never index 0) if their slots let it start."""
        self.park(job)
        last = EnqueueJob(job=job)
        victims = self.preemption_victims(job) if self.config.preempt else []
        for victim in victims:
            self.preempted.add(victim.name)
            out.append(PreemptJob(job=victim,
                                  released_replicas=self.release(victim)))
        if victims:
            self.queue.remove(job)
            last = self.start(job, min(self.free_slots - self.launcher,
                                       job.max_replicas), now)
        out.append(last)
        return out

    def preemption_victims(self, job):
        needed = job.min_replicas - (self.free_slots - self.launcher)
        victims = []
        for other in reversed(self.running[1:]):
            if needed <= 0 or other.priority >= job.priority:
                break
            victims.append(other)
            needed -= other.replicas + self.launcher
        return victims if needed <= 0 else []

    # -- Figure 3 ------------------------------------------------------

    def on_complete(self, name, now):
        job = self.jobs.get(name)
        if job is None or job.state != "Running":
            raise JobStateError(f"job {name!r} is not running")
        freed = job.replicas + self.launcher
        self.running.remove(job)
        self.set_replicas(job, 0)
        job.state = "Completed"
        if self.config.literal_completion_budget:
            return self.hand_out(freed, now)
        return self.hand_out(self.free_slots, now)

    def hand_out(self, budget, now):
        self.reprice(now)
        out = []
        passed = False  # a waiter was left behind
        for job in sorted(self.running + self.queue, key=rank):
            if budget <= 0:
                break
            waiting = job.state == "Queued"
            if now - job.last_action < self.gap:
                passed = passed or waiting
            elif waiting:
                add = min(budget - self.launcher, job.max_replicas,
                          self.admit(job.request))
                if add >= job.min_replicas and (
                        not passed or self.backfill is None
                        or self.allows(job, add, now)):
                    out.append(self.start_waiter(job, add, now))
                    budget -= add + self.launcher
                else:
                    passed = True
            elif job.replicas < job.max_replicas:
                add = min(budget, job.max_replicas - job.replicas,
                          self.admit(job.request))
                if add > 0 and job.replicas + add >= job.min_replicas:
                    if add > self.free_slots:
                        raise CapacityError(f"cannot expand {job.name}")
                    out.append(ExpandJob(job=job, from_replicas=job.replicas,
                                         to_replicas=job.replicas + add))
                    self.set_replicas(job, job.replicas + add)
                    job.last_action = now
                    budget -= add
        return out

    # -- EASY backfilling ------------------------------------------------

    def allows(self, job, replicas, now):
        """Lifka: may ``job`` start now with ``replicas`` without delaying
        the reserved waiters ahead of it?"""
        ahead = [q for q in self.queue if q.key < job.key]
        if not self.backfill.conservative:
            ahead = ahead[:1]
        if not ahead:
            self.pass_head(job)
            return True
        need = replicas + self.launcher
        releases = [
            (max(now, j.last_action + estimate(j.request, j.replicas)),
             j.replicas + self.launcher)
            for j in self.running
        ]
        free = self.free_slots
        without = self.project(ahead, free, releases, now)
        with_job = self.project(
            ahead, free - need,
            releases + [(now + estimate(job.request, replicas), need)], now,
        )
        if any(with_job[q.name] > without[q.name] + TOLERANCE for q in ahead):
            return False
        self.head_reservations[ahead[0].name] = with_job[ahead[0].name]
        return True

    def project(self, reserved, free, releases, now):
        """Earliest start of each reserved job in turn, at its minimum
        width, as the running jobs' estimated finishes free slots."""
        releases = sorted(releases)
        starts = {}
        for job in reserved:
            need = job.min_replicas + self.launcher
            at = now
            while free < need and releases:
                at, slots = releases.pop(0)
                free += slots
            if free < need:
                starts[job.name] = math.inf
                continue
            starts[job.name] = at
            free -= need
            releases = sorted(releases + [
                (at + estimate(job.request, job.min_replicas), need)])
        return starts

    def pass_head(self, job):
        """``job`` goes ahead of every waiter: the head loses its
        reservation."""
        for other in self.queue:
            if other is not job:
                self.head_reservations.pop(other.name, None)
                return

    # -- transitions ---------------------------------------------------

    def start(self, job, replicas, now):
        if replicas + self.launcher > self.free_slots:
            raise CapacityError(f"cannot start {job.name}")
        self.set_replicas(job, replicas)
        job.state = "Running"
        job.last_action = now
        job.key = (-job.priority, job.submit_time, job.seq)
        self.running = sorted(self.running + [job], key=rank)
        return StartJob(job=job, replicas=replicas)

    def start_waiter(self, job, replicas, now):
        self.queue.remove(job)
        start = self.start(job, replicas, now)
        if job.name in self.preempted:
            self.preempted.discard(job.name)
            return ResumeJob(job=job, replicas=replicas)
        return start

    def park(self, job):
        job.state = "Queued"
        self.queue = sorted(self.queue + [job], key=rank)
        if self.queue[0] is job:
            self.pass_head(job)

    def release(self, job):
        """Back to the queue with all slots freed (preemption, eviction);
        the job keeps its running rank until the next re-pricing.  It
        starts over as a never-started job does, so the rescale gap does
        not hold back its restart."""
        released = job.replicas
        self.running.remove(job)
        self.set_replicas(job, 0)
        job.last_action = -math.inf
        self.park(job)
        return released

    # -- substrate events ----------------------------------------------

    def on_rescale_failed(self, name, actual_replicas):
        job = self.jobs[name]
        if job.state != "Running":
            raise JobStateError(f"job {name!r} is not running")
        self.set_replicas(job, actual_replicas)
        self.free_slots  # raises if over-committed

    def grow_capacity(self, slots, now):
        self.total_slots += slots
        return self.rebalance(now)

    def rebalance(self, now):
        budget = self.free_slots
        return self.hand_out(budget, now) if budget > 0 else []

    def shrink_capacity(self, slots, now, *, force=False):
        slots = min(slots, self.total_slots)
        self.reprice(now)
        out = []
        if slots > self.free_slots:
            gap = -math.inf if force else self.gap
            self.shrink_walk(math.inf, now, slots - self.free_slots, 0.0,
                             gap, out)
        if force:
            for job in self.running[::-1]:
                if self.free_slots >= slots:
                    break
                out.append(RequeueJob(
                    job=job, released_replicas=self.release(job)))
        removed = min(slots, self.free_slots)
        self.total_slots -= removed
        return removed, out
