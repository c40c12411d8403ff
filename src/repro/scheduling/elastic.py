"""The priority-based elastic scheduling policy — Figures 2 and 3.

This is the paper's core contribution (§3.2.1), implemented faithfully
from the pseudocode, including its quirks (documented in DESIGN.md §3):

* the running-job scan uses ``index > 0``, so the single highest-priority
  running job is never considered for shrinking;
* the stop condition is strict ``j.priority > job.priority``: *equal*
  -priority running jobs are eligible shrink victims even though the
  submission-time tie-break ranks them above the newcomer;
* a new submission is scheduled independently of the queue — a low-priority
  job can start in free slots while higher-priority jobs wait (the stated
  out-of-order-allocation feature);
* enqueueing does **not** update ``lastAction`` (otherwise moldable —
  elastic with :math:`T_{rescale\\_gap} = \\infty` — could never start
  queued jobs, contradicting §4.3.2).

Two deviations (both documented in DESIGN.md §3):

* starting a *queued* job consumes ``launcher_slots`` in addition to its
  workers; Figure 3's budget arithmetic omits that launcher slot.  With
  the simulator default ``launcher_slots = 0`` this is exactly the
  pseudocode;
* ``completeJob``'s redistribution budget defaults to *all* currently
  free slots rather than only this completion's freed workers — the
  literal budget can strand a queued job forever (see
  ``PolicyConfig.literal_completion_budget``, which restores the verbatim
  behaviour for ablation).

Per-event complexity (the PR-3 hot-path contract)
-------------------------------------------------

``running`` and ``queue`` are :class:`~repro.scheduling.joblist
.IndexedJobList` instances — blocked sorted lists ordered by
:func:`priority_order_key` whose blocks carry shrink-victim aggregates
(sum of reclaimable slots, a rescale-gap-eligibility time bound, and the
cheapest member's ``min_replicas``).  With ``n`` live (running + queued)
jobs and block size ``B``:

* ``free_slots`` is O(1) — a counter maintained by every transition
  (start/shrink/expand/complete/preempt/rescale-failed), never a re-sum;
* insert/remove cost O(log(n/B) + B) — a block bisect plus a small
  C-level memmove, replacing the flat list's O(n) shift;
* the Figure-2 dry-run is an aggregate query: whole running blocks are
  credited with their ``shrinkable`` sum in O(1) when their time bound
  proves every member rescale-gap-eligible, so feasibility costs
  O(running/B) instead of O(running); the real pass skips blocks with no
  victims and touches only actual victims (plus at most one boundary
  block scanned item-by-item).  Under a capacity constraint the dry run
  scans members instead of crediting blocks, because the credit needs
  each victim's weight and block aggregates know nothing of weights;
* completion walks Figure 3's ``allJobs`` as a two-pointer merge in
  which whole *queue* blocks whose cheapest member cannot start within
  the remaining slot budget are skipped in O(1) — the budget only
  shrinks during a walk, so a skipped block can never become startable
  again.  This removes the O(queue) scan behind the 100k-job throughput
  cliff: a completion whose budget starts nobody costs O(queue/B), not
  O(queue);
* the *running* side of the same merge (PR 5) skips whole blocks with
  no expandable member: ``expandable == 0`` (every member at its
  maximum) or ``now - oldest_action < gap`` (``oldest_action`` is a
  lower bound on the members' ``last_action``, so no member can be
  rescale-gap-eligible).  Skipped runners would have emitted nothing
  and consumed no budget, so the decision sequence is untouched;
* hooked configs (a backfill rule, a capacity constraint or both) share
  both walks.  In Figure 2 the constraint's ``admit`` caps the start,
  the dry run and the real pass chase a constraint-unit deficit beside
  the slot deficit, and an arrival that would start past a non-empty
  queue is a backfill: it must pass the rule and never shrinks anyone.
  In Figure 3 a constraint only ever lowers what a candidate may take,
  so every block skip stays sound; its ``admit`` caps each start and
  expansion exactly as the literal Figure-3 scan over
  ``sorted(running + queue)`` does (``tests/scheduling/fig3_oracle.py``
  keeps it as the walk's oracle).  The scan consults the backfill rule
  only once it has left a waiter behind, and a ``passed`` flag replays
  that condition: the queue pointer sets it whenever it
  leaves a waiter behind — a skipped block or member priced out of the
  budget, a waiter inside its rescale gap, capped below its minimum, or
  denied by the rule.  Each such waiter ranks above the candidate under
  test, and the scan would have left it behind too (the budget only
  shrinks), so the flag equals the scan's at every queued start; passing
  a runner never sets it.  Under ``easy-backfill`` (``rescale_gap =
  inf``) every running block is skipped in O(1), so a completion costs
  the rule's test on each waiter that fits the budget, not a merge over
  the whole backlog;
* the priority stage (``PolicyConfig.priority``) keys each job at
  submission.  A static rule (the user priority, EWT, PRB) never
  changes a key, and its step heap stays empty.  Under aging (§3.2.2)
  a waiter's effective priority is a step function of its waiting
  time, so the heap holds each waiter's next step, and every event
  (submit, complete, capacity change) first re-keys the waiters whose
  step has come (O(log n) each).  The queue is then sorted by
  effective priority while running jobs keep their submission keys, so
  the walk's merge is the aged ``sorted(running + queue)``, and EASY
  reserves for the head of the aged order.  A re-key that puts a
  waiter at the queue front calls the backfill rule's ``overtakes``,
  which retires the reservation of the head it displaced;
* the Figure-2 dry run short-circuits to *infeasible* when the blocks'
  total ``shrinkable`` sum cannot cover the requested slots — priority
  stops and gap ineligibility only ever reduce what the walk frees, so
  the aggregate total is a sound upper bound;
* the same transitions bump ``transitions``, one int add each, so a
  hook stage can price one engine state once: EASY backfilling builds
  its release profile once per state, not once per Figure-3 candidate;
* preemption (``PolicyConfig.preempt``, §3.2.2) is a last resort on
  Figure 2's three enqueue exits (backfill denied, dry run infeasible,
  shrinks vetoed): they share one tail that enqueues the arrival and,
  when the stage is on, walks running jobs lowest priority first
  (never the index-0 job, stopping at the first that ranks at or above
  the arrival).  If the walk frees enough, each victim leaves through
  the eviction path and the arrival starts at once.  A victim resumes
  through Figure 3 as :class:`ResumeJob`; with the stage off that
  costs the default path one test of an empty set.

Decision sequences are **byte-identical** to the preserved pre-
optimization engine (:mod:`repro.scheduling._reference`); the golden
decision-log equivalence test
(``tests/scheduling/test_decision_log_equivalence.py``) enforces the
contract across randomized workloads for every policy configuration, so
the documented Figure-2/3 quirks provably survive the refactor.  For
streaming substrates, :meth:`ElasticPolicyEngine.retire` and
:attr:`ElasticPolicyEngine.keep_decision_log` bound the engine's memory
by the live-job count instead of the workload length.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Dict, List, Optional, Tuple

from ..errors import CapacityError, JobStateError, SchedulingError
from ..obs.metrics import active_registry
from .job import JobRequest, JobState, SchedulerJob, priority_order_key
from .joblist import IndexedJobList
from .policy import (
    Decision,
    EnqueueJob,
    ExpandJob,
    PolicyConfig,
    PreemptJob,
    RequeueJob,
    ResumeJob,
    ShrinkJob,
    StartJob,
)

__all__ = ["ElasticPolicyEngine"]


class ElasticPolicyEngine:
    """Pure-logic implementation of the Figure-2/3 scheduling algorithm.

    The engine owns the scheduler's bookkeeping (running list, internal
    priority queue, per-job ``lastAction``) and emits decisions; the
    substrate applies them to reality and reports completions back.
    """

    def __init__(self, total_slots: int, config: Optional[PolicyConfig] = None):
        if total_slots < 1:
            raise CapacityError("total_slots must be positive")
        if config is None:
            config = PolicyConfig()
        elif not isinstance(config, PolicyConfig):
            raise SchedulingError(
                f"config must be a PolicyConfig, got {type(config).__name__}"
            )
        self.total_slots = int(total_slots)
        self.config = config
        self.running = IndexedJobList()  # decreasing priority order
        self.queue = IndexedJobList()  # decreasing priority order
        self._jobs: Dict[str, SchedulerJob] = {}
        self.decision_log: List[Decision] = []
        #: Streaming substrates set this False so the log stays empty and
        #: memory is bounded by live jobs, not workload length.
        self.keep_decision_log: bool = True
        #: Slots held by running jobs (workers + launcher reservations),
        #: maintained incrementally by every transition.
        self._used_slots: int = 0
        #: Bumped by every transition that changes the running set, a
        #: running job's ``replicas``/``last_action``, ``_used_slots`` or
        #: ``total_slots``: a hook stage may cache work priced against one
        #: engine state (EASY's release profile) under this counter.
        self.transitions: int = 0
        # During the Figure-3 walk, queue→running moves are recorded here
        # and applied after the walk (the walk's block pointers must not
        # see structural mutations mid-flight).
        self._pending_starts: Optional[List[SchedulerJob]] = None
        # The hook stages (the user priority and None on the paper's four
        # policies, keeping every hot path bytewise identical).
        self._priority = config.priority
        #: Min-heap of ``(due, tiebreak, job, key)``: when each waiter's
        #: effective priority may next change, and the key it was pushed
        #: under.  Empty under a static priority rule.
        self._steps: List[tuple] = []
        self._step_ties = itertools.count()
        self._backfill = config.backfill
        # Optional companion of BackfillRule.allows: told when a job
        # enters the queue ahead of every waiter, so a rule can retire
        # the reservation of the head it displaced.
        self._backfill_overtakes = getattr(self._backfill, "overtakes", None)
        factory = config.capacity_constraint
        #: One fresh constraint per engine: budgets are engine state.
        self._constraint = factory() if factory is not None else None
        self._preempt = config.preempt
        #: Names of queued jobs the preemption stage checkpointed to disk;
        #: empty unless ``preempt`` is set.
        self._preempted: set = set()
        #: Span recorder a tracing substrate may attach
        #: (:class:`repro.obs.spans.PhaseSpans`); None = no span timing.
        self.spans = None
        # Telemetry binds at construction: with the registry disabled
        # ``_obs`` is None and the instrumented branches never run —
        # decision sequences are identical either way (the golden
        # decision-log suite runs with a registry attached to prove it).
        registry = active_registry()
        if registry.enabled:
            self._obs = registry
            self._obs_redistributes = registry.counter("engine.redistribute_calls")
            self._obs_shrink_passes = registry.counter("engine.shrink_pass_calls")
            self._obs_queue_skips = registry.counter(
                "engine.fig3.queue_blocks_skipped"
            )
            self._obs_running_skips = registry.counter(
                "engine.fig3.running_blocks_skipped"
            )
        else:
            self._obs = None

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    @property
    def free_slots(self) -> int:
        """Slots not held by running jobs (workers + launcher reservations)."""
        free = self.total_slots - self._used_slots
        if free < 0:
            raise CapacityError(
                f"scheduler over-committed: {self._used_slots}/"
                f"{self.total_slots} slots"
            )
        return free

    def job(self, name: str) -> SchedulerJob:
        try:
            return self._jobs[name]
        except KeyError:
            raise JobStateError(f"unknown job {name!r}") from None

    def jobs_by_priority(self) -> List[SchedulerJob]:
        """Running and queued jobs in decreasing priority (Fig 3's allJobs).

        Both lists stay sorted by :func:`priority_order_key` with unique
        keys, so merging them reproduces ``sorted(running + queue)``.
        Waiters rank by their effective priority as of the last event;
        running jobs by their priority at submission.
        """
        return list(heapq.merge(self.running, self.queue, key=priority_order_key))

    # ------------------------------------------------------------------
    # Event: new job submitted (Figure 2)
    # ------------------------------------------------------------------

    def on_submit(self, request: JobRequest, now: float) -> List[Decision]:
        request = self.config.job_transform(request)
        if request.name in self._jobs:
            raise JobStateError(f"job {request.name!r} already submitted")
        if self._steps:
            self._rekey_due(now)
        job = SchedulerJob(request=request, submit_time=now)
        job.priority = priority = self._priority.get_priority(now, job)
        self._jobs[request.name] = job
        req_min = request.min_replicas
        decisions: List[Decision] = []

        # replicas = min(freeSlots - 1, job.maxReplicas), capped by admit()
        replicas = self._start_cap(request)
        if self._backfill is not None and len(self.queue):
            # Starting past a non-empty queue is a *backfill*: it must
            # pass the rule (EASY: it may not delay the reserved head) and
            # must fit as is.  Shrinking running jobs for a queue-jumper
            # would rearrange the cluster the reservation protects.
            if replicas < req_min or not self._backfill.allows(
                self, job, replicas, now
            ):
                return self._wait(job, now, decisions)
        elif replicas < req_min:
            # Dry run: would shrinking lower-priority jobs cover the
            # deficit at the new job's minimum?  Under a constraint the
            # walk chases constraint units too (elastic shrink is the
            # constraint's actuator).  The dry run is pure, so ``avail``
            # and ``headroom`` are still current for the real pass.
            cons = self._constraint
            avail = self.free_slots - self.config.launcher_slots
            unit_deficit = unit_target = 0.0
            if cons is not None:
                weight = cons.weight(request)
                headroom = cons.headroom()
                unit_deficit = req_min * weight - headroom
                unit_target = request.max_replicas * weight - headroom
            if not self._shrink_feasible(
                priority, now, req_min - avail, unit_deficit
            ):
                return self._wait(job, now, decisions)
            # Real pass: shrink towards freeing up to maxReplicas' worth.
            self._shrink_pass(
                priority, now, request.max_replicas - avail,
                unit_target, decisions, self.config.rescale_gap,
            )
            # A shrink_filter may veto part of the committed plan.
            replicas = self._start_cap(request)
            if replicas < req_min:
                return self._wait(job, now, decisions)
        decisions.append(self._start(job, replicas, now))
        return self._log(decisions)

    def _wait(
        self, job: SchedulerJob, now: float, decisions: List[Decision]
    ) -> List[Decision]:
        """Enqueue an arrival Figure 2 could not start; under the
        preemption stage, checkpoint running jobs to make room (§3.2.2).

        If the victims free enough slots, their :class:`PreemptJob`
        decisions replace the arrival's :class:`EnqueueJob` and the
        arrival starts at once.
        """
        last = self._enqueue(job)
        victims = self._preemption_victims(job) if self._preempt else None
        if victims:
            for victim in victims:
                self._preempted.add(victim.name)
                released = self._release(victim, now)
                decisions.append(PreemptJob(job=victim, released_replicas=released))
            self._unpark(job)
            replicas = min(self.free_slots - self.config.launcher_slots,
                           job.max_replicas)
            last = self._start(job, replicas, now)
        decisions.append(last)
        return self._log(decisions)

    def _preemption_victims(self, job: SchedulerJob) -> List[SchedulerJob]:
        """Running jobs whose slots would let ``job`` start, or none.

        Lowest priority first; the index-0 job is never a victim, and the
        walk stops at the first job ranked at or above ``job``.  Pure
        query: no state is touched.
        """
        reserve = self.config.launcher_slots
        needed = job.min_replicas - (self.free_slots - reserve)
        victims: List[SchedulerJob] = []
        # islice over the lazy reverse iterator stops before the head
        # without materializing the running list on every attempt.
        for candidate in itertools.islice(
            reversed(self.running), max(0, len(self.running) - 1)
        ):
            if needed <= 0 or candidate.priority >= job.priority:
                break
            victims.append(candidate)
            needed -= candidate.replicas + reserve
        return victims if needed <= 0 else []

    def _start_cap(self, request: JobRequest) -> int:
        """Replicas an arrival could start with now: the free slots less
        its launcher, its maximum, and the constraint's ``admit``."""
        avail = self.free_slots - self.config.launcher_slots
        cap = avail if avail < request.max_replicas else request.max_replicas
        if self._constraint is not None:
            room = self._constraint.admit(request)
            if room < cap:
                cap = room
        return cap

    # ------------------------------------------------------------------
    # Figure 2's shrink-victim walk, indexed
    # ------------------------------------------------------------------
    #
    # The literal walk visits running jobs from lowest priority upward
    # (positions len-1 .. 1; the index-0 job is protected), skipping
    # candidates inside their T_rescale_gap, and stops at the first
    # *eligible* candidate that outranks the arrival.  Because the list
    # is sorted, that stop is equivalent to "no further victims exist" —
    # which is what lets whole blocks be credited or skipped from their
    # aggregates without changing a single decision.  Under a capacity
    # constraint the walk owes constraint units as well as slots; a
    # victim's freed replicas pay both, at its ``weight`` per replica.

    def _shrink_feasible(
        self, priority: float, now: float, slot_deficit: int,
        unit_deficit: float,
    ) -> bool:
        """Figure 2's dry run: could shrinking cover both deficits?

        Pure query — no state is touched.  Blocks whose time bound proves
        every member rescale-gap-eligible are resolved in O(1): credited
        with their ``shrinkable`` sum when the whole block ranks at or
        below the arrival, or terminating the walk when even their
        lowest-priority member outranks it.  Mixed or possibly-ineligible
        blocks fall back to the literal item scan, and so does every
        block under a constraint: block aggregates know nothing of
        weights.  ``unit_deficit`` is 0 without a constraint.
        """
        if slot_deficit <= 0 and unit_deficit <= 0:
            return True
        # Upper-bound early out: the walk can never free more than the
        # list's total shrinkable sum (priority stops and rescale-gap
        # ineligibility only reduce it further), so an arrival needing
        # more is infeasible without visiting a single candidate.
        if self.running.shrinkable_total < slot_deficit:
            return False
        gap = self.config.rescale_gap
        cons = self._constraint
        blocks = self.running.blocks
        for b in range(len(blocks) - 1, -1, -1):
            block = blocks[b]
            jobs = block.jobs
            lo = 1 if b == 0 else 0  # the index-0 job is never a victim
            if lo >= len(jobs):
                continue  # only the protected job in here
            if now - block.newest_action >= gap:
                if jobs[-1].priority > priority:
                    # First candidate visited is eligible and outranks the
                    # arrival: the literal walk breaks here.
                    return False
                if cons is None and jobs[lo].priority <= priority:
                    # Every visitable member ranks at or below the arrival:
                    # credit the whole block (minus the protected job's
                    # share in block 0) without touching its members.
                    credit = block.shrinkable
                    if lo:
                        head = jobs[0]
                        extra = head.replicas - head.request.min_replicas
                        if extra > 0:
                            credit -= extra
                    slot_deficit -= credit
                    if slot_deficit <= 0:
                        return True
                    continue
            for i in range(len(jobs) - 1, lo - 1, -1):
                candidate = jobs[i]
                if now - candidate.last_action < gap:
                    continue
                if candidate.priority > priority:
                    return False
                extra = candidate.replicas - candidate.request.min_replicas
                if extra > 0:
                    slot_deficit -= extra
                    if cons is not None:
                        unit_deficit -= extra * cons.weight(candidate.request)
                    if slot_deficit <= 0 and unit_deficit <= 0:
                        return True
        return False

    def _shrink_pass(
        self,
        priority: float,
        now: float,
        slot_target: int,
        unit_target: float,
        decisions: List[Decision],
        gap: float,
    ) -> None:
        """Figure 2's real pass: emit shrinks towards both targets.

        Walks the same order as the dry run, against an explicit rank and
        gap.  Each victim gives up enough replicas for the larger of the
        two remaining targets (``ceil(unit_target / weight)`` for the
        units; ``unit_target`` is 0 without a constraint), down to its
        minimum.  Whole blocks that provably contain neither a victim
        (``shrinkable == 0``) nor the walk's stop condition (no member
        outranks the arrival) are skipped; weights never make a block
        without shrinkable replicas yield one, so the skips hold under a
        constraint too.

        :meth:`on_submit` calls it with the arrival's priority and the
        configured rescale gap.  Capacity shrinks
        (:meth:`shrink_capacity`) reuse it with ``priority = +inf``
        (every running job except the protected index-0 one is a
        candidate), no unit target and, when forced by an interruption,
        ``gap = -inf`` (reclaiming a dead node is not a policy decision,
        so the rescale-gap courtesy does not apply).
        """
        if self._obs is not None:
            self._obs_shrink_passes.inc()
        cons = self._constraint
        blocks = self.running.blocks
        for b in range(len(blocks) - 1, -1, -1):
            if slot_target <= 0 and unit_target <= 0:
                return
            block = blocks[b]
            jobs = block.jobs
            lo = 1 if b == 0 else 0
            if lo < len(jobs):
                if now - block.newest_action >= gap and (
                    jobs[-1].priority > priority
                ):
                    return  # the literal walk breaks immediately
                if block.shrinkable == 0 and jobs[lo].priority <= priority:
                    continue  # no victims and no stop condition in here
            for i in range(len(jobs) - 1, lo - 1, -1):
                if slot_target <= 0 and unit_target <= 0:
                    return
                candidate = jobs[i]
                if now - candidate.last_action < gap:
                    continue
                if candidate.priority > priority:
                    return
                floor = candidate.request.min_replicas
                old_replicas = candidate.replicas
                if old_replicas <= floor:
                    continue
                want = slot_target if slot_target > 0 else 0
                if unit_target > 0:
                    weight = cons.weight(candidate.request)
                    if weight > 0:
                        from_units = int(math.ceil(unit_target / weight))
                        if from_units > want:
                            want = from_units
                    if not want:
                        continue  # only units are owed, and it draws none
                new_replicas = old_replicas - want
                if new_replicas < floor:
                    new_replicas = floor
                shrink = self._shrink(candidate, new_replicas, now)
                if shrink is not None:
                    decisions.append(shrink)
                    freed = old_replicas - new_replicas
                    slot_target -= freed
                    if unit_target > 0:
                        unit_target -= freed * weight

    # ------------------------------------------------------------------
    # Event: job finished (Figure 3)
    # ------------------------------------------------------------------

    def on_complete(self, name: str, now: float) -> List[Decision]:
        job = self._jobs.get(name)
        if job is None:
            raise JobStateError(f"unknown job {name!r}")
        if job.state != JobState.RUNNING:
            raise JobStateError(f"job {name!r} is {job.state.value}, not Running")
        # freeWorkers(job): release the job's pods.
        job.state = JobState.COMPLETED
        job.completion_time = now
        self.running.remove(job)
        freed = job.replicas + self.config.launcher_slots
        self._used_slots -= freed
        self.transitions += 1
        if self._constraint is not None:
            self._constraint.charge(job.request, -job.replicas)
        job.replicas = 0
        if self.config.literal_completion_budget:
            # Figure 3 verbatim: redistribute only this job's workers.
            num_workers = freed
        else:
            # Deadlock-free default: the budget is everything now free
            # (this completion plus leftovers from earlier events).
            num_workers = self.free_slots

        # Remaining freed workers return to the free pool implicitly.
        return self._hand_out(num_workers, now, "complete")

    def _hand_out(self, budget: int, now: float, trigger: str) -> List[Decision]:
        """Run Figure 3 over ``budget`` slots and log what it decided.

        Queue→running moves are deferred until the walk ends (its block
        pointers must not see structural mutations), then applied.
        """
        if self._steps:
            self._rekey_due(now)
        decisions: List[Decision] = []
        spans = self.spans
        if spans is not None:
            spans.begin("redistribute", budget=budget, trigger=trigger)
        self._pending_starts = []
        try:
            self._redistribute(budget, now, decisions)
        finally:
            started, self._pending_starts = self._pending_starts, None
            for moved in started:
                self._unpark(moved)
                self.running.add(moved)
            if spans is not None:
                spans.end("redistribute", decisions=len(decisions))
        return self._log(decisions)

    def _rekey_due(self, now: float) -> None:
        """Re-key every waiter whose effective priority changed by ``now``.

        Afterwards the queue is sorted by effective priority at ``now``
        (see the module docstring).  Changes are pushed slightly early,
        and the priority is recomputed at ``now``, so a step that has not
        yet arrived in float terms is pushed again just after ``now``.  A
        waiter re-keyed to the queue front overtakes the head there.
        """
        steps, rule, queue = self._steps, self._priority, self.queue
        overtakes = self._backfill_overtakes
        while steps and steps[0][0] <= now:
            _, _, job, key = heapq.heappop(steps)
            if job.sort_key is not key:
                continue  # left the queue, or re-keyed since the push
            priority = rule.get_priority(now, job)
            if priority != -key[0]:
                was_front = queue[0] is job
                queue.remove(job)
                key = job.sort_key = (-priority, job.submit_time, job.seq)
                if queue.add(job) and not was_front and overtakes is not None:
                    overtakes(self, job)
            due = rule.next_change(now, job)
            if due <= now:
                due = math.nextafter(now, math.inf)
            if due < math.inf:
                heapq.heappush(steps, (due, next(self._step_ties), job, key))

    def _redistribute(
        self, num_workers: int, now: float, decisions: List[Decision]
    ) -> None:
        """Figure 3's hand-out of freed slots — indexed two-pointer merge.

        On the queue side, whole blocks whose cheapest member needs more
        than the remaining start budget are skipped in O(1) — the budget
        only shrinks during a walk, so a skipped queued candidate can
        never become startable later.  On the running side (PR 5), whole
        blocks with nothing to hand out are skipped from their
        aggregates: every member at ``max_replicas`` (``expandable ==
        0``), or no member past the rescale gap (``now - oldest_action <
        gap``, with ``oldest_action`` a lower bound on the members'
        ``last_action``).  A skipped running candidate would have emitted
        nothing and consumed no budget, so the emitted decision sequence
        is exactly the literal scan's over ``jobs_by_priority()`` (kept
        as a test oracle in ``tests/scheduling/fig3_oracle.py``).

        Hooked configs take the same walk: the capacity constraint caps
        each ``add`` (it can only lower it, so no skip is invalidated),
        ``passed`` records that a waiter was left behind, the condition
        under which the scan consults the backfill rule (see the module
        docstring for why the two agree), and the priority stage has
        re-keyed the queue by effective priority before the walk starts.
        """
        if self._obs is not None:
            self._obs_redistributes.inc()
        reserve = self.config.launcher_slots
        gap = self.config.rescale_gap
        cons = self._constraint
        backfill = self._backfill
        passed = False  # a queued job was left waiting upstream
        qblocks = self.queue.blocks
        rblocks = self.running.blocks
        nq = len(qblocks)
        nr = len(rblocks)  # stable: the walk defers structural mutations
        qb = qi = 0
        rb = ri = rn = 0
        # O(1)-skipped block tallies (local ints; flushed to the metrics
        # registry after the walk — skips are O(blocks), not O(events)).
        qskips = rskips = 0
        rjobs = None  # member run of the running block being walked
        runner = None  # cached next possibly-expandable runner (+ its key)
        runner_key = None
        queued = None  # cached next startable queued candidate (+ its key)
        queued_key = None
        while num_workers > 0:
            # Next queued candidate startable within the remaining budget.
            # The cached one stays valid until consumed or priced out by a
            # budget drop (the budget never grows during a walk); a priced-
            # out one is stepped over again below, which marks it passed.
            budget = num_workers - reserve
            if queued is not None and queued.request.min_replicas > budget:
                queued = None
            while queued is None and qb < nq:
                block = qblocks[qb]
                if block.min_needed > budget:
                    if qi < len(block.jobs):
                        passed = True  # its unvisited members wait on
                    qb += 1
                    qi = 0
                    qskips += 1
                    continue
                jobs = block.jobs
                jn = len(jobs)
                while qi < jn:
                    candidate = jobs[qi]
                    if candidate.request.min_replicas <= budget:
                        queued = candidate
                        queued_key = candidate.sort_key
                        break
                    qi += 1
                    passed = True
                if queued is None:
                    qb += 1
                    qi = 0
            # Next running candidate, skipping whole blocks that provably
            # cannot take slots (every member at max, or none past the
            # rescale gap).  Expansions only touch aggregates of already-
            # visited members (never block structure), so the cached
            # member run stays valid for the whole walk.  Members of a
            # block always carry a computed ``sort_key`` (add() built it).
            if runner is None:
                while True:
                    if rjobs is not None and ri < rn:
                        runner = rjobs[ri]
                        runner_key = runner.sort_key
                        ri += 1
                        break
                    rjobs = None
                    if rb >= nr:
                        break
                    block = rblocks[rb]
                    rb += 1
                    if block.expandable == 0 or now - block.oldest_action < gap:
                        rskips += 1
                        continue
                    rjobs = block.jobs
                    rn = len(rjobs)
                    ri = 0
            if runner is None and queued is None:
                break
            if queued is None or (runner is not None and runner_key < queued_key):
                candidate = runner
                runner = None
                if now - candidate.last_action >= gap:
                    replicas = candidate.replicas
                    room = candidate.request.max_replicas - replicas
                    if room > 0:
                        add = room if room < num_workers else num_workers
                        if cons is not None:
                            room = cons.admit(candidate.request)
                            if room < add:
                                add = room
                        if add > 0 and replicas + add >= candidate.request.min_replicas:
                            decisions.append(
                                self._expand(candidate, replicas + add, now)
                            )
                            num_workers -= add
            else:
                candidate = queued
                queued = None
                qi += 1  # the walk moves past this candidate either way
                request = candidate.request
                if now - candidate.last_action < gap:
                    passed = True
                else:
                    # Starting a queued job also needs its launcher slot
                    # (a queued job holds no replicas, so max is its room).
                    add = num_workers - reserve
                    if add > request.max_replicas:
                        add = request.max_replicas
                    if cons is not None:
                        room = cons.admit(request)
                        if room < add:
                            add = room
                    if add >= request.min_replicas and (
                        not passed
                        or backfill is None
                        or backfill.allows(self, candidate, add, now)
                    ):
                        decisions.append(self._start_queued(candidate, add, now))
                        num_workers -= add + reserve
                    else:
                        passed = True
        if self._obs is not None:
            if qskips:
                self._obs_queue_skips.inc(qskips)
            if rskips:
                self._obs_running_skips.inc(rskips)

    # ------------------------------------------------------------------
    # Elastic cluster capacity (the repro.cloud substrate)
    # ------------------------------------------------------------------
    #
    # The paper schedules on a cloud, where ``total_slots`` is itself a
    # time-varying quantity: nodes come online after a provisioning
    # delay, drain away when an autoscaler releases them, and vanish
    # outright when a spot instance is reclaimed.  These transitions are
    # *substrate* events, not Figure-2/3 policy decisions — a substrate
    # that never calls them (every fixed-capacity caller) gets a bytewise
    # unchanged engine, which is what the golden decision-log suite
    # pins.  Both transitions maintain the O(1) ``free_slots`` counter
    # and the :class:`IndexedJobList` aggregates through the existing
    # transition helpers only.

    def grow_capacity(self, slots: int, now: float) -> List[Decision]:
        """Add ``slots`` to the cluster and hand them out (Figure 3).

        Called by the cloud substrate when a provisioned node comes
        online.  The enlarged free pool is redistributed exactly like a
        completion's freed workers: queued jobs start, running elastic
        jobs expand, in decreasing priority order.
        """
        slots = int(slots)
        if slots <= 0:
            raise CapacityError(f"capacity growth must be positive, got {slots}")
        self.total_slots += slots
        self.transitions += 1
        return self.rebalance(now)

    def shrink_capacity(
        self, slots: int, now: float, *, force: bool = False
    ) -> Tuple[int, List[Decision]]:
        """Remove up to ``slots`` from the cluster; returns what came off.

        Free slots are surrendered first.  If they do not cover the
        request, the engine *drains*: the Figure-2 shrink-victim walk
        runs with a rank above every job (``priority = +inf``), so every
        running elastic job except the protected index-0 one gives up
        replicas down to its minimum, newest-priority first — the same
        machinery, aggregates, and skip logic an arriving job would use.

        ``force=False`` (autoscaler scale-down) is cooperative: the walk
        respects ``T_rescale_gap`` and the removal is *partial* — only
        what is actually free afterwards comes off, and the caller
        re-issues the shrink later for the remainder (cordon-and-drain:
        capacity already removed can never be re-allocated to the queue
        while the rest of the node drains).

        ``force=True`` (spot interruption) must reclaim everything ``now``:
        the walk ignores the rescale gap, and any remaining deficit is
        met by evicting whole running jobs back to the queue
        (:class:`RequeueJob`), lowest priority first — the protected
        index-0 job last of all, because a dead node protects nobody.

        Returns ``(removed, decisions)`` with ``removed <= slots`` (always
        ``== min(slots, total_slots)`` when forced).
        """
        slots = int(slots)
        if slots <= 0:
            raise CapacityError(f"capacity shrink must be positive, got {slots}")
        slots = min(slots, self.total_slots)
        if self._steps:
            self._rekey_due(now)  # evictions re-enter the queue
        decisions: List[Decision] = []
        deficit = slots - self.free_slots
        if deficit > 0:
            gap = float("-inf") if force else self.config.rescale_gap
            self._shrink_pass(float("inf"), now, deficit, 0, decisions, gap)
            deficit = slots - self.free_slots
        if deficit > 0 and force:
            # Evict whole jobs, lowest priority first; the snapshot is
            # taken up front because _requeue mutates the running list.
            for candidate in list(reversed(self.running)):
                if self.free_slots >= slots:
                    break
                decisions.append(self._requeue(candidate, now))
        removed = min(slots, self.free_slots)
        self.total_slots -= removed
        self.transitions += 1
        return removed, self._log(decisions)

    def eviction_candidates(self, slots: int) -> List[SchedulerJob]:
        """Running jobs a forced shrink of ``slots`` *might* requeue.

        A pure preview for the fault-recovery path: when a reclaim
        notice arrives, the substrate checkpoints the jobs that the
        eventual ``shrink_capacity(..., force=True)`` could evict.  The
        preview is a conservative superset — it ignores the relief the
        shrink-victim walk would provide, walking the running list in
        eviction order (lowest priority first) until the accumulated
        replicas cover the deficit — because checkpointing a job that
        ends up surviving costs only the modeled write, while missing
        one that dies loses all its progress.  No engine state changes.
        """
        deficit = int(slots) - self.free_slots
        candidates: List[SchedulerJob] = []
        if deficit <= 0:
            return candidates
        covered = 0
        for job in reversed(self.running):
            if covered >= deficit:
                break
            candidates.append(job)
            covered += job.replicas
        return candidates

    def rebalance(self, now: float) -> List[Decision]:
        """Redistribute the current free pool (Figure 3, budget-only).

        Used by the cloud substrate after capacity changes that free
        slots outside a completion event — a node coming online, or the
        slack left when an interruption's evictions freed more than the
        dead node held.
        """
        budget = self.free_slots
        if budget <= 0:
            return []
        return self._hand_out(budget, now, "rebalance")

    def _requeue(self, job: SchedulerJob, now: float) -> RequeueJob:
        """Evict a running job to the queue (forced capacity loss only).

        ``last_action`` resets to ``-inf``, the value a never-started
        submission carries: the job is starting over, and it must be
        immediately restartable when capacity returns — under the
        moldable policy (``T_rescale_gap = ∞``) any finite timestamp
        would gate its restart forever, deadlocking the workload on the
        first interruption.  Eviction is the cloud's doing, not one of
        the job's §3.2.1 scheduling events, so no rescale-gap penalty
        applies.
        """
        released = self._release(job, -math.inf)
        return RequeueJob(job=job, released_replicas=released)

    def _release(self, job: SchedulerJob, last_action: float) -> int:
        """Move a running job back to the queue, freeing all its slots
        (an eviction or a preemption); returns the replicas it held."""
        self.running.remove(job)
        released = job.replicas
        self._used_slots -= released + self.config.launcher_slots
        self.transitions += 1
        if self._constraint is not None:
            self._constraint.charge(job.request, -released)
        job.replicas = 0
        job.last_action = last_action
        self._park(job)
        return released

    # ------------------------------------------------------------------
    # Substrate feedback
    # ------------------------------------------------------------------

    def on_rescale_failed(self, name: str, actual_replicas: int) -> None:
        """Reconcile bookkeeping after the substrate failed a rescale.

        The operator reverts a failed shrink/expand to the application's
        actual size; the engine must follow or its free-slot arithmetic
        drifts from the cluster.
        """
        job = self.job(name)
        if job.state != JobState.RUNNING:
            raise JobStateError(f"job {name!r} is not running")
        actual = int(actual_replicas)
        old = job.replicas
        self._used_slots += actual - job.replicas
        self.transitions += 1
        if self._constraint is not None and actual != old:
            self._constraint.charge(job.request, actual - old)
        job.replicas = actual
        self.running.adjust_replicas(job, old)
        if self.free_slots < 0:  # pragma: no cover - defensive
            raise CapacityError("rescale failure reconciliation over-committed")

    def retire(self, name: str) -> SchedulerJob:
        """Drop a completed job's record from the engine's bookkeeping.

        Streaming substrates (``retain="metrics"``) call this after
        folding the job's outcome so ``_jobs`` stays bounded by the live
        (running + queued) job count instead of growing with the workload.
        """
        job = self.job(name)
        if job.state != JobState.COMPLETED:
            raise JobStateError(
                f"cannot retire job {name!r} in state {job.state.value}"
            )
        del self._jobs[name]
        return job

    # ------------------------------------------------------------------
    # Internal transitions (each updates lastAction, per §3.2.1)
    # ------------------------------------------------------------------

    def _activate(self, job: SchedulerJob, replicas: int, now: float) -> StartJob:
        """Mark ``job`` running and charge its slots (no list placement).

        ``start_time`` records the *first* start only: a job restarting
        after a preemption or a spot eviction began service at its
        original start, and the metrics window (first start .. last
        completion) must keep covering the busy slot-time it burned
        before losing its node — a shifted window would count that work
        outside the utilization denominator.
        """
        taken = replicas + self.config.launcher_slots
        self._validate_capacity(taken)
        if self._constraint is not None:
            # Launcher slots carry no constraint weight: the budget is a
            # per-worker quantity (watts), not a slot count.
            self._constraint.charge(job.request, replicas)
        job.state = JobState.RUNNING
        job.replicas = replicas
        job.last_action = now
        if job.start_time is None:
            job.start_time = now
        self._used_slots += taken
        self.transitions += 1
        return StartJob(job=job, replicas=replicas)

    def _start(self, job: SchedulerJob, replicas: int, now: float) -> StartJob:
        start = self._activate(job, replicas, now)
        self.running.add(job)
        return start

    def _start_queued(self, job: SchedulerJob, replicas: int, now: float) -> Decision:
        if self._pending_starts is not None:
            # Mid-walk in on_complete: defer the queue→running move so the
            # walk's block pointers never see a structural mutation.  The
            # queue's aggregates still track the in-place activation so
            # the deferred remove() stays exact.
            before = job.replicas
            start = self._activate(job, replicas, now)
            self.queue.rescaled(job, before)
            self._pending_starts.append(job)
        else:
            self._unpark(job)
            start = self._start(job, replicas, now)
        if self._preempted and job.name in self._preempted:
            # A job the preemption stage checkpointed restarts from disk.
            self._preempted.discard(job.name)
            return ResumeJob(job=job, replicas=replicas)
        return start

    def _enqueue(self, job: SchedulerJob) -> EnqueueJob:
        # NOTE: lastAction deliberately untouched (see module docstring).
        self._park(job)
        return EnqueueJob(job=job)

    def _park(self, job: SchedulerJob) -> None:
        """Put ``job`` in the queue (enqueue, eviction or preemption)."""
        job.state = JobState.QUEUED
        if self.queue.add(job) and self._backfill_overtakes is not None:
            self._backfill_overtakes(self, job)
        # It enters under its submission key, so it is due at its first
        # change since submission: at once for an evicted or preempted
        # job whose priority has changed since.
        due = self._priority.next_change(job.submit_time, job)
        if due < math.inf:
            heapq.heappush(self._steps,
                           (due, next(self._step_ties), job, job.sort_key))

    def _unpark(self, job: SchedulerJob) -> None:
        """Take ``job`` out of the queue, dropping any re-keyed one."""
        self.queue.remove(job)
        # Running jobs keep their submission priority: the next add()
        # rebuilds that key as a fresh tuple, which also voids the job's
        # pending steps.
        job.sort_key = ()

    def _shrink(self, job: SchedulerJob, new_replicas: int, now: float) -> Optional[ShrinkJob]:
        if self.config.shrink_filter is not None and not self.config.shrink_filter(
            job, new_replicas
        ):
            return None
        old = job.replicas
        job.replicas = new_replicas
        job.last_action = now
        job.rescale_count += 1
        self._used_slots -= old - new_replicas
        self.transitions += 1
        if self._constraint is not None:
            self._constraint.charge(job.request, new_replicas - old)
        self.running.rescaled(job, old)
        return ShrinkJob(job=job, from_replicas=old, to_replicas=new_replicas)

    def _expand(self, job: SchedulerJob, new_replicas: int, now: float) -> ExpandJob:
        self._validate_capacity(new_replicas - job.replicas)
        old = job.replicas
        job.replicas = new_replicas
        job.last_action = now
        job.rescale_count += 1
        self._used_slots += new_replicas - old
        self.transitions += 1
        if self._constraint is not None:
            self._constraint.charge(job.request, new_replicas - old)
        self.running.rescaled(job, old)
        return ExpandJob(job=job, from_replicas=old, to_replicas=new_replicas)

    def _validate_capacity(self, extra_slots: int) -> None:
        # Inline free-slot arithmetic: this guard runs on every start and
        # expansion, and the ``free_slots`` property's own over-commit
        # check is redundant right before a >= comparison.
        if extra_slots > self.total_slots - self._used_slots:
            raise CapacityError(
                f"decision needs {extra_slots} slots but only "
                f"{self.free_slots} are free"
            )

    def _log(self, decisions: List[Decision]) -> List[Decision]:
        if self.keep_decision_log:
            self.decision_log.extend(decisions)
        if self._obs is not None and decisions:
            counter = self._obs.counter
            for decision in decisions:
                counter("engine.decisions." + type(decision).__name__).inc()
        return decisions

    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Tuple[str, int]]:
        """(state, replicas) per job — used by invariant tests."""
        return {
            name: (job.state.value, job.replicas) for name, job in self._jobs.items()
        }
