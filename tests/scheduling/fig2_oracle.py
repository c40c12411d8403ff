"""Oracle for Figure 2: the engine's submit paths before they merged.

A verbatim copy of :class:`~repro.scheduling.ElasticPolicyEngine`'s
submit methods from when the engine ran Figure 2 three ways: the plain
path with its indexed dry run and victim walk, ``_submit_backfill`` for
arrivals past a non-empty queue, and ``_submit_constrained`` with its
own literal dual-deficit dry run and snapshot walk.  ``shrink_capacity``
is copied too, because it calls ``_shrink_pass`` with that version's
signature.  ``test_fig2_oracle.py`` diffs the shipped engine against
these engines.  Not a test module: no test here is collected.
"""

import dataclasses
import math
from typing import List, Tuple

from repro.errors import CapacityError, JobStateError
from repro.scheduling import ElasticPolicyEngine
from repro.scheduling.extensions import PreemptivePolicyEngine
from repro.scheduling.job import JobRequest, SchedulerJob
from repro.scheduling.policy import Decision


class Fig2OracleEngine(ElasticPolicyEngine):
    """The shipped engine with the three-path Figure 2 restored."""

    def on_submit(self, request: JobRequest, now: float) -> List[Decision]:
        request = self.config.job_transform(request)
        if self._priority_rule is not None:
            # Queue-ordering stage: the rule rewrites the *effective*
            # priority, so the engine's priority-keyed order and block
            # aggregates stay exact.  Metrics weight by the submission's
            # original priority (the simulator keeps its own request).
            request = dataclasses.replace(
                request, priority=self._priority_rule(request)
            )
        if request.name in self._jobs:
            raise JobStateError(f"job {request.name!r} already submitted")
        job = SchedulerJob(request=request, submit_time=now)
        self._jobs[request.name] = job
        if self._constraint is not None:
            return self._submit_constrained(job, now)
        if self._backfill is not None and len(self.queue):
            return self._submit_backfill(job, now)
        reserve = self.config.launcher_slots
        req_min = request.min_replicas
        req_max = request.max_replicas
        decisions: List[Decision] = []

        # replicas = min(freeSlots - 1, job.maxReplicas)
        avail = self.free_slots - reserve
        replicas = avail if avail < req_max else req_max
        if replicas >= req_min:
            decisions.append(self._start(job, replicas, now))
            return self._log(decisions)

        # Dry run: would shrinking lower-priority jobs free enough slots to
        # reach the new job's minimum?  (An aggregate query over the
        # running blocks — no per-candidate walk on the common path.  The
        # dry run is pure, so ``avail`` is still current afterwards.)
        if not self._shrink_feasible(job, now, req_min - avail):
            decisions.append(self._enqueue(job))
            return self._log(decisions)

        # Real pass: shrink towards freeing up to maxReplicas' worth.
        min_to_free = self._shrink_victims(
            job, now, req_min - avail, req_max - avail, decisions
        )
        if min_to_free > 0:
            decisions.append(self._enqueue(job))
            return self._log(decisions)

        avail = self.free_slots - reserve
        replicas = avail if avail < req_max else req_max
        decisions.append(self._start(job, replicas, now))
        return self._log(decisions)

    def _shrink_feasible(self, job: SchedulerJob, now: float, num_to_free: int) -> bool:
        """Figure 2's dry run: could shrinking free ``num_to_free`` slots?

        Pure query — no state is touched.  Blocks whose time bound proves
        every member rescale-gap-eligible are resolved in O(1): credited
        with their ``shrinkable`` sum when the whole block ranks at or
        below the arrival, or terminating the walk when even their
        lowest-priority member outranks it.  Mixed or possibly-ineligible
        blocks fall back to the literal item scan.
        """
        # Upper-bound early out: the walk can never free more than the
        # list's total shrinkable sum (priority stops and rescale-gap
        # ineligibility only reduce it further), so an arrival needing
        # more is infeasible without visiting a single candidate.
        if self.running.shrinkable_total < num_to_free:
            return False
        gap = self.config.rescale_gap
        priority = job.request.priority
        blocks = self.running.blocks
        for b in range(len(blocks) - 1, -1, -1):
            block = blocks[b]
            jobs = block.jobs
            lo = 1 if b == 0 else 0  # the index-0 job is never a victim
            if lo >= len(jobs):
                continue  # only the protected job in here
            if now - block.newest_action >= gap:
                if jobs[-1].request.priority > priority:
                    # First candidate visited is eligible and outranks the
                    # arrival: the literal walk breaks here.
                    return False
                if jobs[lo].request.priority <= priority:
                    # Every visitable member ranks at or below the arrival:
                    # credit the whole block (minus the protected job's
                    # share in block 0) without touching its members.
                    credit = block.shrinkable
                    if lo:
                        head = jobs[0]
                        extra = head.replicas - head.request.min_replicas
                        if extra > 0:
                            credit -= extra
                    num_to_free -= credit
                    if num_to_free <= 0:
                        return True
                    continue
            for i in range(len(jobs) - 1, lo - 1, -1):
                candidate = jobs[i]
                if now - candidate.last_action < gap:
                    continue
                if candidate.request.priority > priority:
                    return False
                extra = candidate.replicas - candidate.request.min_replicas
                if extra > 0:
                    num_to_free -= extra
                    if num_to_free <= 0:
                        return True
        return num_to_free <= 0

    def _shrink_victims(
        self,
        job: SchedulerJob,
        now: float,
        min_to_free: int,
        max_to_free: int,
        decisions: List[Decision],
    ) -> int:
        """Figure 2's real pass: emit shrinks towards ``max_to_free``.

        Walks the same order as the literal loop but skips whole blocks
        that provably contain neither a victim (``shrinkable == 0``) nor
        the walk's stop condition (no member outranks the arrival).
        Returns the still-unmet part of ``min_to_free``.
        """
        return self._shrink_pass(
            job.priority, now, min_to_free, max_to_free, decisions,
            self.config.rescale_gap,
        )

    def _shrink_pass(
        self,
        priority: float,
        now: float,
        min_to_free: int,
        max_to_free: int,
        decisions: List[Decision],
        gap: float,
    ) -> int:
        """The Figure-2 victim walk against an explicit rank and gap.

        :meth:`_shrink_victims` calls it with the arriving job's priority
        and the configured rescale gap — the literal submission path.
        Capacity shrinks (:meth:`shrink_capacity`) reuse the identical
        walk with ``priority = +inf`` (every running job except the
        protected index-0 one is a candidate) and, when forced by an
        interruption, ``gap = -inf`` (reclaiming a dead node is not a
        policy decision, so the rescale-gap courtesy does not apply).
        """
        if self._obs is not None:
            self._obs_shrink_passes.inc()
        blocks = self.running.blocks
        for b in range(len(blocks) - 1, -1, -1):
            if max_to_free <= 0:
                break
            block = blocks[b]
            jobs = block.jobs
            lo = 1 if b == 0 else 0
            if lo < len(jobs):
                if now - block.newest_action >= gap and (
                    jobs[-1].request.priority > priority
                ):
                    return min_to_free  # the literal walk breaks immediately
                if block.shrinkable == 0 and jobs[lo].request.priority <= priority:
                    continue  # no victims and no stop condition in here
            for i in range(len(jobs) - 1, lo - 1, -1):
                if max_to_free <= 0:
                    break
                candidate = jobs[i]
                if now - candidate.last_action < gap:
                    continue
                if candidate.request.priority > priority:
                    return min_to_free
                floor = candidate.request.min_replicas
                old_replicas = candidate.replicas
                if old_replicas > floor:
                    new_replicas = old_replicas - max_to_free
                    if new_replicas < floor:
                        new_replicas = floor
                    shrink = self._shrink(candidate, new_replicas, now)
                    if shrink is not None:
                        decisions.append(shrink)
                        freed = old_replicas - new_replicas
                        min_to_free -= freed
                        max_to_free -= freed
        return min_to_free

    def _submit_backfill(self, job: SchedulerJob, now: float) -> List[Decision]:
        """An arrival that would start past a non-empty queue is a
        *backfill* and must pass the backfill-eligibility stage (EASY:
        the start may not delay the reserved queue head).

        A backfill has to fit in the currently free slots — rearranging
        running jobs to make room for a queue-jumper would contradict the
        reservation the stage protects — so no Figure-2 shrink walk runs
        here.
        """
        request = job.request
        avail = self.free_slots - self.config.launcher_slots
        replicas = avail if avail < request.max_replicas else request.max_replicas
        decisions: List[Decision] = []
        if replicas >= request.min_replicas and self._backfill.allows(
            self, job, replicas, now
        ):
            decisions.append(self._start(job, replicas, now))
        else:
            decisions.append(self._enqueue(job))
        return self._log(decisions)

    def _submit_constrained(self, job: SchedulerJob, now: float) -> List[Decision]:
        """Figure 2 under an active capacity constraint: the dual budget.

        Starts are capped by both free slots and :meth:`CapacityConstraint
        .admit`; the shrink walk chases a *dual* deficit (slots and
        constraint units), making elastic shrink the constraint's
        actuator — the power-capped scenario's whole point.  The walk is
        the literal Figure-2 shape (no aggregate credits: block
        aggregates know nothing of constraint weights).
        """
        request = job.request
        cons = self._constraint
        reserve = self.config.launcher_slots
        req_min = request.min_replicas
        req_max = request.max_replicas
        decisions: List[Decision] = []

        avail = self.free_slots - reserve
        room = cons.admit(request)
        limit = avail if avail < room else room
        replicas = limit if limit < req_max else req_max
        if replicas >= req_min:
            if (
                self._backfill is not None
                and len(self.queue)
                and not self._backfill.allows(self, job, replicas, now)
            ):
                decisions.append(self._enqueue(job))
            else:
                decisions.append(self._start(job, replicas, now))
            return self._log(decisions)
        if self._backfill is not None and len(self.queue):
            # Queue-jumpers never trigger shrinks (see _submit_backfill).
            decisions.append(self._enqueue(job))
            return self._log(decisions)

        weight = cons.weight(request)
        slot_deficit = req_min - avail
        unit_deficit = req_min * weight - cons.headroom()
        if not self._constrained_shrink_feasible(
            job, now, slot_deficit, unit_deficit
        ):
            decisions.append(self._enqueue(job))
            return self._log(decisions)

        self._constrained_shrink(
            job, now, req_max - avail, req_max * weight - cons.headroom(),
            decisions,
        )
        avail = self.free_slots - reserve
        room = cons.admit(request)
        limit = avail if avail < room else room
        replicas = limit if limit < req_max else req_max
        if replicas >= req_min:
            decisions.append(self._start(job, replicas, now))
        else:  # a shrink_filter vetoed part of the committed plan
            decisions.append(self._enqueue(job))
        return self._log(decisions)

    def _constrained_shrink_feasible(
        self, job: SchedulerJob, now: float, slot_deficit: int,
        unit_deficit: float,
    ) -> bool:
        """Dry-run the dual-deficit shrink walk (pure, literal order)."""
        if slot_deficit <= 0 and unit_deficit <= 0:
            return True
        gap = self.config.rescale_gap
        cons = self._constraint
        priority = job.request.priority
        running = self.running
        for i in range(len(running) - 1, 0, -1):
            candidate = running[i]
            if now - candidate.last_action < gap:
                continue
            if candidate.request.priority > priority:
                return False
            extra = candidate.replicas - candidate.request.min_replicas
            if extra > 0:
                slot_deficit -= extra
                unit_deficit -= extra * cons.weight(candidate.request)
                if slot_deficit <= 0 and unit_deficit <= 0:
                    return True
        return slot_deficit <= 0 and unit_deficit <= 0

    def _constrained_shrink(
        self,
        job: SchedulerJob,
        now: float,
        slot_target: int,
        unit_target: float,
        decisions: List[Decision],
    ) -> None:
        """The committing dual-deficit walk: shrink victims until both
        the slot and the constraint-unit targets are met (or the literal
        walk's stop conditions end it)."""
        gap = self.config.rescale_gap
        cons = self._constraint
        priority = job.request.priority
        # Snapshot: _shrink never reorders the list (the sort key is
        # priority-based), but iterating a frozen view is simpler to
        # reason about than live block pointers under mutation.
        snapshot = list(self.running)
        for i in range(len(snapshot) - 1, 0, -1):
            if slot_target <= 0 and unit_target <= 0:
                break
            candidate = snapshot[i]
            if now - candidate.last_action < gap:
                continue
            if candidate.request.priority > priority:
                break
            floor = candidate.request.min_replicas
            old = candidate.replicas
            if old <= floor:
                continue
            weight = cons.weight(candidate.request)
            want = slot_target if slot_target > 0 else 0
            if unit_target > 0 and weight > 0:
                from_units = int(math.ceil(unit_target / weight))
                if from_units > want:
                    want = from_units
            new = old - want
            if new < floor:
                new = floor
            if new < old:
                shrink = self._shrink(candidate, new, now)
                if shrink is not None:
                    decisions.append(shrink)
                    freed = old - new
                    slot_target -= freed
                    unit_target -= freed * weight

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
        decisions: List[Decision] = []
        deficit = slots - self.free_slots
        if deficit > 0:
            gap = float("-inf") if force else self.config.rescale_gap
            self._shrink_pass(
                float("inf"), now, deficit, deficit, decisions, gap
            )
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


class PreemptiveFig2Oracle(PreemptivePolicyEngine, Fig2OracleEngine):
    """Preemption over the oracle's Figure 2 (the MRO puts
    :class:`Fig2OracleEngine` between the two shipped classes)."""
