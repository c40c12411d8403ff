"""A blocked sorted job list with shrink-victim aggregates.

The PR-2 engine kept ``running``/``queue`` as flat Python lists ordered
by :func:`~repro.scheduling.job.priority_order_key`.  That makes every
insert/remove an O(n) memmove — tolerable — but, much worse, it gives
the Figure-2/3 walks nothing to *skip with*: the Figure-3 redistribution
loop touches every queued candidate even when the freed budget cannot
start any of them, which is the superlinear term behind the 100k-job
throughput cliff (``BENCH_policy_engine.json``: 56k events/s at 10k jobs
vs 6.6k at 100k).

:class:`IndexedJobList` replaces the flat list with a *blocked* sorted
list (the ``sortedcontainers`` layout: a list of small sorted blocks)
whose blocks carry three exact aggregates the scheduling walks consume:

``shrinkable``
    Sum of ``max(0, replicas - min_replicas)`` over the block — the
    slots Figure 2 could reclaim from the block's members.  The dry-run
    pass adds whole blocks in O(1) instead of visiting every running
    job, and the real pass skips blocks with no victims.
``newest_action``
    Upper bound on the members' ``last_action``.  It is raised on every
    add/rescale but never lowered by :meth:`remove` — only the full
    rebuild on block split/merge tightens it — so it may stay stale-high
    arbitrarily long.  A block whose bound is older than ``now -
    T_rescale_gap`` is provably *wholly* rescale-gap-eligible, enabling
    the aggregate fast paths; a stale bound merely downgrades a block to
    the item-by-item scan, never changes a decision.  Nothing may assume
    the bound is tight.
``min_needed``
    Minimum ``min_replicas`` over the block.  The Figure-3 walk skips
    whole queue blocks whose cheapest member cannot start within the
    remaining slot budget — the budget only shrinks during a walk, so a
    skipped block can never become startable again.  (``_min_count``
    tracks how many members hold the minimum so a removal only rescans
    the block when the *last* holder departs.)
``expandable``
    Sum of ``max(0, max_replicas - replicas)`` over the block — the
    slots Figure 3 could still hand to the block's members.  The
    running side of the redistribution walk skips whole blocks whose
    members are all at their maximum (``expandable == 0``) in O(1);
    the sum is exact, maintained by the same delta discipline as
    ``shrinkable``.
``oldest_action``
    Lower bound on the members' ``last_action`` — the mirror image of
    ``newest_action``.  It is lowered on every add but never raised by
    rescales or removals (only the full rebuild on split/merge tightens
    it), so it may stay stale-low arbitrarily long.  A block whose bound
    satisfies ``now - oldest_action < T_rescale_gap`` provably contains
    *no* rescale-gap-eligible member, so the Figure-3 running walk skips
    it whole; a stale bound merely downgrades the block to the
    item-by-item scan, never changes a decision.

The container still behaves like the sorted list it replaces: indexing,
slicing, iteration, ``len``, ``in``, equality with plain lists, and
``insert`` (so external ``bisect.insort`` callers keep working) — the
engine's public ``running``/``queue`` attributes and every test that
pokes them see the same sequence as before.

Aggregate maintenance contract: when the engine mutates ``replicas``
and/or ``last_action`` of a job *while the job is in the list* (sort
keys are immutable, so ordering never changes), it must notify the list
— :meth:`rescaled` for the usual both-fields shrink/expand transition
(one block locate), or :meth:`adjust_replicas` / :meth:`touch` when only
one field moved.  :meth:`add` / :meth:`remove` fold members in and out
exactly.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, List, Optional

from ..errors import SchedulingError
from .job import SchedulerJob, priority_order_key

__all__ = ["IndexedJobList", "BLOCK_LOAD"]

#: Target block size.  Splits happen at twice this, merges below half;
#: 64 keeps the per-block memmove inside a cache line or two while the
#: block count at 100k queued jobs stays ~1.5k.
BLOCK_LOAD = 64


def _surplus(job: SchedulerJob) -> int:
    """The slots Figure 2 could reclaim from ``job`` (never negative)."""
    extra = job.replicas - job.request.min_replicas
    return extra if extra > 0 else 0


def _headroom(job: SchedulerJob) -> int:
    """The slots Figure 3 could still hand to ``job`` (never negative)."""
    extra = job.request.max_replicas - job.replicas
    return extra if extra > 0 else 0


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise SchedulingError(message)


class _Block:
    """One run of the sorted sequence plus its walk aggregates.

    ``keys`` mirrors ``jobs`` with each member's (immutable)
    :func:`priority_order_key`, so the bisects inside :meth:`IndexedJobList
    .add` / :meth:`remove` run entirely in C instead of calling the key
    function once per comparison probe.
    """

    __slots__ = (
        "jobs",
        "keys",
        "shrinkable",
        "expandable",
        "newest_action",
        "oldest_action",
        "min_needed",
        "_min_count",
    )

    def __init__(self, jobs: List[SchedulerJob], keys: Optional[List[tuple]] = None):
        self.jobs = jobs
        self.keys = keys if keys is not None else [priority_order_key(j) for j in jobs]
        self.recompute()

    def recompute(self) -> None:
        """Rebuild every aggregate in one pass (split/merge only)."""
        shrinkable = 0
        expandable = 0
        newest = float("-inf")
        oldest = float("inf")
        cheapest = None
        cheapest_count = 0
        for j in self.jobs:
            needed = j.request.min_replicas
            replicas = j.replicas
            extra = replicas - needed
            if extra > 0:
                shrinkable += extra
            room = j.request.max_replicas - replicas
            if room > 0:
                expandable += room
            action = j.last_action
            if action > newest:
                newest = action
            if action < oldest:
                oldest = action
            if cheapest is None or needed < cheapest:
                cheapest = needed
                cheapest_count = 1
            elif needed == cheapest:
                cheapest_count += 1
        self.shrinkable = shrinkable
        self.expandable = expandable
        self.newest_action = newest
        self.oldest_action = oldest
        self.min_needed = cheapest
        self._min_count = cheapest_count


class IndexedJobList:
    """Sorted-by-:func:`priority_order_key` job sequence with aggregates."""

    __slots__ = (
        "_blocks",
        "_maxkeys",
        "_len",
        "min_replicas_total",
        "shrinkable_total",
    )

    def __init__(self, jobs: Optional[Iterable[SchedulerJob]] = None):
        self._blocks: List[_Block] = []
        self._maxkeys: List[tuple] = []  # priority_order_key of each block's last job
        self._len = 0
        #: Exact sum of members' ``min_replicas`` — the queue's aggregate
        #: slot demand, read O(1) per autoscaler evaluation instead of a
        #: per-event O(queue) sum.
        self.min_replicas_total = 0
        #: Exact sum of the blocks' ``shrinkable`` sums — the Figure-2
        #: dry run's O(1) infeasibility ceiling.
        self.shrinkable_total = 0
        if jobs:
            for job in sorted(jobs, key=priority_order_key):
                self.add(job)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def _block_for_key(self, key: tuple) -> int:
        """Index of the block that should hold ``key`` (clamped to last)."""
        index = bisect_left(self._maxkeys, key)
        last = len(self._blocks) - 1
        return index if index < last else last

    def add(self, job: SchedulerJob) -> bool:
        """Insert keeping sorted order; O(log blocks + block size).

        Returns whether ``job`` became the first element.
        """
        key = priority_order_key(job)
        request = job.request
        self.min_replicas_total += request.min_replicas
        surplus = job.replicas - request.min_replicas
        if surplus > 0:
            self.shrinkable_total += surplus
        if not self._blocks:
            self._blocks.append(_Block([job], [key]))
            self._maxkeys.append(key)
            self._len = 1
            return True
        blocks = self._blocks
        b = bisect_left(self._maxkeys, key)
        last = len(blocks) - 1
        if b > last:
            b = last
        block = blocks[b]
        keys = block.keys
        i = bisect_left(keys, key)
        keys.insert(i, key)
        block.jobs.insert(i, job)
        if surplus > 0:
            block.shrinkable += surplus
        room = request.max_replicas - job.replicas
        if room > 0:
            block.expandable += room
        action = job.last_action
        if action > block.newest_action:
            block.newest_action = action
        if action < block.oldest_action:
            block.oldest_action = action
        needed = request.min_replicas
        if needed < block.min_needed:
            block.min_needed = needed
            block._min_count = 1
        elif needed == block.min_needed:
            block._min_count += 1
        self._maxkeys[b] = keys[-1]
        self._len += 1
        if len(keys) > 2 * BLOCK_LOAD:
            self._split(b)
        return i == 0 and b == 0

    def _split(self, b: int) -> None:
        block = self._blocks[b]
        half = len(block.jobs) // 2
        right = _Block(block.jobs[half:], block.keys[half:])
        del block.jobs[half:]
        del block.keys[half:]
        block.recompute()
        self._blocks.insert(b + 1, right)
        self._maxkeys[b] = block.keys[-1]
        self._maxkeys.insert(b + 1, right.keys[-1])

    def remove(self, job: SchedulerJob) -> None:
        """Remove by sort key (unique, immutable); O(log blocks + block)."""
        key = job.sort_key or priority_order_key(job)
        blocks = self._blocks
        b = bisect_left(self._maxkeys, key)
        last = len(blocks) - 1
        if b > last:
            b = last
        block = blocks[b]
        jobs = block.jobs
        i = bisect_left(block.keys, key)
        if not (i < len(jobs) and jobs[i] is job):  # pragma: no cover - defensive
            b, i = self._find_linear(job)
            block = self._blocks[b]
            jobs = block.jobs
        del jobs[i]
        del block.keys[i]
        self._len -= 1
        self.min_replicas_total -= job.request.min_replicas
        departing = job.replicas - job.request.min_replicas
        if departing > 0:
            self.shrinkable_total -= departing
        if not jobs:
            del self._blocks[b]
            del self._maxkeys[b]
            return
        # Aggregate maintenance without an O(block) rebuild: the sums take
        # exact deltas; the min is re-derived only when the *last* member
        # holding it departs; the time bounds are left possibly stale
        # (high for newest, low for oldest) — they are one-sided bounds
        # by contract, and a stale bound merely downgrades a block to the
        # item-by-item scan, never changes a decision.
        request = job.request
        if departing > 0:
            block.shrinkable -= departing
        room = request.max_replicas - job.replicas
        if room > 0:
            block.expandable -= room
        if request.min_replicas == block.min_needed:
            if block._min_count > 1:
                block._min_count -= 1
            else:
                cheapest = None
                count = 0
                for j in jobs:
                    needed = j.request.min_replicas
                    if cheapest is None or needed < cheapest:
                        cheapest = needed
                        count = 1
                    elif needed == cheapest:
                        count += 1
                block.min_needed = cheapest
                block._min_count = count
        self._maxkeys[b] = block.keys[-1]
        if len(jobs) < BLOCK_LOAD // 2:
            self._merge(b)

    def _find_linear(self, job: SchedulerJob):  # pragma: no cover - defensive
        for b, block in enumerate(self._blocks):
            for i, candidate in enumerate(block.jobs):
                if candidate is job:
                    return b, i
        raise ValueError(f"job {job.name!r} not in list")

    def _merge(self, b: int) -> None:
        """Fold an underfull block into a neighbour (then re-split if fat)."""
        if len(self._blocks) == 1:
            return
        left = b - 1 if b > 0 else b
        block = self._blocks[left]
        other = self._blocks[left + 1]
        block.jobs.extend(other.jobs)
        block.keys.extend(other.keys)
        del self._blocks[left + 1]
        del self._maxkeys[left + 1]
        block.recompute()
        self._maxkeys[left] = block.keys[-1]
        if len(block.jobs) > 2 * BLOCK_LOAD:
            self._split(left)

    # ------------------------------------------------------------------
    # Aggregate notifications (the engine's mutation hooks)
    # ------------------------------------------------------------------

    def adjust_replicas(self, job: SchedulerJob, old_replicas: int) -> None:
        """Reconcile the replica sums after ``job.replicas`` changed in place."""
        request = job.request
        old = old_replicas - request.min_replicas
        delta = _surplus(job) - (old if old > 0 else 0)
        old_room = request.max_replicas - old_replicas
        room_delta = _headroom(job) - (old_room if old_room > 0 else 0)
        if delta or room_delta:
            block = self._blocks[self._block_for_key(priority_order_key(job))]
            block.shrinkable += delta
            block.expandable += room_delta
            self.shrinkable_total += delta

    def touch(self, job: SchedulerJob) -> None:
        """Raise the containing block's ``newest_action`` bound.

        The engine's own transitions always change ``replicas`` and
        ``last_action`` together and use :meth:`rescaled`; this single-
        field hook exists for subclasses/external mutators only.
        """
        block = self._blocks[self._block_for_key(priority_order_key(job))]
        if job.last_action > block.newest_action:
            block.newest_action = job.last_action

    def rescaled(self, job: SchedulerJob, old_replicas: int) -> None:
        """One-locate combination of :meth:`adjust_replicas` + :meth:`touch`
        for the shrink/expand hot path (both fields changed together).

        ``oldest_action`` stays put: a rescale only *raises* the job's
        ``last_action``, which can never lower the block's minimum — the
        stored value just becomes (safely) stale-low.
        """
        key = job.sort_key or priority_order_key(job)
        blocks = self._blocks
        b = bisect_left(self._maxkeys, key)
        last = len(blocks) - 1
        block = blocks[b if b < last else last]
        request = job.request
        replicas = job.replicas
        old = old_replicas - request.min_replicas
        new = replicas - request.min_replicas
        delta = (new if new > 0 else 0) - (old if old > 0 else 0)
        block.shrinkable += delta
        self.shrinkable_total += delta
        old_room = request.max_replicas - old_replicas
        new_room = request.max_replicas - replicas
        block.expandable += (new_room if new_room > 0 else 0) - (
            old_room if old_room > 0 else 0
        )
        if job.last_action > block.newest_action:
            block.newest_action = job.last_action

    # ------------------------------------------------------------------
    # Sequence protocol (list compatibility for tests and extensions)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def __iter__(self) -> Iterator[SchedulerJob]:
        for block in self._blocks:
            yield from block.jobs

    def __reversed__(self) -> Iterator[SchedulerJob]:
        for block in reversed(self._blocks):
            yield from reversed(block.jobs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        i = index + self._len if index < 0 else index
        if not 0 <= i < self._len:
            raise IndexError("IndexedJobList index out of range")
        for block in self._blocks:
            if i < len(block.jobs):
                return block.jobs[i]
            i -= len(block.jobs)
        raise IndexError("IndexedJobList index out of range")  # pragma: no cover

    def insert(self, index: int, job: SchedulerJob) -> None:
        """Sorted insert, ignoring ``index`` — supports ``bisect.insort``.

        External callers insort with the same :func:`priority_order_key`
        the list is ordered by, so the computed position and ours agree;
        honouring an arbitrary position would break the sort invariant.
        """
        self.add(job)

    def __contains__(self, job) -> bool:
        if not isinstance(job, SchedulerJob) or not self._blocks:
            return False
        key = priority_order_key(job)
        block = self._blocks[self._block_for_key(key)]
        i = bisect_left(block.keys, key)
        return i < len(block.jobs) and block.jobs[i] is job

    def index(self, job: SchedulerJob) -> int:
        key = priority_order_key(job)
        offset = 0
        for block in self._blocks:
            if block.keys and block.keys[-1] >= key:
                i = bisect_left(block.keys, key)
                if i < len(block.jobs) and block.jobs[i] is job:
                    return offset + i
                break
            offset += len(block.jobs)
        raise ValueError(f"job {job.name!r} not in list")

    def __eq__(self, other) -> bool:
        if isinstance(other, IndexedJobList):
            return list(self) == list(other)
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    __hash__ = None  # mutable sequence

    def __add__(self, other):
        if isinstance(other, IndexedJobList):
            return list(self) + list(other)
        if isinstance(other, list):
            return list(self) + other
        return NotImplemented

    def __radd__(self, other):
        if isinstance(other, list):
            return other + list(self)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IndexedJobList({list(self)!r})"

    # ------------------------------------------------------------------
    # Walk support
    # ------------------------------------------------------------------

    @property
    def blocks(self) -> List[_Block]:
        """The block run, exposed read-only for the engine's indexed walks."""
        return self._blocks

    def check_invariants(self) -> None:
        """Validate ordering, length, and aggregate bounds.

        Raises :class:`~repro.errors.SchedulingError` naming the first
        broken invariant; unlike an ``assert`` it still checks under
        ``python -O``.
        """
        seen = 0
        prev_key = None
        _require(self.min_replicas_total == sum(
            j.request.min_replicas for block in self._blocks for j in block.jobs
        ), "min_replicas_total drifted")
        _require(self.shrinkable_total == sum(
            _surplus(j) for block in self._blocks for j in block.jobs
        ), "shrinkable_total drifted")
        for b, block in enumerate(self._blocks):
            _require(bool(block.jobs), "empty block retained")
            _require(len(block.jobs) <= 2 * BLOCK_LOAD, "oversized block")
            _require(block.keys == [
                priority_order_key(j) for j in block.jobs
            ], "keys mirror drifted")
            exact_shrinkable = sum(_surplus(j) for j in block.jobs)
            _require(block.shrinkable == exact_shrinkable, "shrinkable drifted")
            exact_expandable = sum(_headroom(j) for j in block.jobs)
            _require(block.expandable == exact_expandable, "expandable drifted")
            _require(block.newest_action >= max(
                j.last_action for j in block.jobs
            ), "newest_action is not an upper bound")
            _require(block.oldest_action <= min(
                j.last_action for j in block.jobs
            ), "oldest_action is not a lower bound")
            exact_min = min(j.request.min_replicas for j in block.jobs)
            _require(block.min_needed == exact_min, "min_needed drifted")
            _require(block._min_count == sum(
                1 for j in block.jobs if j.request.min_replicas == exact_min
            ), "min_needed holder count drifted")
            _require(self._maxkeys[b] == priority_order_key(block.jobs[-1]),
                     "block max key drifted")
            for job in block.jobs:
                key = priority_order_key(job)
                _require(prev_key is None or prev_key < key,
                         "sort order violated")
                prev_key = key
                seen += 1
        _require(seen == self._len, "length counter drifted")
