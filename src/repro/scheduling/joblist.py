"""The scheduler queue: a blocked sorted job list whose blocks know
their cheapest member.

:class:`IndexedJobList` is the structure of the engine's queue, ordered
by :func:`~repro.scheduling.job.priority_order_key`.  A queue may hold
100k jobs, and the Figure-3 walk must not touch every waiter when the
freed budget can start none of them, so the list is *blocked* (the
``sortedcontainers`` layout: a list of small sorted blocks) and each
block carries an exact aggregate:

``min_needed``
    Minimum ``min_replicas`` over the block.  The Figure-3 walk skips
    whole queue blocks whose cheapest member cannot start within the
    remaining slot budget — the budget only shrinks during a walk, so a
    skipped block can never become startable again.  The block keeps
    one need per member in ``needs``, parallel to ``keys``, so a split
    or the departure of a minimum holder takes the new minimum with one
    C-level ``min`` over that list, a merge takes the lesser of the two
    blocks' minima, and none of them reads a member's request.  The
    skip pays: with the queue skip removed, the 100k-job churn run of
    ``tests/scheduling/test_churn_flatness.py`` fell from about 55k to
    30–41k events/s, and its 10k/100k throughput ratio rose from
    1.03–1.12 to 1.55–1.65 (2 shared cores, CPython 3.11).

A block also carries a second aggregate, filled lazily: ``floor``,
the minimum of a per-request lower bound over its members (EASY's
bound on the estimated runtime at any allowed width, see
:meth:`_Block.floor`).  The list does not know the bound, so it keeps
one floor per member in ``floors``, parallel to ``keys``: :meth:`add`
lists the newcomer as unknown (None) and computes nothing, so the
submit path never prices a floor; :meth:`remove`, and every split and
merge, carry each known floor with its job; and the next reader
computes only the unknown entries, each once while its job is listed.
The block caches its minimum, and a removal clears that cache only
when it takes out the minimum (or an unknown entry).  Aggregate-free
policies never fill a floor, so they pay one list insert and one
delete per list change.

The list also keeps ``min_replicas_total``, the queue's slot demand for
the cloud autoscaler.  Every aggregate reads only the member's request,
which never changes while a job is listed, so the engine may change a
member's ``replicas`` and ``last_action`` in place without telling the
list.  :meth:`add` / :meth:`remove` fold members in and out exactly.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterable, Iterator, List, Optional

from ..errors import SchedulingError
from .job import JobRequest, SchedulerJob, priority_order_key

__all__ = ["IndexedJobList", "BLOCK_LOAD"]

#: Target block size.  Splits happen at twice this, merges below half;
#: 64 keeps the per-block memmove inside a cache line or two while the
#: block count at 100k queued jobs stays ~1.5k.
BLOCK_LOAD = 64


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise SchedulingError(message)


class _Block:
    """One run of the sorted sequence plus its cheapest member's need.

    ``keys`` mirrors ``jobs`` with each member's (immutable)
    :func:`priority_order_key`, so the bisects inside :meth:`IndexedJobList
    .add` / :meth:`remove` run entirely in C instead of calling the key
    function once per comparison probe.  ``needs`` mirrors ``jobs`` with
    each member's (immutable) ``min_replicas``, and ``min_needed`` is
    their minimum.  ``floors`` mirrors ``jobs`` too,
    with each member's :meth:`floor` bound (None: not computed yet), and
    ``_floor`` caches their minimum (None: unknown until the next
    :meth:`floor`); a filled cache implies every entry is known.
    """

    __slots__ = ("jobs", "keys", "needs", "floors", "min_needed", "_floor")

    def __init__(self, jobs: List[SchedulerJob], keys: List[tuple],
                 needs: List[int], floors: List[Optional[float]]):
        self.jobs = jobs
        self.keys = keys
        self.needs = needs
        self.floors = floors
        self.min_needed = min(needs)
        self._floor = None

    def floor(self, floor_of: Callable[[JobRequest], float]) -> float:
        """Minimum of ``floor_of(request)`` over the members.

        Calls ``floor_of`` only for members whose floor is unknown, so
        at most once per job while it is listed; a caller must pass the
        same pure ``floor_of`` every time.
        """
        floor = self._floor
        if floor is None:
            floors = self.floors
            jobs = self.jobs
            i = 0
            for _ in range(floors.count(None)):
                i = floors.index(None, i)
                floors[i] = floor_of(jobs[i].request)
            floor = self._floor = min(floors)
        return floor


class IndexedJobList:
    """Sorted-by-:func:`priority_order_key` job sequence with aggregates."""

    __slots__ = ("_blocks", "_maxkeys", "_len", "min_replicas_total")

    def __init__(self, jobs: Optional[Iterable[SchedulerJob]] = None):
        self._blocks: List[_Block] = []
        self._maxkeys: List[tuple] = []  # priority_order_key of each block's last job
        self._len = 0
        #: Exact sum of members' ``min_replicas`` — the queue's aggregate
        #: slot demand, read O(1) per autoscaler evaluation instead of a
        #: per-event O(queue) sum.
        self.min_replicas_total = 0
        if jobs:
            for job in sorted(jobs, key=priority_order_key):
                self.add(job)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def add(self, job: SchedulerJob) -> bool:
        """Insert keeping sorted order; O(log blocks + block size).

        Returns whether ``job`` became the first element.
        """
        key = priority_order_key(job)
        needed = job.request.min_replicas
        self.min_replicas_total += needed
        if not self._blocks:
            self._blocks.append(_Block([job], [key], [needed], [None]))
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
        block.needs.insert(i, needed)
        block.floors.insert(i, None)
        block._floor = None
        if needed < block.min_needed:
            block.min_needed = needed
        self._maxkeys[b] = keys[-1]
        self._len += 1
        if len(keys) > 2 * BLOCK_LOAD:
            self._split(b)
        return i == 0 and b == 0

    def _split(self, b: int) -> None:
        block = self._blocks[b]
        half = len(block.jobs) // 2
        right = _Block(block.jobs[half:], block.keys[half:],
                       block.needs[half:], block.floors[half:])
        del block.jobs[half:]
        del block.keys[half:]
        del block.needs[half:]
        del block.floors[half:]
        block.min_needed = min(block.needs)
        block._floor = None
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
        needed = block.needs.pop(i)
        if block.floors.pop(i) == block._floor:
            # The cached minimum left with the job (or the cache was
            # unknown already): the next reader takes a fresh minimum.
            block._floor = None
        self._len -= 1
        self.min_replicas_total -= needed
        if not jobs:
            del self._blocks[b]
            del self._maxkeys[b]
            return
        if needed == block.min_needed:
            block.min_needed = min(block.needs)
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
        block.needs.extend(other.needs)
        block.floors.extend(other.floors)
        del self._blocks[left + 1]
        del self._maxkeys[left + 1]
        if other.min_needed < block.min_needed:
            block.min_needed = other.min_needed
        block._floor = None
        self._maxkeys[left] = block.keys[-1]
        if len(block.jobs) > 2 * BLOCK_LOAD:
            self._split(left)

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def __iter__(self) -> Iterator[SchedulerJob]:
        for block in self._blocks:
            yield from block.jobs

    def __getitem__(self, index: int) -> SchedulerJob:
        i = index + self._len if index < 0 else index
        if not 0 <= i < self._len:
            raise IndexError("IndexedJobList index out of range")
        for block in self._blocks:
            if i < len(block.jobs):
                return block.jobs[i]
            i -= len(block.jobs)
        raise IndexError("IndexedJobList index out of range")  # pragma: no cover

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IndexedJobList({list(self)!r})"

    # ------------------------------------------------------------------
    # Walk support
    # ------------------------------------------------------------------

    @property
    def blocks(self) -> List[_Block]:
        """The block run, exposed read-only for the Figure-3 queue walk."""
        return self._blocks

    def check_invariants(
        self, floor_of: Optional[Callable[[JobRequest], float]] = None
    ) -> None:
        """Validate ordering, length, and the exact aggregates.

        Every block's ``floors`` must run parallel to its members, and a
        cached floor minimum must equal the minimum of its entries, all
        known.  ``floor_of`` is the per-request bound the floors were
        filled with; given it, every known floor must equal
        ``floor_of(request)``.  Raises
        :class:`~repro.errors.SchedulingError` naming the first broken
        invariant; unlike an ``assert`` it still checks under ``python
        -O``.
        """
        seen = 0
        prev_key = None
        _require(self.min_replicas_total == sum(
            j.request.min_replicas for block in self._blocks for j in block.jobs
        ), "min_replicas_total drifted")
        for b, block in enumerate(self._blocks):
            _require(bool(block.jobs), "empty block retained")
            _require(len(block.jobs) <= 2 * BLOCK_LOAD, "oversized block")
            _require(block.keys == [
                priority_order_key(j) for j in block.jobs
            ], "keys mirror drifted")
            _require(block.needs == [
                j.request.min_replicas for j in block.jobs
            ], "needs mirror drifted")
            _require(block.min_needed == min(block.needs),
                     "min_needed drifted")
            floors = block.floors
            _require(len(floors) == len(block.jobs), "floors mirror drifted")
            if block._floor is not None:
                _require(None not in floors and block._floor == min(floors),
                         "cached block floor drifted")
            if floor_of is not None:
                _require(all(
                    floor is None or floor == floor_of(j.request)
                    for floor, j in zip(floors, block.jobs)
                ), "member floor drifted")
            _require(self._maxkeys[b] == priority_order_key(block.jobs[-1]),
                     "block max key drifted")
            for job in block.jobs:
                key = priority_order_key(job)
                _require(prev_key is None or prev_key < key,
                         "sort order violated")
                prev_key = key
                seen += 1
        _require(seen == self._len, "length counter drifted")
