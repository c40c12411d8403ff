"""IndexedJobList: the sequence protocol + aggregate invariants.

The spec diff (``test_spec.py``) proves the *engine* right; this file
pins the container itself — iteration, ``len`` and integer indexing,
the exact ``min_needed`` and ``min_replicas_total`` aggregates under
randomized churn, including the in-place rescales the engine makes
without telling the list, and the lazily filled member floors and
their cached block minimum at each place a block changes.
"""

import os
import pathlib
import random
import subprocess
import sys

import pytest

import repro
from repro.errors import SchedulingError
from repro.scheduling import (ElasticPolicyEngine, JobRequest, SchedulerJob,
                              joblist, priority_order_key)
from repro.scheduling.joblist import BLOCK_LOAD, IndexedJobList
from repro.scheduling.literature import runtime_floor
from repro.scheduling.registry import REGISTRY

from .streams import Stream


def make_job(i, priority, min_replicas=1, max_replicas=8, submit=0.0):
    job = SchedulerJob(
        request=JobRequest(
            name=f"j{i}",
            min_replicas=min_replicas,
            max_replicas=max_replicas,
            priority=priority,
        ),
        submit_time=submit,
    )
    job.replicas = min_replicas
    return job


def make_jobs(n, seed=0):
    rng = random.Random(seed)
    jobs = []
    for i in range(n):
        low = rng.randint(1, 8)
        job = make_job(i, rng.randint(1, 5), low, low + rng.randint(0, 24),
                       submit=rng.uniform(0, 1000))
        job.replicas = rng.randint(low, job.max_replicas)
        job.last_action = rng.uniform(0, 1000)
        jobs.append(job)
    return jobs


class TestSequenceProtocol:
    def test_sorted_order_and_indexing(self):
        jobs = make_jobs(300)
        indexed = IndexedJobList(jobs)
        expected = sorted(jobs, key=priority_order_key)
        assert list(indexed) == expected
        assert len(indexed) == 300
        assert indexed[0] is expected[0]
        assert indexed[-1] is expected[-1]
        assert indexed[137] is expected[137]
        assert list(reversed(indexed)) == expected[::-1]

    def test_empty_and_bool(self):
        indexed = IndexedJobList()
        assert not indexed
        assert len(indexed) == 0
        assert list(indexed) == []
        with pytest.raises(IndexError):
            indexed[0]

    def test_add_reports_a_new_first_element(self):
        # Enough jobs to span several blocks, so "first" means block 0.
        indexed = IndexedJobList()
        for job in make_jobs(6 * BLOCK_LOAD, seed=5):
            became_first = indexed.add(job)
            assert became_first == (indexed[0] is job)


class TestAggregates:
    def test_invariants_under_randomized_churn(self):
        rng = random.Random(42)
        indexed = IndexedJobList()
        alive = []
        for step in range(4000):
            roll = rng.random()
            if roll < 0.5 or not alive:
                job = make_jobs(1, seed=step + 10_000)[0]
                indexed.add(job)
                alive.append(job)
            elif roll < 0.8:
                job = alive.pop(rng.randrange(len(alive)))
                indexed.remove(job)
            else:
                # An in-place rescale: the aggregates read neither field.
                job = rng.choice(alive)
                job.replicas = rng.randint(0, job.max_replicas)
                job.last_action = job.last_action + rng.uniform(0, 100)
            if step % 250 == 0:
                indexed.check_invariants()
        indexed.check_invariants()
        assert list(indexed) == sorted(alive, key=priority_order_key)

    def test_blocks_split_and_merge(self):
        jobs = make_jobs(10 * BLOCK_LOAD, seed=7)
        indexed = IndexedJobList(jobs)
        assert len(indexed.blocks) > 1  # really blocked, not one big list
        indexed.check_invariants()
        rng = random.Random(7)
        rng.shuffle(jobs)
        for job in jobs[: 9 * BLOCK_LOAD + BLOCK_LOAD // 2]:
            indexed.remove(job)
        indexed.check_invariants()  # merged blocks kept aggregates exact
        remaining = jobs[9 * BLOCK_LOAD + BLOCK_LOAD // 2:]
        assert list(indexed) == sorted(remaining, key=priority_order_key)

    def test_min_replicas_total_is_o1_queue_demand(self):
        indexed = IndexedJobList()
        assert indexed.min_replicas_total == 0
        jobs = make_jobs(40, seed=9)
        for job in jobs:
            indexed.add(job)
        assert indexed.min_replicas_total == sum(
            j.request.min_replicas for j in jobs
        )
        for job in jobs[:17]:
            indexed.remove(job)
        assert indexed.min_replicas_total == sum(
            j.request.min_replicas for j in jobs[17:]
        )

    @pytest.mark.parametrize("field, message", [
        ("min_needed", "min_needed drifted"),
        ("needs", "needs mirror drifted"),
    ])
    def test_corrupted_aggregate_raises(self, field, message):
        indexed = IndexedJobList(make_jobs(3 * BLOCK_LOAD, seed=5))
        indexed.check_invariants()
        block = indexed.blocks[1]
        if field == "needs":
            block.needs[-1] += 1
        else:
            block.min_needed += 1
        with pytest.raises(SchedulingError, match=message):
            indexed.check_invariants()

    def test_invariant_check_survives_optimized_mode(self):
        """Not an ``assert``: ``python -O`` still catches the drift."""
        script = (
            "from repro.scheduling import JobRequest, SchedulerJob\n"
            "from repro.scheduling.joblist import IndexedJobList\n"
            "jobs = IndexedJobList([SchedulerJob(JobRequest('a', 1, 4))])\n"
            "jobs.blocks[0].min_needed += 1\n"
            "jobs.check_invariants()\n"
        )
        src = pathlib.Path(repro.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        result = subprocess.run([sys.executable, "-O", "-c", script],
                                capture_output=True, text=True, env=env,
                                timeout=60)
        assert result.returncode != 0
        assert "SchedulingError: min_needed drifted" in result.stderr

    def test_block_changes_read_no_member_request(self):
        """A split, the departure of a block's last minimum holder and a
        merge take ``min_needed`` from the ``needs`` mirror alone."""
        jobs = make_jobs(2 * BLOCK_LOAD, seed=3)
        indexed = IndexedJobList(jobs)
        assert len(indexed.blocks) == 1
        reads = []
        for job in jobs:
            job.request = ReadCountingRequest(job.request, reads)
        indexed.add(make_job(999, 3, min_replicas=4, submit=500.0))
        assert len(indexed.blocks) == 2  # the newcomer split the block
        first = indexed.blocks[0]
        cheapest = first.min_needed
        for job in [j for j, need in zip(first.jobs, first.needs)
                    if need == cheapest]:
            indexed.remove(job)
        assert first.min_needed > cheapest
        last = indexed.blocks[-1]
        while indexed.blocks[-1] is last:
            indexed.remove(last.jobs[0])
        assert len(indexed.blocks) == 1  # the last block merged
        assert reads == []
        indexed.check_invariants()

    def test_min_needed_exact_with_duplicate_holders(self):
        """Removing one of several min-holders must not rescan wrongly."""
        indexed = IndexedJobList()
        a = make_job(1, 3, min_replicas=2, max_replicas=8)
        b = make_job(2, 3, min_replicas=2, max_replicas=8)
        c = make_job(3, 3, min_replicas=5, max_replicas=8)
        for job in (a, b, c):
            indexed.add(job)
        assert indexed.blocks[0].min_needed == 2
        indexed.remove(a)
        assert indexed.blocks[0].min_needed == 2  # b still holds it
        indexed.remove(b)
        assert indexed.blocks[0].min_needed == 5
        indexed.check_invariants()


class ReadCountingRequest:
    """A listed member's request that records each read of its
    ``min_replicas``; every other field passes through."""

    def __init__(self, request, reads):
        self._request = request
        self._reads = reads

    def __getattr__(self, name):
        return getattr(self._request, name)

    @property
    def min_replicas(self):
        self._reads.append(self._request.name)
        return self._request.min_replicas


def floor_of(request):
    """A per-request bound for the floor tests: wider jobs run shorter."""
    return 1000.0 / request.max_replicas


class CountedFloor:
    """``floor_of`` that records each request it prices."""

    def __init__(self):
        self.priced = []

    def __call__(self, request):
        self.priced.append(request.name)
        return floor_of(request)


def widening_jobs(n):
    """Jobs in queue order whose floors fall along the order: each
    block's floor is its last member's, and later blocks' are lower."""
    return [make_job(i, 1, max_replicas=i + 1, submit=float(i))
            for i in range(n)]


def fill_floors(indexed):
    for block in indexed.blocks:
        block.floor(floor_of)
    indexed.check_invariants(floor_of)


class TestBlockFloor:
    """One floor per member, computed once while the job is listed; the
    block caches their minimum until a change can lower or remove it."""

    def test_adding_a_shorter_job(self):
        indexed = IndexedJobList(widening_jobs(BLOCK_LOAD))
        fill_floors(indexed)
        shorter = make_job(999, 1, max_replicas=10_000, submit=0.5)
        indexed.add(shorter)
        block = indexed.blocks[0]
        assert block.floors[1] is None and block._floor is None
        indexed.check_invariants(floor_of)
        counted = CountedFloor()
        assert block.floor(counted) == floor_of(shorter.request)
        assert counted.priced == ["j999"]
        indexed.check_invariants(floor_of)

    def test_each_floor_is_computed_once(self):
        jobs = widening_jobs(BLOCK_LOAD)
        indexed = IndexedJobList(jobs)
        counted = CountedFloor()
        block = indexed.blocks[0]
        assert block.floor(counted) == floor_of(jobs[-1].request)
        assert sorted(counted.priced) == sorted(j.name for j in jobs)
        counted.priced.clear()
        indexed.remove(jobs[0])  # not the minimum: the cache stays
        assert block._floor == floor_of(jobs[-1].request)
        assert block.floor(counted) == floor_of(jobs[-1].request)
        assert counted.priced == []
        indexed.check_invariants(floor_of)

    def test_removing_the_shortest_job(self):
        jobs = widening_jobs(BLOCK_LOAD)
        indexed = IndexedJobList(jobs)
        fill_floors(indexed)
        indexed.remove(jobs[-1])
        block = indexed.blocks[0]
        assert block._floor is None
        indexed.check_invariants(floor_of)
        counted = CountedFloor()
        assert block.floor(counted) == floor_of(jobs[-2].request)
        assert counted.priced == []  # the other floors stayed known

    def test_split(self):
        jobs = widening_jobs(2 * BLOCK_LOAD + 1)
        indexed = IndexedJobList(jobs[:-1])
        assert len(indexed.blocks) == 1
        fill_floors(indexed)
        indexed.add(jobs[-1])
        assert len(indexed.blocks) == 2
        indexed.check_invariants(floor_of)
        counted = CountedFloor()
        assert [b.floor(counted) for b in indexed.blocks] == [
            floor_of(b.jobs[-1].request) for b in indexed.blocks]
        assert counted.priced == [jobs[-1].name]  # only the newcomer

    def test_merge(self):
        """The last block folds into its left neighbour, whose floor
        must fall to the lowest of the members it takes in."""
        indexed = IndexedJobList(widening_jobs(4 * BLOCK_LOAD))
        blocks = len(indexed.blocks)
        fill_floors(indexed)
        last = indexed.blocks[-1]
        while indexed.blocks[-1] is last:
            indexed.remove(last.jobs[0])
            indexed.check_invariants(floor_of)
        assert len(indexed.blocks) == blocks - 1
        counted = CountedFloor()
        assert indexed.blocks[-1].floor(counted) == floor_of(
            indexed[-1].request)
        assert counted.priced == []

    def test_a_drifted_floor_raises(self):
        indexed = IndexedJobList(make_jobs(3 * BLOCK_LOAD, seed=5))
        fill_floors(indexed)
        block = indexed.blocks[1]
        top = block.floors.index(max(block.floors))  # not the minimum
        block.floors[top] += 1.0
        indexed.check_invariants()  # a member floor needs the bound
        with pytest.raises(SchedulingError, match="member floor drifted"):
            indexed.check_invariants(floor_of)
        block.floors[top] -= 1.0
        block._floor += 1.0
        with pytest.raises(SchedulingError, match="cached block floor"):
            indexed.check_invariants()
        block._floor = None
        block.floors.pop()
        with pytest.raises(SchedulingError, match="floors mirror drifted"):
            indexed.check_invariants()

    @pytest.mark.parametrize("seed", range(4))
    def test_easy_queue_floors_stay_exact(self, monkeypatch, seed):
        """An EASY backlog over many small blocks: every floor the rule
        filled equals a fresh minimum after every event."""
        monkeypatch.setattr(joblist, "BLOCK_LOAD", 2)
        engine = ElasticPolicyEngine(32, REGISTRY.resolve("easy-backfill"))
        stream = Stream(engine, seed, n_jobs=200, submit_share=0.7)
        filled = 0
        while not stream.done:
            stream.step()
            engine.queue.check_invariants(runtime_floor)
            filled += sum(b._floor is not None for b in engine.queue.blocks)
        assert filled, "the walk never priced a block floor"
