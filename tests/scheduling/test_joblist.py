"""IndexedJobList: sequence compatibility + aggregate invariants.

The golden decision-log suite proves the *engine* unchanged; this file
pins the container itself — the list protocol the tests and extensions
rely on, and the block aggregates (exact ``shrinkable``/``min_needed``,
upper-bound ``newest_action``) under randomized churn including in-place
rescales, which is exactly the traffic the engine throws at it.
"""

import os
import pathlib
import random
import subprocess
import sys

import pytest

import repro
from repro.errors import SchedulingError
from repro.scheduling import JobRequest, SchedulerJob, priority_order_key
from repro.scheduling.joblist import BLOCK_LOAD, IndexedJobList


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
        assert indexed[5:10] == expected[5:10]
        assert indexed[1:] == expected[1:]
        assert list(reversed(indexed)) == expected[::-1]

    def test_equality_add_contains_index(self):
        jobs = make_jobs(50)
        indexed = IndexedJobList(jobs)
        expected = sorted(jobs, key=priority_order_key)
        assert indexed == expected
        assert indexed != expected[:-1]
        assert (indexed + []) == expected  # __add__ materializes a list
        assert ([] + indexed) == expected
        for job in jobs[:10]:
            assert job in indexed
            assert indexed[indexed.index(job)] is job
        outsider = make_job(999, 3)
        assert outsider not in indexed
        with pytest.raises(ValueError):
            indexed.index(outsider)

    def test_empty_and_bool(self):
        indexed = IndexedJobList()
        assert not indexed
        assert len(indexed) == 0
        assert list(indexed) == []
        assert indexed == []
        with pytest.raises(IndexError):
            indexed[0]

    def test_insert_keeps_sorted_order(self):
        # bisect.insort calls insert(pos, item); position is recomputed.
        from bisect import insort

        indexed = IndexedJobList()
        jobs = make_jobs(40, seed=3)
        for job in jobs:
            insort(indexed, job, key=priority_order_key)
        assert list(indexed) == sorted(jobs, key=priority_order_key)

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
                job = rng.choice(alive)
                old = job.replicas
                job.replicas = rng.randint(0, job.max_replicas)
                job.last_action = job.last_action + rng.uniform(0, 100)
                indexed.rescaled(job, old)
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

    def test_adjust_and_touch_update_single_block(self):
        jobs = make_jobs(5, seed=1)
        indexed = IndexedJobList(jobs)
        job = jobs[2]
        old = job.replicas
        job.replicas = job.max_replicas
        indexed.adjust_replicas(job, old)
        indexed.check_invariants()
        job.last_action = 1e9
        indexed.touch(job)
        assert indexed.blocks[0].newest_action == 1e9
        indexed.check_invariants()

    def test_expandable_tracks_headroom(self):
        """The PR-5 running-side aggregate: exact sum of max - replicas."""
        jobs = make_jobs(30, seed=11)
        indexed = IndexedJobList(jobs)
        expected = sum(
            max(0, j.request.max_replicas - j.replicas) for j in jobs
        )
        assert sum(b.expandable for b in indexed.blocks) == expected
        # Expanding a member to its max drains its share of the sum.
        job = jobs[4]
        old = job.replicas
        job.replicas = job.request.max_replicas
        job.last_action += 1.0
        indexed.rescaled(job, old)
        assert sum(b.expandable for b in indexed.blocks) == expected - (
            job.request.max_replicas - old
        )
        indexed.check_invariants()

    def test_oldest_action_is_a_lower_bound_only(self):
        """Rescales raise last_action; the stored minimum may go stale-low
        but must never exceed the true minimum (the skip-safety contract)."""
        jobs = make_jobs(8, seed=2)
        indexed = IndexedJobList(jobs)
        block = indexed.blocks[0]
        true_min = min(j.last_action for j in block.jobs)
        assert block.oldest_action <= true_min
        job = min(block.jobs, key=lambda j: j.last_action)
        old = job.replicas
        job.last_action += 5000.0
        indexed.rescaled(job, old)
        # Bound untouched (stale-low) — still a valid lower bound.
        assert block.oldest_action <= min(j.last_action for j in block.jobs)
        indexed.check_invariants()

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
        ("shrinkable", "shrinkable drifted"),
        ("expandable", "expandable drifted"),
        ("min_needed", "min_needed drifted"),
    ])
    def test_corrupted_aggregate_raises(self, field, message):
        indexed = IndexedJobList(make_jobs(3 * BLOCK_LOAD, seed=5))
        indexed.check_invariants()
        block = indexed.blocks[1]
        setattr(block, field, getattr(block, field) + 1)
        with pytest.raises(SchedulingError, match=message):
            indexed.check_invariants()

    def test_invariant_check_survives_optimized_mode(self):
        """Not an ``assert``: ``python -O`` still catches the drift."""
        script = (
            "from repro.scheduling import JobRequest, SchedulerJob\n"
            "from repro.scheduling.joblist import IndexedJobList\n"
            "jobs = IndexedJobList([SchedulerJob(JobRequest('a', 1, 4))])\n"
            "jobs.blocks[0].expandable += 1\n"
            "jobs.check_invariants()\n"
        )
        src = pathlib.Path(repro.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        result = subprocess.run([sys.executable, "-O", "-c", script],
                                capture_output=True, text=True, env=env,
                                timeout=60)
        assert result.returncode != 0
        assert "SchedulingError: expandable drifted" in result.stderr

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
