"""Aging under EASY backfilling, against a queue that is re-sorted at
every event.

The shipped engine re-keys only the waiters whose aged priority stepped,
through its step heap, and tells EASY when a re-key puts a waiter at the
queue front.  :class:`ResortAgingEngine` is the slow shape of the same
rule: at every event it recomputes every waiter's key from
``Aging.get_priority(now, ·)``, rebuilds the queue, and hands out slots
through the literal Figure-3 scan; its EASY rule is the per-candidate
rescan of :mod:`tests.scheduling.easy_oracle`.  Both run one randomized
stream, with ``BLOCK_LOAD`` at 2 and at its default, and must agree on
every decision while the shipped queue passes ``check_invariants()``
after every event.

The simulator runs check EASY's guarantee under the aged order: every
head that no arrival and no aged waiter overtook starts by its reserved
time.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.scheduling import (
    Aging,
    ElasticPolicyEngine,
    StaticPriority,
    joblist,
)
from repro.scheduling.joblist import IndexedJobList
from repro.scheduling.literature import ewt_priority
from repro.scheduling.registry import REGISTRY
from repro.schedsim import ScheduleSimulator, WorkloadSpec, generate_workload

from .fig3_oracle import ScanEngine
from .test_easy_oracle import (
    SEEDS,
    SLOTS,
    Stream,
    assert_same_reservations,
    configs,
    est,
    overtaken,
)

#: The aging rules under test.  EWT is in seconds of estimated
#: runtime, so its aging steps one second per second.
AGINGS = {
    "user-15s": Aging(interval=15.0),
    "user-60s": Aging(interval=60.0),
    "user-300s": Aging(interval=300.0),
    "ewt-1s": Aging(StaticPriority(ewt_priority), interval=1.0,
                    max_priority=0),
}


class ResortAgingEngine(ScanEngine):
    """Figure 3 as the literal scan over a queue re-sorted by
    ``aging.get_priority(now, ·)`` at every event.

    ``aged_past`` collects every waiter some other waiter rose past in a
    re-sort: the heads whose reservations the shipped rule may retire.
    """

    def __init__(self, total_slots, config, aging):
        super().__init__(total_slots, config)
        self.aging = aging
        self.aged_past = set()

    def _resort(self, now):
        before = list(self.queue)
        for job in before:
            job.sort_key = (-self.aging.get_priority(now, job),
                            job.submit_time, job.seq)
        self.queue = IndexedJobList(before)
        rank = {job.name: i for i, job in enumerate(self.queue)}
        # Walking the old order backwards, ``best`` is the best new rank
        # among the jobs that were behind this one.
        best = len(before)
        for job in reversed(before):
            if best < rank[job.name]:
                self.aged_past.add(job.name)
            best = min(best, rank[job.name])

    def on_submit(self, request, now):
        self._resort(now)
        return super().on_submit(request, now)

    def on_complete(self, name, now):
        self._resort(now)
        return super().on_complete(name, now)

    def shrink_capacity(self, slots, now, *, force=False):
        self._resort(now)
        return super().shrink_capacity(slots, now, force=force)

    def rebalance(self, now):
        self._resort(now)
        return super().rebalance(now)


@pytest.fixture(params=[2, None], ids=["blocks2", "blocks-default"])
def block_load(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(joblist, "BLOCK_LOAD", request.param)


def run_pair(aging, seed, conservative=False, launcher_slots=0,
             preempt=False):
    aging = AGINGS[aging]
    new_cfg, old_cfg = configs(conservative, launcher_slots, preempt)
    new_cfg = dataclasses.replace(new_cfg, priority=aging)
    shipped = Stream(ElasticPolicyEngine(SLOTS, new_cfg), seed)
    while not shipped.done:
        shipped.step()
        shipped.engine.queue.check_invariants()
    # The oracle keys jobs by the static base; it ages waiters itself.
    old_cfg = dataclasses.replace(old_cfg, priority=aging.base)
    oracle = ResortAgingEngine(SLOTS, old_cfg, aging)
    return shipped, Stream(oracle, seed).run(), new_cfg, old_cfg


@pytest.mark.parametrize("conservative", [False, True],
                         ids=["aggressive", "conservative"])
@pytest.mark.parametrize("aging", sorted(AGINGS))
@pytest.mark.parametrize("seed", SEEDS)
def test_aged_easy_matches_the_resort_oracle(block_load, aging, seed,
                                             conservative):
    shipped, oracle, new_cfg, old_cfg = run_pair(aging, seed, conservative,
                                                 launcher_slots=seed % 2)
    assert shipped.log == oracle.log
    assert shipped.engine.snapshot() == oracle.engine.snapshot()
    assert [j.name for j in shipped.engine.queue] == [
        j.name for j in oracle.engine.queue
    ]
    assert_same_reservations(
        new_cfg.backfill, old_cfg.backfill,
        overtaken(shipped.decisions) | oracle.engine.aged_past,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_preemptive_aged_easy_matches_the_resort_oracle(seed):
    shipped, oracle, _, _ = run_pair("user-15s", seed, preempt=True)
    assert shipped.log == oracle.log
    assert shipped.engine.snapshot() == oracle.engine.snapshot()


@pytest.mark.parametrize("aging", sorted(AGINGS))
def test_aging_changes_the_easy_streams(aging):
    """The diffs above are not vacuous: aging reorders EASY's queue."""
    changed = 0
    for seed in SEEDS:
        shipped, *_ = run_pair(aging, seed)
        plain = Stream(ElasticPolicyEngine(SLOTS, configs()[0]), seed).run()
        changed += shipped.log != plain.log
    assert changed > len(SEEDS) // 2


#: One event of each kind at ``now``: each must re-key due waiters first.
EVENTS = {
    "submit": lambda engine, now: engine.on_submit(est("d", 1, 1, 10.0), now),
    "complete": lambda engine, now: engine.on_complete("c", now),
    "shrink": lambda engine, now: engine.shrink_capacity(1, now),
    "grow": lambda engine, now: engine.grow_capacity(1, now),
}


@pytest.mark.parametrize("event", sorted(EVENTS))
def test_a_rekey_to_the_front_retires_the_head_reservation(event):
    """A waiter aged past the head takes its place; the head it
    displaced loses its reservation at the next event of any kind."""
    config = dataclasses.replace(
        REGISTRY.resolve("easy-backfill"),
        priority=Aging(interval=10.0, max_priority=3),
    )
    rule = config.backfill
    engine = ElasticPolicyEngine(10, config)
    engine.on_submit(est("a", 6, 6, 100.0), 0.0)
    engine.on_submit(est("old", 6, 6, 100.0, priority=1), 0.0)
    engine.on_submit(est("h", 6, 6, 100.0, priority=3), 1.0)
    assert [j.name for j in engine.queue] == ["h", "old"]
    engine.on_submit(est("c", 2, 2, 50.0), 2.0)  # backfilled past h
    assert rule.last_head_reservations == {"h": pytest.approx(100.0)}
    # h sits at the cap of 3.  By t=25 "old" has aged to 1 + 2 = 3 and,
    # submitted earlier, ranks ahead: the event re-keys it to the front.
    EVENTS[event](engine, 25.0)
    assert [j.name for j in engine.queue] == ["old", "h"]
    assert "h" not in rule.last_head_reservations


class TestAgedHeadsNeverDelayed:
    """Under exact estimates, a reserved head that no arrival and no
    aged waiter overtook starts by its reservation."""

    @staticmethod
    def run(seed, num_jobs, gap, interval, conservative):
        config = dataclasses.replace(
            REGISTRY.resolve("easy-backfill", conservative=conservative),
            priority=Aging(interval=interval),
        )
        rule = config.backfill
        submissions = generate_workload(
            WorkloadSpec(num_jobs=num_jobs, submission_gap=gap, seed=seed)
        )
        result = ScheduleSimulator(config).run(submissions)
        assert result.metrics.job_count == num_jobs
        started = {o.name: o.start_time for o in result.outcomes}
        for name, reserved_at in rule.last_head_reservations.items():
            assert started[name] <= reserved_at + 1e-6, (
                f"backfill delayed reserved head {name}: started "
                f"{started[name]} > reserved {reserved_at}"
            )
        return rule

    @settings(max_examples=40, deadline=None)
    # Draws in which an aged waiter overtakes a reserved head that then
    # starts after its reservation: the head must have lost it.
    @example(seed=7, num_jobs=8, gap=0.0, interval=30.0)
    @example(seed=9, num_jobs=12, gap=30.0, interval=30.0)
    @example(seed=3, num_jobs=20, gap=0.0, interval=120.0)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_jobs=st.integers(min_value=4, max_value=20),
        gap=st.sampled_from([0.0, 30.0, 90.0]),
        interval=st.sampled_from([30.0, 120.0, 600.0]),
    )
    def test_aggressive(self, seed, num_jobs, gap, interval):
        rule = self.run(seed, num_jobs, gap, interval, conservative=False)
        assert rule.last_head_reservations == rule.last_reservations

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=1_000),
        interval=st.sampled_from([30.0, 120.0]),
    )
    def test_conservative(self, seed, interval):
        self.run(seed, 8, 30.0, interval, conservative=True)
