"""Aging under EASY backfilling, by hand and in the simulator.

The engine re-keys only the waiters whose aged priority stepped,
through its step heap, and tells EASY when a re-key puts a waiter at the
queue front; ``test_spec.py`` diffs it against the executable spec,
which re-prices every waiter at every event.  The scenario here pins the
reservation hand-over at each kind of event.

The simulator runs check EASY's guarantee under the aged order: every
head that no arrival and no aged waiter overtook starts by its reserved
time.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.scheduling import Aging, ElasticPolicyEngine, JobRequest
from repro.scheduling.registry import REGISTRY
from repro.schedsim import ScheduleSimulator, WorkloadSpec, generate_workload


def est(name, low, high, runtime, priority=1):
    return JobRequest(name=name, min_replicas=low, max_replicas=high,
                      priority=priority, params={"est_runtime": runtime})


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
