"""Tests for the §3.2.2 policy extensions: aging and preemption."""

import dataclasses
import math
import types

import pytest

from repro.errors import SchedulingError
from repro.scheduling import (
    Aging,
    ElasticPolicyEngine,
    JobState,
    PolicyConfig,
    ResumeJob,
    SchedulerJob,
    StartJob,
    StaticPriority,
)
from repro.scheduling.literature import ewt_priority
from repro.scheduling.power import PowerBudget
from repro.scheduling.registry import (
    REGISTRY,
    PolicyRegistrationError,
    SchedulerRegistry,
)
from tests.scheduling.conftest import req


def aging_engine(slots=64, interval=100.0, max_priority=10):
    return ElasticPolicyEngine(slots, PolicyConfig(
        rescale_gap=0.0,
        priority=Aging(interval=interval, max_priority=max_priority),
    ))


class TestAging:
    def test_effective_priority_grows_while_queued(self):
        policy = aging_engine()
        policy.on_submit(req("blocker", 32, 64, priority=5), 0.0)  # 64 slots
        policy.on_submit(req("starving", 32, 32, priority=1), 10.0)
        job = policy.job("starving")
        aging = policy.config.priority
        assert aging.get_priority(10.0, job) == 1
        assert aging.get_priority(210.0, job) == 3
        assert aging.get_priority(5000.0, job) == 10  # capped

    def test_running_jobs_do_not_age(self):
        policy = aging_engine()
        policy.on_submit(req("blocker", 64, 64, priority=5), 0.0)
        policy.on_submit(req("waiter", 32, 32, priority=1), 10.0)
        policy.on_submit(req("runner", 2, 8, priority=2), 20.0)  # queues too
        policy.on_complete("blocker", 510.0)  # waiter aged to 6 by now
        policy.rebalance(10_000.0)
        for name, priority in (("waiter", 1), ("runner", 2)):
            job = policy.job(name)
            assert job.state == JobState.RUNNING
            # Started from the queue with its static key back, and a
            # running job is never re-keyed.
            assert job.sort_key == (-priority, job.submit_time, job.seq)
        policy.running.check_invariants()

    def test_aged_job_jumps_the_queue(self):
        policy = aging_engine()
        policy.on_submit(req("blocker", 32, 64, priority=5), 0.0)    # all slots
        policy.on_submit(req("old-low", 32, 32, priority=1), 10.0)   # queues
        policy.on_submit(req("new-high", 32, 32, priority=3), 800.0)  # queues
        # old-low has aged: 1 + 7 levels > new-high's 3.
        decisions = policy.on_complete("blocker", 900.0)
        starts = [d for d in decisions if isinstance(d, StartJob)]
        assert starts[0].job.name == "old-low"

    def test_without_aging_the_low_priority_job_starves(self):
        policy = ElasticPolicyEngine(64, PolicyConfig(rescale_gap=0.0))
        policy.on_submit(req("blocker", 32, 64, priority=5), 0.0)
        policy.on_submit(req("old-low", 32, 32, priority=1), 10.0)
        policy.on_submit(req("new-high", 32, 32, priority=3), 800.0)
        decisions = policy.on_complete("blocker", 900.0)
        starts = [d for d in decisions if isinstance(d, StartJob)]
        assert starts[0].job.name == "new-high"

    @pytest.mark.parametrize("aged", [False, True])
    def test_aging_never_lowers_a_priority(self, aged):
        # p12 sits above the cap: capping it at 10 would tie it with an
        # earlier p11 that has not crossed a single step.
        policy = (aging_engine(slots=8, interval=600.0) if aged
                  else ElasticPolicyEngine(8, PolicyConfig(rescale_gap=0.0)))
        policy.on_submit(req("blocker", 8, 8, priority=20), 0.0)
        policy.on_submit(req("p11", 8, 8, priority=11), 0.0)
        policy.on_submit(req("p12", 8, 8, priority=12), 0.0)
        decisions = policy.on_complete("blocker", 10.0)
        assert [d.job.name for d in decisions] == ["p12"]

    def test_step_decided_by_the_waiting_time_expression(self):
        # 11 steps of 0.1 s after a submission at 7 * 0.1 compute to
        # 1.8000000000000003, but (1.8 - 7 * 0.1) // 0.1 already reads
        # 11: the step must count from the expression, not the product.
        submit, interval, now = 7 * 0.1, 0.1, 1.8
        assert submit + 11 * interval > now
        assert (now - submit) // interval == 11
        policy = aging_engine(slots=9, interval=interval, max_priority=100)
        policy.on_submit(req("blocker", 8, 8, priority=100), 0.0)
        policy.on_submit(req("b", 8, 8, priority=1), 0.0)  # 1 + 17 at now
        policy.on_submit(req("a", 8, 8, priority=8), submit)  # 8 + 11
        policy.rebalance(1.75)  # keys a at 8 + 10, which ties b
        decisions = policy.on_complete("blocker", now)
        assert [d.job.name for d in decisions] == ["a"]

    @pytest.mark.parametrize("interval", [
        0.0, -1.0, math.nan, math.inf, -math.inf, "600", True, None,
    ])
    def test_bad_interval_rejected(self, interval):
        with pytest.raises(ValueError, match="interval"):
            Aging(interval=interval)

    @pytest.mark.parametrize("max_priority", [10.5, 10.0, "10", True, None])
    def test_non_integer_max_priority_rejected(self, max_priority):
        with pytest.raises(ValueError, match="max_priority"):
            Aging(max_priority=max_priority)

    def test_aging_with_backfill_accepted(self):
        # EASY reserves for the head of the aged order.
        config = dataclasses.replace(REGISTRY.resolve("easy-backfill"),
                                     priority=Aging())
        assert config.priority == Aging() and config.backfill is not None

    @pytest.mark.parametrize("priority", [600.0, None, lambda r: -r.priority])
    def test_priority_must_be_a_priority_rule(self, priority):
        with pytest.raises(ValueError, match="'elastic'.*priority"):
            PolicyConfig(priority=priority)

    @pytest.mark.parametrize("base", [Aging(), lambda r: r.priority, None])
    def test_aging_base_must_be_static(self, base):
        with pytest.raises(ValueError, match="base"):
            Aging(base)

    def test_registered_as_an_extension(self):
        config = REGISTRY.resolve("aging", aging_interval=120.0,
                                  max_priority=7, rescale_gap=30.0)
        assert config.priority == Aging(interval=120.0, max_priority=7)
        assert config.rescale_gap == 30.0
        assert REGISTRY.resolve("aging").priority == Aging()
        assert not REGISTRY.describe("aging").paper
        assert "aging" not in REGISTRY.paper_policies()


class TestAgingOverEwt:
    """``Aging(StaticPriority(ewt_priority), interval=1.0, max_priority=0)``:
    a waiter's priority is its wait minus its estimated runtime, so a
    long job outranks a later-submitted short one iff it was submitted
    at least the difference of their estimates earlier."""

    @staticmethod
    def first_started(delay, aging=True):
        ewt = StaticPriority(ewt_priority)
        priority = Aging(ewt, interval=1.0, max_priority=0) if aging else ewt
        policy = ElasticPolicyEngine(8, PolicyConfig(rescale_gap=0.0,
                                                     priority=priority))
        policy.on_submit(req("blocker", 8, 8, est_runtime=10.0), 0.0)
        policy.on_submit(req("long", 8, 8, est_runtime=1000.0), 0.0)
        policy.on_submit(req("short", 8, 8, est_runtime=100.0), delay)
        # 50 s after the short job's submission neither has reached the cap.
        return policy.on_complete("blocker", delay + 50.0)[0].job.name

    @pytest.mark.parametrize("delay, first", [
        (850.0, "short"), (899.0, "short"), (900.0, "long"),
        (901.0, "long"), (950.0, "long"),
    ])
    def test_long_job_overtakes_after_the_estimate_gap(self, delay, first):
        assert self.first_started(delay) == first

    def test_without_aging_the_short_job_always_wins(self):
        assert self.first_started(950.0, aging=False) == "short"

    def test_steps_are_in_seconds_of_estimate(self):
        job = SchedulerJob(req("long", 8, 8, est_runtime=1000.0),
                           submit_time=0.0)
        aging = Aging(StaticPriority(ewt_priority), interval=1.0,
                      max_priority=0)
        assert aging.get_priority(0.0, job) == -1000.0
        assert aging.get_priority(250.5, job) == -750.0
        assert aging.get_priority(5000.0, job) == 0  # the cap


class TestPreemption:
    def make(self):
        return ElasticPolicyEngine(
            64, PolicyConfig(rescale_gap=0.0, preempt=True)
        )

    def test_preempts_rigid_low_priority_victim(self):
        policy = self.make()
        # Two rigid (unshrinkable) low-priority jobs fill the cluster.
        policy.on_submit(req("low-a", 32, 32, priority=1), 0.0)
        policy.on_submit(req("low-b", 32, 32, priority=1), 0.0)
        decisions = policy.on_submit(req("high", 32, 32, priority=5), 10.0)
        kinds = [type(d).__name__ for d in decisions]
        assert "PreemptJob" in kinds
        assert isinstance(decisions[-1], StartJob)
        assert policy.job("high").state == JobState.RUNNING
        assert policy.job("low-b").state == JobState.QUEUED
        assert policy.free_slots >= 0

    def test_no_preemption_for_equal_priority(self):
        policy = self.make()
        policy.on_submit(req("a", 32, 32, priority=3), 0.0)
        policy.on_submit(req("b", 32, 32, priority=3), 0.0)
        decisions = policy.on_submit(req("c", 32, 32, priority=3), 10.0)
        assert [type(d).__name__ for d in decisions] == ["EnqueueJob"]

    def test_index_zero_job_protected_from_preemption(self):
        policy = self.make()
        policy.on_submit(req("only", 64, 64, priority=1), 0.0)
        decisions = policy.on_submit(req("high", 8, 8, priority=5), 10.0)
        assert [type(d).__name__ for d in decisions] == ["EnqueueJob"]
        assert policy.job("only").state == JobState.RUNNING

    def test_preempted_job_resumes_later(self):
        policy = self.make()
        policy.on_submit(req("low-a", 32, 32, priority=1), 0.0)
        policy.on_submit(req("low-b", 32, 32, priority=1), 0.0)
        policy.on_submit(req("high", 32, 32, priority=5), 10.0)
        assert policy.job("low-b").state == JobState.QUEUED
        # The high-priority job finishes; the victim resumes from disk.
        decisions = policy.on_complete("high", 500.0)
        resumes = [d for d in decisions if isinstance(d, ResumeJob)]
        assert [r.job.name for r in resumes] == ["low-b"]
        assert policy.job("low-b").state == JobState.RUNNING

    def test_shrinking_preferred_over_preemption(self):
        policy = self.make()
        policy.on_submit(req("top", 2, 2, priority=5), 0.0)
        policy.on_submit(req("low", 8, 62, priority=1), 0.0)  # elastic victim
        decisions = policy.on_submit(req("high", 40, 40, priority=4), 10.0)
        kinds = [type(d).__name__ for d in decisions]
        assert "ShrinkJob" in kinds
        assert "PreemptJob" not in kinds

    @pytest.mark.parametrize("config", [
        REGISTRY.resolve("power-capped"),
        dataclasses.replace(REGISTRY.resolve("easy-backfill"),
                            capacity_constraint=PowerBudget),
    ])
    def test_capacity_constraint_rejected(self, config):
        # Preempting releases victims without charging the constraint and
        # restarts the arrival without admit(): the charged watts would
        # drift from the actual draw, so the combination must not build.
        with pytest.raises(ValueError, match=repr(config.name)):
            dataclasses.replace(config, preempt=True)

    def test_preempt_must_be_a_bool(self):
        with pytest.raises(ValueError, match="preempt must be a bool"):
            PolicyConfig(preempt=1)

    def test_registered_as_an_extension(self):
        config = REGISTRY.resolve("preemptive", rescale_gap=30.0,
                                  launcher_slots=1)
        assert config.preempt and config.name == "preemptive"
        assert (config.rescale_gap, config.launcher_slots) == (30.0, 1)
        assert not REGISTRY.resolve("elastic").preempt
        assert not REGISTRY.describe("preemptive").paper
        assert "preemptive" not in REGISTRY.paper_policies()


class TestSimulatorIntegration:
    def test_preemption_round_trip_in_simulator(self):
        from repro.schedsim import ScheduleSimulator
        from tests.schedsim.test_simulator import submission

        sim = ScheduleSimulator(REGISTRY.resolve("preemptive", rescale_gap=0.0))
        subs = [
            submission("v1", "large", time=0.0, priority=1),
            submission("v2", "large", time=0.0, priority=1),
            # Rigidify victims by giving the arrival overwhelming priority
            # and a size that cannot be satisfied by shrinking alone.
            submission("boss", "xlarge", time=100.0, priority=5),
        ]
        # large: min 8 max 32 -> both victims run at 32; boss needs 16 min.
        result = sim.run(subs)
        assert len(result.outcomes) == 3
        for outcome in result.outcomes:
            assert outcome.completion_time > outcome.start_time

    def test_aging_engine_in_simulator(self):
        from repro.schedsim import ScheduleSimulator
        from tests.schedsim.test_simulator import submission

        sim = ScheduleSimulator(
            REGISTRY.resolve("aging", aging_interval=120.0, rescale_gap=180.0)
        )
        subs = [submission(f"j{i}", "medium", time=i * 30.0, priority=1 + i % 5)
                for i in range(8)]
        result = sim.run(subs)
        assert len(result.outcomes) == 8


@pytest.mark.parametrize("fields", [
    {},
    # Each of these fails a PolicyConfig check; together they put
    # preemption beside a power budget, which do not compose.
    {"rescale_gap": math.nan, "launcher_slots": 1.5, "preempt": True,
     "capacity_constraint": PowerBudget},
])
def test_config_that_is_not_a_policy_config_rejected(fields):
    # A look-alike would skip every PolicyConfig check, so neither the
    # engine nor the registry accepts one.
    config = types.SimpleNamespace(
        **{**vars(PolicyConfig(name="legacy")), **fields}
    )
    with pytest.raises(SchedulingError, match="PolicyConfig"):
        ElasticPolicyEngine(64, config)
    registry = SchedulerRegistry()
    registry._entry_points_loaded = True
    registry.register("legacy", lambda: config)
    with pytest.raises(PolicyRegistrationError,
                       match="'legacy'.*not a PolicyConfig"):
        registry.resolve("legacy")
    if fields:
        with pytest.raises(ValueError, match="'legacy'"):
            PolicyConfig(name="legacy", **fields)
