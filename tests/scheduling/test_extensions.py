"""Tests for the §3.2.2 policy extensions: aging and preemption."""

import dataclasses

import pytest

from repro.errors import SchedulingError
from repro.scheduling import JobState, PolicyConfig, StartJob
from repro.scheduling.extensions import (
    AgingPolicyEngine,
    PreemptJob,
    PreemptivePolicyEngine,
    ResumeJob,
)
from repro.scheduling.power import PowerBudget
from repro.scheduling.registry import REGISTRY
from tests.scheduling.conftest import req


class TestAging:
    def make(self, aging_interval=100.0):
        return AgingPolicyEngine(
            64, PolicyConfig(rescale_gap=0.0), aging_interval=aging_interval,
            max_priority=10,
        )

    def test_effective_priority_grows_while_queued(self):
        policy = self.make(aging_interval=100.0)
        policy.on_submit(req("blocker", 32, 64, priority=5), 0.0)  # 64 slots
        policy.on_submit(req("starving", 32, 32, priority=1), 10.0)
        job = policy.job("starving")
        assert policy.effective_priority(job, 10.0) == 1
        assert policy.effective_priority(job, 210.0) == 3
        assert policy.effective_priority(job, 5000.0) == 10  # capped

    def test_running_jobs_do_not_age(self):
        policy = self.make()
        policy.on_submit(req("runner", 2, 8, priority=2), 0.0)
        assert policy.effective_priority(policy.job("runner"), 10_000.0) == 2

    def test_aged_job_jumps_the_queue(self):
        policy = self.make(aging_interval=100.0)
        policy.on_submit(req("blocker", 32, 64, priority=5), 0.0)    # all slots
        policy.on_submit(req("old-low", 32, 32, priority=1), 10.0)   # queues
        policy.on_submit(req("new-high", 32, 32, priority=3), 800.0)  # queues
        # old-low has aged: 1 + 7 levels > new-high's 3.
        decisions = policy.on_complete("blocker", 900.0)
        starts = [d for d in decisions if isinstance(d, StartJob)]
        assert starts[0].job.name == "old-low"

    def test_without_aging_the_low_priority_job_starves(self):
        from repro.scheduling import ElasticPolicyEngine

        policy = ElasticPolicyEngine(64, PolicyConfig(rescale_gap=0.0))
        policy.on_submit(req("blocker", 32, 64, priority=5), 0.0)
        policy.on_submit(req("old-low", 32, 32, priority=1), 10.0)
        policy.on_submit(req("new-high", 32, 32, priority=3), 800.0)
        decisions = policy.on_complete("blocker", 900.0)
        starts = [d for d in decisions if isinstance(d, StartJob)]
        assert starts[0].job.name == "new-high"

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            AgingPolicyEngine(64, aging_interval=0.0)


class TestPreemption:
    def make(self):
        return PreemptivePolicyEngine(64, PolicyConfig(rescale_gap=0.0))

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
        with pytest.raises(SchedulingError, match=repr(config.name)):
            PreemptivePolicyEngine(64, config)


class TestSimulatorIntegration:
    def test_preemption_round_trip_in_simulator(self):
        from repro.schedsim import ScheduleSimulator
        from tests.schedsim.test_simulator import submission

        sim = ScheduleSimulator(
            PolicyConfig(name="elastic-preempt", rescale_gap=0.0),
            policy_engine_cls=PreemptivePolicyEngine,
        )
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
            PolicyConfig(name="elastic-aging", rescale_gap=180.0),
            policy_engine_cls=lambda slots, cfg: AgingPolicyEngine(
                slots, cfg, aging_interval=120.0
            ),
        )
        subs = [submission(f"j{i}", "medium", time=i * 30.0, priority=1 + i % 5)
                for i in range(8)]
        result = sim.run(subs)
        assert len(result.outcomes) == 8
