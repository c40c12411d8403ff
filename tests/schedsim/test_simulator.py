"""Tests for the scheduler-performance simulator (artifact A2)."""

import pytest

from repro.errors import SchedulingError
from repro.perfmodel import size_class
from repro.scheduling import JobRequest, REGISTRY
from repro.schedsim import (
    ScheduleSimulator,
    Submission,
    WorkloadSpec,
    generate_workload,
    run_once,
)


def submission(name, size_name, time=0.0, priority=1):
    size = size_class(size_name)
    request = JobRequest(
        name=name,
        min_replicas=size.min_replicas,
        max_replicas=size.max_replicas,
        priority=priority,
        size_class=size.name,
        params={"size_class": size.name, "timesteps": size.timesteps},
    )
    return Submission(time=time, request=request, size=size)


class TestWorkloadGeneration:
    def test_deterministic_for_seed(self):
        a = generate_workload(WorkloadSpec(seed=7))
        b = generate_workload(WorkloadSpec(seed=7))
        assert [(s.time, s.request) for s in a] == [(s.time, s.request) for s in b]

    def test_different_seeds_differ(self):
        a = generate_workload(WorkloadSpec(seed=1))
        b = generate_workload(WorkloadSpec(seed=2))
        assert [s.request for s in a] != [s.request for s in b]

    def test_sixteen_jobs_fixed_gap(self):
        subs = generate_workload(WorkloadSpec(submission_gap=90.0, seed=0))
        assert len(subs) == 16
        assert [s.time for s in subs] == [i * 90.0 for i in range(16)]

    def test_priorities_in_range(self):
        for seed in range(10):
            for sub in generate_workload(WorkloadSpec(seed=seed)):
                assert 1 <= sub.request.priority <= 5

    def test_sizes_from_the_four_classes(self):
        names = {s.size.name for s in generate_workload(WorkloadSpec(seed=3))}
        assert names <= {"small", "medium", "large", "xlarge"}

    def test_bounds_follow_size_class(self):
        for sub in generate_workload(WorkloadSpec(seed=5)):
            assert sub.request.min_replicas == sub.size.min_replicas
            assert sub.request.max_replicas == sub.size.max_replicas


class TestSimulator:
    def run_sim(self, policy_name, submissions, rescale_gap=180.0, slots=64):
        sim = ScheduleSimulator(
            REGISTRY.resolve(policy_name, rescale_gap=rescale_gap), total_slots=slots
        )
        return sim.run(submissions)

    def test_single_job_runs_at_max(self):
        result = self.run_sim("elastic", [submission("a", "medium")])
        (outcome,) = result.outcomes
        size = size_class("medium")
        assert outcome.response_time == 0.0
        expected = size.timesteps * size.model.time_per_step(size.max_replicas)
        assert outcome.turnaround_time == pytest.approx(expected, rel=1e-6)

    def test_empty_workload_rejected(self):
        with pytest.raises(SchedulingError):
            self.run_sim("elastic", [])

    def test_all_jobs_complete(self):
        result = run_once("elastic", submission_gap=60.0, seed=11)
        assert len(result.outcomes) == 16
        for outcome in result.outcomes:
            assert outcome.completion_time > outcome.start_time

    def test_metrics_sane(self):
        result = run_once("elastic", submission_gap=90.0, seed=3)
        m = result.metrics
        assert 0.0 < m.utilization <= 1.0
        assert m.total_time > 0
        assert m.weighted_mean_completion >= m.weighted_mean_response >= 0

    def test_rigid_jobs_never_rescale(self):
        for policy in ("min_replicas", "max_replicas"):
            result = run_once(policy, submission_gap=30.0, seed=2)
            assert all(c == 0 for c in result.rescale_counts.values())

    def test_moldable_jobs_never_rescale(self):
        result = run_once("moldable", submission_gap=30.0, seed=2)
        assert all(c == 0 for c in result.rescale_counts.values())

    def test_elastic_actually_rescales_under_pressure(self):
        result = run_once("elastic", submission_gap=30.0, seed=2)
        assert sum(result.rescale_counts.values()) > 0

    def test_rescale_overhead_lengthens_job(self):
        # A job shrunk mid-run must finish later than the ideal rate switch.
        subs = [
            submission("low", "large", time=0.0, priority=1),
            submission("low2", "large", time=0.0, priority=1),
            submission("high", "xlarge", time=200.0, priority=5),
        ]
        result = self.run_sim("elastic", subs, rescale_gap=60.0)
        assert result.rescale_counts["low2"] >= 1

    def test_deterministic(self):
        a = run_once("elastic", submission_gap=45.0, seed=9)
        b = run_once("elastic", submission_gap=45.0, seed=9)
        assert a.metrics == b.metrics

    def test_timelines_integrate_to_busy_time(self):
        result = run_once("elastic", submission_gap=90.0, seed=4)
        for outcome in result.outcomes:
            busy = outcome.timeline.slot_seconds(outcome.completion_time)
            assert busy > 0
            # A job can never use more slot-seconds than max_replicas the
            # whole time it existed.
            max_possible = outcome.turnaround_time * 64
            assert busy <= max_possible

    def test_never_overcommits(self):
        # Sampled occupancy from the timelines never exceeds the slots.
        result = run_once("elastic", submission_gap=20.0, seed=8)
        end = max(o.completion_time for o in result.outcomes)
        for k in range(200):
            t = end * k / 200.0
            occupancy = sum(o.timeline.value_at(t) for o in result.outcomes)
            assert occupancy <= 64


class TestPaperOrderings:
    """The qualitative Table-1/Figure-7 claims at the paper's operating
    point (submission gap 90 s, T_rescale_gap 180 s), averaged over seeds."""

    @pytest.fixture(scope="class")
    def stats(self):
        from repro.schedsim import compare_policies

        return compare_policies(submission_gap=90.0, rescale_gap=180.0, trials=15)

    def test_elastic_has_highest_utilization(self, stats):
        assert stats["elastic"].utilization == max(
            s.utilization for s in stats.values()
        )

    def test_min_replicas_has_lowest_utilization(self, stats):
        assert stats["min_replicas"].utilization == min(
            s.utilization for s in stats.values()
        )

    def test_elastic_has_lowest_total_time(self, stats):
        assert stats["elastic"].total_time == min(
            s.total_time for s in stats.values()
        )

    def test_min_replicas_has_lowest_response(self, stats):
        assert stats["min_replicas"].weighted_mean_response == min(
            s.weighted_mean_response for s in stats.values()
        )

    def test_min_replicas_has_highest_completion(self, stats):
        assert stats["min_replicas"].weighted_mean_completion == max(
            s.weighted_mean_completion for s in stats.values()
        )

    def test_elastic_beats_moldable_everywhere(self, stats):
        e, m = stats["elastic"], stats["moldable"]
        assert e.utilization > m.utilization
        assert e.total_time < m.total_time
        assert e.weighted_mean_response < m.weighted_mean_response
        assert e.weighted_mean_completion < m.weighted_mean_completion

    def test_elastic_has_lowest_completion(self, stats):
        assert stats["elastic"].weighted_mean_completion == min(
            s.weighted_mean_completion for s in stats.values()
        )
