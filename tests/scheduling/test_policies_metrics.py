"""Tests for policy parameterizations and the evaluation metrics."""

import math

import pytest

from repro.errors import SchedulingError
from repro.scheduling import (
    ElasticPolicyEngine,
    JobOutcome,
    JobRequest,
    ReplicaTimeline,
    compute_metrics,
    REGISTRY,
)
from tests.scheduling.conftest import req


class TestPolicyConfigs:
    def test_all_four_policies_exist(self):
        assert set(REGISTRY.paper_policies()) == {
            "elastic", "moldable", "min_replicas", "max_replicas",
        }
        for name in REGISTRY.paper_policies():
            assert REGISTRY.resolve(name).name == name

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            REGISTRY.resolve("fcfs")

    def test_moldable_is_elastic_with_infinite_gap(self):
        config = REGISTRY.resolve("moldable")
        assert math.isinf(config.rescale_gap)
        assert config.is_moldable

    def test_rigid_min_pins_replicas(self):
        config = REGISTRY.resolve("min_replicas")
        out = config.job_transform(req("a", 4, 32))
        assert out.min_replicas == out.max_replicas == 4

    def test_rigid_max_pins_replicas(self):
        config = REGISTRY.resolve("max_replicas")
        out = config.job_transform(req("a", 4, 32))
        assert out.min_replicas == out.max_replicas == 32

    def test_rigid_jobs_never_rescale(self):
        # Pin every job to its min: two 32-min jobs fill the cluster; the
        # high-priority arrival (pinned at 30) finds nothing shrinkable.
        policy = ElasticPolicyEngine(64, REGISTRY.resolve("min_replicas", rescale_gap=0.0))
        policy.on_submit(req("a", 32, 64, priority=1), 0.0)
        policy.on_submit(req("b", 32, 64, priority=1), 0.0)
        decisions = policy.on_submit(req("c", 30, 64, priority=5), 10.0)
        assert [type(d).__name__ for d in decisions] == ["EnqueueJob"]
        assert policy.job("a").replicas == 32
        assert policy.job("b").replicas == 32

    def test_elastic_preserves_request(self):
        config = REGISTRY.resolve("elastic")
        request = req("a", 4, 32)
        assert config.job_transform(request) is request

    def test_custom_gap_propagates(self):
        assert REGISTRY.resolve("elastic", rescale_gap=90.0).rescale_gap == 90.0


class TestReplicaTimeline:
    def test_slot_seconds_integrates_steps(self):
        tl = ReplicaTimeline()
        tl.record(0.0, 4)
        tl.record(10.0, 8)
        tl.record(20.0, 0)
        assert tl.slot_seconds(until=20.0) == 4 * 10 + 8 * 10
        assert tl.slot_seconds(until=30.0) == 4 * 10 + 8 * 10  # 0 after t=20

    def test_trailing_value_extends_to_until(self):
        tl = ReplicaTimeline()
        tl.record(0.0, 4)
        assert tl.slot_seconds(until=5.0) == 20

    def test_duplicate_values_coalesced(self):
        tl = ReplicaTimeline()
        tl.record(0.0, 4)
        tl.record(5.0, 4)
        assert tl.samples == [(0.0, 4)]

    def test_non_monotonic_rejected(self):
        tl = ReplicaTimeline()
        tl.record(10.0, 4)
        with pytest.raises(SchedulingError):
            tl.record(5.0, 2)

    def test_value_at(self):
        tl = ReplicaTimeline()
        tl.record(0.0, 4)
        tl.record(10.0, 8)
        assert tl.value_at(5.0) == 4
        assert tl.value_at(10.0) == 8
        assert tl.value_at(-1.0) == 0

    def test_value_at_matches_linear_scan(self):
        """The bisect path agrees with the original scan, equal times
        included (co-timed samples resolve to the latest one)."""
        tl = ReplicaTimeline()
        for time, replicas in [(0.0, 2), (5.0, 4), (5.0, 6), (9.0, 0)]:
            tl.record(time, replicas)

        def scan(time):
            value = 0
            for t, r in tl.samples:
                if t > time:
                    break
                value = r
            return value

        for probe in (-1.0, 0.0, 2.5, 5.0, 7.0, 9.0, 100.0):
            assert tl.value_at(probe) == scan(probe)
        assert tl.value_at(5.0) == 6


def outcome(name, priority, submit, start, completion, replicas):
    tl = ReplicaTimeline()
    tl.record(start, replicas)
    tl.record(completion, 0)
    return JobOutcome(
        name=name, priority=priority, submit_time=submit,
        start_time=start, completion_time=completion, timeline=tl,
    )


class TestMetrics:
    def test_single_job_metrics(self):
        m = compute_metrics("elastic", [outcome("a", 2, 0, 10, 110, 32)], 64)
        assert m.total_time == 100.0  # first start to last completion
        assert m.utilization == pytest.approx(0.5)
        assert m.weighted_mean_response == 10.0
        assert m.weighted_mean_completion == 110.0

    def test_priority_weighting(self):
        jobs = [
            outcome("hi", 5, 0, 0, 100, 1),
            outcome("lo", 1, 0, 60, 100, 1),
        ]
        m = compute_metrics("elastic", jobs, 64)
        # response = (5*0 + 1*60) / 6
        assert m.weighted_mean_response == pytest.approx(10.0)

    def test_utilization_bounded(self):
        jobs = [outcome(f"j{i}", 1, 0, 0, 100, 16) for i in range(4)]
        m = compute_metrics("elastic", jobs, 64)
        assert m.utilization == pytest.approx(1.0)

    def test_explicit_span(self):
        m = compute_metrics(
            "elastic", [outcome("a", 1, 0, 0, 50, 64)], 64, span=(0.0, 100.0)
        )
        assert m.total_time == 100.0
        assert m.utilization == pytest.approx(0.5)

    def test_invalid_ordering_rejected(self):
        bad = outcome("a", 1, 10, 5, 20, 4)  # start before submit
        with pytest.raises(SchedulingError):
            compute_metrics("elastic", [bad], 64)

    def test_empty_outcomes_rejected(self):
        with pytest.raises(SchedulingError):
            compute_metrics("elastic", [], 64)

    def test_describe_is_readable(self):
        m = compute_metrics("elastic", [outcome("a", 2, 0, 10, 110, 32)], 64)
        text = m.describe()
        assert "elastic" in text and "util=" in text

    def test_as_dict_round_trip(self):
        m = compute_metrics("elastic", [outcome("a", 2, 0, 10, 110, 32)], 64)
        d = m.as_dict()
        assert set(d) == {
            "total_time", "utilization",
            "weighted_mean_response", "weighted_mean_completion",
        }
