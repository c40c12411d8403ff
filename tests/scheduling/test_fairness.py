"""Per-user bounded-slowdown fairness metrics."""

import io

import pytest

from repro.scheduling import (
    REGISTRY,
    FairnessReport,
    JobOutcome,
    MetricsAccumulator,
    ReplicaTimeline,
    compute_fairness,
)
from repro.scheduling.metrics import BOUNDED_SLOWDOWN_THRESHOLD, bounded_slowdown
from repro.errors import SchedulingError
from repro.schedsim import ScheduleSimulator
from repro.workloads import SWFTrace, parse_swf_lines


def outcome(name, user, submit=0.0, start=0.0, completion=100.0, priority=1):
    timeline = ReplicaTimeline()
    timeline.record(start, 4)
    timeline.record(completion, 0)
    return JobOutcome(
        name=name, priority=priority, submit_time=submit, start_time=start,
        completion_time=completion, timeline=timeline, user=user,
    )


class TestBoundedSlowdown:
    def test_no_wait_is_slowdown_one(self):
        assert bounded_slowdown(outcome("a", "u1")) == 1.0

    def test_wait_inflates_slowdown(self):
        o = outcome("a", "u1", submit=0.0, start=100.0, completion=200.0)
        assert bounded_slowdown(o) == pytest.approx(2.0)

    def test_short_jobs_are_bounded(self):
        # 1s of work after 99s of waiting: the 10s floor caps the ratio
        # at 10, not 100.
        o = outcome("a", "u1", submit=0.0, start=99.0, completion=100.0)
        assert bounded_slowdown(o) == pytest.approx(
            100.0 / BOUNDED_SLOWDOWN_THRESHOLD
        )

    def test_never_below_one(self):
        o = outcome("a", "u1", submit=0.0, start=0.0, completion=1.0)
        assert bounded_slowdown(o) == 1.0


class TestComputeFairness:
    def test_equal_users_have_zero_stddev(self):
        report = compute_fairness([
            outcome("a", "u1"), outcome("b", "u2"),
        ])
        assert report.user_count == 2
        assert report.job_count == 2
        assert report.mean_slowdown == 1.0
        assert report.max_user_slowdown == 1.0
        assert report.stddev_user_slowdown == 0.0

    def test_starved_user_dominates_max(self):
        report = compute_fairness([
            outcome("a", "fast", submit=0.0, start=0.0, completion=100.0),
            outcome("b", "fast", submit=0.0, start=0.0, completion=100.0),
            outcome("c", "starved", submit=0.0, start=300.0,
                    completion=400.0),
        ])
        assert report.user_count == 2
        assert report.max_user_slowdown == pytest.approx(4.0)
        assert report.per_user["fast"] == 1.0
        assert report.per_user["starved"] == pytest.approx(4.0)
        assert report.stddev_user_slowdown == pytest.approx(1.5)

    def test_anonymous_jobs_share_one_bucket(self):
        report = compute_fairness([
            outcome("a", None), outcome("b", None),
        ])
        assert report.user_count == 1

    def test_empty_outcomes_raise(self):
        with pytest.raises(SchedulingError):
            compute_fairness([])

    def test_report_describe_and_dict(self):
        report = compute_fairness([outcome("a", "u1")])
        assert isinstance(report, FairnessReport)
        assert "fairness" in report.describe()
        assert report.as_dict()["user_count"] == 1


class TestAccumulatorFairness:
    def test_streaming_matches_batch(self):
        outcomes = [
            outcome("a", "u1", start=10.0, completion=200.0),
            outcome("b", "u2", start=50.0, completion=120.0),
            outcome("c", "u1", start=0.0, completion=400.0),
        ]
        accumulator = MetricsAccumulator("elastic", total_slots=64)
        for o in outcomes:
            accumulator.add(o)
        streaming = accumulator.fairness()
        batch = compute_fairness(outcomes)
        assert streaming == batch

    def test_busy_slot_seconds_exposed(self):
        accumulator = MetricsAccumulator("elastic", total_slots=64)
        accumulator.add(outcome("a", "u1"))
        assert accumulator.busy_slot_seconds == pytest.approx(400.0)


SWF_TEXT = """\
; Version: 2.2
; the user field (column 12) feeds the fairness metrics
1 0    0 600 8 -1 -1 8 1200 -1 1 101 1 1 1 -1 -1 -1
2 60   0 600 8 -1 -1 8 1200 -1 1 102 1 1 2 -1 -1 -1
3 120  0 600 8 -1 -1 8 1200 -1 1 101 1 1 3 -1 -1 -1
4 180  0 600 8 -1 -1 8 1200 -1 1 -1  1 1 4 -1 -1 -1
"""


class TestSWFUserThreading:
    def test_trace_requests_carry_users(self):
        trace = SWFTrace(parse_swf_lines(io.StringIO(SWF_TEXT)))
        users = [
            sub.request.params.get("user") for sub in trace.submissions()
        ]
        assert users == ["u101", "u102", "u101", None]

    def test_simulated_outcomes_carry_users_to_fairness(self):
        trace = SWFTrace(parse_swf_lines(io.StringIO(SWF_TEXT)))
        simulator = ScheduleSimulator(REGISTRY.resolve("elastic"), total_slots=64)
        result = simulator.run(list(trace.submissions()))
        assert sorted(
            (o.user or "-") for o in result.outcomes
        ) == ["-", "u101", "u101", "u102"]
        report = compute_fairness(result.outcomes)
        assert report.user_count == 3
        assert report.job_count == 4
