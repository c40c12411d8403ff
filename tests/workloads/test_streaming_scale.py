"""Thousand-job workloads through the simulator's streaming path."""

import pytest

from repro.errors import SchedulingError
from repro.schedsim import ScheduleSimulator
from repro.schedsim.workload import Submission
from repro.scheduling import MetricsAccumulator, REGISTRY
from repro.workloads import PoissonArrivals, SyntheticWorkload, UniformMix

ALL_POLICIES = ("elastic", "moldable", "min_replicas", "max_replicas")


def thousand_jobs():
    return SyntheticWorkload(1000, PoissonArrivals(0.1), UniformMix(), seed=11)


class TestScale:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_1000_jobs_all_policies(self, policy):
        source = thousand_jobs()
        simulator = ScheduleSimulator(REGISTRY.resolve(policy), total_slots=256)
        result = simulator.run(source.submissions(), retain="metrics")
        assert result.metrics.job_count == 1000
        assert 0.0 < result.metrics.utilization <= 1.0
        assert result.metrics.total_time > 0

    def test_metrics_mode_drops_per_job_state(self):
        source = thousand_jobs()
        simulator = ScheduleSimulator(REGISTRY.resolve("elastic"), total_slots=256)
        result = simulator.run(source.submissions(), retain="metrics")
        assert result.outcomes == []
        assert result.timelines == {}
        # The simulator's own per-job maps were drained as jobs finished.
        assert simulator._timelines == {}
        assert simulator._submissions == {}

    def test_streaming_matches_materialized(self):
        source = SyntheticWorkload(200, PoissonArrivals(0.05), seed=4)
        materialized = list(source.submissions())
        full = ScheduleSimulator(REGISTRY.resolve("elastic"), total_slots=128).run(
            materialized
        )
        lean = ScheduleSimulator(REGISTRY.resolve("elastic"), total_slots=128).run(
            source.submissions(), retain="metrics"
        )
        assert lean.metrics.total_time == pytest.approx(full.metrics.total_time)
        assert lean.metrics.utilization == pytest.approx(full.metrics.utilization)
        assert lean.metrics.weighted_mean_response == pytest.approx(
            full.metrics.weighted_mean_response
        )
        assert lean.metrics.weighted_mean_completion == pytest.approx(
            full.metrics.weighted_mean_completion
        )


class TestStreamingValidation:
    def test_empty_iterator_rejected(self):
        simulator = ScheduleSimulator(REGISTRY.resolve("elastic"))
        with pytest.raises(SchedulingError, match="empty"):
            simulator.run(iter([]))

    def test_out_of_order_stream_rejected(self):
        source = SyntheticWorkload(3, PoissonArrivals(0.1), seed=0)
        subs = list(source.submissions())
        subs.reverse()
        simulator = ScheduleSimulator(REGISTRY.resolve("elastic"))
        with pytest.raises(SchedulingError, match="time-ordered"):
            simulator.run(iter(subs))

    def test_duplicate_names_rejected(self):
        source = SyntheticWorkload(2, seed=0)
        (a, b) = list(source.submissions())
        dup = Submission(time=b.time, request=a.request, size=a.size)
        simulator = ScheduleSimulator(REGISTRY.resolve("elastic"))
        with pytest.raises(SchedulingError, match="duplicate"):
            simulator.run(iter([a, dup]))

    def test_simulator_is_single_use(self):
        source = SyntheticWorkload(2, seed=0)
        simulator = ScheduleSimulator(REGISTRY.resolve("elastic"))
        simulator.run(list(source.submissions()))
        # A second run would silently merge per-job state from the first.
        with pytest.raises(SchedulingError, match="once per instance"):
            simulator.run(list(source.submissions()))

    def test_unknown_retain_mode_rejected(self):
        source = SyntheticWorkload(2, seed=0)
        simulator = ScheduleSimulator(REGISTRY.resolve("elastic"))
        with pytest.raises(SchedulingError, match="retain"):
            simulator.run(list(source.submissions()), retain="everything")


class TestAccumulator:
    def test_matches_compute_metrics_on_simulator_outcomes(self):
        from repro.scheduling import compute_metrics

        source = SyntheticWorkload(50, PoissonArrivals(0.05), seed=8)
        result = ScheduleSimulator(REGISTRY.resolve("elastic"), total_slots=128).run(
            list(source.submissions())
        )
        acc = MetricsAccumulator("elastic", total_slots=128)
        for outcome in result.outcomes:
            acc.add(outcome)
        batch = compute_metrics("elastic", result.outcomes, total_slots=128)
        online = acc.finalize()
        assert online.total_time == pytest.approx(batch.total_time)
        assert online.utilization == pytest.approx(batch.utilization)
        assert online.weighted_mean_response == pytest.approx(
            batch.weighted_mean_response
        )
        assert online.weighted_mean_completion == pytest.approx(
            batch.weighted_mean_completion
        )
        assert online.job_count == batch.job_count

    def test_empty_accumulator_rejected(self):
        acc = MetricsAccumulator("elastic", total_slots=64)
        with pytest.raises(SchedulingError, match="no job outcomes"):
            acc.finalize()
