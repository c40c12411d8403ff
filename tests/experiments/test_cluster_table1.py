"""Tests for the full-stack cluster experiment and Table 1 driver."""

import pytest

from repro.experiments import run_cluster_experiment, run_table1
from repro.experiments.fig9 import FIG9_WORKLOAD
from repro.schedsim import ScheduleSimulator, WorkloadSpec, generate_workload
from repro.scheduling import REGISTRY


@pytest.fixture(scope="module")
def small_workload():
    """A light 6-job workload so full-stack runs stay fast in tests."""
    return generate_workload(WorkloadSpec(num_jobs=6, submission_gap=60.0, seed=32))


class TestClusterRun:
    @pytest.fixture(scope="class")
    def elastic_run(self):
        subs = generate_workload(WorkloadSpec(num_jobs=6, submission_gap=60.0, seed=32))
        return run_cluster_experiment("elastic", subs, rescale_gap=120.0)

    def test_all_jobs_finish(self, elastic_run):
        assert elastic_run.metrics.job_count == 6

    def test_metrics_sane(self, elastic_run):
        m = elastic_run.metrics
        assert 0.0 < m.utilization <= 1.0
        assert m.weighted_mean_completion >= m.weighted_mean_response >= 0.0

    def test_utilization_profile_bounded(self, elastic_run):
        profile = elastic_run.utilization_profile(samples=100)
        assert all(0.0 <= u <= 1.0 for _, u in profile)
        assert max(u for _, u in profile) > 0.3

    def test_per_job_profiles_cover_all_jobs(self, elastic_run):
        profiles = elastic_run.per_job_profile(samples=20)
        assert len(profiles) == 6

    def test_replica_series_within_bounds(self, elastic_run, small_workload):
        bounds = {
            s.request.name: (s.request.min_replicas, s.request.max_replicas)
            for s in small_workload
        }
        for name, tl in elastic_run.timelines.items():
            lo, hi = bounds[name]
            for _, replicas in tl.samples:
                assert replicas == 0 or lo <= replicas <= hi

    def test_unfinished_raises(self, small_workload):
        with pytest.raises(RuntimeError, match="horizon"):
            run_cluster_experiment("elastic", small_workload, horizon=50.0)


class TestActualVsSimulation:
    def test_actual_pays_startup_overhead(self, small_workload):
        """The full stack must be somewhat slower than the idealized
        simulator on the same workload (pod startup, reconcile latency)."""
        actual = run_cluster_experiment("moldable", small_workload)
        sim = ScheduleSimulator(REGISTRY.resolve("moldable")).run(small_workload)
        assert actual.metrics.total_time >= sim.metrics.total_time
        # ...but within a sane envelope (< 20% for this workload).
        assert actual.metrics.total_time < sim.metrics.total_time * 1.2

    @pytest.mark.slow
    def test_table1_structure(self):
        result = run_table1(policies=("moldable", "elastic"),
                            workload=WorkloadSpec(num_jobs=8, submission_gap=60.0,
                                                  seed=32))
        assert set(result.actual) == {"moldable", "elastic"}
        for policy in result.actual:
            assert result.actual[policy].total_time > 0
            assert result.simulation[policy].total_time > 0

    def test_fig9_workload_is_representative(self):
        # The pinned seed must contain xlarge jobs (Figure 9b needs one).
        subs = generate_workload(FIG9_WORKLOAD)
        assert any(s.size.name == "xlarge" for s in subs)
        assert len(subs) == 16
