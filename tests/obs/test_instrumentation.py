"""Instrumentation of the engine, event core, cache, and cloud layer —
and proof that attaching a registry changes no scheduling decision."""

from collections import Counter as TallyCounter

import pytest

from repro.obs import metrics as obs_metrics
from repro.scheduling import ElasticPolicyEngine, JobRequest
from repro.scheduling.registry import REGISTRY
from repro.schedsim import ScheduleSimulator, WorkloadSpec, generate_workload
from repro.schedsim.cache import TrialCache
from repro.scheduling import SchedulerMetrics


def drive_engine(engine, n_jobs=30):
    now = 0.0
    decisions = []
    for i in range(n_jobs):
        now += 240.0
        decisions.extend(engine.on_submit(
            JobRequest(name=f"j{i}", min_replicas=2, max_replicas=8,
                       priority=(i % 3) + 1),
            now,
        ))
        if i % 3 == 2 and engine.running:
            now += 240.0
            decisions.extend(engine.on_complete(engine.running[0].name, now))
    while engine.running:
        now += 240.0
        decisions.extend(engine.on_complete(engine.running[0].name, now))
    return decisions


def drive_backlog(engine):
    """Two rigid 2-slot jobs run while 7-slot-min jobs wait: the first
    completion frees a 6-slot budget, below the queued block's
    min_needed, so the Figure-3 walk skips it whole."""
    now = 0.0
    for i in range(2):
        now += 240.0
        engine.on_submit(
            JobRequest(name=f"s{i}", min_replicas=2, max_replicas=2), now,
        )
    for i in range(3):
        now += 240.0
        engine.on_submit(
            JobRequest(name=f"b{i}", min_replicas=7, max_replicas=8), now,
        )
    while engine.running:
        now += 240.0
        engine.on_complete(engine.running[0].name, now)


class TestEngineCounters:
    def test_redistribute_and_shrink_calls_counted(self, registry):
        engine = ElasticPolicyEngine(16, REGISTRY.resolve("elastic"))
        drive_engine(engine)
        snap = registry.snapshot()
        assert snap["engine.redistribute_calls"] == 30
        assert snap.get("engine.shrink_pass_calls", 0) >= 0

    def test_decisions_by_kind_match_decision_log(self, registry):
        engine = ElasticPolicyEngine(16, REGISTRY.resolve("elastic"))
        drive_engine(engine)
        expected = TallyCounter(
            type(d).__name__ for d in engine.decision_log
        )
        snap = registry.snapshot()
        for kind, count in expected.items():
            assert snap[f"engine.decisions.{kind}"] == count

    def test_figure3_skip_tallies_accumulate(self, registry):
        drive_backlog(ElasticPolicyEngine(8, REGISTRY.resolve("elastic")))
        snap = registry.snapshot()
        assert snap["engine.fig3.queue_blocks_skipped"] >= 1

    @pytest.mark.parametrize("policy", ["easy-backfill", "power-capped", "aging"])
    def test_hooked_configs_take_the_indexed_walk(self, registry, policy):
        # A silent fallback to the literal scan would skip no block.
        drive_backlog(ElasticPolicyEngine(8, REGISTRY.resolve(policy)))
        snap = registry.snapshot()
        assert snap["engine.fig3.queue_blocks_skipped"] > 0

    def test_golden_decisions_identical_with_registry_attached(self):
        def run(policy_engine):
            return [
                (type(d).__name__, d.job.name)
                for d in drive_engine(policy_engine)
            ]

        obs_metrics.disable()
        plain = run(ElasticPolicyEngine(16, REGISTRY.resolve("elastic")))
        obs_metrics.enable()
        try:
            instrumented = run(
                ElasticPolicyEngine(16, REGISTRY.resolve("elastic"))
            )
        finally:
            obs_metrics.disable()
        assert instrumented == plain

    def test_disabled_engine_has_no_observer(self):
        obs_metrics.disable()
        engine = ElasticPolicyEngine(16, REGISTRY.resolve("elastic"))
        assert engine._obs is None


class TestEventCoreMetrics:
    def test_simulator_run_publishes_event_core_gauges(self, registry):
        simulator = ScheduleSimulator(
            REGISTRY.resolve("elastic"), total_slots=64
        )
        spec = WorkloadSpec(num_jobs=40, submission_gap=90.0, seed=2)
        simulator.run(generate_workload(spec), retain="metrics")
        snap = registry.snapshot()
        assert snap["sim.events_executed"] == simulator.engine.events_executed
        assert snap["sim.heap_pushes"] == simulator.engine.heap_pushes
        assert snap["sim.heap_pushes"] >= snap["sim.events_executed"]
        assert snap["sim.stale_drops"] == simulator.engine.stale_drops
        cohorts = snap["sim.cohort_size"]
        assert cohorts["count"] >= 1
        assert cohorts["mean"] >= 1.0

    def test_heap_push_and_stale_counts_without_registry(self):
        obs_metrics.disable()
        simulator = ScheduleSimulator(
            REGISTRY.resolve("elastic"), total_slots=64
        )
        spec = WorkloadSpec(num_jobs=20, submission_gap=90.0, seed=2)
        simulator.run(generate_workload(spec), retain="metrics")
        # The raw tallies exist regardless of telemetry; only the
        # registry publication is gated.
        assert simulator.engine.heap_pushes >= simulator.engine.events_executed
        assert simulator.engine.stale_drops >= 0
        assert simulator.engine._cohort_hist is None


class TestCacheMetrics:
    def put_one(self, cache, task):
        cache.put(task, SchedulerMetrics(
            policy="elastic", total_time=1.0, utilization=0.5,
            weighted_mean_response=1.0, weighted_mean_completion=2.0,
            job_count=1,
        ).as_dict())

    def test_hits_and_misses_counted(self, registry, tmp_path):
        cache = TrialCache(tmp_path, salt="s1")
        task = ("elastic", 90.0, 180.0, 0, 64, 16)
        assert cache.get(task) is None
        self.put_one(cache, task)
        assert cache.get(task) is not None
        snap = registry.snapshot()
        assert snap["cache.misses"] == 1
        assert snap["cache.hits"] == 1

    def test_salt_invalidation_detected(self, registry, tmp_path):
        TrialCache(tmp_path, salt="v1")
        assert "cache.salt_invalidations" not in registry.snapshot()
        TrialCache(tmp_path, salt="v1")  # same salt: no invalidation
        assert "cache.salt_invalidations" not in registry.snapshot()
        TrialCache(tmp_path, salt="v2")  # code edit: every entry stale
        assert registry.snapshot()["cache.salt_invalidations"] == 1

    def test_salt_marker_survives_clear(self, registry, tmp_path):
        cache = TrialCache(tmp_path, salt="v1")
        task = ("elastic", 90.0, 180.0, 0, 64, 16)
        self.put_one(cache, task)
        cache.clear()
        TrialCache(tmp_path, salt="v1")
        assert "cache.salt_invalidations" not in registry.snapshot()

    def test_disabled_cache_counts_only_python_side(self, tmp_path):
        obs_metrics.disable()
        cache = TrialCache(tmp_path, salt="s")
        assert cache._obs_hits is None
        assert cache.get(("t",)) is None
        assert cache.misses == 1


class TestCloudMetrics:
    @pytest.fixture(scope="class")
    def cloud_snapshot(self):
        registry = obs_metrics.enable()
        try:
            from repro.cloud.sweep import CloudScenario, run_cloud_once

            scenario = CloudScenario(
                initial_nodes=2, min_nodes=1, max_nodes=6,
                spot_nodes=3, spot_mean_lifetime=1200.0,
                provision_delay=45.0,
            )
            result = run_cloud_once(
                "elastic", "queue", scenario, submission_gap=30.0,
                seed=9, num_jobs=60, retain="metrics",
            )
        finally:
            obs_metrics.disable()
        return registry.snapshot(), result

    def test_autoscaler_verdicts_counted(self, cloud_snapshot):
        snap, _ = cloud_snapshot
        verdicts = sum(
            snap.get(f"cloud.autoscale.{v}", 0)
            for v in ("up", "down", "hold")
        )
        assert verdicts > 0
        assert snap.get("cloud.autoscale.up", 0) > 0

    def test_provision_latency_observed(self, cloud_snapshot):
        snap, _ = cloud_snapshot
        latencies = snap["cloud.node.provision_seconds"]
        assert latencies["count"] >= 1
        assert latencies["min"] == pytest.approx(45.0)  # the boot delay

    def test_interruptions_counted(self, cloud_snapshot):
        snap, result = cloud_snapshot
        # The registry counts every reclaim the provider drew, including
        # any past the experiment window the cost report excludes.
        assert snap.get("cloud.interruptions", 0) >= result.cost.interruptions

    def test_billed_node_seconds_gauge(self, cloud_snapshot):
        snap, result = cloud_snapshot
        assert snap["cloud.billed_node_seconds"] == pytest.approx(
            result.cost.node_hours * 3600.0
        )
