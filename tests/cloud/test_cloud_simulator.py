"""Golden scenarios for the cloud substrate.

Four pinned behaviours: a static fleet is decision-identical to the
fixed-capacity simulator; scale-up capacity arrives only after the
provisioning latency; scale-down drains instead of killing; a spot
interruption evicts, restarts, and still finishes the workload.
"""

from collections import Counter

import pytest

from repro.cloud import (
    CloudProvider,
    CloudScenario,
    CloudScheduleSimulator,
    IdleTimeoutAutoscaler,
    NodePool,
    QueueDepthAutoscaler,
    StaticAutoscaler,
    compare_cloud,
    run_cloud_once,
)
from repro.errors import CloudError
from repro.scheduling import (
    REGISTRY,
    ElasticPolicyEngine,
    PreemptJob,
    RequeueJob,
    ShrinkJob,
    StartJob,
)
from repro.schedsim import ScheduleSimulator, WorkloadSpec, generate_workload
from repro.sim import Engine
from repro.sim.trace import Tracer


def serialize(decision):
    extra = tuple(
        (field, getattr(decision, field))
        for field in ("replicas", "from_replicas", "to_replicas",
                      "released_replicas")
        if hasattr(decision, field)
    )
    return (type(decision).__name__, decision.job.name, extra)


def paper_workload(seed, num_jobs=16, gap=90.0):
    return generate_workload(
        WorkloadSpec(num_jobs=num_jobs, submission_gap=gap, seed=seed)
    )


class TestStaticEquivalence:
    """Fixed fleet + static autoscaler == the pre-cloud simulator."""

    @pytest.mark.parametrize("policy", ["elastic", "moldable",
                                        "min_replicas", "max_replicas"])
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_decisions_byte_identical(self, policy, seed):
        submissions = paper_workload(seed)
        plain = ScheduleSimulator(REGISTRY.resolve(policy), total_slots=64)
        plain_result = plain.run(submissions)

        provider = CloudProvider(
            [NodePool(name="od", slots_per_node=16, price_per_hour=0.68,
                      initial_nodes=4, min_nodes=4, max_nodes=4)]
        )
        cloud = CloudScheduleSimulator(
            REGISTRY.resolve(policy), provider, autoscaler=StaticAutoscaler()
        )
        cloud_result = cloud.run(paper_workload(seed))

        assert [serialize(d) for d in cloud.policy.decision_log] == [
            serialize(d) for d in plain.policy.decision_log
        ]
        assert cloud_result.metrics.as_dict() == plain_result.metrics.as_dict()
        # and the elastic utilization degenerates to the paper's number
        assert cloud_result.cost.elastic_utilization == pytest.approx(
            plain_result.metrics.utilization
        )

    def test_capacity_never_changes(self):
        result = run_cloud_once(
            "elastic", "static",
            CloudScenario(initial_nodes=4, min_nodes=4, max_nodes=4),
            seed=1,
        )
        assert result.capacity.samples == [(0.0, 64)]
        assert result.cost.nodes_provisioned == 4
        assert result.cost.interruptions == 0


class TestScaleUpLatency:
    def test_capacity_joins_only_after_provision_delay(self):
        provider = CloudProvider(
            [NodePool(name="od", slots_per_node=16, price_per_hour=0.68,
                      initial_nodes=1, min_nodes=1, max_nodes=4,
                      provision_delay=150.0)]
        )
        tracer = Tracer(Engine())  # rebound below
        simulator = CloudScheduleSimulator(
            REGISTRY.resolve("elastic"), provider,
            autoscaler=QueueDepthAutoscaler(cooldown=1e9),
        )
        tracer.engine = simulator.engine
        simulator.tracer = tracer
        result = simulator.run(paper_workload(2, num_jobs=12, gap=30.0))

        requests = tracer.select("cloud.autoscale")
        ready = tracer.select("cloud.node.ready")
        assert requests and ready
        # every node that came online did so exactly one provisioning
        # delay after some scale-up request
        request_times = [r.time for r in requests]
        for record in ready:
            assert any(
                record.time == pytest.approx(t + 150.0)
                for t in request_times
            )
        # capacity change-points match the ready events
        growth_times = [
            t for (t, slots), (_, prev) in zip(
                result.capacity.samples[1:], result.capacity.samples
            ) if slots > prev
        ]
        assert growth_times == [r.time for r in ready]

    def test_no_overshoot_past_max_nodes(self):
        result = run_cloud_once(
            "elastic", "queue",
            CloudScenario(initial_nodes=1, min_nodes=1, max_nodes=3),
            seed=4, num_jobs=16, submission_gap=15.0,
        )
        assert max(s for _, s in result.capacity.samples) <= 3 * 16
        assert result.cost.nodes_provisioned <= 3


class TestDrainOnScaleDown:
    def test_idle_capacity_drains_without_evictions(self):
        provider = CloudProvider(
            [NodePool(name="od", slots_per_node=16, price_per_hour=0.68,
                      initial_nodes=4, min_nodes=1, max_nodes=4)]
        )
        simulator = CloudScheduleSimulator(
            REGISTRY.resolve("elastic"), provider,
            autoscaler=IdleTimeoutAutoscaler(idle_timeout=120.0),
            tick=30.0,
        )
        # a long tail: early burst, then one small job keeps the run alive
        submissions = paper_workload(6, num_jobs=10, gap=200.0)
        result = simulator.run(submissions)

        # capacity came down while the workload drained out...
        assert min(s for _, s in result.capacity.samples) < 64
        # ...through draining, never through eviction
        kinds = {type(d).__name__ for d in simulator.policy.decision_log}
        assert "RequeueJob" not in kinds
        # jobs all finished and the books balance
        assert result.metrics.job_count == 10
        assert simulator.policy.free_slots == simulator.policy.total_slots

    def test_draining_node_capacity_is_cordoned(self):
        """Slots drained off a node must leave schedulable capacity."""
        provider = CloudProvider(
            [NodePool(name="od", slots_per_node=32, price_per_hour=0.68,
                      initial_nodes=2, min_nodes=1, max_nodes=2)]
        )
        simulator = CloudScheduleSimulator(
            REGISTRY.resolve("elastic"), provider,
            autoscaler=IdleTimeoutAutoscaler(idle_timeout=60.0),
            tick=30.0,
        )
        simulator.run(paper_workload(9, num_jobs=8, gap=300.0))
        # whatever was drained is gone from the engine's view
        assert simulator.policy.total_slots == provider.ready_slots + sum(
            n.drain_remaining for n in provider.draining_nodes
        )


class TestSpotInterruption:
    def scenario(self):
        return CloudScenario(
            initial_nodes=2, min_nodes=2, max_nodes=4,
            spot_nodes=2, spot_mean_lifetime=1200.0,
        )

    def test_interrupted_workload_still_completes(self):
        result = run_cloud_once(
            "elastic", "queue", self.scenario(), seed=7, num_jobs=20,
            submission_gap=30.0,
        )
        assert result.cost.interruptions > 0
        assert result.metrics.job_count == 20

    def test_eviction_decisions_and_restart(self):
        provider = CloudProvider(self.scenario().pools(), seed=18)
        simulator = CloudScheduleSimulator(
            REGISTRY.resolve("elastic"), provider,
            autoscaler=QueueDepthAutoscaler(),
        )
        result = simulator.run(paper_workload(18, num_jobs=20, gap=30.0))
        log = simulator.policy.decision_log
        requeues = [d for d in log if isinstance(d, RequeueJob)]
        assert requeues, "seed 18 is pinned to produce forced evictions"
        evicted = requeues[0].job.name
        # the evicted job started again later and finished
        starts = [
            d for d in log
            if isinstance(d, StartJob) and d.job.name == evicted
        ]
        assert len(starts) >= 2
        assert result.metrics.job_count == 20

    def test_forced_shrinks_ignore_rescale_gap(self):
        """An interruption may shrink a job inside its T_rescale_gap."""
        provider = CloudProvider(self.scenario().pools(), seed=3)
        simulator = CloudScheduleSimulator(
            REGISTRY.resolve("elastic", rescale_gap=1e9), provider,
            autoscaler=StaticAutoscaler(),
        )
        result = simulator.run(paper_workload(3, num_jobs=16, gap=20.0))
        assert result.metrics.job_count == 16
        # with an infinite gap, any shrink in the log was interruption-forced
        shrinks = [
            d for d in simulator.policy.decision_log
            if isinstance(d, ShrinkJob)
        ]
        requeues = [
            d for d in simulator.policy.decision_log
            if isinstance(d, RequeueJob)
        ]
        assert result.cost.interruptions > 0
        assert shrinks or requeues

    def test_post_workload_spot_weather_is_not_billed(self):
        """Interruption timers drawn beyond the last completion must not
        inflate the interruption count or bill phantom node-hours."""
        scenario = CloudScenario(
            initial_nodes=2, min_nodes=2, max_nodes=2,
            spot_nodes=2, spot_mean_lifetime=1e7,  # reclaims land ~never
        )
        result = run_cloud_once(
            "elastic", "static", scenario, seed=1, num_jobs=8,
            submission_gap=60.0,
        )
        assert result.cost.interruptions == 0
        # all four nodes bill the same clipped window [0, end]
        end = result.result.makespan and max(
            o.completion_time for o in result.outcomes
        )
        assert result.cost.node_hours == pytest.approx(4 * end / 3600.0)

    def test_evicted_job_keeps_its_first_start_time(self):
        """start_time records first service; a restart must not shift the
        metrics window past busy slot-time already burned."""
        provider = CloudProvider(self.scenario().pools(), seed=18)
        simulator = CloudScheduleSimulator(
            REGISTRY.resolve("elastic"), provider,
            autoscaler=QueueDepthAutoscaler(),
        )
        result = simulator.run(paper_workload(18, num_jobs=20, gap=30.0))
        log = simulator.policy.decision_log
        evicted = {d.job.name for d in log if isinstance(d, RequeueJob)}
        assert evicted
        restarts = {}
        for d in log:
            if isinstance(d, StartJob) and d.job.name in evicted:
                restarts.setdefault(d.job.name, d.job)
        for name in evicted:
            outcome = next(o for o in result.outcomes if o.name == name)
            # the outcome's start is the first StartJob's time, which is
            # strictly before the eviction that requeued it
            first_timeline_start = outcome.timeline.samples[0][0]
            assert outcome.start_time == first_timeline_start

    def test_moldable_recovers_from_eviction(self):
        """Regression: evicted jobs must restart under T_rescale_gap = inf."""
        result = run_cloud_once(
            "moldable", "static",
            CloudScenario(initial_nodes=2, min_nodes=1, max_nodes=4,
                          spot_nodes=2, spot_mean_lifetime=1800.0),
            seed=0, num_jobs=12, submission_gap=90.0,
        )
        assert result.metrics.job_count == 12


class TestZeroFaultEquivalence:
    """The fault stack must be invisible until a plan injects something:
    an empty plan plus an attached checkpoint store may not perturb a
    single decision relative to a provider with no fault stack at all."""

    def run_fleet(self, spot, faulted):
        from repro.charm.faulttolerance import DiskCheckpointStore
        from repro.faults import FaultInjector, FaultPlan

        scenario = CloudScenario(
            initial_nodes=2, min_nodes=1, max_nodes=4,
            provision_delay=60.0,
            spot_nodes=3 if spot else 0,
            spot_mean_lifetime=3600.0,
        )
        provider = CloudProvider(
            scenario.pools(), seed=18,
            faults=FaultInjector(FaultPlan()) if faulted else None,
        )
        simulator = CloudScheduleSimulator(
            REGISTRY.resolve("elastic"), provider,
            autoscaler=QueueDepthAutoscaler(),
            checkpoints=DiskCheckpointStore() if faulted else None,
        )
        result = simulator.run(paper_workload(18, num_jobs=16, gap=90.0))
        return [serialize(d) for d in simulator.policy.decision_log], result

    @pytest.mark.parametrize("spot", [False, True])
    def test_zero_plan_decisions_byte_identical(self, spot):
        plain_log, plain = self.run_fleet(spot, faulted=False)
        fault_log, faulted = self.run_fleet(spot, faulted=True)
        assert fault_log == plain_log
        assert faulted.metrics.as_dict() == plain.metrics.as_dict()
        assert faulted.cost.total_cost == pytest.approx(plain.cost.total_cost)
        # the fault report exists but records a clean run
        assert faulted.faults is not None
        assert faulted.faults.crashes == 0
        assert faulted.faults.provision_failures == 0
        assert plain.faults is None


class TestSweepAndCache:
    def test_grid_runs_end_to_end_with_cost_columns(self):
        stats = compare_cloud(
            policies=("elastic", "moldable"),
            autoscalers=("static", "queue"),
            trials=2, num_jobs=8, submission_gap=60.0,
        )
        assert set(stats) == {
            ("static", "elastic"), ("static", "moldable"),
            ("queue", "elastic"), ("queue", "moldable"),
        }
        for cell in stats.values():
            assert cell.trials == 2
            assert cell.total_cost > 0
            assert cell.node_hours > 0
            assert 0 < cell.elastic_utilization <= 1.0

    def test_sweep_is_cache_hit_on_rerun(self, tmp_path):
        from repro.schedsim import TrialCache

        cache = TrialCache(tmp_path)
        kwargs = dict(
            policies=("elastic",), autoscalers=("queue",), trials=2,
            num_jobs=8, submission_gap=60.0, cache=cache,
        )
        first = compare_cloud(**kwargs)
        assert cache.writes == 2
        second = compare_cloud(**kwargs)
        assert cache.hits == 2
        assert first == second

    def test_parallel_matches_serial(self):
        kwargs = dict(
            policies=("elastic", "min_replicas"), autoscalers=("idle",),
            trials=2, num_jobs=8, submission_gap=60.0,
        )
        assert compare_cloud(**kwargs) == compare_cloud(workers=2, **kwargs)

    def test_format_cost_table_renders(self):
        from repro.schedsim import format_cost_table

        stats = compare_cloud(
            policies=("elastic",), autoscalers=("static",), trials=1,
            num_jobs=8, submission_gap=60.0,
        )
        table = format_cost_table(stats.values(), title="grid")
        assert "Cost ($)" in table and "elastic" in table


class TestConstruction:
    def test_requires_initial_capacity(self):
        provider = CloudProvider(
            [NodePool(name="od", slots_per_node=16, price_per_hour=0.68,
                      initial_nodes=0)]
        )
        with pytest.raises(CloudError, match="initial fleet"):
            CloudScheduleSimulator(REGISTRY.resolve("elastic"), provider)

    def test_rejects_nonpositive_tick(self):
        provider = CloudProvider(
            [NodePool(name="od", slots_per_node=16, price_per_hour=0.68,
                      initial_nodes=1)]
        )
        with pytest.raises(CloudError, match="tick"):
            CloudScheduleSimulator(REGISTRY.resolve("elastic"), provider,
                                   tick=0.0)


class CompletionCounter(ElasticPolicyEngine):
    """The engine, counting completions per job."""

    def __init__(self, total_slots, config=None):
        super().__init__(total_slots, config)
        self.completions = Counter()

    def on_complete(self, name, now):
        self.completions[name] += 1
        return super().on_complete(name, now)


class TestPreemptionOnSpot:
    """The preemption stage composes with spot evictions: a job may be
    checkpointed to disk by a higher-priority arrival, evicted by a
    reclaim, or both, and still finishes exactly once."""

    SEEDS = range(40)

    @pytest.mark.parametrize("autoscaler", [StaticAutoscaler,
                                            QueueDepthAutoscaler])
    def test_every_job_completes_once(self, autoscaler):
        scenario = CloudScenario(
            initial_nodes=2, min_nodes=2, max_nodes=4,
            spot_nodes=2, spot_mean_lifetime=1800.0,
        )
        preemptions = 0
        for seed in self.SEEDS:
            provider = CloudProvider(scenario.pools(), seed=seed)
            simulator = CloudScheduleSimulator(
                REGISTRY.resolve("preemptive"), provider,
                autoscaler=autoscaler(), policy_engine_cls=CompletionCounter,
            )
            workload = paper_workload(seed, num_jobs=16, gap=30.0)
            result = simulator.run(workload)
            names = {sub.request.name for sub in workload}
            assert simulator.policy.completions == Counter(names)
            assert sorted(o.name for o in result.outcomes) == sorted(names)
            provider.check_invariants()
            preemptions += sum(isinstance(d, PreemptJob)
                               for d in simulator.policy.decision_log)
        assert preemptions > 0
