"""Property-based conservation checks under time-varying capacity.

The fixed-capacity suite proves the simulated universe balances its
books; these properties extend the same guarantees to a cluster whose
size breathes: occupancy never exceeds *current* capacity, capacity
never exceeds what the fleet actually holds, every job still completes
exactly once, and the engine's O(1) slot counter never drifts from the
job lists it summarizes.
"""

from hypothesis import given, settings, strategies as st
from pytest import approx

from repro.cloud import (
    CloudProvider,
    CloudScenario,
    CloudScheduleSimulator,
    make_autoscaler,
)
from repro.scheduling import REGISTRY
from repro.schedsim import WorkloadSpec, generate_workload

policies = st.sampled_from(["elastic", "moldable", "min_replicas",
                            "max_replicas"])
autoscalers = st.sampled_from(["static", "queue", "utilization", "idle"])
gaps = st.floats(min_value=0.0, max_value=180.0, allow_nan=False)
seeds = st.integers(min_value=0, max_value=10_000)
spot = st.booleans()


def run(policy, autoscaler, gap, seed, use_spot, num_jobs=10):
    scenario = CloudScenario(
        initial_nodes=4, min_nodes=1, max_nodes=8,
        spot_nodes=2 if use_spot else 0, spot_mean_lifetime=2400.0,
    )
    provider = CloudProvider(scenario.pools(), seed=seed)
    simulator = CloudScheduleSimulator(
        REGISTRY.resolve(policy), provider,
        autoscaler=make_autoscaler(autoscaler),
    )
    subs = generate_workload(
        WorkloadSpec(num_jobs=num_jobs, submission_gap=gap, seed=seed)
    )
    return simulator.run(subs), simulator


@settings(max_examples=25, deadline=None)
@given(policy=policies, autoscaler=autoscalers, gap=gaps, seed=seeds,
       use_spot=spot)
def test_every_job_completes_exactly_once(policy, autoscaler, gap, seed,
                                          use_spot):
    result, simulator = run(policy, autoscaler, gap, seed, use_spot)
    assert result.metrics.job_count == 10
    assert len(result.outcomes) == 10
    assert len({o.name for o in result.outcomes}) == 10
    # terminal engine state: nothing running, nothing queued, books closed
    assert not simulator.policy.running
    assert not simulator.policy.queue
    assert simulator.policy.free_slots == simulator.policy.total_slots


@settings(max_examples=20, deadline=None)
@given(policy=policies, autoscaler=autoscalers, gap=gaps, seed=seeds,
       use_spot=spot)
def test_occupancy_never_exceeds_current_capacity(policy, autoscaler, gap,
                                                  seed, use_spot):
    result, _ = run(policy, autoscaler, gap, seed, use_spot)
    end = max(o.completion_time for o in result.outcomes)
    probes = sorted(
        {t for t, _ in result.capacity.samples}
        | {end * k / 32.0 for k in range(33)}
    )
    for t in probes:
        occupancy = sum(o.timeline.value_at(t) for o in result.outcomes)
        assert occupancy <= result.capacity.value_at(t), (
            f"occupancy {occupancy} > capacity at t={t}"
        )


@settings(max_examples=20, deadline=None)
@given(policy=policies, autoscaler=autoscalers, gap=gaps, seed=seeds,
       use_spot=spot)
def test_capacity_is_backed_by_fleet(policy, autoscaler, gap, seed,
                                     use_spot):
    """At the end, the engine's slots equal ready fleet minus cordons."""
    _, simulator = run(policy, autoscaler, gap, seed, use_spot)
    provider = simulator.provider
    cordoned = sum(n.drain_remaining for n in provider.draining_nodes)
    assert simulator.policy.total_slots == provider.ready_slots + cordoned
    assert simulator.policy.total_slots >= 0


@settings(max_examples=15, deadline=None)
@given(policy=policies, gap=gaps, seed=seeds)
def test_billing_covers_capacity(policy, gap, seed):
    """Provisioned-capacity hours can never exceed paid node-hours."""
    result, simulator = run(policy, "queue", gap, seed, True)
    slots_per_node = simulator.provider.pools[0].slots_per_node
    assert result.cost.capacity_slot_hours <= (
        result.cost.node_hours * slots_per_node + 1e-6
    )
    assert result.cost.busy_slot_hours <= result.cost.capacity_slot_hours + 1e-6
    assert 0.0 < result.cost.elastic_utilization <= 1.0 + 1e-9


@settings(max_examples=15, deadline=None)
@given(policy=policies, autoscaler=autoscalers, gap=gaps, seed=seeds,
       use_spot=spot)
def test_streaming_metrics_match_full(policy, autoscaler, gap, seed,
                                      use_spot):
    """retain='metrics' must agree with retain='full' under the cloud."""
    full, _ = run(policy, autoscaler, gap, seed, use_spot)
    scenario = CloudScenario(
        initial_nodes=4, min_nodes=1, max_nodes=8,
        spot_nodes=2 if use_spot else 0, spot_mean_lifetime=2400.0,
    )
    provider = CloudProvider(scenario.pools(), seed=seed)
    simulator = CloudScheduleSimulator(
        REGISTRY.resolve(policy), provider,
        autoscaler=make_autoscaler(autoscaler),
    )
    subs = generate_workload(
        WorkloadSpec(num_jobs=10, submission_gap=gap, seed=seed)
    )
    streamed = simulator.run(subs, retain="metrics")
    # streaming folds outcomes in completion order, full mode in name
    # order: identical up to float-summation associativity
    for key, value in full.metrics.as_dict().items():
        assert streamed.metrics.as_dict()[key] == approx(value)
    for key, value in full.cost.as_dict().items():
        assert streamed.cost.as_dict()[key] == approx(value)
