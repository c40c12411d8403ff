"""Property-based conservation checks on the scheduler simulator.

Whatever the policy and traffic, the simulated universe must balance its
books: work is neither created nor destroyed, occupancy never exceeds the
cluster, and the §4.3 metrics respect their definitional identities.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.perfmodel.datasets import JOB_SIZE_CLASSES, step_time_model
from repro.scheduling import REGISTRY
from repro.schedsim import ScheduleSimulator, WorkloadSpec, generate_workload

policies = st.sampled_from(["elastic", "moldable", "min_replicas", "max_replicas"])
gaps = st.floats(min_value=0.0, max_value=240.0, allow_nan=False)
seeds = st.integers(min_value=0, max_value=10_000)


def run(policy_name, gap, seed, rescale_gap=180.0, num_jobs=10):
    sim = ScheduleSimulator(REGISTRY.resolve(policy_name, rescale_gap=rescale_gap))
    subs = generate_workload(
        WorkloadSpec(num_jobs=num_jobs, submission_gap=gap, seed=seed)
    )
    return sim.run(subs), subs


@settings(max_examples=40, deadline=None)
@given(policy=policies, gap=gaps, seed=seeds)
def test_metrics_identities(policy, gap, seed):
    result, _ = run(policy, gap, seed)
    m = result.metrics
    assert 0.0 < m.utilization <= 1.0 + 1e-9
    assert m.total_time > 0.0
    assert 0.0 <= m.weighted_mean_response <= m.weighted_mean_completion
    for outcome in result.outcomes:
        assert outcome.submit_time <= outcome.start_time <= outcome.completion_time


@settings(max_examples=30, deadline=None)
@given(policy=policies, gap=gaps, seed=seeds)
def test_occupancy_never_exceeds_cluster(policy, gap, seed):
    result, _ = run(policy, gap, seed)
    end = max(o.completion_time for o in result.outcomes)
    for k in range(64):
        t = end * k / 64.0
        occupancy = sum(o.timeline.value_at(t) for o in result.outcomes)
        assert occupancy <= 64


@settings(max_examples=30, deadline=None)
@given(policy=policies, gap=gaps, seed=seeds)
def test_work_conservation(policy, gap, seed):
    """Each job's slot-seconds must cover at least its ideal minimum work.

    A job doing ``steps`` iterations cannot consume fewer slot-seconds
    than running every step at its *most efficient* sampled configuration
    (rescale overheads and inefficiency only add on top).
    """
    result, subs = run(policy, gap, seed)
    for sub in subs:
        outcome = next(o for o in result.outcomes if o.name == sub.request.name)
        busy = outcome.timeline.slot_seconds(outcome.completion_time)
        size = JOB_SIZE_CLASSES[sub.size.name]
        model = step_time_model(size)
        ideal = min(
            model(p) * p
            for p in range(size.min_replicas, size.max_replicas + 1)
        ) * size.timesteps
        assert busy >= ideal * (1.0 - 1e-9)


@settings(max_examples=25, deadline=None)
@given(gap=gaps, seed=seeds)
def test_rigid_policies_never_change_size(gap, seed):
    for policy, attr in (("min_replicas", "min_replicas"), ("max_replicas", "max_replicas")):
        result, subs = run(policy, gap, seed)
        for sub in subs:
            expected = getattr(sub.request, attr)
            sizes = {
                r for _, r in result.timelines[sub.request.name].samples if r > 0
            }
            assert sizes == {expected}


@settings(max_examples=25, deadline=None)
@given(gap=gaps, seed=seeds, rescale_gap=st.floats(min_value=0.0, max_value=1200.0))
def test_elastic_sizes_always_within_bounds(gap, seed, rescale_gap):
    result, subs = run("elastic", gap, seed, rescale_gap=rescale_gap)
    for sub in subs:
        for _, replicas in result.timelines[sub.request.name].samples:
            assert replicas == 0 or (
                sub.request.min_replicas <= replicas <= sub.request.max_replicas
            )


@settings(max_examples=20, deadline=None)
@given(gap=gaps, seed=seeds)
def test_paired_policies_see_identical_workloads(gap, seed):
    _, subs_a = run("elastic", gap, seed)
    _, subs_b = run("moldable", gap, seed)
    assert [(s.time, s.request) for s in subs_a] == [
        (s.time, s.request) for s in subs_b
    ]
