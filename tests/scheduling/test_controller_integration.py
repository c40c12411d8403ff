"""End-to-end tests: elastic scheduler → operator → cluster → application."""

import pytest

from repro.k8s import LabelSelector, Resources, make_eks_cluster
from repro.mpioperator import CharmJobController, JobPhase
from repro.errors import SchedulingError
from repro.scheduling import PolicyConfig, REGISTRY
from repro.scheduling.controller import ElasticSchedulerController
from tests.mpioperator.conftest import BlockApp, make_job


@pytest.fixture
def stack(engine):
    """Cluster + operator + elastic scheduler, 64 slots, fast test gaps."""
    cluster = make_eks_cluster(engine)
    operator = CharmJobController(engine, cluster, app_factory=BlockApp)
    scheduler = ElasticSchedulerController(
        engine, cluster, operator,
        config=PolicyConfig(rescale_gap=30.0, launcher_slots=1),
    )
    return cluster, operator, scheduler


class TestEndToEnd:
    def test_single_job_lifecycle(self, engine, stack):
        cluster, operator, scheduler = stack
        job = make_job(min_replicas=4, max_replicas=16, steps=40)
        scheduler.submit(job)
        engine.run(until=400.0)
        assert job.status.phase == JobPhase.COMPLETED
        # Empty cluster: the job starts at min(free - 1, max) = 16.
        assert scheduler.policy.job("job-a").state.value == "Completed"
        (outcome,) = scheduler.outcomes
        assert outcome.response_time >= 0
        assert outcome.timeline.samples[0][1] == 16

    def test_low_priority_shrunk_for_high_priority(self, engine, stack):
        cluster, operator, scheduler = stack
        # A small high-priority anchor occupies the protected index-0 spot.
        anchor = make_job(name="anchor", min_replicas=2, max_replicas=2,
                          priority=5, steps=50000)
        low = make_job(name="low", min_replicas=8, max_replicas=30,
                       priority=1, steps=20000)
        low2 = make_job(name="low2", min_replicas=8, max_replicas=24,
                        priority=1, steps=20000)
        scheduler.submit(anchor)
        engine.run(until=10.0)
        scheduler.submit(low)
        engine.run(until=20.0)
        scheduler.submit(low2)
        engine.run(until=60.0)
        # anchor 2+1, low 30+1 -> free = 30 -> low2 = min(30-1, 24) = 24.
        assert scheduler.policy.job("low").replicas == 30
        assert scheduler.policy.job("low2").replicas == 24
        high = make_job(name="high", min_replicas=24, max_replicas=24,
                        priority=4, steps=40000)
        scheduler.submit(high)
        engine.run(until=engine.now + 0.1)
        # Shrink victims in increasing-priority order: low2 to its min (8),
        # then low covers the remainder (30 -> 26); high starts at 24.
        assert scheduler.policy.job("low2").replicas == 8
        assert scheduler.policy.job("low").replicas == 26
        assert scheduler.policy.job("high").replicas == 24
        engine.run(until=300.0)
        assert operator.runner_for(low2).rts.num_pes == 8
        assert operator.runner_for(low).rts.num_pes == 26
        assert scheduler.policy.job("high").state.value in ("Running", "Completed")

    def test_queued_job_starts_after_completion(self, engine, stack):
        cluster, operator, scheduler = stack
        big = make_job(name="big", min_replicas=60, max_replicas=62,
                       priority=3, steps=600)
        scheduler.submit(big)
        engine.run(until=30.0)
        blocked = make_job(name="blocked", min_replicas=32, max_replicas=32,
                           priority=1, steps=30)
        scheduler.submit(blocked)
        engine.run(until=40.0)
        assert scheduler.policy.job("blocked").state.value == "Queued"
        assert blocked.spec.suspend
        engine.run(until=2000.0)
        assert big.status.phase == JobPhase.COMPLETED
        assert blocked.status.phase == JobPhase.COMPLETED
        assert scheduler.all_done
        metrics = scheduler.metrics()
        assert 0.0 < metrics.utilization <= 1.0
        assert metrics.weighted_mean_response > 0.0

    def test_completion_expands_running_job(self, engine, stack):
        cluster, operator, scheduler = stack
        done = make_job(name="done", min_replicas=8, max_replicas=40,
                        priority=4, steps=2000)
        stay = make_job(name="stay", min_replicas=8, max_replicas=60,
                        priority=2, steps=20000)
        scheduler.submit(done)       # takes 40 replicas
        engine.run(until=10.0)
        scheduler.submit(stay)       # fills the gap: min(23 - 1, 60) = 22
        engine.run(until=50.0)
        assert scheduler.policy.job("done").replicas == 40
        assert scheduler.policy.job("stay").replicas == 22
        engine.run(until=400.0)
        assert done.status.phase == JobPhase.COMPLETED
        # Fig 3: the freed 40 workers + launcher slot expand 'stay' toward
        # its max: 22 + min(41, 60-22) = 60.
        assert scheduler.policy.job("stay").replicas == 60
        assert operator.runner_for(stay).rts.num_pes == 60

    def test_failed_job_hands_its_slots_out(self, engine, stack):
        """A job that fails with its node runs Figure 3 like a completion,
        and the expansions that decides reach the CharmJobs."""
        cluster, operator, scheduler = stack
        plan = [
            (0.0, make_job(name="anchor", min_replicas=2, max_replicas=2,
                           priority=5, steps=50000)),
            (10.0, make_job(name="low", min_replicas=8, max_replicas=30,
                            priority=1, steps=20000)),
            (20.0, make_job(name="low2", min_replicas=8, max_replicas=24,
                            priority=1, steps=20000)),
            (60.0, make_job(name="high", min_replicas=24, max_replicas=24,
                            priority=4, steps=40000)),
        ]
        for at, job in plan:
            engine.schedule_at(at, scheduler.submit, job)
        engine.schedule_at(90.0, cluster.fail_node, "node-1")
        # The policy's books keep all 64 slots, so the node must come back
        # for an expansion to find pods (the operator aborts it otherwise).
        engine.schedule_at(100.0, cluster.uncordon_node, "node-1")
        engine.run(until=150.0)
        failed = [job for _, job in plan if job.status.phase == JobPhase.FAILED]
        assert failed
        running = [job for _, job in plan
                   if scheduler.policy.job(job.name).state.value == "Running"]
        assert running
        for job in running:
            assert scheduler.policy.job(job.name).replicas == job.spec.replicas
        assert operator.rescaler.expand_count > 0
        # A failure frees slots but is not an outcome.
        assert {o.name for o in scheduler.outcomes}.isdisjoint(
            job.name for job in failed)

    def test_refuses_an_operator_that_relaunches_failed_jobs(self, engine):
        cluster = make_eks_cluster(engine)
        operator = CharmJobController(engine, cluster, app_factory=BlockApp,
                                      restart_failed_jobs=True)
        with pytest.raises(SchedulingError, match="relaunches failed jobs"):
            ElasticSchedulerController(engine, cluster, operator)

    def test_metrics_from_real_run(self, engine, stack):
        cluster, operator, scheduler = stack
        for i, (mn, mx, pr, steps) in enumerate(
            [(4, 16, 2, 40), (4, 8, 5, 30), (8, 24, 1, 50)]
        ):
            scheduler.submit(
                make_job(name=f"job-{i}", min_replicas=mn, max_replicas=mx,
                         priority=pr, steps=steps)
            )
            engine.run(until=engine.now + 5.0)
        engine.run(until=3000.0)
        assert scheduler.all_done
        m = scheduler.metrics("elastic")
        assert m.job_count == 3
        assert 0.0 < m.utilization <= 1.0
        assert m.total_time > 0
        assert m.weighted_mean_completion >= m.weighted_mean_response


def assert_node_state_kept(cluster):
    """Each node's kept free capacity and label counts equal a recount
    from the API store: the pods there bound to the node and unfinished."""
    pods = cluster.api.list("Pod", namespace=None)
    selectors = {LabelSelector()}
    for pod in pods:
        selectors.add(LabelSelector.from_dict(pod.meta.labels))
        selectors.update(LabelSelector.of(**{label: value})
                         for label, value in pod.meta.labels.items())
    selectors.add(LabelSelector.of(app="charmjob", missing="label"))
    for node in cluster.nodes.values():
        bound = [p for p in pods if p.node_name == node.name and not p.is_finished]
        assert node.pod_keys == {p.key for p in bound}
        requested = sum((p.request for p in bound), Resources())
        assert node.free.memory == node.allocatable.memory - requested.memory
        assert node.free.cpu == pytest.approx(
            node.allocatable.cpu - requested.cpu, abs=1e-9)
        for selector in selectors:
            recount = sum(1 for p in bound if selector.matches(p.meta.labels))
            assert node.count_matching(selector) == recount, (node.name, selector)


class TestNodeStateUnderChurn:
    def test_kept_node_state_matches_a_recount_throughout(self, engine, stack):
        """Binds, completions, an elastic shrink and expand, a node failure
        and its uncordon: after every 5 s of virtual time the nodes' kept
        state equals a recount over the API store."""
        cluster, operator, scheduler = stack
        plan = [
            (0.0, make_job(name="anchor", min_replicas=2, max_replicas=2,
                           priority=5, steps=1500)),
            (10.0, make_job(name="low", min_replicas=8, max_replicas=30,
                            priority=1, steps=1500)),
            (20.0, make_job(name="low2", min_replicas=8, max_replicas=24,
                            priority=1, steps=1500)),
            (45.0, make_job(name="high", min_replicas=24, max_replicas=24,
                            priority=4, steps=300)),
            (130.0, make_job(name="late", min_replicas=4, max_replicas=40,
                             priority=3, steps=100)),
        ]
        for at, job in plan:
            engine.schedule_at(at, scheduler.submit, job)
        killed = []
        engine.schedule_at(110.0, lambda: killed.append(cluster.fail_node("node-1")))
        engine.schedule_at(125.0, cluster.uncordon_node, "node-1")
        busiest = 0
        late_on_node_1 = False
        while not scheduler.all_done and engine.now < 3000.0:
            engine.run(until=engine.now + 5.0)
            assert_node_state_kept(cluster)
            busiest = max(busiest, sum(len(n.pod_keys) for n in cluster.nodes.values()))
            late_on_node_1 |= any(p.node_name == "node-1" for p in cluster.pods()
                                  if p.name.startswith("late-"))
        assert scheduler.all_done
        assert busiest == 64  # the cluster was full at some check
        assert operator.rescaler.shrink_count > 0
        assert operator.rescaler.expand_count > 0
        assert killed and killed[0] > 0
        assert late_on_node_1  # the uncordoned node took new pods
        assert all(len(n.pod_keys) == 0 for n in cluster.nodes.values())
