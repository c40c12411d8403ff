"""Tests for kube-scheduler placement and kubelet lifecycle."""

import pytest

from repro.errors import InvalidObjectError, KubeError
from repro.k8s import (
    LabelSelector,
    Node,
    Pod,
    PodAffinityTerm,
    PodPhase,
    PodSpec,
    Resources,
)
from tests.k8s.conftest import make_pod


class TestScheduling:
    def test_pod_gets_bound_and_started(self, engine, cluster):
        pod = cluster.api.create(make_pod("p1", cpu="2"))
        engine.run(until=10.0)
        assert pod.is_bound
        assert pod.phase == PodPhase.RUNNING
        assert pod.status.scheduled_time < pod.status.start_time

    def test_resources_accounted_on_bind(self, engine, cluster):
        cluster.api.create(make_pod("p1", cpu="3"))
        engine.run(until=10.0)
        assert cluster.allocated_cpus == 3.0

    def test_least_allocated_spreads_pods(self, engine, cluster):
        for i in range(4):
            cluster.api.create(make_pod(f"p{i}", cpu="1"))
        engine.run(until=10.0)
        nodes = {p.node_name for p in cluster.pods()}
        assert len(nodes) == 4  # one pod per node: default spreading

    def test_pod_affinity_packs_job_pods(self, engine, cluster):
        term = PodAffinityTerm(selector=LabelSelector.of(job="j1"))
        first = Pod("w0", PodSpec(request=Resources.parse(cpu="1"), affinity=term),
                    labels={"job": "j1"})
        cluster.api.create(first)
        engine.run(until=5.0)
        # Without affinity the next pod would spread to an empty node;
        # with affinity it must co-locate with w0.
        second = Pod("w1", PodSpec(request=Resources.parse(cpu="1"), affinity=term),
                     labels={"job": "j1"})
        cluster.api.create(second)
        engine.run(until=10.0)
        assert second.node_name == first.node_name

    def test_affinity_topology_other_than_hostname_is_rejected(self, engine, cluster):
        # Scoring counts matching pods per node; a zone-wide term would be
        # scored as if it were per node, so validation refuses it.
        term = PodAffinityTerm(selector=LabelSelector.of(job="j1"),
                               topology_key="topology.kubernetes.io/zone")
        pod = Pod("w0", PodSpec(affinity=term), labels={"job": "j1"})
        with pytest.raises(InvalidObjectError, match="topology key"):
            cluster.api.create(pod)
        assert not cluster.api.exists("Pod", "w0")
        hostname = PodAffinityTerm(selector=LabelSelector.of(job="j1"),
                                   topology_key="kubernetes.io/hostname")
        cluster.api.create(Pod("w1", PodSpec(affinity=hostname)))

    def test_node_selector_restricts_placement(self, engine, cluster):
        pod = make_pod("p", node_selector={"kubernetes.io/hostname": "node-2"})
        cluster.api.create(pod)
        engine.run(until=10.0)
        assert pod.node_name == "node-2"

    def test_unsatisfiable_selector_stays_pending(self, engine, cluster):
        pod = make_pod("p", node_selector={"kubernetes.io/hostname": "nope"})
        cluster.api.create(pod)
        engine.run(until=10.0)
        assert not pod.is_bound
        assert pod in cluster.scheduler.pending_pods

    def test_oversized_pod_stays_pending(self, engine, small_cluster):
        pod = make_pod("big", cpu="100")
        small_cluster.api.create(pod)
        engine.run(until=10.0)
        assert not pod.is_bound

    def test_pending_pod_binds_when_capacity_frees(self, engine, small_cluster):
        blocker = make_pod("blocker", cpu="4")
        small_cluster.api.create(blocker)
        other = make_pod("other", cpu="4")
        small_cluster.api.create(other)
        waiting = make_pod("waiting", cpu="4")
        small_cluster.api.create(waiting)
        engine.run(until=10.0)
        assert not waiting.is_bound  # cluster full: 2 nodes x 4 cpus taken
        small_cluster.api.delete(blocker)
        engine.run(until=20.0)
        assert waiting.is_bound
        assert waiting.phase == PodPhase.RUNNING

    def test_never_overcommits_nodes(self, engine, small_cluster):
        for i in range(6):
            small_cluster.api.create(make_pod(f"p{i}", cpu="3"))
        engine.run(until=30.0)
        for node in small_cluster.nodes.values():
            assert node.allocated.cpu <= node.allocatable.cpu + 1e-9

    def test_deterministic_placement(self):
        def run_once():
            from repro.sim import Engine
            from repro.k8s import make_eks_cluster

            eng = Engine()
            cl = make_eks_cluster(eng)
            for i in range(10):
                cl.api.create(make_pod(f"p{i}", cpu="2"))
            eng.run(until=30.0)
            return [p.node_name for p in cl.pods()]

        assert run_once() == run_once()


class TestKubelet:
    def test_cluster_close_stops_the_scheduler_and_kubelet_watches(
            self, engine, cluster):
        watches = [cluster.scheduler._watch,
                   *(k._watch for k in cluster.kubelets.values())]
        assert all(w.active for w in watches)
        cluster.close()
        assert not any(w.active for w in watches)
        pod = cluster.api.create(make_pod("p"))
        engine.run(until=10.0)
        assert not pod.is_bound

    def test_stopped_kubelets_start_no_pod(self, engine, cluster):
        for kubelet in cluster.kubelets.values():
            kubelet.stop()
        pod = cluster.api.create(make_pod("p"))
        engine.run(until=10.0)
        assert pod.is_bound and pod.phase == PodPhase.PENDING

    def test_start_latency_applied(self, engine, cluster):
        pod = cluster.api.create(make_pod("p"))
        engine.run(until=10.0)
        # bind_latency (0.01) + start_latency (2.0)
        assert pod.status.start_time == pytest.approx(2.01, abs=0.05)

    def test_graceful_deletion_releases_resources(self, engine, cluster):
        pod = cluster.api.create(make_pod("p", cpu="2"))
        engine.run(until=10.0)
        assert cluster.allocated_cpus == 2.0
        cluster.api.delete(pod)
        assert pod.terminating
        engine.run(until=20.0)
        assert cluster.allocated_cpus == 0.0
        assert not cluster.api.exists("Pod", "p")

    def test_repeated_delete_leaves_finalizing_to_the_kubelet(self, engine, cluster):
        pod = cluster.api.create(make_pod("p", cpu="4"))
        engine.run(until=10.0)
        cluster.api.delete(pod)
        cluster.api.delete(pod)  # already terminating: a no-op
        assert cluster.api.exists("Pod", "p")
        engine.run(until=30.0)
        assert not cluster.api.exists("Pod", "p")
        assert cluster.allocated_cpus == 0.0
        assert all(not node.pod_keys for node in cluster.nodes.values())

    def test_delete_before_start_cancels_start(self, engine, cluster):
        pod = cluster.api.create(make_pod("p"))
        engine.run(until=0.5)  # bound but not started
        assert pod.is_bound and pod.phase == PodPhase.PENDING
        cluster.api.delete(pod)
        engine.run(until=10.0)
        assert not cluster.api.exists("Pod", "p")
        assert cluster.allocated_cpus == 0.0

    def test_complete_pod_releases_resources(self, engine, cluster):
        pod = cluster.api.create(make_pod("p", cpu="2"))
        engine.run(until=10.0)
        cluster.complete_pod(pod)
        engine.run(until=12.0)
        assert pod.phase == PodPhase.SUCCEEDED
        assert cluster.allocated_cpus == 0.0

    def test_complete_pod_failure_phase(self, engine, cluster):
        pod = cluster.api.create(make_pod("p"))
        engine.run(until=10.0)
        cluster.complete_pod(pod, succeeded=False)
        engine.run(until=12.0)
        assert pod.phase == PodPhase.FAILED

    def test_running_pods_listing(self, engine, cluster):
        pod = cluster.api.create(make_pod("p"))
        engine.run(until=10.0)
        kubelet = cluster.kubelet_for(pod)
        assert pod in kubelet.running_pods()

    def test_utilization_tracks_requests(self, engine, cluster):
        assert cluster.cpu_utilization() == 0.0
        cluster.api.create(make_pod("p", cpu="16"))
        engine.run(until=10.0)
        assert cluster.cpu_utilization() == pytest.approx(16 / 64)


class TestKeptNodeState:
    """``Node`` keeps its free capacity and per-label pod counts as pods
    bind and release; both must equal a fresh recount."""

    @staticmethod
    def node():
        return Node("n", Resources.parse(cpu="8", memory="8Gi"),
                    system_reserved=Resources.parse(cpu="1"))

    @staticmethod
    def pod(name, cpu="1", **labels):
        return Pod(name, PodSpec(request=Resources.parse(cpu=cpu, memory="1Gi")),
                   labels=labels)

    def test_free_is_kept_through_bind_and_release(self):
        node = self.node()
        assert node.free == node.allocatable == Resources.parse(cpu="7", memory="8Gi")
        a, b = self.pod("a", cpu="2.5"), self.pod("b", cpu="0.5")
        node.bind(a)
        node.bind(b)
        assert node.free == node.allocatable - (a.request + b.request)
        assert node.can_fit(Resources.parse(cpu="4", memory="6Gi"))
        assert not node.can_fit(Resources.parse(cpu="4.5"))
        node.release(a)
        assert node.free == node.allocatable - b.request
        node.release(b)
        assert node.free == node.allocatable

    def test_count_matching_one_pair_two_pair_and_empty(self):
        node = self.node()
        pods = [self.pod("l", job="x", role="launcher"),
                self.pod("w0", job="x", role="worker"),
                self.pod("w1", job="x", role="worker"),
                self.pod("v0", job="y", role="worker")]
        for pod in pods:
            node.bind(pod)
        assert node.count_matching(LabelSelector.of(job="x")) == 3
        assert node.count_matching(LabelSelector.of(role="worker")) == 3
        assert node.count_matching(LabelSelector.of(job="x", role="worker")) == 2
        assert node.count_matching(LabelSelector.of(job="z")) == 0
        assert node.count_matching(LabelSelector()) == 4
        node.release(pods[1])
        node.release(pods[3])
        assert node.count_matching(LabelSelector.of(job="x")) == 2
        assert node.count_matching(LabelSelector.of(job="y")) == 0
        assert node.count_matching(LabelSelector.of(job="x", role="worker")) == 1
        assert node.count_matching(LabelSelector()) == 2
        assert node.pod_keys == {pods[0].key, pods[2].key}

    def test_release_undoes_the_labels_counted_at_bind(self):
        # Labels are never edited in this codebase; if one were, release
        # must still undo exactly what bind counted.
        node = self.node()
        a = self.pod("a", job="x")
        node.bind(a)
        a.meta.labels["job"] = "y"
        assert node.count_matching(LabelSelector.of(job="x")) == 1
        node.release(a)
        assert node.count_matching(LabelSelector.of(job="x")) == 0
        assert node.count_matching(LabelSelector.of(job="y")) == 0

    def test_double_bind_and_foreign_release_leave_state_alone(self):
        node = self.node()
        a = self.pod("a", job="x")
        node.bind(a)
        with pytest.raises(KubeError, match="already bound"):
            node.bind(a)
        with pytest.raises(KubeError, match="not bound"):
            node.release(self.pod("b", job="x"))
        with pytest.raises(KubeError, match="does not fit"):
            node.bind(self.pod("big", cpu="7"))
        assert node.count_matching(LabelSelector.of(job="x")) == 1
        assert node.free == node.allocatable - a.request
