"""Tests for the CharmJob CRD types and pod/nodelist templates."""

import math

import pytest

from repro.errors import InvalidObjectError
from repro.k8s import ApiServer
from repro.mpioperator import (
    CharmJob,
    CharmJobSpec,
    JobPhase,
    build_launcher_pod,
    build_worker_pod,
    launcher_pod_name,
    nodelist_name,
    read_nodelist,
    render_nodelist,
    update_nodelist,
    worker_index,
    worker_pod_name,
)
from repro.mpioperator.launcher import sort_workers
from tests.mpioperator.conftest import make_job


class TestCharmJobSpec:
    def test_valid_job_passes(self):
        make_job().validate()

    def test_min_replicas_positive(self):
        with pytest.raises(InvalidObjectError):
            make_job(min_replicas=0, max_replicas=4).validate()

    def test_max_ge_min(self):
        with pytest.raises(InvalidObjectError):
            make_job(min_replicas=8, max_replicas=4).validate()

    def test_replicas_within_bounds(self):
        with pytest.raises(InvalidObjectError):
            make_job(min_replicas=2, max_replicas=8, replicas=9).validate()
        with pytest.raises(InvalidObjectError):
            make_job(min_replicas=2, max_replicas=8, replicas=1).validate()

    def test_priority_must_be_int(self):
        job = make_job()
        job.spec.priority = "high"
        with pytest.raises(InvalidObjectError):
            job.validate()

    def test_desired_defaults_to_min(self):
        job = make_job(min_replicas=3, max_replicas=9)
        assert job.spec.desired_replicas == 3
        job.spec.replicas = 5
        assert job.spec.desired_replicas == 5

    def test_status_defaults(self):
        job = make_job()
        assert job.status.phase == JobPhase.PENDING
        assert job.status.last_action_time == -math.inf
        assert not job.is_finished

    def test_priority_accessors(self):
        job = make_job(priority=4)
        assert job.priority == 4
        assert job.min_replicas == 2
        assert job.max_replicas == 8


class TestPodTemplates:
    def test_launcher_pod_shape(self):
        job = make_job()
        pod = build_launcher_pod(job)
        assert pod.name == launcher_pod_name(job) == "job-a-launcher"
        assert pod.spec.role == "launcher"
        assert pod.request.cpu == 1.0
        assert pod.meta.owner.name == "job-a"

    def test_worker_pod_shape(self):
        job = make_job()
        pod = build_worker_pod(job, 3)
        assert pod.name == worker_pod_name(job, 3) == "job-a-worker-3"
        assert worker_index(pod.name) == 3
        assert pod.spec.role == "worker"
        # §3.1: memory-backed emptyDir lifts the 64Mi default.
        assert pod.shm_bytes() == 1024**3

    def test_worker_pod_carries_its_replica_index(self):
        job = make_job()
        worker = build_worker_pod(job, 3)
        assert worker.spec.replica_index == 3
        assert worker.meta.labels["training.kubeflow.org/replica-index"] == "3"
        launcher = build_launcher_pod(job)
        assert launcher.spec.replica_index is None
        assert "training.kubeflow.org/replica-index" not in launcher.meta.labels

    def test_sort_workers_orders_by_index_not_name(self):
        # By name "job-a-worker-10" would sort before "job-a-worker-2".
        job = make_job()
        pods = [build_worker_pod(job, i) for i in (10, 2, 0, 1)]
        assert [p.spec.replica_index for p in sort_workers(pods)] == [0, 1, 2, 10]

    def test_worker_affinity_targets_job(self):
        job = make_job()
        pod = build_worker_pod(job, 0)
        assert pod.spec.affinity is not None
        assert pod.spec.affinity.selector.matches(
            {"training.kubeflow.org/job-name": "job-a"}
        )

    def test_labels_allow_selection(self):
        job = make_job()
        worker = build_worker_pod(job, 0)
        launcher = build_launcher_pod(job)
        assert worker.meta.labels["training.kubeflow.org/job-role"] == "worker"
        assert launcher.meta.labels["training.kubeflow.org/job-role"] == "launcher"


class TestNodelist:
    def test_render_orders_by_replica_index(self, engine):
        job = make_job()
        pods = [build_worker_pod(job, i) for i in (2, 0, 1)]
        for p in pods:
            p.status.node_name = f"node-{worker_index(p.name) % 2}"
        text = render_nodelist(sorted(pods, key=lambda p: worker_index(p.name)))
        lines = text.strip().splitlines()
        assert lines[0].startswith("job-a-worker-0")
        assert lines[2].startswith("job-a-worker-2")

    def test_update_and_read_round_trip(self, engine):
        api = ApiServer(engine)
        job = make_job()
        workers = [build_worker_pod(job, i) for i in range(3)]
        update_nodelist(api, job, workers)
        assert read_nodelist(api, job) == [
            "job-a-worker-0", "job-a-worker-1", "job-a-worker-2",
        ]
        # Update in place: shrink to 2 workers.
        update_nodelist(api, job, workers[:2])
        assert read_nodelist(api, job) == ["job-a-worker-0", "job-a-worker-1"]
        assert api.object_count("ConfigMap") == 1

    def test_read_missing_nodelist(self, engine):
        api = ApiServer(engine)
        assert read_nodelist(api, make_job()) == []

    def test_nodelist_name(self):
        assert nodelist_name(make_job()) == "job-a-nodelist"
