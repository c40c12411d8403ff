"""Pod templates for CharmJobs: one launcher plus N worker replicas.

Mirrors the Kubeflow MPI operator layout (§2.3): the launcher pod runs
``mpirun`` (modelled by :class:`~repro.mpioperator.apprunner.CharmAppRunner`)
and worker pods each run one PE.  Worker pods carry the §3.1 additions:
a memory-backed emptyDir mounted at /dev/shm and pod affinity to the job's
other pods for locality-aware placement.  Each worker pod also carries its
replica index, as Kubeflow's ``training.kubeflow.org/replica-index`` label
and as the int ``spec.replica_index`` the operator reads, so nothing
parses pod names.
"""

from __future__ import annotations

from typing import List

from ..k8s import (
    EmptyDirVolume,
    LabelSelector,
    Pod,
    PodAffinityTerm,
    PodSpec,
    Resources,
)
from .types import CharmJob

__all__ = [
    "launcher_pod_name",
    "worker_pod_name",
    "worker_index",
    "build_launcher_pod",
    "build_worker_pod",
    "job_selector",
    "job_name_selector",
    "worker_selector",
]


def launcher_pod_name(job: CharmJob) -> str:
    return f"{job.name}-launcher"


def worker_pod_name(job: CharmJob, index: int) -> str:
    return f"{job.name}-worker-{index}"


def worker_index(pod_name: str) -> int:
    """Parse the replica index out of a worker pod name."""
    return int(pod_name.rsplit("-", 1)[1])


def job_selector(job: CharmJob) -> LabelSelector:
    return job_name_selector(job.name)


def job_name_selector(name: str) -> LabelSelector:
    """Every pod of the CharmJob called ``name``: launcher and workers."""
    return LabelSelector.of(**{"training.kubeflow.org/job-name": name})


def worker_selector(job: CharmJob) -> LabelSelector:
    return LabelSelector.of(
        **{
            "training.kubeflow.org/job-name": job.name,
            "training.kubeflow.org/job-role": "worker",
        }
    )


def _labels(job: CharmJob, role: str) -> dict:
    return {
        "app": "charmjob",
        "training.kubeflow.org/job-name": job.name,
        "training.kubeflow.org/job-role": role,
    }


def _affinity(job: CharmJob) -> PodAffinityTerm:
    # Prefer nodes already hosting this job's pods (§3.1 locality placement).
    return PodAffinityTerm(selector=job_selector(job))


def build_launcher_pod(job: CharmJob) -> Pod:
    """The mpirun/launcher pod; consumes ``launcher_cpu`` of a node."""
    spec = PodSpec(
        request=Resources(cpu=job.spec.launcher_cpu, memory=256 * 1024**2),
        affinity=_affinity(job),
        role="launcher",
    )
    pod = Pod(launcher_pod_name(job), spec, namespace=job.namespace,
              labels=_labels(job, "launcher"))
    pod.owned_by(job)
    return pod


def build_worker_pod(job: CharmJob, index: int) -> Pod:
    """Worker replica ``index``: one PE, one slot, /dev/shm mount."""
    shm = EmptyDirVolume.memory("shm", "/dev/shm", job.spec.worker.shm_bytes)
    spec = PodSpec(
        request=Resources(cpu=job.spec.worker.cpu, memory=job.spec.worker.memory_bytes),
        affinity=_affinity(job),
        volumes=[shm],
        role="worker",
        replica_index=index,
    )
    labels = _labels(job, "worker")
    labels["training.kubeflow.org/replica-index"] = str(index)
    pod = Pod(worker_pod_name(job, index), spec, namespace=job.namespace,
              labels=labels)
    pod.owned_by(job)
    return pod


def sort_workers(pods: List[Pod]) -> List[Pod]:
    """Workers ordered by replica index (stable PE numbering)."""
    return sorted(pods, key=lambda p: p.spec.replica_index)
