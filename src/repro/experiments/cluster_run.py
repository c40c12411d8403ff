"""The full Kubernetes-path experiment runner (§4.3.2).

Runs a workload through the *entire* stack — API server, kube-scheduler,
kubelets, the MPI operator, CCS-driven rescale protocols, and the elastic
scheduling controller — on the paper's 4-node/64-vCPU EKS topology.  This
is what produces the "Actual" column of Table 1 and the Figure 9 profiles;
the difference from :mod:`repro.schedsim` is exactly the overhead the
paper's simulator ignores (pod startup, reconcile latency, protocol
sequencing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..apps import make_app_factory
from ..k8s import make_eks_cluster
from ..mpioperator import AppSpec, CharmJob, CharmJobController, CharmJobSpec, WorkerSpec
from ..scheduling import ReplicaTimeline, SchedulerMetrics
from ..scheduling.registry import REGISTRY
from ..scheduling.controller import ElasticSchedulerController
from ..schedsim import Submission
from ..sim import Engine

__all__ = ["ClusterRunResult", "run_cluster_experiment"]

#: The paper's xlarge jobs run 64 workers on a 64-vCPU cluster, so launcher
#: pods cannot hold a full CPU request — they must be BestEffort (zero
#: request), and the policy reserves no launcher slot.  (The Fig-2
#: ``freeSlots - 1`` reservation remains available via
#: ``PolicyConfig.launcher_slots`` for studying slot-reserved launchers.)
K8S_LAUNCHER_SLOTS = 0
LAUNCHER_CPU = 0.0


@dataclass
class ClusterRunResult:
    """Outcome of one full-stack run."""

    policy: str
    metrics: SchedulerMetrics
    timelines: Dict[str, ReplicaTimeline]
    job_priorities: Dict[str, int]
    job_sizes: Dict[str, str]
    makespan_end: float
    total_slots: int
    rescale_counts: Dict[str, int] = field(default_factory=dict)

    def utilization_profile(self, samples: int = 200) -> List[Tuple[float, float]]:
        """(time, cluster utilization) samples — Figure 9a's data."""
        end = self.makespan_end or 1.0
        out = []
        for k in range(samples + 1):
            t = end * k / samples
            busy = sum(tl.value_at(t) for tl in self.timelines.values())
            out.append((t, busy / self.total_slots))
        return out

    def per_job_profile(self, samples: int = 200) -> Dict[str, List[Tuple[float, float]]]:
        """Per-job replica series (the stacked colors of Figure 9a)."""
        end = self.makespan_end or 1.0
        return {
            name: [(end * k / samples, tl.value_at(end * k / samples))
                   for k in range(samples + 1)]
            for name, tl in self.timelines.items()
        }

    def replica_series(self, name: str) -> List[Tuple[float, int]]:
        """A job's replica change-points — Figure 9b's data."""
        return list(self.timelines[name].samples)

    def most_rescaled_job(self, size: Optional[str] = None) -> str:
        """The job with the most rescale events (optionally of one size)."""
        candidates = {
            name: count
            for name, count in self.rescale_counts.items()
            if size is None or self.job_sizes.get(name) == size
        }
        if not candidates:
            raise ValueError(f"no jobs of size {size!r} in this run")
        return max(sorted(candidates), key=lambda n: candidates[n])


def _charm_job(sub: Submission, sync_every: int) -> CharmJob:
    spec = CharmJobSpec(
        min_replicas=sub.request.min_replicas,
        max_replicas=sub.request.max_replicas,
        priority=sub.request.priority,
        worker=WorkerSpec.parse(cpu="1", memory="1Gi", shm="2Gi"),
        app=AppSpec(
            name="modeled",
            params={"size_class": sub.size.name, "sync_every": sync_every},
        ),
        launcher_cpu=LAUNCHER_CPU,
    )
    return CharmJob(sub.request.name, spec)


def run_cluster_experiment(
    policy_name: str,
    submissions: Sequence[Submission],
    rescale_gap: float = 180.0,
    node_count: int = 4,
    sync_every: int = 10,
    horizon: float = 100_000.0,
    tracer=None,
) -> ClusterRunResult:
    """Run ``submissions`` through the full stack under one policy."""
    engine = Engine()
    cluster = make_eks_cluster(engine, node_count=node_count, tracer=tracer)
    operator = CharmJobController(
        engine, cluster, app_factory=make_app_factory(), tracer=tracer
    )
    policy = REGISTRY.resolve(
        policy_name, rescale_gap=rescale_gap, launcher_slots=K8S_LAUNCHER_SLOTS
    )
    scheduler = ElasticSchedulerController(
        engine, cluster, operator, config=policy, tracer=tracer
    )
    jobs = []
    for sub in submissions:
        job = _charm_job(sub, sync_every)
        jobs.append(job)
        engine.schedule_at(sub.time, scheduler.submit, job)
    engine.run(until=horizon)
    if not scheduler.all_done:
        unfinished = [j.name for j in jobs if not j.is_finished]
        raise RuntimeError(
            f"cluster experiment hit the {horizon}s horizon with unfinished "
            f"jobs: {unfinished}"
        )
    metrics = scheduler.metrics(policy_name)
    # Stopping every watch frees the run by reference counting.
    scheduler.stop()
    operator.stop()
    cluster.close()
    return ClusterRunResult(
        policy=policy_name,
        metrics=metrics,
        timelines={o.name: o.timeline for o in scheduler.outcomes},
        job_priorities={o.name: o.priority for o in scheduler.outcomes},
        job_sizes={o.name: o.size_class for o in scheduler.outcomes},
        makespan_end=max(o.completion_time for o in scheduler.outcomes),
        total_slots=scheduler.total_slots,
        rescale_counts={o.name: o.rescale_count for o in scheduler.outcomes},
    )
