"""The elastic scheduler as a Kubernetes controller (§3.2: "integrated
into the operator").

Bridges the pure :class:`ElasticPolicyEngine` onto the cluster: CharmJob
submissions are scheduled on arrival, completions redistribute freed slots,
and decisions are applied by patching job specs — which the MPI operator's
reconcile loop then turns into pod creations and CCS-driven rescales.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import SchedulingError
from ..k8s import KubeCluster
from ..mpioperator import CharmJob, CharmJobController, JobPhase
from .elastic import ElasticPolicyEngine
from .job import JobRequest, JobState
from .metrics import JobOutcome, ReplicaTimeline, SchedulerMetrics, compute_metrics
from .policy import (
    Decision,
    EnqueueJob,
    ExpandJob,
    PolicyConfig,
    ShrinkJob,
    StartJob,
)

__all__ = ["ElasticSchedulerController"]


class ElasticSchedulerController:
    """Schedules CharmJobs on a cluster with the Figure-2/3 policy."""

    def __init__(
        self,
        engine,
        cluster: KubeCluster,
        operator: CharmJobController,
        config: Optional[PolicyConfig] = None,
        total_slots: Optional[int] = None,
        tracer=None,
    ):
        slots = int(cluster.total_cpus) if total_slots is None else int(total_slots)
        # The engine refuses a config that is not a PolicyConfig.
        self.policy = ElasticPolicyEngine(slots, config)
        config = self.policy.config
        if config.preempt:
            # The operator can rescale a job but not checkpoint its pods
            # to disk, so a PreemptJob would have nowhere to go.
            raise SchedulingError(
                f"policy {config.name!r} preempts jobs, which the "
                "Kubernetes path cannot checkpoint to disk"
            )
        self.engine = engine
        self.cluster = cluster
        self.operator = operator
        self.tracer = tracer
        self.total_slots = slots
        self._charm_jobs: Dict[str, CharmJob] = {}
        self._timelines: Dict[str, ReplicaTimeline] = {}
        self._observed_replicas: Dict[str, int] = {}
        self._completed: set = set()
        self.outcomes: List[JobOutcome] = []
        self._watch = cluster.api.watch(self._on_event, kind="CharmJob", namespace=None)

    # ------------------------------------------------------------------
    # Submission path
    # ------------------------------------------------------------------

    def submit(self, job: CharmJob) -> CharmJob:
        """Submit a job *through the scheduler* (suspended until placed)."""
        job.spec.suspend = True
        job.spec.replicas = None
        return self.operator.submit(job)

    # ------------------------------------------------------------------
    # Watch plumbing
    # ------------------------------------------------------------------

    def _on_event(self, event) -> None:
        job: CharmJob = event.object
        name = job.name
        if name not in self._charm_jobs and not job.is_finished:
            self._charm_jobs[name] = job
            self._timelines[name] = ReplicaTimeline()
            self._observed_replicas[name] = 0
            request = JobRequest(
                name=name,
                min_replicas=job.spec.min_replicas,
                max_replicas=job.spec.max_replicas,
                priority=job.spec.priority,
                size_class=job.spec.app.params.get("size_class"),
                params=dict(job.spec.app.params),
            )
            decisions = self.policy.on_submit(request, self.engine.now)
            self._apply(decisions)
            return
        if name not in self._charm_jobs:
            return
        # Track observed replica changes for the utilization timeline.
        observed = job.status.replicas if not job.is_finished else 0
        if observed != self._observed_replicas[name]:
            self._observed_replicas[name] = observed
            self._timelines[name].record(self.engine.now, observed)
        # Completion: run Figure 3 once.
        if job.status.phase == JobPhase.COMPLETED and name not in self._completed:
            self._completed.add(name)
            self._timelines[name].record(self.engine.now, 0)
            decisions = self.policy.on_complete(name, self.engine.now)
            self._record_outcome(job)
            self._apply(decisions)
            return
        if job.status.phase == JobPhase.FAILED and name not in self._completed:
            self._completed.add(name)
            self._timelines[name].record(self.engine.now, 0)
            self.policy.on_complete(name, self.engine.now)
            return
        # Failed-rescale reconciliation: the operator reverted the spec.
        self._maybe_resync(job)

    def _maybe_resync(self, job: CharmJob) -> None:
        name = job.name
        if name in self._completed or job.status.rescale_in_progress:
            return
        try:
            record = self.policy.job(name)
        except Exception:  # noqa: BLE001 - job unknown to the policy yet
            return
        if record.state != JobState.RUNNING:
            return
        spec_replicas = job.spec.replicas
        if (
            spec_replicas is not None
            and job.status.message
            and record.replicas != spec_replicas
        ):
            self.policy.on_rescale_failed(name, spec_replicas)
            if self.tracer is not None:
                self.tracer.emit(
                    "scheduler.resync", name, replicas=spec_replicas,
                    reason=job.status.message,
                )

    # ------------------------------------------------------------------
    # Decision application
    # ------------------------------------------------------------------

    def _apply(self, decisions: List[Decision]) -> None:
        for decision in decisions:
            job = self._charm_jobs[decision.job.name]
            if isinstance(decision, StartJob):
                self._patch_start(job, decision.replicas)
            elif isinstance(decision, (ShrinkJob, ExpandJob)):
                self._patch_replicas(job, decision.to_replicas)
            elif isinstance(decision, EnqueueJob):
                if self.tracer is not None:
                    self.tracer.emit("scheduler.enqueue", job.name)
            else:  # pragma: no cover - future decision kinds
                raise TypeError(f"unknown decision {decision!r}")

    def _patch_start(self, job: CharmJob, replicas: int) -> None:
        now = self.engine.now

        def mutate(j: CharmJob) -> None:
            j.spec.suspend = False
            j.spec.replicas = replicas
            j.status.last_action_time = now

        self.cluster.api.patch(job, mutate)
        if self.tracer is not None:
            self.tracer.emit("scheduler.start", job.name, replicas=replicas)

    def _patch_replicas(self, job: CharmJob, replicas: int) -> None:
        now = self.engine.now

        def mutate(j: CharmJob) -> None:
            j.spec.replicas = replicas
            j.status.last_action_time = now

        self.cluster.api.patch(job, mutate)
        if self.tracer is not None:
            self.tracer.emit("scheduler.rescale", job.name, replicas=replicas)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def _record_outcome(self, job: CharmJob) -> None:
        status = job.status
        outcome = JobOutcome(
            name=job.name,
            priority=job.spec.priority,
            submit_time=status.submit_time,
            start_time=status.start_time if status.start_time is not None else status.submit_time,
            completion_time=status.completion_time,
            timeline=self._timelines[job.name],
            size_class=job.spec.app.params.get("size_class"),
            rescale_count=status.rescale_count,
        )
        self.outcomes.append(outcome)

    @property
    def all_done(self) -> bool:
        return len(self._completed) == len(self._charm_jobs) and self._charm_jobs

    def metrics(self, policy_name: Optional[str] = None) -> SchedulerMetrics:
        """Aggregate finished jobs into the paper's four metrics."""
        return compute_metrics(
            policy_name or self.policy.config.name,
            self.outcomes,
            total_slots=self.total_slots,
        )

    def stop(self) -> None:
        self._watch.stop()
