"""The CharmJob operator controller (§3.1).

Extends the Kubeflow-style MPI operator pattern: reconciles CharmJob
resources into a launcher pod, worker replica pods, and a nodelist
ConfigMap; starts the launcher runtime; and, when the desired replica
count diverges from reality while the application is running, drives the
shrink/expand protocol through :class:`RescaleCoordinator`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..charm.commlayer import MPI_LAYER, CommLayer
from ..k8s import Controller, KubeCluster
from .apprunner import CharmAppRunner
from .launcher import (
    build_launcher_pod,
    build_worker_pod,
    job_name_selector,
    launcher_pod_name,
    sort_workers,
    worker_selector,
)
from .nodelist import nodelist_name, update_nodelist
from .types import CHARMJOB_CRD, CharmJob, JobPhase

__all__ = ["CharmJobController"]


class CharmJobController(Controller):
    """Reconciles CharmJobs on a :class:`KubeCluster`."""

    watch_kind = "CharmJob"

    def __init__(
        self,
        engine,
        cluster: KubeCluster,
        app_factory: Callable[[CharmJob], object],
        commlayer: CommLayer = MPI_LAYER,
        ack_timeout: float = 120.0,
        restart_failed_jobs: bool = False,
        max_restarts: int = 3,
        tracer=None,
        **kwargs,
    ):
        self.cluster = cluster
        self.app_factory = app_factory
        self.commlayer = commlayer
        #: §3.2.2 fault-tolerance extension: relaunch failed jobs (the
        #: application restores from its disk checkpoint if the factory
        #: wires an ft_store through).
        self.restart_failed_jobs = restart_failed_jobs
        self.max_restarts = int(max_restarts)
        self.runners: Dict[tuple, CharmAppRunner] = {}
        super().__init__(engine, cluster.api, tracer=tracer, **kwargs)
        from .rescaler import RescaleCoordinator

        self.rescaler = RescaleCoordinator(
            engine, cluster, ack_timeout=ack_timeout, tracer=tracer
        )
        if "CharmJob" not in cluster.crds.registered_kinds():
            cluster.crds.register(CHARMJOB_CRD)
        # Pod changes (starts, deletions) must re-trigger the owning job.
        self._pod_watch = cluster.api.watch(self._on_pod_event, kind="Pod",
                                            namespace=None)

    # ------------------------------------------------------------------
    # Submission helper (what `kubectl create -f job.yaml` does)
    # ------------------------------------------------------------------

    def submit(self, job: CharmJob) -> CharmJob:
        """Validate and store a new CharmJob; records its submit time."""
        job.status.submit_time = self.engine.now
        return self.cluster.crds.create_custom(job)

    # ------------------------------------------------------------------

    def _on_pod_event(self, event) -> None:
        owner = event.object.meta.owner
        if owner is not None and owner.kind == "CharmJob":
            self.enqueue(("CharmJob", event.object.namespace, owner.name))

    def reconcile(self, key: tuple) -> None:
        _, namespace, name = key
        job: Optional[CharmJob] = self.api.try_get("CharmJob", name, namespace)
        if job is None:
            self._delete_owned_pods(namespace, name)
            return
        if job.status.phase == JobPhase.FAILED and self.restart_failed_jobs:
            self._maybe_restart(job)
            return
        if job.is_finished:
            self._teardown(job)
            return
        if job.spec.suspend:
            # Queued by the elastic scheduler: hold all pod creation.
            return
        desired = job.spec.desired_replicas
        self._ensure_launcher(job)
        workers = self._worker_pods(job)
        existing = {p.spec.replica_index for p in workers}
        runner = self.runners.get(job.key)
        app_running = runner is not None and runner.rts is not None

        # Create missing worker pods for indices [0, desired).  On expand
        # this is step 1 of the §3.1 protocol.
        for index in range(desired):
            if index not in existing:
                self.api.create(build_worker_pod(job, index))
        if not app_running and job.status.phase == JobPhase.PENDING:
            self.api.patch(
                job, lambda j: setattr(j.status, "phase", JobPhase.LAUNCHING)
            )

        if not app_running:
            # Before the application starts, pods can be resized freely.
            for pod in workers:
                if pod.spec.replica_index >= desired:
                    self.api.delete(pod)
            current = sort_workers(
                [p for p in self._worker_pods(job) if p.spec.replica_index < desired]
            )
            update_nodelist(self.api, job, current)
        if runner is None:
            runner = CharmAppRunner(
                self.engine, self.cluster, job, self.app_factory,
                commlayer=self.commlayer, tracer=self.tracer,
            )
            self.runners[job.key] = runner
            runner.start()
            return

        # Application is live: divergence between the runtime's PE count and
        # the desired replicas triggers the rescale protocols.
        if app_running and not job.status.rescale_in_progress:
            actual = runner.rts.num_pes
            if desired < actual:
                self.rescaler.shrink(job, runner, desired)
            elif desired > actual:
                self.rescaler.expand(job, runner, desired)
            else:
                # Converged; reap surplus pods left by an aborted expansion.
                for pod in workers:
                    if pod.spec.replica_index >= desired:
                        self.api.delete(pod)

    # ------------------------------------------------------------------

    def _maybe_restart(self, job: CharmJob) -> None:
        """Relaunch a failed job, restoring from its disk checkpoint.

        The paper (§3.2.2): "The operator can be modified to launch with
        the extra restart parameter when a job restarts after a failure,
        which would start the application from the checkpoint if
        checkpoint data is found."
        """
        restarts = int(job.meta.annotations.get("repro.dev/restart-count", "0"))
        if restarts >= self.max_restarts:
            self._teardown(job)
            return
        self._teardown(job)  # clear the dead pods (graceful; reconciles back)
        self.runners.pop(job.key, None)

        def mutate(j: CharmJob) -> None:
            j.meta.annotations["repro.dev/restart-count"] = str(restarts + 1)
            j.status.phase = JobPhase.PENDING
            j.status.message = f"restarting after failure (attempt {restarts + 1})"
            j.status.replicas = 0
            j.status.start_time = None
            j.status.completion_time = None
            j.status.rescale_in_progress = False

        self.api.patch(job, mutate)
        if self.tracer is not None:
            self.tracer.emit("operator.job.restart", job.name, attempt=restarts + 1)

    def _ensure_launcher(self, job: CharmJob) -> None:
        if not self.api.exists("Pod", launcher_pod_name(job), job.namespace):
            self.api.create(build_launcher_pod(job))

    def _worker_pods(self, job: CharmJob):
        pods = self.api.list(
            "Pod", namespace=job.namespace, selector=worker_selector(job)
        )
        return sort_workers([p for p in pods if not p.terminating])

    def _teardown(self, job: CharmJob) -> None:
        """Remove every pod owned by a finished job (keep the job object)."""
        self._delete_owned_pods(job.namespace, job.name)
        cm = self.api.try_get("ConfigMap", nodelist_name(job), job.namespace)
        if cm is not None:
            self.api.delete(cm)

    def _delete_owned_pods(self, namespace: str, name: str) -> None:
        """Delete the live pods owned by the CharmJob ``name``, which may
        itself be gone already.

        Every pod the operator creates carries the job-name label, so the
        label index finds them; the owner reference stays the filter.
        """
        for pod in self.api.list("Pod", namespace=namespace,
                                 selector=job_name_selector(name)):
            owner = pod.meta.owner
            if owner is not None and owner.kind == "CharmJob" and owner.name == name:
                if not pod.terminating:
                    self.api.delete(pod)

    # ------------------------------------------------------------------

    def runner_for(self, job: CharmJob) -> Optional[CharmAppRunner]:
        return self.runners.get(job.key)

    def stop(self) -> None:
        super().stop()
        self._pod_watch.stop()
