"""The launcher-pod runtime: runs a CharmJob's application.

Models what ``mpirun`` inside the launcher pod does: wait until every
worker replica is running, boot a Charm++ runtime with one PE per worker
pod, attach the CCS endpoint, and drive the application to completion.
Completion flips the job's phase to ``Completed``; the controller then
tears the pods down.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..charm import CcsClient, CcsServer, CharmRuntime
from ..charm.commlayer import MPI_LAYER, CommLayer
from ..charm.pe import HostBinding
from ..k8s import KubeCluster, Pod, PodPhase
from .launcher import sort_workers, worker_selector
from .types import CharmJob, JobPhase

__all__ = ["CharmAppRunner", "host_binding_for"]

#: How often the runner re-checks pod readiness while waiting (seconds).
READY_POLL_INTERVAL = 0.5


def host_binding_for(pod: Pod) -> HostBinding:
    """PE host binding for a running worker pod."""
    return HostBinding(
        pod_name=pod.name,
        node_name=pod.node_name or "unknown",
        shm_bytes=pod.shm_bytes(),
    )


class CharmAppRunner:
    """Runs one CharmJob's application inside the simulation.

    Parameters
    ----------
    app_factory:
        ``app_factory(job) -> CharmApplication`` resolving the job's
        :class:`~repro.mpioperator.types.AppSpec`.
    """

    def __init__(
        self,
        engine,
        cluster: KubeCluster,
        job: CharmJob,
        app_factory: Callable[[CharmJob], object],
        commlayer: CommLayer = MPI_LAYER,
        tracer=None,
    ):
        self.engine = engine
        self.cluster = cluster
        self.job = job
        self.app_factory = app_factory
        self.commlayer = commlayer
        self.tracer = tracer
        self.ccs = CcsServer(engine, tracer=tracer)
        self.app = None
        self.rts: Optional[CharmRuntime] = None
        self.process = None
        self.failed: Optional[str] = None
        self._pod_watch = cluster.api.watch(
            self._on_pod_event, kind="Pod", namespace=None, replay=False
        )

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin the launcher process (idempotent)."""
        if self.process is None:
            self.process = self.engine.process(self._run(), name=f"runner-{self.job.name}")

    def _on_pod_event(self, event) -> None:
        """Detect the death of a worker pod the application depends on.

        HPC applications "cannot continue execution if one of the nodes is
        killed" (§1): losing a pod that currently hosts a PE aborts the
        run.  Pods removed by a *shrink* are deleted only after the
        application acknowledged the rescale, so by then they no longer
        host PEs and are ignored here.
        """
        if self.rts is None or self.failed is not None or self.job.is_finished:
            return
        pod = event.object
        from ..k8s import EventType, PodPhase

        died = (
            event.type == EventType.DELETED
            or pod.phase == PodPhase.FAILED
            or pod.terminating
        )
        if not died:
            return
        current_hosts = {pe.host.pod_name for pe in self.rts.pes}
        if pod.name in current_hosts:
            self._abort(f"worker pod {pod.name} died (node failure)")

    def _abort(self, reason: str) -> None:
        self.failed = reason
        if self.process is not None and not self.process.triggered:
            self.process.interrupt(reason)
        if self.rts is not None:
            self.rts.shutdown()
        self._set_phase(JobPhase.FAILED, message=reason)
        if self.tracer is not None:
            self.tracer.emit("operator.app.failed", self.job.name, reason=reason)

    def ccs_client(self) -> CcsClient:
        return CcsClient(self.engine, self.ccs)

    def running_workers(self) -> List[Pod]:
        pods = self.cluster.api.list(
            "Pod", namespace=self.job.namespace, selector=worker_selector(self.job)
        )
        return sort_workers(
            [p for p in pods if p.is_running and not p.terminating]
        )

    # ------------------------------------------------------------------

    def _run(self):
        # Wait for the initial worker set to be running.  The desired count
        # is re-read every poll: the scheduler may re-size a job while it is
        # still launching (moldable behaviour).
        while True:
            desired = self.job.spec.desired_replicas
            workers = self.running_workers()
            if len(workers) >= desired:
                workers = workers[:desired]
                break
            yield READY_POLL_INTERVAL
        hosts = [host_binding_for(p) for p in workers]
        self.rts = CharmRuntime(
            self.engine,
            num_pes=len(hosts),
            commlayer=self.commlayer,
            hosts=hosts,
            tracer=self.tracer,
        )
        self.app = self.app_factory(self.job)
        self.app.attach_ccs(self.ccs)
        self._set_phase(JobPhase.RUNNING, start=True)
        if self.tracer is not None:
            self.tracer.emit(
                "operator.app.start", self.job.name, replicas=len(hosts)
            )
        try:
            yield from self.app.main(self.rts)
        except Exception as err:  # noqa: BLE001 - job failure isolation
            # Application crash: the job fails but the operator (and the
            # rest of the cluster) keeps running, as in Kubernetes.
            self.failed = repr(err)
            self._set_phase(JobPhase.FAILED, message=self.failed)
            self.rts.shutdown()
            return
        finally:
            # A completed, crashed or aborted app depends on no pod.
            self._pod_watch.stop()
        self.rts.shutdown()
        self._set_phase(JobPhase.COMPLETED)
        if self.tracer is not None:
            self.tracer.emit(
                "operator.app.complete", self.job.name,
                steps=self.app.completed_steps, rescales=len(self.app.rescale_reports),
            )

    def _set_phase(self, phase: JobPhase, start: bool = False, message: str = "") -> None:
        if not self.cluster.api.exists("CharmJob", self.job.name, self.job.namespace):
            return  # the job was deleted out from under us

        def mutate(job: CharmJob) -> None:
            job.status.phase = phase
            job.status.message = message
            if start:
                job.status.start_time = self.engine.now
                job.status.replicas = self.rts.num_pes if self.rts else 0
            if phase in (JobPhase.COMPLETED, JobPhase.FAILED):
                job.status.completion_time = self.engine.now

        self.cluster.api.patch(self.job, mutate)
