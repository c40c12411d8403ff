"""Shrink/expand orchestration against a running application (§3.1).

The paper's pod-level protocol, reproduced step for step:

To **shrink** a running job:
  1. send the shrink signal to the Charm++ application (CCS);
  2. after the application acknowledges, remove the extra pods.

To **expand** a job:
  1. add new pods to the job (done by the controller's reconcile);
  2. update the nodelist file to include the new pods;
  3. send the expand signal to the application.
"""

from __future__ import annotations

from typing import Optional

from ..errors import CcsError
from ..k8s import KubeCluster
from .apprunner import CharmAppRunner, host_binding_for
from .launcher import sort_workers, worker_selector
from .nodelist import update_nodelist
from .types import CharmJob

__all__ = ["RescaleCoordinator"]

#: Give up on an unacknowledged rescale after this long (virtual seconds).
DEFAULT_ACK_TIMEOUT = 120.0

#: Poll interval while waiting for expansion pods to run.
EXPAND_POLL_INTERVAL = 0.5


class RescaleCoordinator:
    """Drives pod-level rescale protocols for one operator instance."""

    def __init__(self, engine, cluster: KubeCluster,
                 ack_timeout: float = DEFAULT_ACK_TIMEOUT, tracer=None):
        self.engine = engine
        self.cluster = cluster
        self.ack_timeout = float(ack_timeout)
        self.tracer = tracer
        self.shrink_count = 0
        self.expand_count = 0
        self.failed_count = 0

    # ------------------------------------------------------------------

    def shrink(self, job: CharmJob, runner: CharmAppRunner, desired: int,
               on_done=None) -> None:
        """Start the shrink protocol (asynchronous)."""
        self._mark_in_progress(job, True)
        self.engine.process(
            self._shrink(job, runner, desired, on_done), name=f"shrink-{job.name}"
        )

    def expand(self, job: CharmJob, runner: CharmAppRunner, desired: int,
               on_done=None) -> None:
        """Start the expand protocol (asynchronous).

        The controller must already have created the new worker pods.
        """
        self._mark_in_progress(job, True)
        self.engine.process(
            self._expand(job, runner, desired, on_done), name=f"expand-{job.name}"
        )

    # ------------------------------------------------------------------

    def _shrink(self, job: CharmJob, runner: CharmAppRunner, desired: int, on_done):
        workers = self._workers(job)
        survivors = [p for p in workers if p.spec.replica_index < desired]
        victims = [p for p in workers if p.spec.replica_index >= desired]
        hosts = [host_binding_for(p) for p in survivors]
        try:
            reply = yield runner.ccs_client().request(
                "rescale", {"target": desired, "hosts": hosts},
                timeout=self.ack_timeout,
            )
        except CcsError as err:
            yield from self._abort(job, runner, f"shrink declined: {err}")
            if on_done is not None:
                on_done(False)
            return
        # Ack received: only now remove the extra pods (§3.1).
        for pod in victims:
            if self.cluster.api.exists("Pod", pod.name, pod.namespace):
                self.cluster.api.delete(pod)
        update_nodelist(self.cluster.api, job, survivors)
        self._finish(job, reply["replicas"], "shrink")
        self.shrink_count += 1
        if on_done is not None:
            on_done(True)

    def _expand(self, job: CharmJob, runner: CharmAppRunner, desired: int, on_done):
        # Step 2 of §3.1: wait for the new pods, then publish the nodelist.
        waited = 0.0
        while True:
            running = runner.running_workers()
            if len(running) >= desired:
                break
            if waited >= self.ack_timeout:
                yield from self._abort(
                    job, runner,
                    f"expand to {desired} timed out waiting for pods "
                    f"({len(running)} running)",
                )
                if on_done is not None:
                    on_done(False)
                return
            yield EXPAND_POLL_INTERVAL
            waited += EXPAND_POLL_INTERVAL
        workers = sort_workers(running)[:desired]
        update_nodelist(self.cluster.api, job, workers)
        hosts = [host_binding_for(p) for p in workers]
        try:
            reply = yield runner.ccs_client().request(
                "rescale", {"target": desired, "hosts": hosts},
                timeout=self.ack_timeout,
            )
        except CcsError as err:
            yield from self._abort(job, runner, f"expand declined: {err}")
            if on_done is not None:
                on_done(False)
            return
        self._finish(job, reply["replicas"], "expand")
        self.expand_count += 1
        if on_done is not None:
            on_done(True)

    # ------------------------------------------------------------------

    def _workers(self, job: CharmJob):
        pods = self.cluster.api.list(
            "Pod", namespace=job.namespace, selector=worker_selector(job)
        )
        return sort_workers([p for p in pods if not p.terminating])

    def _finish(self, job: CharmJob, replicas: int, kind: str) -> None:
        def mutate(j: CharmJob) -> None:
            j.status.replicas = replicas
            j.status.rescale_in_progress = False
            j.status.rescale_count += 1
            j.status.message = ""

        self.cluster.api.patch(job, mutate)
        if self.tracer is not None:
            self.tracer.emit(f"operator.rescale.{kind}", job.name, replicas=replicas)

    def _abort(self, job: CharmJob, runner: CharmAppRunner, reason: str):
        """Reconcile spec back to reality after a failed rescale."""
        self.failed_count += 1
        actual = runner.rts.num_pes if runner.rts is not None else None

        def mutate(j: CharmJob) -> None:
            j.status.rescale_in_progress = False
            j.status.message = reason
            if actual is not None:
                j.spec.replicas = actual
                j.status.replicas = actual

        self.cluster.api.patch(job, mutate)
        if self.tracer is not None:
            self.tracer.emit("operator.rescale.failed", job.name, reason=reason)
        return
        yield  # pragma: no cover - keeps this a generator for uniform use

    def _mark_in_progress(self, job: CharmJob, value: bool) -> None:
        self.cluster.api.patch(
            job, lambda j: setattr(j.status, "rescale_in_progress", value)
        )
