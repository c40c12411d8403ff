"""Kubelets: per-node pod lifecycle agents.

A kubelet watches the pods bound to its node (a node-name field selector)
and drives their phases:

* ``Pending`` (bound) → after ``start_latency`` → ``Running``
  (models container image pull + container start, the pod-startup overhead
  the paper's simulator explicitly ignores but the experimental run pays);
* terminating pods → after ``stop_latency`` → finalized (removed from the
  store; node resources released).

Completion is signalled by the workload layer via
:meth:`Kubelet.complete_pod` (a launcher whose ``mpirun`` exits).
"""

from __future__ import annotations

from typing import Dict, List

from .apiserver import ApiServer
from .node import Node
from .pod import Pod, PodPhase
from .scheduler import KubeScheduler
from .watch import EventType, WatchEvent

__all__ = ["Kubelet"]


class Kubelet:
    """The node agent for one :class:`Node`."""

    def __init__(
        self,
        engine,
        api: ApiServer,
        node: Node,
        scheduler: KubeScheduler,
        start_latency: float = 2.0,
        stop_latency: float = 1.0,
        tracer=None,
    ):
        self.engine = engine
        self.api = api
        self.node = node
        self.scheduler = scheduler
        self.start_latency = float(start_latency)
        self.stop_latency = float(stop_latency)
        self.tracer = tracer
        self._starting: Dict[tuple, object] = {}  # pod key -> Timer
        # Like a real kubelet's ``fieldSelector=spec.nodeName``: only this
        # node's pods are delivered.
        self._watch = api.watch(self._on_event, kind="Pod", namespace=None,
                                node_name=node.name)

    # ------------------------------------------------------------------

    def _on_event(self, event: WatchEvent) -> None:
        pod = event.object
        if event.type == EventType.DELETED:
            self._cancel_start(pod)
            return
        if pod.terminating:
            self._cancel_start(pod)
            self.engine.schedule(self.stop_latency, self._finalize, pod)
            return
        if pod.phase == PodPhase.PENDING and pod.key not in self._starting:
            self._starting[pod.key] = self.engine.schedule(
                self.start_latency, self._start, pod
            )

    def _cancel_start(self, pod: Pod) -> None:
        timer = self._starting.pop(pod.key, None)
        if timer is not None:
            timer.cancel()

    def _start(self, pod: Pod) -> None:
        self._starting.pop(pod.key, None)
        if pod.terminating or pod.phase != PodPhase.PENDING:
            return

        def mutate(p: Pod) -> None:
            p.status.phase = PodPhase.RUNNING
            p.status.start_time = self.engine.now

        self.api.patch(pod, mutate)
        if self.tracer is not None:
            self.tracer.emit("k8s.kubelet.start", f"{pod.namespace}/{pod.name}",
                             node=self.node.name)

    def _finalize(self, pod: Pod) -> None:
        if not self.api.exists("Pod", pod.name, pod.namespace):
            return  # already finalized
        self.scheduler.release(pod)
        self.api.finalize_delete(pod)
        if self.tracer is not None:
            self.tracer.emit("k8s.kubelet.stop", f"{pod.namespace}/{pod.name}",
                             node=self.node.name)

    # ------------------------------------------------------------------

    def complete_pod(self, pod: Pod, succeeded: bool = True) -> None:
        """Mark a running pod's workload finished and release its resources."""
        if pod.node_name != self.node.name:
            raise ValueError(f"pod {pod.name} is not on node {self.node.name}")

        def mutate(p: Pod) -> None:
            p.status.phase = PodPhase.SUCCEEDED if succeeded else PodPhase.FAILED
            p.status.finish_time = self.engine.now

        self.api.patch(pod, mutate)
        self.scheduler.release(pod)

    def running_pods(self) -> List[Pod]:
        pods = [
            self.api.try_get("Pod", key[2], namespace=key[1])
            for key in self.node.pod_keys
        ]
        return sorted(
            (p for p in pods if p is not None and p.is_running),
            key=lambda p: p.meta.uid,
        )

    def stop(self) -> None:
        """Stop watching this node's pods."""
        self._watch.stop()
