"""Cluster wiring: nodes + API server + scheduler + kubelets in one object.

:class:`KubeCluster` is the top-level substrate handle the operator and the
experiments build on.  :func:`make_eks_cluster` reproduces the paper's
testbed (4 × c6g.4xlarge = 64 vCPUs).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim import Engine, Tracer
from .apiserver import ApiServer
from .crd import CrdRegistry
from .kubelet import Kubelet
from .node import C6G_4XLARGE, Node, make_eks_nodes
from .pod import Pod, PodPhase
from .quantity import Resources
from .scheduler import KubeScheduler

__all__ = ["KubeCluster", "make_eks_cluster"]


class KubeCluster:
    """A fully wired simulated Kubernetes cluster."""

    def __init__(
        self,
        engine: Engine,
        nodes: List[Node],
        bind_latency: float = 0.01,
        pod_start_latency: float = 2.0,
        pod_stop_latency: float = 1.0,
        tracer: Optional[Tracer] = None,
    ):
        self.engine = engine
        self.tracer = tracer
        self.api = ApiServer(engine, tracer=tracer)
        self.crds = CrdRegistry(self.api)
        self.nodes: Dict[str, Node] = {}
        for node in nodes:
            self.nodes[node.name] = node
            self.api.create(node)
        self.scheduler = KubeScheduler(
            engine, self.api, nodes, bind_latency=bind_latency, tracer=tracer
        )
        self.kubelets: Dict[str, Kubelet] = {
            node.name: Kubelet(
                engine,
                self.api,
                node,
                self.scheduler,
                start_latency=pod_start_latency,
                stop_latency=pod_stop_latency,
                tracer=tracer,
            )
            for node in nodes
        }

    def close(self) -> None:
        """Stop the kube-scheduler's and the kubelets' watches.

        The watch handlers are the edges from the API server back to the
        cluster's controllers; once they are gone (and every other
        subscriber stopped its watches), reference counting frees a
        finished run without the cyclic collector.
        """
        self.scheduler.stop()
        for kubelet in self.kubelets.values():
            kubelet.stop()

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------

    @property
    def total_cpus(self) -> float:
        return sum(n.allocatable.cpu for n in self.nodes.values())

    @property
    def allocated_cpus(self) -> float:
        return sum(n.allocated.cpu for n in self.nodes.values())

    @property
    def free_cpus(self) -> float:
        return self.total_cpus - self.allocated_cpus

    def cpu_utilization(self) -> float:
        """Requested/allocatable CPU across the cluster (0..1)."""
        total = self.total_cpus
        return (self.allocated_cpus / total) if total else 0.0

    # ------------------------------------------------------------------
    # Pod helpers
    # ------------------------------------------------------------------

    def pods(self, namespace: Optional[str] = None, phase: Optional[PodPhase] = None):
        pods = self.api.list("Pod", namespace=namespace)
        if phase is not None:
            pods = [p for p in pods if p.phase == phase]
        return pods

    def kubelet_for(self, pod: Pod) -> Kubelet:
        if pod.node_name is None:
            raise ValueError(f"pod {pod.name} is not bound")
        return self.kubelets[pod.node_name]

    def complete_pod(self, pod: Pod, succeeded: bool = True) -> None:
        """Mark a running pod's workload as finished (releases resources)."""
        self.kubelet_for(pod).complete_pod(pod, succeeded=succeeded)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------

    def fail_pod(self, pod: Pod) -> None:
        """Kill one running pod (its workload did not succeed)."""
        self.kubelet_for(pod).complete_pod(pod, succeeded=False)

    def fail_node(self, name: str) -> int:
        """Simulate a node failure: cordon it and kill every pod on it.

        Returns the number of pods killed.  "Node failures are not an
        uncommon occurrence in cloud environments" (§3.2.2).
        """
        node = self.nodes[name]
        node.unschedulable = True
        killed = 0
        for key in sorted(node.pod_keys):
            pod = self.api.try_get("Pod", key[2], namespace=key[1])
            if pod is not None and not pod.is_finished:
                self.fail_pod(pod)
                killed += 1
        return killed

    def uncordon_node(self, name: str) -> None:
        """Bring a failed/cordoned node back into scheduling."""
        self.nodes[name].unschedulable = False
        self.scheduler._kick()


def make_eks_cluster(
    engine: Engine,
    node_count: int = 4,
    instance: Resources = C6G_4XLARGE,
    tracer: Optional[Tracer] = None,
    **kwargs,
) -> KubeCluster:
    """The paper's evaluation cluster: ``node_count`` c6g.4xlarge nodes."""
    nodes = make_eks_nodes(count=node_count, instance=instance)
    return KubeCluster(engine, nodes, tracer=tracer, **kwargs)
