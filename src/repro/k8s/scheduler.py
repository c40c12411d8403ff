"""The kube-scheduler: filter, score, bind.

The paper uses the *default* kube-scheduler for pod placement with pod
affinity added by the operator for locality-aware placement (§3.1).  This
implementation reproduces that pipeline:

1. **Filter** — resource fit, node selector, terminating nodes excluded.
2. **Score** — least-allocated spreading (the default scheduler's
   ``LeastAllocated`` strategy) plus soft pod-affinity weight per matching
   co-located pod.  Both read node state that :class:`~repro.k8s.node.Node`
   keeps incrementally as pods bind and release (its free capacity and its
   bound pods' label counts), so scoring reads no pod through the API.
3. **Bind** — reserve node resources and record ``status.node_name``.

One filter-and-score pass over the nodes picks the highest score, with
ties broken by node name.  Pods that fit nowhere stay ``Pending`` and are
retried whenever capacity may have changed (any pod deletion or binding) —
this is load-bearing for the elastic scheduler: worker pods created before
a shrink completes simply wait and bind once slots free up.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import KubeError
from .apiserver import ApiServer
from .node import Node
from .pod import Pod, PodPhase
from .watch import EventType, WatchEvent

__all__ = ["KubeScheduler"]


class KubeScheduler:
    """Deterministic model of the default kube-scheduler.

    Parameters
    ----------
    engine, api:
        The simulation engine and the API server whose pods it places.
    nodes:
        The schedulable nodes; the scheduler binds and releases pods on
        them.
    bind_latency:
        Virtual seconds between dequeuing a pod and completing its binding
        (models scheduling-cycle latency).
    tracer:
        Optional :class:`~repro.sim.Tracer`; each binding emits a
        ``k8s.scheduler.bind`` record.

    A node's score is the least-allocated score (normalised to 0..100) plus
    the pod's affinity weight per matching pod already bound there.
    """

    def __init__(
        self,
        engine,
        api: ApiServer,
        nodes: List[Node],
        bind_latency: float = 0.01,
        tracer=None,
    ):
        self.engine = engine
        self.api = api
        self.nodes = {n.name: n for n in nodes}
        self.bind_latency = float(bind_latency)
        self.tracer = tracer
        self._pending: Dict[tuple, Pod] = {}
        self._sweep_scheduled = False
        self.bind_count = 0
        self._watch = api.watch(self._on_event, kind="Pod", namespace=None)

    # ------------------------------------------------------------------
    # Watch plumbing
    # ------------------------------------------------------------------

    def _on_event(self, event: WatchEvent) -> None:
        pod = event.object
        if event.type == EventType.DELETED:
            self._pending.pop(pod.key, None)
            # Capacity freed: retry anything still pending.
            self._kick()
            return
        if pod.terminating:
            self._pending.pop(pod.key, None)
            return
        if pod.phase == PodPhase.PENDING and not pod.is_bound:
            self._pending[pod.key] = pod
            self._kick()

    def _kick(self) -> None:
        if not self._sweep_scheduled and self._pending:
            self._sweep_scheduled = True
            self.engine.schedule(self.bind_latency, self._sweep)

    # ------------------------------------------------------------------
    # Scheduling cycle
    # ------------------------------------------------------------------

    def _sweep(self) -> None:
        self._sweep_scheduled = False
        # Oldest pods first (FIFO by uid, deterministic).
        queue = sorted(self._pending.values(), key=lambda p: p.meta.uid)
        progressed = False
        for pod in queue:
            if pod.key not in self._pending:
                continue
            node = self._select_node(pod)
            if node is None:
                continue  # stays pending; retried on the next kick
            self._bind(pod, node)
            progressed = True
        if progressed:
            self._kick()  # a binding may have changed affinity scores

    def _select_node(self, pod: Pod) -> Optional[Node]:
        # Highest score, ties to the lowest name; the key is unique
        # because node names are.
        return min(
            (n for n in self.nodes.values() if self._feasible(pod, n)),
            key=lambda n: (-self._score(pod, n), n.name),
            default=None,
        )

    def _feasible(self, pod: Pod, node: Node) -> bool:
        if node.unschedulable:
            return False
        if not node.can_fit(pod.request):
            return False
        for key, value in pod.spec.node_selector.items():
            if node.meta.labels.get(key) != value:
                return False
        return True

    def _score(self, pod: Pod, node: Node) -> float:
        # LeastAllocated: prefer emptier nodes; normalised to 0..100.
        if node.allocatable.cpu > 0:
            free_fraction = (node.free.cpu - pod.request.cpu) / node.allocatable.cpu
        else:
            free_fraction = 0.0
        score = 100.0 * max(free_fraction, 0.0)
        # Soft pod affinity: bonus per matching pod co-located on the node.
        term = pod.spec.affinity
        if term is not None:
            score += term.weight * node.count_matching(term.selector)
        return score

    def _bind(self, pod: Pod, node: Node) -> None:
        if not self._feasible(pod, node):  # defensive; never expected
            raise KubeError(f"binding infeasible pod {pod.name} to {node.name}")
        node.bind(pod)
        self._pending.pop(pod.key, None)
        self.bind_count += 1

        def mutate(p: Pod) -> None:
            p.status.node_name = node.name
            p.status.scheduled_time = self.engine.now

        self.api.patch(pod, mutate)
        if self.tracer is not None:
            self.tracer.emit(
                "k8s.scheduler.bind", f"{pod.namespace}/{pod.name}", node=node.name
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def pending_pods(self) -> List[Pod]:
        return sorted(self._pending.values(), key=lambda p: p.meta.uid)

    def release(self, pod: Pod) -> None:
        """Release node resources held by a bound pod (kubelet finalization)."""
        if pod.node_name is None:
            return
        node = self.nodes.get(pod.node_name)
        if node is not None and pod.key in node.pod_keys:
            node.release(pod)
            self._kick()

    def stop(self) -> None:
        """Stop watching pods; nothing new is placed."""
        self._watch.stop()
