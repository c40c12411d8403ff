"""Cluster nodes.

The paper's testbed is four AWS ``c6g.4xlarge`` instances (16 vCPUs each) in
one subnet and cluster placement group; :func:`make_eks_nodes` builds that
topology.

Nodes track which pods are bound to them and keep the state the
kube-scheduler reads on every cycle up to date as pods bind and release,
so a scheduling cycle costs one pass of cheap comparisons per node:

* ``free`` is recomputed as ``allocatable - allocated`` in ``bind`` and
  ``release`` (the same float a fresh subtraction gives), and ``can_fit``
  reads it;
* a count of bound pods per ``(label, value)`` pair answers the affinity
  score's one-pair selectors (:meth:`Node.count_matching`); any other
  selector scans the bound pods' labels.

The counts equal a count of the node's co-located pods in the API store
under two conditions that hold in this codebase:

* pod labels are set at creation and never edited (a node keeps each
  pod's labels as they were when it bound);
* a pod bound to a node is always in the API store, because the kubelet
  releases a pod (``KubeScheduler.release``) before it finalizes the
  deletion (``ApiServer.finalize_delete``), and deleting a terminating
  bound pod again leaves it to the kubelet (``ApiServer.delete`` does
  nothing then).
"""

from __future__ import annotations

from typing import Dict, KeysView, Optional

from ..errors import InvalidObjectError, KubeError
from .meta import ApiObject, LabelSelector, ObjectMeta
from .quantity import Resources

__all__ = ["Node", "make_eks_nodes", "C6G_4XLARGE"]

#: Resource profile of the paper's instance type (16 vCPUs; 32 GiB memory).
C6G_4XLARGE = Resources.parse(cpu="16", memory="32Gi")


class Node(ApiObject):
    """A schedulable cluster node.

    Attributes
    ----------
    capacity:
        Total resources of the instance.
    allocatable:
        Capacity minus a system reservation (kubelet/OS daemons).
    placement_group:
        Label used to model AWS cluster placement groups; the comm-layer
        models give intra-group traffic lower latency.
    """

    kind = "Node"

    def __init__(
        self,
        name: str,
        capacity: Resources,
        system_reserved: Resources = Resources(),
        placement_group: str = "default-pg",
        labels: Optional[Dict[str, str]] = None,
    ):
        meta = ObjectMeta(name=name, namespace="cluster", labels=dict(labels or {}))
        meta.labels.setdefault("kubernetes.io/hostname", name)
        meta.labels.setdefault("topology.kubernetes.io/placement-group", placement_group)
        super().__init__(meta)
        self.capacity = capacity
        self.allocatable = capacity - system_reserved
        self.placement_group = placement_group
        #: Cordoned nodes accept no new pods (failure injection / drain).
        self.unschedulable = False
        #: Bound pod key -> the pod's labels at bind time.
        self._bound_pods: Dict[tuple, Dict[str, str]] = {}
        self._allocated = Resources()
        self._free = self.allocatable
        #: ``(label, value) -> number of bound pods carrying it``.
        self._label_counts: Dict[tuple, int] = {}

    # ------------------------------------------------------------------
    # Accounting (driven by the scheduler / kubelet)
    # ------------------------------------------------------------------

    @property
    def allocated(self) -> Resources:
        """Sum of requests of pods bound to this node."""
        return self._allocated

    @property
    def free(self) -> Resources:
        """Allocatable minus allocated, kept up to date by bind/release."""
        return self._free

    @property
    def pod_keys(self) -> KeysView:
        """The bound pods' keys: a live view, not a copy, so copy it before
        binding or releasing pods while iterating it."""
        return self._bound_pods.keys()

    def can_fit(self, request: Resources) -> bool:
        return request.fits_within(self._free)

    def count_matching(self, selector: LabelSelector) -> int:
        """Number of bound pods whose labels match ``selector``.

        A one-pair selector (the operator's job affinity) is answered from
        the per-label counts; any other selector scans the bound pods'
        labels.  Exact under the conditions in the module docstring.
        """
        pairs = selector.match_labels
        if len(pairs) == 1:
            ((label, value),) = pairs
            return self._label_counts.get((label, value), 0)
        matches = selector.matches
        return sum(1 for labels in self._bound_pods.values() if matches(labels))

    def bind(self, pod) -> None:
        """Reserve resources for ``pod``.  Raises if it does not fit."""
        if pod.key in self._bound_pods:
            raise KubeError(f"pod {pod.name} already bound to node {self.name}")
        if not self.can_fit(pod.request):
            raise KubeError(
                f"pod {pod.name} ({pod.request.describe()}) does not fit on "
                f"node {self.name} (free {self.free.describe()})"
            )
        labels = dict(pod.meta.labels)
        self._bound_pods[pod.key] = labels
        self._allocated = self._allocated + pod.request
        self._free = self.allocatable - self._allocated
        counts = self._label_counts
        for pair in labels.items():
            counts[pair] = counts.get(pair, 0) + 1

    def release(self, pod) -> None:
        """Release resources held by ``pod``."""
        labels = self._bound_pods.pop(pod.key, None)
        if labels is None:
            raise KubeError(f"pod {pod.name} is not bound to node {self.name}")
        self._allocated = self._allocated - pod.request
        self._free = self.allocatable - self._allocated
        counts = self._label_counts
        for pair in labels.items():
            left = counts[pair] - 1
            if left:
                counts[pair] = left
            else:
                del counts[pair]

    def cpu_utilization(self) -> float:
        """Fraction of allocatable CPU currently requested."""
        if self.allocatable.cpu == 0:
            return 0.0
        return self._allocated.cpu / self.allocatable.cpu


def make_eks_nodes(
    count: int = 4,
    instance: Resources = C6G_4XLARGE,
    placement_group: str = "hpc-pg",
    system_reserved: Resources = Resources(),
) -> list:
    """Build the paper's EKS node group (§4): ``count`` identical instances.

    All nodes share one placement group, mirroring the paper's single-subnet
    cluster placement group for better networking performance.
    """
    if count < 1:
        raise InvalidObjectError("node count must be positive")
    return [
        Node(
            name=f"node-{i}",
            capacity=instance,
            system_reserved=system_reserved,
            placement_group=placement_group,
        )
        for i in range(count)
    ]
