"""Pods: the unit of placement.

The Charm++ operator runs one launcher pod plus one worker pod per replica;
each worker runs a single PE (non-SMP build, §3.1).  Pod affinity is the
operator's locality mechanism: worker pods prefer nodes already hosting
pods of the same job.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import InvalidObjectError
from .meta import ApiObject, LabelSelector, ObjectMeta
from .quantity import Resources
from .volume import EmptyDirVolume, shm_capacity_bytes

__all__ = ["Pod", "PodSpec", "PodPhase", "PodAffinityTerm", "HOSTNAME_TOPOLOGY"]

#: The per-node topology domain, the only one the scheduler scores.
HOSTNAME_TOPOLOGY = "kubernetes.io/hostname"


class PodPhase(str, enum.Enum):
    """Pod lifecycle phase (the subset of Kubernetes phases we need)."""

    PENDING = "Pending"
    RUNNING = "Running"
    SUCCEEDED = "Succeeded"
    FAILED = "Failed"


@dataclass(frozen=True)
class PodAffinityTerm:
    """Soft (preferred) pod-affinity term.

    Nodes hosting pods matched by ``selector`` get ``weight`` added per
    matching pod during scoring.  This models the operator's
    locality-aware placement (§3.1).  The scheduler counts matching pods
    per node, so the only supported ``topology_key`` is the per-node
    :data:`HOSTNAME_TOPOLOGY`; pod validation rejects any other.
    """

    selector: LabelSelector
    topology_key: str = HOSTNAME_TOPOLOGY
    weight: int = 100


@dataclass
class PodSpec:
    """Desired state of a pod."""

    request: Resources = field(default_factory=lambda: Resources.parse(cpu="1"))
    node_selector: Dict[str, str] = field(default_factory=dict)
    affinity: Optional[PodAffinityTerm] = None
    volumes: List[EmptyDirVolume] = field(default_factory=list)
    # Free-form role marker used by the operator ("launcher" / "worker").
    role: str = "worker"
    # The operator's replica index of a worker pod (None for other pods).
    replica_index: Optional[int] = None


@dataclass
class PodStatus:
    """Observed state of a pod."""

    phase: PodPhase = PodPhase.PENDING
    node_name: Optional[str] = None
    scheduled_time: Optional[float] = None
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    message: str = ""


class Pod(ApiObject):
    """A pod object as stored in the API server."""

    kind = "Pod"

    def __init__(self, name: str, spec: PodSpec, namespace: str = "default",
                 labels: Optional[Dict[str, str]] = None):
        super().__init__(ObjectMeta(name=name, namespace=namespace, labels=dict(labels or {})))
        self.spec = spec
        self.status = PodStatus()

    def validate(self) -> None:
        super().validate()
        term = self.spec.affinity
        if term is not None and term.topology_key != HOSTNAME_TOPOLOGY:
            raise InvalidObjectError(
                f"pod {self.name}: unsupported affinity topology key "
                f"{term.topology_key!r} (only {HOSTNAME_TOPOLOGY!r})"
            )

    # Convenience accessors ------------------------------------------------

    @property
    def request(self) -> Resources:
        return self.spec.request

    @property
    def phase(self) -> PodPhase:
        return self.status.phase

    @property
    def node_name(self) -> Optional[str]:
        return self.status.node_name

    @property
    def is_bound(self) -> bool:
        return self.status.node_name is not None

    @property
    def is_running(self) -> bool:
        return self.status.phase == PodPhase.RUNNING

    @property
    def is_finished(self) -> bool:
        return self.status.phase in (PodPhase.SUCCEEDED, PodPhase.FAILED)

    def shm_bytes(self) -> int:
        """Effective /dev/shm capacity (see :mod:`repro.k8s.volume`)."""
        return shm_capacity_bytes(self.spec.volumes)
