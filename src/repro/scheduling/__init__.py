"""★ The paper's contribution: priority-based elastic job scheduling (§3.2).

Public surface::

    from repro.scheduling import (
        ElasticPolicyEngine, PolicyConfig,
        StaticPriority, Aging,
        SchedulerRegistry, REGISTRY, resolve, list_policies,
        JobRequest, SchedulerJob, JobState,
        Decision, StartJob, ShrinkJob, ExpandJob, EnqueueJob,
        RequeueJob, PreemptJob, ResumeJob,
        JobOutcome, ReplicaTimeline, SchedulerMetrics, compute_metrics,
        ElasticSchedulerController,
    )

Policies resolve by name through :mod:`repro.scheduling.registry`;
importing this package registers the paper's four policies and the
``aging`` and ``preemptive`` extensions (:mod:`.policies`), the
literature schedulers (:mod:`.literature`: ``ewt``, ``prb``,
``easy-backfill``), and the power-capped scenario (:mod:`.power`).
"""

from .elastic import ElasticPolicyEngine
from .job import JobRequest, JobState, SchedulerJob, priority_order_key
from .metrics import (
    JobOutcome,
    MetricsAccumulator,
    ReplicaTimeline,
    SchedulerMetrics,
    StreamingTimeline,
    compute_metrics,
)
from .metrics import FairnessReport, compute_fairness
from .registry import (
    REGISTRY,
    PolicyRegistrationError,
    PolicySpec,
    SchedulerRegistry,
    UnknownPolicyError,
    describe,
    list_policies,
    resolve,
)
from .policies import DEFAULT_RESCALE_GAP
from . import literature  # noqa: F401  (self-registering policies)
from . import power  # noqa: F401  (self-registering policies)
from .policy import (
    Aging,
    BackfillRule,
    CapacityConstraint,
    Decision,
    EnqueueJob,
    ExpandJob,
    PolicyConfig,
    PreemptJob,
    RequeueJob,
    ResumeJob,
    ShrinkJob,
    StartJob,
    StaticPriority,
)

__all__ = [
    "ElasticPolicyEngine",
    "PolicyConfig",
    "StaticPriority",
    "Aging",
    "BackfillRule",
    "CapacityConstraint",
    "SchedulerRegistry",
    "PolicySpec",
    "REGISTRY",
    "UnknownPolicyError",
    "PolicyRegistrationError",
    "resolve",
    "list_policies",
    "describe",
    "DEFAULT_RESCALE_GAP",
    "JobRequest",
    "SchedulerJob",
    "JobState",
    "priority_order_key",
    "Decision",
    "StartJob",
    "ShrinkJob",
    "ExpandJob",
    "EnqueueJob",
    "RequeueJob",
    "PreemptJob",
    "ResumeJob",
    "JobOutcome",
    "ReplicaTimeline",
    "StreamingTimeline",
    "SchedulerMetrics",
    "compute_metrics",
    "MetricsAccumulator",
    "FairnessReport",
    "compute_fairness",
]

# The Kubernetes-facing controller pulls in the operator stack; import it
# lazily so pure-policy users (the simulator) stay lightweight.


def __getattr__(name):
    if name == "ElasticSchedulerController":
        from .controller import ElasticSchedulerController

        return ElasticSchedulerController
    raise AttributeError(f"module 'repro.scheduling' has no attribute {name!r}")
