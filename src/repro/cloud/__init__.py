"""Elastic cluster capacity: the cloud under the scheduler (§2).

Every earlier layer of this reproduction froze ``total_slots`` at
construction; this package makes capacity what it is on a real cloud —
bought, late, billed, and revocable::

    from repro.cloud import (
        NodePool, Node, NodeState, CloudProvider,
        ClusterState, Autoscaler, StaticAutoscaler, QueueDepthAutoscaler,
        UtilizationAutoscaler, IdleTimeoutAutoscaler, make_autoscaler,
        AUTOSCALER_NAMES,
        CostModel, CostReport, BillingMeter,
        CloudScheduleSimulator, CloudSimulationResult,
        CloudScenario, CloudTrialStats, compare_cloud, run_cloud_once,
    )

The policy engine stays the paper's Figure-2/3 algorithm; capacity
changes enter through its ``grow_capacity``/``shrink_capacity``
transitions, and a static fleet is decision-for-decision the fixed
cluster the golden suite pins.
"""

from .autoscaler import (
    AUTOSCALER_NAMES,
    Autoscaler,
    ClusterState,
    IdleTimeoutAutoscaler,
    ProvisioningCircuitBreaker,
    QueueDepthAutoscaler,
    StaticAutoscaler,
    UtilizationAutoscaler,
    make_autoscaler,
)
from .billing import BillingMeter, CostModel, CostReport
from .provider import CloudProvider, Node, NodePool, NodeState
from .simulator import CloudScheduleSimulator, CloudSimulationResult
from .sweep import (
    CloudScenario,
    CloudTrialStats,
    cloud_trial_task,
    compare_cloud,
    run_cloud_once,
    run_cloud_trial_task,
)

__all__ = [
    "NodePool",
    "Node",
    "NodeState",
    "CloudProvider",
    "ClusterState",
    "Autoscaler",
    "StaticAutoscaler",
    "QueueDepthAutoscaler",
    "UtilizationAutoscaler",
    "IdleTimeoutAutoscaler",
    "ProvisioningCircuitBreaker",
    "make_autoscaler",
    "AUTOSCALER_NAMES",
    "CostModel",
    "CostReport",
    "BillingMeter",
    "CloudScheduleSimulator",
    "CloudSimulationResult",
    "CloudScenario",
    "CloudTrialStats",
    "cloud_trial_task",
    "run_cloud_trial_task",
    "compare_cloud",
    "run_cloud_once",
]
