"""The power-capped capacity scenario.

HPC sites increasingly schedule under a facility power cap, not just a
node count; on the cloud the analogue is a spend/watt budget tighter
than the provisioned slots.  This module models it through the
:class:`~repro.scheduling.policy.CapacityConstraint` hook stage: total
capacity is a **watt budget**, every worker replica draws its size
class's nominal wattage (``JobSizeClass.watts_per_replica``; a
``watts_per_replica`` entry in ``JobRequest.params`` overrides), and the
engine's elastic shrink/expand machinery becomes the *power-capping
actuator* — a high-priority arrival shrinks running jobs until both the
slot and the watt deficits are covered: the engine's one Figure-2 walk,
carrying a watt deficit beside the slot deficit.

The constraint composes with the base engine only.  The preemptive
extension rejects it at construction, because its checkpoint
transitions bypass the charge points.
"""

from __future__ import annotations

from typing import Dict, Optional

from .job import JobRequest
from .policies import DEFAULT_RESCALE_GAP
from .policy import PolicyConfig
from .registry import REGISTRY

__all__ = ["PowerBudget", "DEFAULT_BUDGET_WATTS", "DEFAULT_WATTS_PER_REPLICA"]

#: Default cap: admits an xlarge at its minimum (16 × 250 W = 4 kW) with
#: room for a mixed backlog around it — chosen for the §4.3.1 workload
#: mix on the default 128-slot simulator cluster.
DEFAULT_BUDGET_WATTS = 12_000.0

#: Draw assumed for requests carrying no size class and no override.
DEFAULT_WATTS_PER_REPLICA = 150.0

#: Floating-point slack for budget arithmetic.  The shipped per-class
#: wattages are exactly representable, so accumulation is drift-free;
#: the epsilon only matters for user-supplied fractional watts.
_EPSILON = 1e-9


class PowerBudget:
    """A watt budget implementing the :class:`CapacityConstraint` protocol.

    One instance per engine (the registered policy passes a factory);
    ``used`` tracks the live draw, maintained by the engine's charge
    calls on every replica transition.
    """

    def __init__(
        self,
        budget_watts: float = DEFAULT_BUDGET_WATTS,
        watts: Optional[Dict[str, float]] = None,
        default_watts: float = DEFAULT_WATTS_PER_REPLICA,
    ):
        if not budget_watts > 0:
            raise ValueError(
                f"budget_watts must be positive, got {budget_watts!r}"
            )
        self.budget_watts = float(budget_watts)
        #: Optional size-class name → W/replica overrides (scenario
        #: sweeps re-weight classes without touching the frozen table).
        self.watts = dict(watts) if watts else {}
        self.default_watts = float(default_watts)
        self.used = 0.0

    # -- CapacityConstraint --------------------------------------------

    def weight(self, request: JobRequest) -> float:
        params = request.params or {}
        override = params.get("watts_per_replica")
        if override is not None:
            return float(override)
        name = params.get("size_class") or request.size_class
        if name:
            if name in self.watts:
                return float(self.watts[name])
            from ..perfmodel.datasets import JOB_SIZE_CLASSES

            cls = JOB_SIZE_CLASSES.get(name)
            if cls is not None:
                return float(cls.watts_per_replica)
        return self.default_watts

    def admit(self, request: JobRequest) -> int:
        w = self.weight(request)
        head = self.budget_watts - self.used
        if w <= 0:
            return request.max_replicas  # weightless draws are uncapped
        if head <= 0:
            return 0
        return int((head + _EPSILON) // w)

    def charge(self, request: JobRequest, delta: int) -> None:
        self.used += self.weight(request) * delta

    def headroom(self) -> float:
        return self.budget_watts - self.used


@REGISTRY.register(
    "power-capped", tags=("scenario", "constraint"),
    description="elastic scheduling under a facility watt budget "
                "(shrink/expand as the power-capping actuator)",
)
def _power_capped(
    rescale_gap: float = DEFAULT_RESCALE_GAP,
    launcher_slots: int = 0,
    shrink_filter=None,
    budget_watts: float = DEFAULT_BUDGET_WATTS,
    watts: Optional[Dict[str, float]] = None,
) -> PolicyConfig:
    return PolicyConfig(
        name="power-capped",
        rescale_gap=rescale_gap,
        launcher_slots=launcher_slots,
        shrink_filter=shrink_filter,
        capacity_constraint=lambda: PowerBudget(
            budget_watts=budget_watts, watts=watts
        ),
    )
