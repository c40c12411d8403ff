"""End-to-end chaos runs: one wiring shared by the CLI and the tests.

A chaos run is :func:`repro.cloud.sweep.run_cloud_once` with the fault
stack attached: a provider carrying a :class:`FaultInjector`, an
optional :class:`~repro.charm.faulttolerance.DiskCheckpointStore` for
notice-window recovery, and a serialized decision log whose SHA-256
digest makes determinism checkable from the command line (two runs of
the same plan must print the same digest — CI asserts exactly this).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

from ..charm.faulttolerance import DiskCheckpointStore
from ..cloud.provider import CloudProvider
from ..cloud.simulator import CloudScheduleSimulator, CloudSimulationResult
from ..cloud.sweep import CloudScenario
from ..cloud.autoscaler import make_autoscaler
from ..scheduling.registry import REGISTRY
from ..schedsim.workload import WorkloadSpec, generate_workload
from .injector import FaultInjector
from .plan import FaultPlan, reference_chaos_plan
from .recovery import RetryPolicy

__all__ = [
    "ChaosRun",
    "chaos_scenario",
    "run_fault_scenario",
    "serialize_decision",
    "decision_digest",
]


def chaos_scenario() -> CloudScenario:
    """The fleet the reference chaos plan targets.

    A small on-demand core plus a spot wing whose *natural* interruption
    rate is negligible (one-day mean lifetime) — the injected plan, not
    the background spot weather, is the failure source, so every fault
    in the run is attributable to a plan entry.  The fleet is sized well
    below the workload's aggregate min-replica demand, so jobs run at
    min replicas and a reclaimed node *must* evict someone — the
    recovery path, not elastic shrinking, absorbs the fault.
    """
    return CloudScenario(
        initial_nodes=2,
        min_nodes=1,
        max_nodes=4,
        provision_delay=60.0,
        spot_nodes=2,
        spot_mean_lifetime=86400.0,
    )


def serialize_decision(decision) -> Tuple:
    """A decision as plain comparable data (the golden-suite encoding)."""
    extra = tuple(
        (field, getattr(decision, field))
        for field in ("replicas", "from_replicas", "to_replicas",
                      "released_replicas")
        if hasattr(decision, field)
    )
    return (type(decision).__name__, decision.job.name, extra)


def decision_digest(decisions, makespan: Optional[float] = None) -> str:
    """SHA-256 over the serialized decision log (plus the makespan)."""
    digest = hashlib.sha256()
    for decision in decisions:
        digest.update(repr(decision).encode("utf-8"))
    if makespan is not None:
        digest.update(repr(makespan).encode("utf-8"))
    return digest.hexdigest()


@dataclass(frozen=True)
class ChaosRun:
    """One faulted simulation plus its determinism fingerprint."""

    result: CloudSimulationResult
    decisions: Tuple[Tuple, ...]
    digest: str

    @property
    def faults(self):
        return self.result.faults


def run_fault_scenario(
    policy_name: str = "elastic",
    autoscaler_name: str = "queue",
    scenario: Optional[CloudScenario] = None,
    plan: Optional[FaultPlan] = None,
    seed: int = 0,
    num_jobs: int = 24,
    submission_gap: float = 60.0,
    rescale_gap: float = 180.0,
    checkpoints: bool = True,
    retry: Optional[RetryPolicy] = None,
    retain: str = "full",
    tracer=None,
    with_simulator: bool = False,
):
    """Run one workload under one fault plan; returns a :class:`ChaosRun`.

    ``plan=None`` uses :func:`reference_chaos_plan` seeded with ``seed``.
    ``checkpoints=False`` disables notice-window recovery (the
    lost-everything baseline the goodput delta is measured against).
    """
    scenario = scenario or chaos_scenario()
    if plan is None:
        plan = reference_chaos_plan(seed=seed)
    injector = FaultInjector(plan, retry=retry)
    provider = CloudProvider(scenario.pools(), seed=seed, faults=injector)
    store = DiskCheckpointStore() if checkpoints else None
    simulator = CloudScheduleSimulator(
        REGISTRY.resolve(policy_name, rescale_gap=rescale_gap),
        provider=provider,
        autoscaler=make_autoscaler(autoscaler_name),
        tick=scenario.tick,
        tracer=tracer,
        checkpoints=store,
    )
    spec = WorkloadSpec(
        num_jobs=num_jobs, submission_gap=submission_gap, seed=seed
    )
    result = simulator.run(generate_workload(spec), retain=retain)
    decisions = tuple(
        serialize_decision(d) for d in simulator.policy.decision_log
    )
    run = ChaosRun(
        result=result,
        decisions=decisions,
        digest=decision_digest(decisions, result.makespan),
    )
    if with_simulator:
        return run, simulator
    return run
