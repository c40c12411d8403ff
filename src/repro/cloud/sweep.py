"""Autoscaler × policy sweeps with cost accounting.

The cloud question is two-dimensional: the paper's four scheduling
policies each behave differently under each fleet policy, and the
interesting trade-off (metrics vs dollars) only shows up in the grid.
:func:`compare_cloud` runs that grid exactly the way the Figure-7/8
sweeps run theirs — one flat task list, the process pool fanning out
misses, the content-addressed cache answering repeats — but each trial's
record carries :class:`~repro.cloud.billing.CostReport` fields next to
the §4.3 metrics, so cost columns fall out of the same machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import CloudError
from ..scheduling.registry import REGISTRY
from ..schedsim.experiment import TRIAL_METRICS, mean_record, run_tasks
from ..schedsim.workload import WorkloadSpec, generate_workload
from .autoscaler import AUTOSCALER_NAMES, make_autoscaler
from .billing import CostModel
from .provider import CloudProvider, NodePool
from .simulator import CloudScheduleSimulator, CloudSimulationResult

__all__ = [
    "CloudScenario",
    "CloudTrialStats",
    "cloud_trial_task",
    "run_cloud_trial_task",
    "compare_cloud",
    "run_cloud_once",
]

#: Task-tuple tag: keeps cloud records from ever colliding with plain
#: trial records in a shared cache directory.
_TASK_KIND = "cloud-trial"
_TASK_VERSION = 1


@dataclass(frozen=True)
class CloudScenario:
    """The fleet configuration one sweep holds fixed across its grid.

    One on-demand pool plus an optional cheaper, interruptible spot
    pool.  Every field is a scalar so a scenario flattens losslessly
    into the content-addressed task tuple.

    The default initial fleet is 4 × 16 = 64 slots — the paper's
    cluster — so every policy (including rigid-max, whose xlarge jobs
    pin 64 replicas) is feasible under a static fleet.
    """

    slots_per_node: int = 16
    initial_nodes: int = 4
    max_nodes: int = 8
    min_nodes: int = 1
    provision_delay: float = 120.0
    teardown_delay: float = 0.0
    price_per_hour: float = 0.68  # c6g.4xlarge-ish on-demand
    spot_nodes: int = 0
    spot_price_per_hour: float = 0.27
    spot_mean_lifetime: float = 14400.0
    tick: float = 60.0

    def __post_init__(self):
        if self.initial_nodes < 1:
            raise CloudError("scenario needs at least one initial node")
        if not self.min_nodes <= self.initial_nodes <= self.max_nodes:
            raise CloudError(
                "need min_nodes <= initial_nodes <= max_nodes, got "
                f"[{self.min_nodes}, {self.initial_nodes}, {self.max_nodes}]"
            )
        if self.spot_nodes < 0:
            raise CloudError("spot_nodes must be non-negative")

    def pools(self) -> List[NodePool]:
        pools = [
            NodePool(
                name="ondemand",
                slots_per_node=self.slots_per_node,
                price_per_hour=self.price_per_hour,
                provision_delay=self.provision_delay,
                teardown_delay=self.teardown_delay,
                min_nodes=self.min_nodes,
                max_nodes=self.max_nodes,
                initial_nodes=self.initial_nodes,
            )
        ]
        if self.spot_nodes > 0:
            pools.append(
                NodePool(
                    name="spot",
                    slots_per_node=self.slots_per_node,
                    price_per_hour=self.spot_price_per_hour,
                    provision_delay=self.provision_delay,
                    teardown_delay=self.teardown_delay,
                    min_nodes=0,
                    max_nodes=self.spot_nodes,
                    initial_nodes=self.spot_nodes,
                    spot=True,
                    mean_lifetime=self.spot_mean_lifetime,
                )
            )
        return pools

    def flatten(self) -> Tuple:
        return (
            self.slots_per_node, self.initial_nodes, self.max_nodes,
            self.min_nodes, self.provision_delay, self.teardown_delay,
            self.price_per_hour, self.spot_nodes, self.spot_price_per_hour,
            self.spot_mean_lifetime, self.tick,
        )

    @classmethod
    def unflatten(cls, fields: Sequence) -> "CloudScenario":
        (spn, initial, mx, mn, prov, tear, price, spot, sprice, slife,
         tick) = fields
        return cls(
            slots_per_node=int(spn), initial_nodes=int(initial),
            max_nodes=int(mx), min_nodes=int(mn), provision_delay=prov,
            teardown_delay=tear, price_per_hour=price, spot_nodes=int(spot),
            spot_price_per_hour=sprice, spot_mean_lifetime=slife, tick=tick,
        )


#: The cost fields a cloud trial's record carries beside the four metrics
#: (names of :class:`~repro.cloud.billing.CostReport` attributes).
_COST_FIELDS = (
    "total_cost", "node_hours", "cost_per_job", "cost_per_busy_slot_hour",
    "interruptions", "nodes_provisioned", "elastic_utilization",
)


@dataclass(frozen=True)
class CloudTrialStats:
    """Mean metrics *and* mean cost over one grid cell's trials."""

    policy: str
    autoscaler: str
    trials: int
    total_time: float
    utilization: float
    weighted_mean_response: float
    weighted_mean_completion: float
    total_cost: float
    node_hours: float
    cost_per_job: float
    cost_per_busy_slot_hour: float
    interruptions: float
    nodes_provisioned: float
    elastic_utilization: float

    @property
    def label(self) -> str:
        return f"{self.policy}+{self.autoscaler}"


def run_cloud_once(
    policy_name: str,
    autoscaler_name: str,
    scenario: Optional[CloudScenario] = None,
    submission_gap: float = 90.0,
    rescale_gap: float = 180.0,
    seed: int = 0,
    num_jobs: int = 16,
    retain: str = "full",
    tracer=None,
    with_simulator: bool = False,
):
    """Simulate one workload draw on one (policy, autoscaler) cell.

    Returns the :class:`CloudSimulationResult`; with ``with_simulator``
    the pair ``(result, simulator)`` instead, so callers that need the
    engine's counters (the cloud benchmark suite) share this exact
    wiring instead of duplicating it.
    """
    scenario = scenario or CloudScenario()
    provider = CloudProvider(scenario.pools(), seed=seed)
    simulator = CloudScheduleSimulator(
        REGISTRY.resolve(policy_name, rescale_gap=rescale_gap),
        provider=provider,
        autoscaler=make_autoscaler(autoscaler_name),
        cost_model=CostModel(),
        tick=scenario.tick,
        tracer=tracer,
    )
    spec = WorkloadSpec(
        num_jobs=num_jobs, submission_gap=submission_gap, seed=seed
    )
    result = simulator.run(generate_workload(spec), retain=retain)
    if with_simulator:
        return result, simulator
    return result


def cloud_trial_task(
    policy_name: str,
    autoscaler_name: str,
    scenario: CloudScenario,
    submission_gap: float,
    rescale_gap: float,
    seed: int,
    num_jobs: int = 16,
) -> Tuple:
    """The picklable, cache-hashable unit of one cloud trial."""
    return (
        _TASK_KIND, _TASK_VERSION, policy_name, autoscaler_name,
        submission_gap, rescale_gap, seed, num_jobs, *scenario.flatten(),
    )


def run_cloud_trial_task(task: Tuple) -> Dict[str, float]:
    """Execute one :func:`cloud_trial_task`; returns its flat record.

    The record holds the trial's four §4.3 metrics
    (:data:`~repro.schedsim.experiment.TRIAL_METRICS`) and its seven
    ``_COST_FIELDS``; the key sets do not overlap.
    """
    (kind, version, policy_name, autoscaler_name, submission_gap,
     rescale_gap, seed, num_jobs, *scenario_fields) = task
    if kind != _TASK_KIND or version != _TASK_VERSION:
        raise CloudError(f"not a cloud trial task: {task!r}")
    result = run_cloud_once(
        policy_name,
        autoscaler_name,
        scenario=CloudScenario.unflatten(scenario_fields),
        submission_gap=submission_gap,
        rescale_gap=rescale_gap,
        seed=int(seed),
        num_jobs=int(num_jobs),
        retain="metrics",
    )
    record = result.metrics.as_dict()
    record.update((name, getattr(result.cost, name)) for name in _COST_FIELDS)
    return record


def compare_cloud(
    policies: Optional[Sequence[str]] = None,
    autoscalers: Sequence[str] = AUTOSCALER_NAMES,
    scenario: Optional[CloudScenario] = None,
    submission_gap: float = 90.0,
    rescale_gap: float = 180.0,
    trials: int = 10,
    base_seed: int = 0,
    num_jobs: int = 16,
    workers: Optional[int] = None,
    cache=None,
) -> Dict[Tuple[str, str], CloudTrialStats]:
    """The autoscaler × policy grid, averaged over paired trials.

    Returns one :class:`CloudTrialStats` per ``(autoscaler, policy)``
    cell; trial *i* of every cell shares seed ``base_seed + i`` (same
    workload draw *and* same spot weather), so cells are paired
    comparisons exactly like the paper's policy tables.  ``policies``
    defaults to the paper's four; any registry-resolved name works.
    """
    if policies is None:
        policies = ("elastic", "moldable", "min_replicas", "max_replicas")
    scenario = scenario or CloudScenario()
    cells = [(a, p) for a in autoscalers for p in policies]
    tasks = [
        cloud_trial_task(policy, autoscaler, scenario, submission_gap,
                         rescale_gap, base_seed + i, num_jobs)
        for autoscaler, policy in cells
        for i in range(trials)
    ]
    records = run_tasks(run_cloud_trial_task, tasks, workers=workers,
                        cache=cache)
    return {
        (autoscaler, policy): CloudTrialStats(
            policy=policy, autoscaler=autoscaler, trials=trials,
            **mean_record(records[c * trials:(c + 1) * trials],
                          TRIAL_METRICS + _COST_FIELDS),
        )
        for c, (autoscaler, policy) in enumerate(cells)
    }
