"""Repeated randomized trials and policy comparisons (§4.3.1).

The paper repeats each configuration over 100 random workloads and reports
the average of the four metrics; :func:`run_trials` reproduces that, and
:func:`compare_policies` produces one averaged row per policy.

Every substrate's trials run through :func:`run_tasks`: one task tuple
in, one flat record of floats out, cached and fanned out the same way.
:func:`mean_record` averages a cell's records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..perfmodel.overhead import RescaleOverheadModel
from ..scheduling.registry import REGISTRY
from .simulator import ScheduleSimulator, SimulationResult
from .workload import WorkloadSpec, generate_workload

__all__ = ["TrialStats", "run_once", "run_trials", "compare_policies",
           "DEFAULT_TRIALS", "TRIAL_METRICS", "trial_task", "run_trial_task",
           "run_tasks", "mean_record", "aggregate_trials", "run_grid"]

#: The paper averages 100 random workloads per configuration.
DEFAULT_TRIALS = 100

#: The four §4.3 metrics every trial record carries.
TRIAL_METRICS = (
    "total_time", "utilization", "weighted_mean_response",
    "weighted_mean_completion",
)


@dataclass(frozen=True)
class TrialStats:
    """Mean metrics over repeated trials of one configuration."""

    policy: str
    trials: int
    total_time: float
    utilization: float
    weighted_mean_response: float
    weighted_mean_completion: float

    def as_dict(self) -> Dict[str, float]:
        return {name: getattr(self, name) for name in TRIAL_METRICS}


def run_once(
    policy_name: str,
    submission_gap: float = 90.0,
    rescale_gap: float = 180.0,
    seed: int = 0,
    total_slots: int = 64,
    num_jobs: int = 16,
    overhead: Optional[RescaleOverheadModel] = None,
) -> SimulationResult:
    """Simulate one workload draw under one policy."""
    spec = WorkloadSpec(num_jobs=num_jobs, submission_gap=submission_gap, seed=seed)
    simulator = ScheduleSimulator(
        REGISTRY.resolve(policy_name, rescale_gap=rescale_gap),
        total_slots=total_slots,
        overhead=overhead,
    )
    return simulator.run(generate_workload(spec))


def trial_task(
    policy_name: str,
    submission_gap: float,
    rescale_gap: float,
    seed: int,
    total_slots: int = 64,
    num_jobs: int = 16,
) -> tuple:
    """The picklable unit of work a sweep fans out: one trial's config."""
    return (policy_name, submission_gap, rescale_gap, seed, total_slots, num_jobs)


def run_trial_task(task: tuple) -> Dict[str, float]:
    """Execute one :func:`trial_task` tuple; returns its metrics record."""
    policy_name, submission_gap, rescale_gap, seed, total_slots, num_jobs = task
    return run_once(
        policy_name,
        submission_gap=submission_gap,
        rescale_gap=rescale_gap,
        seed=seed,
        total_slots=total_slots,
        num_jobs=num_jobs,
    ).metrics.as_dict()


def run_tasks(
    run_one: Callable[[tuple], dict],
    tasks: Sequence[tuple],
    workers: Optional[int] = None,
    cache=None,
) -> List[dict]:
    """``[run_one(task) for task in tasks]``, cache-aware and pooled.

    Trials already in the content-addressed store
    (:mod:`repro.schedsim.cache`; ``cache=`` or ``REPRO_SWEEP_CACHE``)
    are answered from disk; only the misses run, serially or across the
    process pool, and their records are written back.  ``run_one`` is
    the substrate's module-level task function.  The returned list
    matches ``tasks`` index for index, so aggregation is identical
    whether a record came from the cache, the pool or the serial loop.
    """
    from ..workloads.parallel import parallel_map
    from .cache import resolve_trial_cache

    store = resolve_trial_cache(cache)
    records: List[Optional[dict]] = (
        [store.get(task) for task in tasks] if store is not None
        else [None] * len(tasks)
    )
    misses = [i for i, record in enumerate(records) if record is None]
    fresh = parallel_map(run_one, [tasks[i] for i in misses], workers=workers)
    for i, record in zip(misses, fresh):
        records[i] = record
        if store is not None:
            store.put(tasks[i], record)
    return records  # type: ignore[return-value]  # every slot now filled


def mean_record(records: Sequence[dict], fields: Iterable[str]) -> Dict[str, float]:
    """Average each field over ``records`` in list order.

    ``sum(...) / n`` rather than ``statistics.mean``: serial, pooled and
    cached runs then give bit-identical floats.
    """
    n = float(len(records))
    return {name: sum(record[name] for record in records) / n for name in fields}


def aggregate_trials(policy_name: str, records: Sequence[dict]) -> TrialStats:
    """Average per-trial records (the paper's mean-of-100)."""
    return TrialStats(policy=policy_name, trials=len(records),
                      **mean_record(records, TRIAL_METRICS))


def run_grid(
    cells: Sequence[tuple],
    trials: int,
    base_seed: int = 0,
    total_slots: int = 64,
    num_jobs: int = 16,
    workers: Optional[int] = None,
    cache=None,
) -> List[TrialStats]:
    """One averaged row per ``(policy, submission_gap, rescale_gap)`` cell.

    The whole grid is one task list through :func:`run_tasks`.  Trial
    *i* of every cell uses seed ``base_seed + i``, so cells are paired
    comparisons over the same workloads, as in the paper.
    """
    tasks = [
        trial_task(policy, submission_gap, rescale_gap, base_seed + i,
                   total_slots, num_jobs)
        for policy, submission_gap, rescale_gap in cells
        for i in range(trials)
    ]
    records = run_tasks(run_trial_task, tasks, workers=workers, cache=cache)
    return [
        aggregate_trials(cell[0], records[c * trials:(c + 1) * trials])
        for c, cell in enumerate(cells)
    ]


def run_trials(
    policy_name: str,
    submission_gap: float,
    rescale_gap: float = 180.0,
    trials: int = DEFAULT_TRIALS,
    base_seed: int = 0,
    total_slots: int = 64,
    num_jobs: int = 16,
    workers: Optional[int] = None,
    cache=None,
) -> TrialStats:
    """Average the four metrics over ``trials`` random workloads.

    Trial *i* uses seed ``base_seed + i``, so different policies see the
    same 100 workloads — paired comparison, as in the paper.

    ``workers`` > 1 fans the trials out across a process pool; results
    come back in seed order and are averaged by the same code as the
    serial path, so the two produce identical statistics.  ``cache``
    (or ``REPRO_SWEEP_CACHE``) answers previously-simulated trials from
    the content-addressed store (:mod:`repro.schedsim.cache`).
    """
    return run_grid(
        [(policy_name, submission_gap, rescale_gap)], trials, base_seed,
        total_slots, num_jobs, workers=workers, cache=cache,
    )[0]


def compare_policies(
    submission_gap: float = 90.0,
    rescale_gap: float = 180.0,
    trials: int = DEFAULT_TRIALS,
    policies: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
    base_seed: int = 0,
    total_slots: int = 64,
    num_jobs: int = 16,
    cache=None,
) -> Dict[str, TrialStats]:
    """One averaged row per policy — the Table-1 simulation columns.

    ``policies`` defaults to the paper's four (in its presentation
    order); any registry-resolved name — ``easy-backfill``,
    ``power-capped``, a plugin's — drops into the same paired-trial
    grid.

    With ``workers`` > 1 (or ``REPRO_WORKERS`` set) the whole policies x
    trials grid runs through one process pool instead of nested serial
    loops; with a trial cache only the not-yet-simulated cells run at
    all.  Either way per-trial results and aggregation order match the
    nested serial loops exactly.
    """
    if policies is None:
        policies = ("min_replicas", "max_replicas", "moldable", "elastic")
    rows = run_grid(
        [(name, submission_gap, rescale_gap) for name in policies], trials,
        base_seed, total_slots, num_jobs, workers=workers, cache=cache,
    )
    return {stats.policy: stats for stats in rows}
