"""The benchmark's four workloads, driven through the program's public API.

Each workload turns ``--seed`` into inputs (:meth:`Workload.inputs`) and
then into *units*: one simulator or cluster run each, built by
:meth:`Workload.units` against a :class:`Probe`.  A probe decides which
engine, which policy-engine class and which instance wrappers a unit is
built with — plain (tests, set-up timing), metered (the measured run)
or traced (the traced run) — so all three run exactly the same wiring.

A unit is a pair ``(label, build)``: ``build()`` constructs everything
(that is set-up) and returns ``go``; ``go()`` runs the simulation (that
is the measured work) and returns a :class:`UnitResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Tuple

from repro.apps import make_app_factory
from repro.charm.faulttolerance import DiskCheckpointStore
from repro.cloud import CloudProvider, CloudScenario, CloudScheduleSimulator, CostModel, make_autoscaler
from repro.experiments.cluster_run import K8S_LAUNCHER_SLOTS, LAUNCHER_CPU
from repro.experiments.fig9 import FIG9_WORKLOAD, POLICIES
from repro.faults import FaultInjector, FaultLoad, FaultPlan
from repro.k8s import make_eks_cluster
from repro.mpioperator import AppSpec, CharmJob, CharmJobController, CharmJobSpec, WorkerSpec
from repro.scheduling import REGISTRY, ElasticPolicyEngine
from repro.scheduling.controller import ElasticSchedulerController
from repro.schedsim import ScheduleSimulator, generate_workload
from repro.sim import Engine, stream
from repro.workloads import PoissonArrivals, SyntheticWorkload, UniformMix

#: The seed whose fingerprints are recorded in ``fingerprints.json``.
PINNED_SEED = 32


class Probe:
    """How units are built: the plain program, with nothing attached."""

    policy_engine_cls = ElasticPolicyEngine

    def engine(self) -> Engine:
        return Engine()

    def wrap(self, layer: str, obj):
        """Attach instance wrappers to ``obj``'s public calls (none here)."""
        return obj

    def source(self, submissions):
        """Wrap the lazy submission stream (unchanged here)."""
        return submissions


@dataclass
class UnitResult:
    jobs: int
    #: The paper's four metrics plus makespan (and cost and goodput on
    #: the faulted cloud run), rounded: equal fingerprints mean equal
    #: schedules.
    fingerprint: Dict[str, float]
    problems: List[str] = field(default_factory=list)
    #: Deterministic counters the traced run reports per layer.
    extras: Dict[str, float] = field(default_factory=dict)


def _fp(value: float) -> float:
    """Fingerprint rounding: stable across platforms, sensitive to any
    change of decision."""
    return float(f"{value:.9g}")


def _check_metrics(metrics, jobs: int, problems: List[str],
                   max_utilization: float = 1.0) -> Dict[str, float]:
    """The paper's four metrics + makespan, range-checked and rounded.

    Utilization is measured against the initial slots, so a fleet that
    grows may exceed 1 up to ``max_utilization``.  ``job_count == jobs``
    together with the simulators' own refusal to
    finish with unfinished jobs means every job completed exactly once:
    a duplicate completion would push the count past ``jobs``.
    """
    values = {
        "total_time": metrics.total_time,
        "utilization": metrics.utilization,
        "weighted_mean_response": metrics.weighted_mean_response,
        "weighted_mean_completion": metrics.weighted_mean_completion,
    }
    if metrics.job_count != jobs:
        problems.append(f"{metrics.job_count} completions for {jobs} jobs")
    if not all(math.isfinite(v) for v in values.values()):
        problems.append(f"non-finite metrics {values}")
    elif not (values["total_time"] > 0.0
              and 0.0 < values["utilization"] <= max_utilization + 1e-9
              and 0.0 <= values["weighted_mean_response"]
              <= values["weighted_mean_completion"]):
        problems.append(f"metrics out of range {values}")
    return {name: _fp(v) for name, v in values.items()}


class Workload:
    name = ""
    #: Jobs per unit of a measured pass.
    jobs = 0
    #: Jobs per unit of the warm-up draw run before timing starts.
    warmup_jobs = 100
    #: Passes a measured run makes even when its time is up.
    min_passes = 1
    #: The tail latency percentile: a p99 needs 1000 calls per run.
    tail_q = 0.99
    #: Initial virtual-time chunk for the metered engine (seconds).
    chunk = 1_000.0

    def inputs(self, seed: int, jobs: int):
        raise NotImplementedError

    def units(self, inputs, probe: Probe) -> List[Tuple[str, Callable]]:
        raise NotImplementedError


class _StreamWorkload(Workload):
    """Poisson arrivals from the paper's uniform mix, streamed lazily into
    a 256-slot :class:`ScheduleSimulator` with ``retain="metrics"``."""

    policy = "elastic"
    rate = 0.1
    slots = 256

    def inputs(self, seed, jobs):
        return SyntheticWorkload(jobs, arrivals=PoissonArrivals(self.rate),
                                 mix=UniformMix(), seed=seed)

    def units(self, source, probe):
        def build():
            sim = ScheduleSimulator(
                REGISTRY.resolve(self.policy), total_slots=self.slots,
                engine=probe.engine(),
                policy_engine_cls=probe.policy_engine_cls,
            )

            def go():
                result = sim.run(probe.source(source.submissions()),
                                 retain="metrics")
                problems: List[str] = []
                fp = _check_metrics(result.metrics, len(source), problems)
                fp["makespan"] = _fp(result.makespan)
                return UnitResult(len(source), fp, problems)
            return go
        return [(self.policy, build)]


class PaperStream(_StreamWorkload):
    name = "paper_stream"
    jobs = 20_000
    warmup_jobs = 1_000
    chunk = 4_000.0


class EasyBacklog(_StreamWorkload):
    name = "easy_backlog"
    policy = "easy-backfill"
    jobs = 2_000
    chunk = 200.0


class SpotFaults(Workload):
    """Elastic policy + queue autoscaler on a spot-heavy fleet, with a
    synthesized fault plan and notice-window checkpointing."""

    name = "spot_faults"
    jobs = 10_000
    warmup_jobs = 500
    chunk = 2_000.0
    gap = 15.0
    #: Fault pressure per 2000 jobs (the committed faults churn row).
    per_2000 = dict(crashes=8, interruptions=12, fail_windows=3,
                    timeout_windows=2, shortage_windows=2)

    def scenario(self) -> CloudScenario:
        return CloudScenario(initial_nodes=2, min_nodes=2, max_nodes=8,
                             spot_nodes=4, spot_mean_lifetime=900.0,
                             provision_delay=60.0)

    def inputs(self, seed, jobs):
        source = SyntheticWorkload(jobs, arrivals=PoissonArrivals(1.0 / self.gap),
                                   mix=UniformMix(), seed=seed)
        scale = jobs / 2_000.0
        load = FaultLoad(notice=120.0, window_duration=900.0,
                         **{k: max(1, round(v * scale))
                            for k, v in self.per_2000.items()})
        return source, FaultPlan.synthesize(seed, jobs * self.gap, load), seed

    def units(self, inputs, probe):
        source, plan, seed = inputs
        scenario = self.scenario()

        def build():
            injector = probe.wrap("faults", FaultInjector(plan))
            provider = probe.wrap(
                "cloud", CloudProvider(scenario.pools(), seed=seed, faults=injector))
            store = probe.wrap("faults", DiskCheckpointStore())
            sim = CloudScheduleSimulator(
                REGISTRY.resolve("elastic"), provider=provider,
                autoscaler=probe.wrap("autoscaler", make_autoscaler("queue")),
                cost_model=CostModel(), engine=probe.engine(),
                policy_engine_cls=probe.policy_engine_cls,
                tick=scenario.tick, checkpoints=store,
            )
            probe.wrap("cloud", sim.meter)
            max_utilization = (provider.max_total_nodes * scenario.slots_per_node
                               / sim.total_slots)

            def go():
                result = sim.run(probe.source(source.submissions()),
                                 retain="metrics")
                problems: List[str] = []
                fp = _check_metrics(result.metrics, len(source), problems,
                                    max_utilization)
                fp["makespan"] = _fp(result.makespan)
                cost, faults = result.cost, result.faults
                if not (math.isfinite(cost.total_cost) and cost.total_cost > 0.0):
                    problems.append(f"cost out of range: {cost.total_cost}")
                if not 0.0 < faults.goodput_fraction <= 1.0:
                    problems.append(f"goodput out of range: {faults.goodput_fraction}")
                fp["cost"] = _fp(cost.total_cost)
                fp["goodput"] = _fp(faults.goodput_fraction)
                extras = {
                    "cloud.nodes_provisioned": cost.nodes_provisioned,
                    "cloud.interruptions": cost.interruptions,
                    "faults.checkpoints_written": faults.checkpoints_written,
                    "faults.restarts_from_checkpoint": faults.restarts_from_checkpoint,
                    "faults.evictions": faults.evictions,
                    "faults.goodput_fraction": faults.goodput_fraction,
                }
                return UnitResult(len(source), fp, problems, extras)
            return go
        return [("elastic", build)]


class K8sOperator(Workload):
    """The Table-1 "Actual" column: the Figure-9 16-job draw through the
    full Kubernetes stack under each of the four paper policies."""

    name = "k8s_operator"
    jobs = FIG9_WORKLOAD.num_jobs
    warmup_jobs = 2
    min_passes = 2
    # ~200 policy-engine calls per run cannot support a p99.
    tail_q = 0.9
    chunk = 200.0
    rescale_gap = 180.0
    sync_every = 10
    horizon = 100_000.0

    def inputs(self, seed, jobs):
        # The Table-1 draw itself; the seed only shifts each arrival by up
        # to a third of the submission gap.  Drawing a new 16-job mix per
        # seed would swing the cost per job by more than the bounds allow.
        spec = replace(FIG9_WORKLOAD, num_jobs=jobs)
        shifts = stream(seed, "perfbench-arrivals").uniform(
            0.0, spec.submission_gap / 3.0, size=jobs)
        return [replace(sub, time=sub.time + float(shift))
                for sub, shift in zip(generate_workload(spec), shifts)]

    def _charm_job(self, sub) -> CharmJob:
        spec = CharmJobSpec(
            min_replicas=sub.request.min_replicas,
            max_replicas=sub.request.max_replicas,
            priority=sub.request.priority,
            worker=WorkerSpec.parse(cpu="1", memory="1Gi", shm="2Gi"),
            app=AppSpec(name="modeled", params={"size_class": sub.size.name,
                                                "sync_every": self.sync_every}),
            launcher_cpu=LAUNCHER_CPU,
        )
        return CharmJob(sub.request.name, spec)

    def units(self, submissions, probe):
        return [(policy, self._unit(policy, submissions, probe))
                for policy in POLICIES]

    def _unit(self, policy_name, submissions, probe):
        def build():
            # The wiring of repro.experiments.cluster_run.run_cluster_experiment.
            engine = probe.engine()
            cluster = make_eks_cluster(engine)
            probe.wrap("k8s", cluster.api)
            operator = probe.wrap("mpioperator", CharmJobController(
                engine, cluster, app_factory=probe.wrap("apps", make_app_factory())))
            probe.wrap("mpioperator", operator.rescaler)
            config = REGISTRY.resolve(policy_name, rescale_gap=self.rescale_gap,
                                      launcher_slots=K8S_LAUNCHER_SLOTS)
            scheduler = ElasticSchedulerController(engine, cluster, operator,
                                                   config=config)
            scheduler.policy = probe.policy_engine_cls(scheduler.total_slots, config)
            jobs = []
            for sub in submissions:
                job = self._charm_job(sub)
                jobs.append(job)
                engine.schedule_at(sub.time, scheduler.submit, job)

            def go():
                engine.run(until=self.horizon)
                problems: List[str] = []
                if not scheduler.all_done:
                    problems.append(f"{policy_name}: unfinished jobs at the horizon")
                    return UnitResult(len(jobs), {}, problems)
                names = [o.name for o in scheduler.outcomes]
                if len(set(names)) != len(names):
                    problems.append(f"{policy_name}: a job completed twice")
                fp = _check_metrics(scheduler.metrics(policy_name), len(jobs),
                                    problems)
                fp["makespan"] = _fp(max(o.completion_time
                                         for o in scheduler.outcomes))
                return UnitResult(len(jobs), fp, problems)
            return go
        return build


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (PaperStream(), EasyBacklog(), SpotFaults(), K8sOperator())
}
