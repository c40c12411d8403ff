"""Golden decision-log equivalence: optimized engine vs frozen reference.

The PR-2 hot-path rework (incremental slot accounting, insort-maintained
lists, lazy Figure-3 merge) must not change a single scheduling decision:
the paper-faithful semantics — including the documented Figure 2/3 quirks
— are defined by :mod:`repro.scheduling._reference`, and this suite
proves the optimized :class:`ElasticPolicyEngine` (and its aging and
preemptive extensions) byte-identical to it across randomized workloads.

Each scenario drives both engines through the same deterministic event
stream (submissions, completions, substrate rescale failures) and
compares the full serialized decision sequence plus the final snapshot
and free-slot accounting.
"""

import math
import random

import pytest

from repro.scheduling import ElasticPolicyEngine, JobRequest, PolicyConfig, REGISTRY
from repro.scheduling._reference import (
    ReferenceAgingPolicyEngine,
    ReferenceElasticPolicyEngine,
    ReferencePreemptivePolicyEngine,
)
from repro.scheduling.extensions import AgingPolicyEngine, PreemptivePolicyEngine

POLICIES = ("elastic", "moldable", "min_replicas", "max_replicas")
SEEDS = tuple(range(20))
TOTAL_SLOTS = 64


def serialize(decision):
    """A decision as comparable plain data (engines hold distinct jobs)."""
    extra = tuple(
        (field, getattr(decision, field))
        for field in ("replicas", "from_replicas", "to_replicas", "released_replicas")
        if hasattr(decision, field)
    )
    return (type(decision).__name__, decision.job.name, extra)


def drive(engine, seed, n_jobs=60, total_slots=TOTAL_SLOTS, probe=None):
    """One randomized workload; returns the serialized decision sequence.

    Every random draw is taken unconditionally or gated only on state the
    two engines must share (running-list emptiness and contents), so
    equivalent engines see identical event streams — and a divergence
    surfaces as a decision-log mismatch.  ``probe`` (optimized engine
    only) observes the engine after every event — the multi-block
    scenarios use it to assert the indexed fast paths really fired.
    """
    rng = random.Random(seed)
    log = []
    now = 0.0
    submitted = 0
    while submitted < n_jobs or engine.running:
        now += rng.expovariate(1.0 / 120.0)
        if submitted < n_jobs and (not engine.running or rng.random() < 0.6):
            low = rng.randint(1, 8)
            high = min(low + rng.choice((0, 2, 6, 14, 30)), total_slots)
            request = JobRequest(
                name=f"j{submitted}",
                min_replicas=low,
                max_replicas=high,
                priority=rng.randint(1, 5),
            )
            log.extend(serialize(d) for d in engine.on_submit(request, now))
            submitted += 1
        else:
            victim = rng.choice([j.name for j in engine.running])
            log.extend(serialize(d) for d in engine.on_complete(victim, now))
        if engine.running and rng.random() < 0.15:
            # Substrate feedback: the operator reverted a rescale.
            job = rng.choice(engine.running)
            if job.replicas > job.min_replicas:
                actual = rng.randint(job.min_replicas, job.replicas)
                engine.on_rescale_failed(job.name, actual)
                log.append(("RescaleFailed", job.name, (("replicas", actual),)))
        if probe is not None:
            probe(engine)
    return log


#: The multi-block scenarios need hundreds of concurrently-live jobs:
#: IndexedJobList only splits past 2*BLOCK_LOAD members, and the indexed
#: fast paths (block crediting/skipping) never fire on a single block.
BACKLOG_SLOTS = 2048


def drive_backlog(engine, seed, n_jobs=800, probe=None):
    """A churn-shaped stream that pushes both lists past one block.

    Three submissions per completion with every gap beyond
    ``T_rescale_gap``, on a 2048-slot cluster: the running set grows to
    hundreds of mostly-minimum-width jobs (several blocks) and the queue
    builds a deep backlog — the regime where the aggregate credit/skip
    branches of the Figure-2/3 walks, and block split/merge under the
    engine, actually execute.  Randomized completion victims and rescale
    failures keep the aggregates churning.
    """
    rng = random.Random(seed)
    log = []
    now = 0.0
    for i in range(n_jobs):
        now += 240.0
        low = rng.randint(1, 8)
        high = min(low + rng.choice((0, 2, 6, 14, 30)), BACKLOG_SLOTS)
        request = JobRequest(
            name=f"j{i}",
            min_replicas=low,
            max_replicas=high,
            priority=rng.randint(1, 5),
        )
        log.extend(serialize(d) for d in engine.on_submit(request, now))
        if i % 3 == 2 and engine.running:
            now += 240.0
            victim = rng.choice([j.name for j in engine.running])
            log.extend(serialize(d) for d in engine.on_complete(victim, now))
        if engine.running and rng.random() < 0.1:
            job = rng.choice(engine.running)
            if job.replicas > job.min_replicas:
                actual = rng.randint(job.min_replicas, job.replicas)
                engine.on_rescale_failed(job.name, actual)
                log.append(("RescaleFailed", job.name, (("replicas", actual),)))
        if probe is not None:
            probe(engine)
    while engine.running:
        now += 240.0
        victim = rng.choice([j.name for j in engine.running])
        log.extend(serialize(d) for d in engine.on_complete(victim, now))
        if probe is not None:
            probe(engine)
    return log


def assert_equivalent(optimized, reference, seed, n_jobs=60):
    log_opt = drive(optimized, seed, n_jobs)
    log_ref = drive(reference, seed, n_jobs)
    assert log_opt, "workload produced no decisions — scenario is vacuous"
    assert log_opt == log_ref
    assert optimized.snapshot() == reference.snapshot()
    assert optimized.free_slots == reference.free_slots
    assert [j.name for j in optimized.queue] == [j.name for j in reference.queue]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("policy", POLICIES)
def test_elastic_engine_matches_reference(policy, seed):
    config = REGISTRY.resolve(policy)
    assert_equivalent(
        ElasticPolicyEngine(TOTAL_SLOTS, config),
        ReferenceElasticPolicyEngine(TOTAL_SLOTS, REGISTRY.resolve(policy)),
        seed,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_preemptive_engine_matches_reference(seed):
    assert_equivalent(
        PreemptivePolicyEngine(TOTAL_SLOTS, REGISTRY.resolve("elastic")),
        ReferencePreemptivePolicyEngine(TOTAL_SLOTS, REGISTRY.resolve("elastic")),
        seed,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_aging_engine_matches_reference(seed):
    assert_equivalent(
        AgingPolicyEngine(TOTAL_SLOTS, REGISTRY.resolve("elastic"), aging_interval=300.0),
        ReferenceAgingPolicyEngine(
            TOTAL_SLOTS, REGISTRY.resolve("elastic"), aging_interval=300.0
        ),
        seed,
    )


@pytest.mark.parametrize("seed", SEEDS[:10])
@pytest.mark.parametrize(
    "config_kwargs",
    [
        {"launcher_slots": 1},
        {"literal_completion_budget": True},
        {"rescale_gap": 0.0},
        {"rescale_gap": math.inf, "launcher_slots": 2},
    ],
    ids=["launcher", "literal-budget", "zero-gap", "moldable-launcher"],
)
def test_config_deviations_match_reference(config_kwargs, seed):
    """The documented deviations survive the refactor too."""
    assert_equivalent(
        ElasticPolicyEngine(TOTAL_SLOTS, PolicyConfig(**config_kwargs)),
        ReferenceElasticPolicyEngine(TOTAL_SLOTS, PolicyConfig(**config_kwargs)),
        seed,
    )


class TestMultiBlockEquivalence:
    """Byte-identity in the regime the PR-3 fast paths actually run.

    The 60-job scenarios above never split a block, so they cannot catch
    a bug in the aggregate credit/skip branches.  These drive the
    backlog stream, assert the lists really spanned multiple blocks, and
    audit the block aggregates mid-flight.
    """

    @staticmethod
    def _probing(seed, engine_cls, reference_cls, **engine_kwargs):
        peak = {"running": 0, "queue": 0}
        events = [0]

        def probe(engine):
            peak["running"] = max(peak["running"], len(engine.running.blocks))
            peak["queue"] = max(peak["queue"], len(engine.queue.blocks))
            events[0] += 1
            if events[0] % 64 == 0:  # exact-aggregate audit, amortized
                engine.running.check_invariants()
                engine.queue.check_invariants()

        optimized = engine_cls(BACKLOG_SLOTS, REGISTRY.resolve("elastic"),
                               **engine_kwargs)
        reference = reference_cls(BACKLOG_SLOTS, REGISTRY.resolve("elastic"),
                                  **engine_kwargs)
        log_opt = drive_backlog(optimized, seed, probe=probe)
        log_ref = drive_backlog(reference, seed)
        assert log_opt == log_ref
        assert optimized.snapshot() == reference.snapshot()
        assert optimized.free_slots == reference.free_slots
        assert [j.name for j in optimized.queue] == [
            j.name for j in reference.queue
        ]
        return peak

    @pytest.mark.parametrize("seed", (0, 1, 2, 3))
    def test_elastic_multi_block_matches_reference(self, seed):
        peak = self._probing(
            seed, ElasticPolicyEngine, ReferenceElasticPolicyEngine
        )
        # The scenario must really have exercised the indexed regime.
        assert peak["running"] >= 3 and peak["queue"] >= 2

    @pytest.mark.parametrize("seed", (0, 1))
    def test_preemptive_multi_block_matches_reference(self, seed):
        peak = self._probing(
            seed, PreemptivePolicyEngine, ReferencePreemptivePolicyEngine
        )
        assert peak["running"] >= 3

    @pytest.mark.parametrize("seed", (0,))
    def test_aging_multi_block_matches_reference(self, seed):
        peak = self._probing(
            seed, AgingPolicyEngine, ReferenceAgingPolicyEngine,
            aging_interval=300.0,
        )
        assert peak["running"] >= 3


@pytest.mark.parametrize("seed", SEEDS[:10])
@pytest.mark.parametrize("policy", POLICIES)
def test_registry_resolved_matches_reference(policy, seed):
    """Resolving a paper policy by name yields decisions byte-identical
    to the frozen reference engine: the registry's no-regression
    guarantee."""
    assert_equivalent(
        ElasticPolicyEngine(TOTAL_SLOTS, REGISTRY.resolve(policy)),
        ReferenceElasticPolicyEngine(TOTAL_SLOTS, REGISTRY.resolve(policy)),
        seed,
    )


def test_decision_log_gating_does_not_change_decisions():
    """keep_decision_log=False only empties the log, never the decisions."""
    logged = ElasticPolicyEngine(TOTAL_SLOTS, REGISTRY.resolve("elastic"))
    gated = ElasticPolicyEngine(TOTAL_SLOTS, REGISTRY.resolve("elastic"))
    gated.keep_decision_log = False
    assert drive(logged, seed=3) == drive(gated, seed=3)
    assert gated.decision_log == []
    assert logged.decision_log  # default behaviour unchanged
