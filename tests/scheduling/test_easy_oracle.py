"""EASY backfilling: the once-per-state rule against the rescan oracle.

``EasyBackfill`` prices the release profile once per engine state and
admits aggressive candidates with Lifka's O(1) shadow-time test;
:mod:`tests.scheduling.easy_oracle` keeps the rule it replaced, which
re-projects the cluster for every candidate.  Each scenario drives one
engine per rule through the same randomized event stream and compares
the serialized decision logs.  The streams mix every transition the
engine's ``transitions`` counter must see: submissions (several at one
``now``), completions, substrate rescale failures, capacity growth and
cooperative or forced capacity shrinks.  Reservations must agree too,
except for heads a higher-ranked job overtook: the new rule drops those.
"""

import dataclasses
import random

import pytest

from repro.scheduling import ElasticPolicyEngine, JobRequest
from repro.scheduling.extensions import (
    PreemptivePolicyEngine,
    PreemptJob,
    ResumeJob,
)
from repro.scheduling.job import priority_order_key
from repro.scheduling.literature import EasyBackfill
from repro.scheduling.policy import EnqueueJob, RequeueJob, StartJob
from repro.scheduling.registry import REGISTRY

from .easy_oracle import EasyBackfill as OracleEasyBackfill

SEEDS = tuple(range(12))
SLOTS = 32
#: Runtime estimates on a coarse grid, so releases tie exactly, plus
#: offsets inside (1e-10) and just outside (3e-9) the 1e-9 tolerance.
EST_GRID = (50.0, 100.0, 150.0, 300.0, 600.0)
EST_OFFSETS = (0.0, 0.0, 0.0, 1e-10, -1e-10, 3e-9)


def serialize(decision):
    extra = tuple(
        (field, getattr(decision, field))
        for field in ("replicas", "from_replicas", "to_replicas",
                      "released_replicas")
        if hasattr(decision, field)
    )
    return (type(decision).__name__, decision.job.name, extra)


def configs(conservative=False, launcher_slots=0):
    """(shipped, oracle) easy-backfill configs differing only in the rule."""
    new = REGISTRY.resolve("easy-backfill", conservative=conservative,
                           launcher_slots=launcher_slots)
    old = dataclasses.replace(
        new, backfill=OracleEasyBackfill(conservative=conservative)
    )
    return new, old


class Stream:
    """One engine's randomized event stream.

    Every draw is taken unconditionally or gated only on state two
    equivalent engines share, so a divergence shows up as a log diff.
    """

    def __init__(self, engine, seed, prefix="j", n_jobs=70):
        self.engine = engine
        self.rng = random.Random(seed)
        self.prefix = prefix
        self.n_jobs = n_jobs
        self.submitted = 0
        self.now = 0.0
        self.log = []
        self.decisions = []

    @property
    def done(self):
        return self.submitted >= self.n_jobs and not self.engine.running

    def record(self, decisions):
        self.decisions.extend(decisions)
        self.log.extend(serialize(d) for d in decisions)

    def step(self, now=None):
        """One event, at ``now`` if given (a clock shared with another
        stream), else after a random gap — zero half the time, so
        several events land on one ``now``."""
        rng, engine = self.rng, self.engine
        gap = rng.expovariate(1.0 / 40.0) if rng.random() < 0.5 else 0.0
        self.now = self.now + gap if now is None else now
        roll = rng.random()
        if self.submitted < self.n_jobs and (not engine.running or roll < 0.6):
            low = rng.randint(1, 12)
            est = rng.choice(EST_GRID) + rng.choice(EST_OFFSETS)
            request = JobRequest(
                name=f"{self.prefix}{self.submitted}",
                min_replicas=low,
                max_replicas=low + rng.choice((0, 0, 2, 6)),
                priority=rng.randint(1, 4),
                params={"est_runtime": est},
            )
            self.submitted += 1
            self.record(engine.on_submit(request, self.now))
        elif roll < 0.85 and engine.running:
            victim = rng.choice([j.name for j in engine.running])
            self.record(engine.on_complete(victim, self.now))
        elif roll < 0.9 and engine.running:
            job = rng.choice(list(engine.running))
            actual = rng.randint(job.min_replicas, job.replicas)
            engine.on_rescale_failed(job.name, actual)
            self.log.append(("RescaleFailed", job.name, actual))
        elif roll < 0.95:
            self.record(engine.grow_capacity(rng.randint(1, 8), self.now))
        elif engine.total_slots > SLOTS // 2:
            force = rng.random() < 0.5
            removed, decisions = engine.shrink_capacity(
                rng.randint(1, 8), self.now, force=force
            )
            self.log.append(("ShrinkCapacity", force, removed))
            self.record(decisions)

    def run(self):
        while not self.done:
            self.step()
        return self


def overtaken(decisions):
    """Names of jobs that waited while a higher-ranked job entered the
    queue or started — the heads whose reservations may be dropped."""
    waiting = {}
    out = set()
    for decision in decisions:
        job = decision.job
        key = priority_order_key(job)
        waiting.pop(job.name, None)
        if isinstance(decision, (EnqueueJob, RequeueJob, PreemptJob,
                                 StartJob, ResumeJob)):
            out.update(name for name, other in waiting.items() if key < other)
        if isinstance(decision, (EnqueueJob, RequeueJob, PreemptJob)):
            waiting[job.name] = key
    return out


def assert_same_reservations(new_rule, old_rule, overtakes):
    for mine, theirs in ((new_rule.last_reservations,
                          old_rule.last_reservations),
                         (new_rule.last_head_reservations,
                          old_rule.last_head_reservations)):
        # Whatever the new rule still holds, the oracle recorded alike.
        assert mine == {name: theirs[name] for name in mine}
        # It only drops heads a higher-ranked job overtook.
        assert set(theirs) - set(mine) <= overtakes


@pytest.mark.parametrize("conservative", [False, True])
@pytest.mark.parametrize("launcher_slots", [0, 1])
@pytest.mark.parametrize("seed", SEEDS)
def test_decision_logs_match_the_oracle(seed, launcher_slots, conservative):
    new_cfg, old_cfg = configs(conservative, launcher_slots)
    new = Stream(ElasticPolicyEngine(SLOTS, new_cfg), seed).run()
    old = Stream(ElasticPolicyEngine(SLOTS, old_cfg), seed).run()
    assert new.log == old.log
    assert new.engine.snapshot() == old.engine.snapshot()
    assert_same_reservations(new_cfg.backfill, old_cfg.backfill,
                             overtaken(new.decisions))


@pytest.mark.parametrize("seed", SEEDS)
def test_preemptive_engine_matches_the_oracle(seed):
    new_cfg, old_cfg = configs()
    new = Stream(PreemptivePolicyEngine(SLOTS, new_cfg), seed).run()
    old = Stream(PreemptivePolicyEngine(SLOTS, old_cfg), seed).run()
    assert new.log == old.log
    assert_same_reservations(new_cfg.backfill, old_cfg.backfill,
                             overtaken(new.decisions))


def test_preemptive_streams_do_preempt():
    cfg, _ = configs()
    preempted = sum(
        isinstance(d, PreemptJob)
        for seed in SEEDS
        for d in Stream(PreemptivePolicyEngine(SLOTS, cfg), seed).run().decisions
    )
    assert preempted > 0


@pytest.mark.parametrize("conservative", [False, True])
@pytest.mark.parametrize("seed", SEEDS[:6])
def test_engines_sharing_one_config_interleave(seed, conservative):
    """Engines built from one resolved config share its rule: a profile
    priced for one engine must never answer for the other."""
    logs, decisions = {}, {}
    new_cfg, old_cfg = configs(conservative)
    for label, cfg in (("new", new_cfg), ("old", old_cfg)):
        streams = [
            Stream(ElasticPolicyEngine(SLOTS, cfg), seed * 7 + i, prefix=p)
            for i, p in enumerate(("a", "b"))
        ]
        pick = random.Random(seed)
        now = 0.0
        while not all(s.done for s in streams):
            if pick.random() < 0.5:
                now += pick.expovariate(1.0 / 40.0)
            pick.choice([s for s in streams if not s.done]).step(now)
        logs[label] = [s.log for s in streams]
        decisions[label] = [s.decisions for s in streams]
    assert logs["new"] == logs["old"]
    # Job names differ between the two engines, so the per-engine
    # overtake sets simply add up.
    assert_same_reservations(
        new_cfg.backfill, old_cfg.backfill,
        set().union(*(overtaken(d) for d in decisions["new"])),
    )


def est(name, low, high, runtime, priority=1):
    return JobRequest(name=name, min_replicas=low, max_replicas=high,
                      priority=priority, params={"est_runtime": runtime})


def easy_engine(rule_cls, slots):
    cfg = dataclasses.replace(REGISTRY.resolve("easy-backfill"),
                              backfill=rule_cls())
    return ElasticPolicyEngine(slots, cfg)


def started(decisions):
    return isinstance(decisions[-1], StartJob)


RULES = [OracleEasyBackfill, EasyBackfill]


class TestToleranceBoundary:
    """Releases within 1e-9 of the head's shadow time count as on time.

    Ten slots: ``a`` (4 slots) finishes at t=100, ``b`` (2 slots) just
    after.  Head ``h`` needs 7, so its shadow time is 100.  A 3-slot,
    long candidate fits only if ``b``'s release also counts at t=100.
    """

    def engine(self, rule_cls, b_end):
        engine = easy_engine(rule_cls, 10)
        engine.on_submit(est("a", 4, 4, 100.0), 0.0)
        engine.on_submit(est("b", 2, 2, b_end), 0.0)
        engine.on_submit(est("h", 7, 7, 10.0), 0.0)
        return engine

    @pytest.mark.parametrize("b_end, admitted", [
        (100.0 + 5e-10, True), (100.0 + 2e-9, False),
    ])
    @pytest.mark.parametrize("rule_cls", RULES)
    def test_release_inside_tolerance(self, rule_cls, b_end, admitted):
        engine = self.engine(rule_cls, b_end)
        assert started(engine.on_submit(est("c", 3, 3, 500.0), 0.0)) is admitted
        if admitted:
            assert engine.config.backfill.last_head_reservations == {"h": b_end}

    @pytest.mark.parametrize("end, admitted", [
        (100.0 + 5e-10, True), (100.0 + 2e-9, False),
    ])
    @pytest.mark.parametrize("rule_cls", RULES)
    def test_candidate_ending_inside_tolerance(self, rule_cls, end, admitted):
        engine = self.engine(rule_cls, 200.0)
        # Needs more than the slots left at t=100 (E = 1), so it must
        # itself be gone by the shadow time.
        assert started(engine.on_submit(est("c", 3, 3, end), 0.0)) is admitted


class TestRepricing:
    """A transition at an unchanged ``now`` must re-price the profile.

    Each scenario prices the engine with a rejected candidate, applies
    one transition at the same ``now``, and submits a candidate whose
    answer the transition flips; the oracle must agree.
    """

    @pytest.mark.parametrize("rule_cls", RULES)
    def test_rescale_failure_frees_slots(self, rule_cls):
        # b (6 slots) ends at 50, a (4 slots) at 1000; head h needs 8:
        # S = 50 with no slack.  a reverting to 2 replicas leaves 2 spare.
        engine = easy_engine(rule_cls, 12)
        engine.on_submit(est("b", 6, 6, 50.0), 0.0)
        engine.on_submit(est("a", 2, 4, 1000.0), 0.0)
        engine.on_submit(est("h", 8, 8, 10.0), 0.0)
        assert not started(engine.on_submit(est("c0", 2, 2, 500.0), 1.0))
        engine.on_rescale_failed("a", 2)
        assert started(engine.on_submit(est("c1", 2, 2, 500.0), 1.0))

    @pytest.mark.parametrize("rule_cls", RULES)
    def test_cooperative_shrink_surrenders_free_slots(self, rule_cls):
        # b (6 slots) ends at 50; head h needs 10: S = 50 with 2 spare
        # slots, until the cluster gives up 2 of its free slots.
        engine = easy_engine(rule_cls, 12)
        engine.on_submit(est("b", 6, 6, 50.0), 0.0)
        engine.on_submit(est("h", 10, 10, 10.0), 0.0)
        assert not started(engine.on_submit(est("c0", 3, 3, 500.0), 1.0))
        removed, _ = engine.shrink_capacity(2, 1.0)
        assert removed == 2
        assert not started(engine.on_submit(est("c1", 2, 2, 500.0), 1.0))

    def test_engines_sharing_a_rule_are_priced_apart(self):
        # Same transition count, same now, different shadow times.
        cfg = REGISTRY.resolve("easy-backfill")
        first, second = ElasticPolicyEngine(8, cfg), ElasticPolicyEngine(8, cfg)
        for engine, runtime in ((first, 100.0), (second, 300.0)):
            engine.on_submit(est("a", 4, 4, runtime), 0.0)
            engine.on_submit(est("h", 6, 6, 10.0), 0.0)
        assert first.transitions == second.transitions
        assert not started(first.on_submit(est("c", 3, 3, 150.0), 1.0))
        assert started(second.on_submit(est("c", 3, 3, 150.0), 1.0))


def test_transitions_counter_moves_on_every_transition():
    engine = PreemptivePolicyEngine(8, REGISTRY.resolve("elastic"))
    seen = [engine.transitions]

    def moved():
        seen.append(engine.transitions)
        return seen[-1] > seen[-2]

    engine.on_submit(JobRequest("z", 2, 2, priority=9), 0.0)
    assert moved()  # start (z outranks everyone: never a victim)
    engine.on_submit(JobRequest("a", 2, 4, priority=1), 0.0)
    assert moved()
    engine.on_rescale_failed("a", 3)
    assert moved()
    engine.grow_capacity(2, 1.0)
    assert moved()
    engine.shrink_capacity(2, 2.0)
    assert moved()
    decisions = engine.on_submit(JobRequest("b", 6, 6, priority=5), 3.0)
    assert [type(d).__name__ for d in decisions] == ["PreemptJob", "StartJob"]
    assert moved()
    _, decisions = engine.shrink_capacity(4, 4.0, force=True)
    assert [type(d).__name__ for d in decisions] == ["RequeueJob"]
    assert moved()
    engine.on_submit(JobRequest("c", 8, 8, priority=1), 5.0)
    assert not moved()  # enqueueing changes no slot
    engine.on_complete("z", 6.0)
    assert moved()
