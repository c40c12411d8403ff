"""The indexed Figure-3 walk on hooked configs against the literal scan.

Backfill and capacity-constraint configs hand out freed slots through
the same indexed two-pointer walk as the paper's policies.  The walk
tracks whether a waiter was left behind (the scan's ``passed_queued``)
and caps every start and expansion by the constraint, so its decisions
must equal the literal scan's (:mod:`tests.scheduling.fig3_oracle`).  Each
scenario drives the shipped engine and a test-side engine whose walk
*is* the scan through one randomized stream, and compares the serialized
decision logs and the backfill rule's reservations.

``BLOCK_LOAD`` drops to 2 so both lists span many blocks and the walk's
whole-block skips actually fire on these short streams.
"""

import dataclasses
import math

import pytest

from repro.obs import metrics as obs_metrics
from repro.scheduling import ElasticPolicyEngine, JobRequest, joblist
from repro.scheduling.policy import ShrinkJob, StartJob
from repro.scheduling.power import PowerBudget
from repro.scheduling.registry import REGISTRY

from .fig3_oracle import PreemptiveScanEngine, ScanEngine
from .test_easy_oracle import SEEDS, SLOTS, Stream

#: 16 replicas at the default 150 W: tighter than the 32 slots, so the
#: constraint caps starts and expansions on most completions.
BUDGET_WATTS = 2400.0


def _easy(conservative=False, launcher_slots=0):
    return REGISTRY.resolve("easy-backfill", conservative=conservative,
                            launcher_slots=launcher_slots)


def _easy_power():
    return dataclasses.replace(
        _easy(),
        capacity_constraint=lambda: PowerBudget(budget_watts=BUDGET_WATTS),
    )


#: Config factories: every engine gets a freshly resolved config, since
#: backfill rules carry reservation state.
CONFIGS = {
    "easy": _easy,
    "easy-launcher": lambda: _easy(launcher_slots=1),
    "easy-conservative": lambda: _easy(conservative=True),
    "easy-conservative-launcher": lambda: _easy(True, 1),
    "power-capped": lambda: REGISTRY.resolve(
        "power-capped", budget_watts=BUDGET_WATTS
    ),
    "easy+power": _easy_power,
}

#: Scan oracle per engine; ``preemptive`` turns the preemption stage on.
SCANS = {"elastic": ScanEngine, "preemptive": PreemptiveScanEngine}


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    monkeypatch.setattr(joblist, "BLOCK_LOAD", 2)


def run_pair(engines, config, seed):
    def build():
        return dataclasses.replace(CONFIGS[config](),
                                   preempt=engines == "preemptive")

    walk = Stream(ElasticPolicyEngine(SLOTS, build()), seed).run()
    scan = Stream(SCANS[engines](SLOTS, build()), seed).run()
    return walk, scan


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("seed", SEEDS)
def test_walk_matches_the_scan(config, seed):
    walk, scan = run_pair("elastic", config, seed)
    assert walk.log == scan.log
    assert walk.engine.snapshot() == scan.engine.snapshot()
    rule, oracle = walk.engine.config.backfill, scan.engine.config.backfill
    if rule is not None:
        assert rule.last_reservations == oracle.last_reservations
        assert rule.last_head_reservations == oracle.last_head_reservations


@pytest.mark.parametrize("seed", SEEDS)
def test_preemptive_walk_matches_the_scan(seed):
    walk, scan = run_pair("preemptive", "easy", seed)
    assert walk.log == scan.log
    rule, oracle = walk.engine.config.backfill, scan.engine.config.backfill
    assert rule.last_reservations == oracle.last_reservations
    assert rule.last_head_reservations == oracle.last_head_reservations


@pytest.mark.parametrize("config", ["easy", "power-capped"])
def test_block_skips_fire(config):
    """The shrunken blocks put both whole-block skips on the walk's path,
    so the comparisons above exercise them."""
    before = obs_metrics.active_registry()
    registry = obs_metrics.enable()
    try:
        for seed in SEEDS:
            Stream(ElasticPolicyEngine(SLOTS, CONFIGS[config]()), seed).run()
        snap = registry.snapshot()
    finally:
        if before.enabled:
            obs_metrics.enable(before)
        else:
            obs_metrics.disable()
    assert snap["engine.fig3.queue_blocks_skipped"] > 0
    assert snap["engine.fig3.running_blocks_skipped"] > 0


def job(name, low, high, runtime, priority=1, watts=150.0):
    return JobRequest(name=name, min_replicas=low, max_replicas=high,
                      priority=priority,
                      params={"est_runtime": runtime,
                              "watts_per_replica": watts})


def kinds(decisions):
    return [(type(d).__name__, d.job.name) for d in decisions]


class TestBackfillUnderPowerCap:
    """A backfill rule and a capacity constraint compose: the watt budget
    caps every start, and the rule still gates every start past a
    waiting head, on submission and on completion alike."""

    def engine(self, budget_watts, rescale_gap=math.inf, backfill=True):
        cfg = dataclasses.replace(
            _easy() if backfill else REGISTRY.resolve("power-capped"),
            rescale_gap=rescale_gap,
            capacity_constraint=lambda: PowerBudget(budget_watts=budget_watts),
        )
        return ElasticPolicyEngine(12, cfg)

    def test_rule_gates_submissions_and_completions(self):
        engine = self.engine(1800.0)
        engine.on_submit(job("a", 4, 4, 100.0), 0.0)
        engine.on_submit(job("b", 4, 4, 300.0), 0.0)
        # 4 slots but only 3 replicas of watts at 200 W: h waits as head
        # (shadow time 100, when a's release leaves 2 spare slots).
        assert kinds(engine.on_submit(job("h", 6, 8, 10.0, 3, 200.0), 0.0)) \
            == [("EnqueueJob", "h")]
        # c fits the free slots (4) and watts (4 replicas) but would hold
        # 3 slots past the shadow time: the rule denies it.
        assert kinds(engine.on_submit(job("c", 3, 3, 500.0), 0.0)) \
            == [("EnqueueJob", "c")]

        # a's completion frees 8 slots but only 1200 W: the Figure-3
        # start of h is capped by watts at 6 replicas, not slots at 8.
        decisions = engine.on_complete("a", 100.0)
        assert [(type(d), d.job.name, d.replicas) for d in decisions] \
            == [(StartJob, "h", 6)]

        # d becomes the head, held back by the watts left after h.
        engine.on_submit(job("d", 6, 6, 50.0, 2), 100.0)
        engine.on_submit(job("e", 2, 2, 1000.0), 100.0)
        # b finishing early leaves 6 slots and 600 W: d, capped at 4
        # replicas, keeps waiting, and the rule (which sees d startable
        # on slots now, with none to spare) denies c and e although both
        # fit both budgets.
        assert engine.on_complete("b", 105.0) == []
        assert engine.free_slots == 6
        assert engine._constraint.admit(engine.job("c").request) >= 3
        assert [j.name for j in engine.queue] == ["d", "c", "e"]

    def test_queue_jumper_never_shrinks(self):
        for backfill in (True, False):
            engine = self.engine(1500.0, rescale_gap=0.0, backfill=backfill)
            engine.on_submit(job("z", 2, 2, 1000.0, 9), 0.0)
            engine.on_submit(job("e", 1, 6, 1000.0), 0.0)
            # h needs 8: shrinking e to its minimum cannot cover it.
            assert kinds(engine.on_submit(job("h", 8, 8, 10.0, 3), 1.0)) \
                == [("EnqueueJob", "h")]
            decisions = engine.on_submit(job("j", 3, 3, 10.0, 2), 1.0)
            if backfill:
                # Jumping the queue by shrinking e would rearrange the
                # cluster the head's reservation protects.
                assert kinds(decisions) == [("EnqueueJob", "j")]
                assert engine.job("e").replicas == 6
            else:
                assert [type(d) for d in decisions] == [ShrinkJob, StartJob]
