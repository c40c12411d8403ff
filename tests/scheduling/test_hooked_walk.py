"""Hooked configs by hand: a backfill rule beside a capacity constraint.

Backfill and capacity-constraint configs share the engine's one
Figure-2 path and its indexed Figure-3 walk; ``test_spec.py`` diffs
both against the executable spec over randomized streams.  The
scenarios here pin, step by step, how EASY and a watt budget compose.
"""

import dataclasses
import math

from repro.scheduling import ElasticPolicyEngine, JobRequest
from repro.scheduling.policy import ShrinkJob, StartJob
from repro.scheduling.power import PowerBudget
from repro.scheduling.registry import REGISTRY


def _easy():
    return REGISTRY.resolve("easy-backfill")


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
