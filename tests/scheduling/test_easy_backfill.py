"""EASY backfilling: hand-written scenarios on the engine and the spec.

``EasyBackfill`` prices the release profile once per engine state and
admits aggressive candidates with Lifka's O(1) shadow-time test.  The
tolerance and re-pricing scenarios below run on the engine and on the
executable spec (:mod:`tests.scheduling.spec`), which re-projects the
cluster for every candidate; the randomized diffs live in
``test_spec.py``.
"""

import pytest

from repro.scheduling import ElasticPolicyEngine, JobRequest
from repro.scheduling.policy import StartJob
from repro.scheduling.registry import REGISTRY

from . import spec


def est(name, low, high, runtime, priority=1):
    return JobRequest(name=name, min_replicas=low, max_replicas=high,
                      priority=priority, params={"est_runtime": runtime})


#: The two implementations every scenario runs on.
ENGINES = {"engine": ElasticPolicyEngine, "spec": spec.Spec}


def easy_engine(kind, slots):
    return ENGINES[kind](slots, REGISTRY.resolve("easy-backfill"))


def head_reservations(engine):
    if isinstance(engine, spec.Spec):
        return engine.head_reservations
    return engine.config.backfill.last_head_reservations


def started(decisions):
    return isinstance(decisions[-1], StartJob)


class TestToleranceBoundary:
    """Releases within 1e-9 of the head's shadow time count as on time.

    Ten slots: ``a`` (4 slots) finishes at t=100, ``b`` (2 slots) just
    after.  Head ``h`` needs 7, so its shadow time is 100.  A 3-slot,
    long candidate fits only if ``b``'s release also counts at t=100.
    """

    def engine(self, kind, b_end):
        engine = easy_engine(kind, 10)
        engine.on_submit(est("a", 4, 4, 100.0), 0.0)
        engine.on_submit(est("b", 2, 2, b_end), 0.0)
        engine.on_submit(est("h", 7, 7, 10.0), 0.0)
        return engine

    @pytest.mark.parametrize("b_end, admitted", [
        (100.0 + 5e-10, True), (100.0 + 2e-9, False),
    ])
    @pytest.mark.parametrize("kind", sorted(ENGINES))
    def test_release_inside_tolerance(self, kind, b_end, admitted):
        engine = self.engine(kind, b_end)
        assert started(engine.on_submit(est("c", 3, 3, 500.0), 0.0)) is admitted
        if admitted:
            assert head_reservations(engine) == {"h": b_end}

    @pytest.mark.parametrize("end, admitted", [
        (100.0 + 5e-10, True), (100.0 + 2e-9, False),
    ])
    @pytest.mark.parametrize("kind", sorted(ENGINES))
    def test_candidate_ending_inside_tolerance(self, kind, end, admitted):
        engine = self.engine(kind, 200.0)
        # Needs more than the slots left at t=100 (E = 1), so it must
        # itself be gone by the shadow time.
        assert started(engine.on_submit(est("c", 3, 3, end), 0.0)) is admitted


class TestRepricing:
    """A transition at an unchanged ``now`` must re-price the profile.

    Each scenario prices the engine with a rejected candidate, applies
    one transition at the same ``now``, and submits a candidate whose
    answer the transition flips; the spec, which prices every candidate
    afresh, must agree.
    """

    @pytest.mark.parametrize("kind", sorted(ENGINES))
    def test_rescale_failure_frees_slots(self, kind):
        # b (6 slots) ends at 50, a (4 slots) at 1000; head h needs 8:
        # S = 50 with no slack.  a reverting to 2 replicas leaves 2 spare.
        engine = easy_engine(kind, 12)
        engine.on_submit(est("b", 6, 6, 50.0), 0.0)
        engine.on_submit(est("a", 2, 4, 1000.0), 0.0)
        engine.on_submit(est("h", 8, 8, 10.0), 0.0)
        assert not started(engine.on_submit(est("c0", 2, 2, 500.0), 1.0))
        engine.on_rescale_failed("a", 2)
        assert started(engine.on_submit(est("c1", 2, 2, 500.0), 1.0))

    @pytest.mark.parametrize("kind", sorted(ENGINES))
    def test_cooperative_shrink_surrenders_free_slots(self, kind):
        # b (6 slots) ends at 50; head h needs 10: S = 50 with 2 spare
        # slots, until the cluster gives up 2 of its free slots.
        engine = easy_engine(kind, 12)
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
    engine = ElasticPolicyEngine(8, REGISTRY.resolve("preemptive"))
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
