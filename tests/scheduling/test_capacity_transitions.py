"""Unit tests for the engine's grow/shrink/rebalance capacity transitions.

These are the only entry points the cloud substrate uses; the spec
diff (``test_spec.py``) pins their decisions on randomized streams, so
what needs proving here is that the new transitions obey the same
bookkeeping contract: O(1) ``free_slots`` consistency, IndexedJobList
aggregate integrity, and the documented drain/evict semantics.
"""

import math

import pytest

from repro.errors import CapacityError
from repro.scheduling import (
    ElasticPolicyEngine,
    EnqueueJob,
    ExpandJob,
    JobRequest,
    PolicyConfig,
    RequeueJob,
    ShrinkJob,
    StartJob,
)


def request(name, lo, hi, priority=1):
    return JobRequest(name=name, min_replicas=lo, max_replicas=hi,
                      priority=priority)


def engine_with(total=32, **config):
    return ElasticPolicyEngine(total, PolicyConfig(**config))


def check_books(engine):
    """free_slots must always equal total minus the sum of live replicas."""
    held = sum(j.replicas for j in engine.running)
    held += len(engine.running) * engine.config.launcher_slots
    assert engine.free_slots == engine.total_slots - held
    keys = [job.sort_key for job in engine.running]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    engine.queue.check_invariants()


class TestGrowCapacity:
    def test_grow_starts_queued_job(self):
        engine = engine_with(8)
        engine.on_submit(request("a", 4, 8), now=0.0)
        decisions = engine.on_submit(request("b", 8, 16), now=1.0)
        assert isinstance(decisions[-1], EnqueueJob)
        grown = engine.grow_capacity(16, now=2.0)
        assert engine.total_slots == 24
        starts = [d for d in grown if isinstance(d, StartJob)]
        assert [d.job.name for d in starts] == ["b"]
        check_books(engine)

    def test_grow_expands_running_elastic_job(self):
        engine = engine_with(8, rescale_gap=0.0)
        engine.on_submit(request("a", 4, 16), now=0.0)
        assert engine.job("a").replicas == 8
        grown = engine.grow_capacity(8, now=100.0)
        assert [type(d).__name__ for d in grown] == ["ExpandJob"]
        assert engine.job("a").replicas == 16
        check_books(engine)

    def test_grow_rejects_nonpositive(self):
        engine = engine_with(8)
        with pytest.raises(CapacityError):
            engine.grow_capacity(0, now=0.0)


class TestShrinkCapacityCooperative:
    def test_free_slots_come_off_silently(self):
        engine = engine_with(32)
        engine.on_submit(request("a", 4, 8), now=0.0)
        removed, decisions = engine.shrink_capacity(16, now=1.0)
        assert removed == 16
        assert decisions == []
        assert engine.total_slots == 16
        check_books(engine)

    def test_drain_shrinks_victims_down_to_min(self):
        engine = engine_with(32, rescale_gap=0.0)
        engine.on_submit(request("hi", 4, 16, priority=5), now=0.0)
        engine.on_submit(request("lo", 4, 16, priority=1), now=0.0)
        assert engine.free_slots == 0
        removed, decisions = engine.shrink_capacity(16, now=500.0)
        # the protected index-0 job ("hi") is untouched; "lo" gives 12
        assert [type(d).__name__ for d in decisions] == ["ShrinkJob"]
        assert decisions[0].job.name == "lo"
        assert engine.job("lo").replicas == 4
        assert engine.job("hi").replicas == 16
        assert removed == 12
        assert engine.total_slots == 20
        check_books(engine)

    def test_partial_removal_is_cordoned(self):
        """What could not come off stays; what came off is gone for good."""
        engine = engine_with(16, rescale_gap=0.0)
        engine.on_submit(request("a", 8, 8, priority=5), now=0.0)
        engine.on_submit(request("b", 8, 8, priority=1), now=0.0)
        removed, decisions = engine.shrink_capacity(8, now=500.0)
        # rigid jobs: nothing shrinkable, nothing free
        assert removed == 0 and decisions == []
        assert engine.total_slots == 16
        engine.on_complete("b", now=600.0)
        removed, _ = engine.shrink_capacity(8, now=600.0)
        assert removed == 8
        assert engine.total_slots == 8
        check_books(engine)

    def test_cooperative_drain_respects_rescale_gap(self):
        engine = engine_with(32, rescale_gap=180.0)
        engine.on_submit(request("a", 4, 16), now=0.0)
        removed, decisions = engine.shrink_capacity(32, now=10.0)
        # inside the gap: only the 16 free slots come off, no shrink
        assert decisions == []
        assert removed == 16
        check_books(engine)


class TestShrinkCapacityForced:
    def test_forced_shrink_ignores_rescale_gap(self):
        engine = engine_with(32, rescale_gap=1e9)
        engine.on_submit(request("hi", 4, 16, priority=5), now=0.0)
        engine.on_submit(request("lo", 4, 16, priority=1), now=0.0)
        removed, decisions = engine.shrink_capacity(8, now=1.0, force=True)
        assert removed == 8
        assert any(isinstance(d, ShrinkJob) for d in decisions)
        assert engine.job("hi").replicas == 16  # index-0 still protected
        check_books(engine)

    def test_forced_eviction_lowest_priority_first(self):
        engine = engine_with(32, rescale_gap=0.0)
        engine.on_submit(request("hi", 16, 16, priority=5), now=0.0)
        engine.on_submit(request("lo", 16, 16, priority=1), now=0.0)
        removed, decisions = engine.shrink_capacity(16, now=1.0, force=True)
        assert removed == 16
        requeues = [d for d in decisions if isinstance(d, RequeueJob)]
        assert [d.job.name for d in requeues] == ["lo"]
        assert requeues[0].released_replicas == 16
        assert engine.job("lo").state.value == "Queued"
        assert engine.job("lo").replicas == 0
        assert engine.job("hi").replicas == 16
        check_books(engine)

    def test_forced_can_evict_the_protected_job(self):
        engine = engine_with(16, rescale_gap=0.0)
        engine.on_submit(request("only", 16, 16, priority=5), now=0.0)
        removed, decisions = engine.shrink_capacity(16, now=1.0, force=True)
        assert removed == 16
        assert engine.total_slots == 0
        assert [type(d).__name__ for d in decisions] == ["RequeueJob"]
        assert len(engine.queue) == 1
        check_books(engine)

    def test_requeued_job_restarts_on_regrow(self):
        engine = engine_with(16, rescale_gap=0.0)
        engine.on_submit(request("a", 8, 16), now=0.0)
        engine.shrink_capacity(16, now=1.0, force=True)
        decisions = engine.grow_capacity(16, now=2.0)
        assert [type(d).__name__ for d in decisions] == ["StartJob"]
        assert engine.job("a").replicas == 16
        check_books(engine)

    def test_requeued_job_restarts_on_regrow_at_an_infinite_gap(self):
        """The gap governs rescales, not restarts: an evicted job keeps
        its last start time and still restarts at once."""
        engine = engine_with(16, rescale_gap=math.inf)
        engine.on_submit(request("a", 8, 16), now=0.0)
        engine.shrink_capacity(16, now=1.0, force=True)
        decisions = engine.grow_capacity(16, now=1.0)
        assert [type(d).__name__ for d in decisions] == ["StartJob"]
        assert engine.job("a").last_action == 1.0
        check_books(engine)

    def test_restart_preserves_first_start_time(self):
        engine = engine_with(16, rescale_gap=0.0)
        engine.on_submit(request("a", 8, 16), now=0.0)
        assert engine.job("a").start_time == 0.0
        engine.shrink_capacity(16, now=1.0, force=True)
        engine.grow_capacity(16, now=2.0)
        # restarted at t=2, but service began at t=0
        assert engine.job("a").start_time == 0.0

    def test_clamps_to_total(self):
        engine = engine_with(16)
        removed, _ = engine.shrink_capacity(100, now=0.0, force=True)
        assert removed == 16
        assert engine.total_slots == 0


class TestRebalance:
    def test_noop_when_nothing_free(self):
        engine = engine_with(8)
        engine.on_submit(request("a", 8, 8), now=0.0)
        assert engine.rebalance(now=1.0) == []

    def test_restarts_queue_in_priority_order(self):
        engine = engine_with(8, rescale_gap=0.0)
        engine.on_submit(request("a", 8, 8, priority=1), now=0.0)
        engine.on_submit(request("b", 4, 4, priority=2), now=1.0)
        engine.on_submit(request("c", 4, 4, priority=3), now=2.0)
        engine.on_complete("a", now=3.0)
        # the completion already redistributed; force another state:
        engine.grow_capacity(8, now=4.0)
        assert all(
            j.state.value == "Running" for j in [engine.job("b"),
                                                 engine.job("c")]
        )
        check_books(engine)

    def test_decision_log_records_capacity_decisions(self):
        engine = engine_with(8)
        engine.on_submit(request("a", 8, 8), now=0.0)
        engine.on_submit(request("b", 8, 8), now=1.0)
        engine.grow_capacity(8, now=2.0)
        kinds = [type(d).__name__ for d in engine.decision_log]
        assert kinds == ["StartJob", "EnqueueJob", "StartJob"]


class TestPreservedFixedCapacityBehaviour:
    def test_snapshot_of_module_surface(self):
        """The capacity API is additive: the Figure-2/3 surface persists."""
        for name in ("on_submit", "on_complete", "on_rescale_failed",
                     "retire", "grow_capacity", "shrink_capacity",
                     "rebalance"):
            assert hasattr(ElasticPolicyEngine, name)

    def test_launcher_slots_accounted_on_eviction(self):
        engine = ElasticPolicyEngine(
            34, PolicyConfig(rescale_gap=0.0, launcher_slots=1)
        )
        engine.on_submit(request("a", 16, 16), now=0.0)
        engine.on_submit(request("b", 16, 16), now=0.0)
        assert engine.free_slots == 0
        removed, decisions = engine.shrink_capacity(17, now=1.0, force=True)
        assert removed == 17
        assert len([d for d in decisions if isinstance(d, RequeueJob)]) == 1
        check_books(engine)
