"""Autoscaler target functions over crafted cluster snapshots."""

import pytest

from repro.cloud import (
    AUTOSCALER_NAMES,
    ClusterState,
    IdleTimeoutAutoscaler,
    QueueDepthAutoscaler,
    StaticAutoscaler,
    UtilizationAutoscaler,
    make_autoscaler,
)
from repro.errors import CloudError


def state(**kwargs):
    defaults = dict(
        now=0.0, total_slots=64, used_slots=32, free_slots=32,
        running_jobs=2, queued_jobs=0, queued_demand=0, nodes=4,
        pending_nodes=0, slots_per_node=16,
    )
    defaults.update(kwargs)
    return ClusterState(**defaults)


class TestClusterState:
    def test_snapshot_is_immutable(self):
        s = state()
        with pytest.raises(AttributeError):
            s.nodes = 5
        assert s.nodes == 4

    def test_derived_fields(self):
        s = state(used_slots=48, free_slots=16, queued_demand=40)
        assert s.utilization == 0.75
        assert s.unmet_demand == 24
        assert state(total_slots=0).utilization == 1.0


class TestStatic:
    def test_holds_first_seen_fleet_size(self):
        scaler = StaticAutoscaler()
        assert scaler.desired_nodes(state(nodes=4)) == 4
        # An interruption dropped a node: static wants it replaced.
        assert scaler.desired_nodes(state(nodes=3)) == 4
        assert scaler.desired_nodes(state(nodes=6)) == 4


class TestQueueDepth:
    def test_scales_out_for_unmet_demand(self):
        scaler = QueueDepthAutoscaler()
        s = state(queued_jobs=2, queued_demand=40, free_slots=4, used_slots=60)
        # 36 unmet slots -> ceil(36/16) = 3 extra nodes
        assert scaler.desired_nodes(s) == 7

    def test_no_action_when_queue_fits(self):
        scaler = QueueDepthAutoscaler()
        s = state(queued_jobs=1, queued_demand=8, free_slots=16, used_slots=48)
        assert scaler.desired_nodes(s) == 4

    def test_scales_in_only_after_cooldown(self):
        scaler = QueueDepthAutoscaler(cooldown=300.0)
        idle = dict(queued_jobs=0, free_slots=32, used_slots=32)
        assert scaler.desired_nodes(state(now=0.0, **idle)) == 4
        assert scaler.desired_nodes(state(now=299.0, **idle)) == 4
        # 32 free slots = 2 whole idle nodes come off
        assert scaler.desired_nodes(state(now=300.0, **idle)) == 2

    def test_burst_resets_cooldown(self):
        scaler = QueueDepthAutoscaler(cooldown=300.0)
        idle = dict(queued_jobs=0, free_slots=32, used_slots=32)
        assert scaler.desired_nodes(state(now=0.0, **idle)) == 4
        busy = state(now=200.0, queued_jobs=1, queued_demand=40,
                     free_slots=0, used_slots=64)
        assert scaler.desired_nodes(busy) > 4
        assert scaler.desired_nodes(state(now=350.0, **idle)) == 4

    def test_rejects_negative_cooldown(self):
        with pytest.raises(CloudError):
            QueueDepthAutoscaler(cooldown=-1.0)


class TestUtilization:
    def test_scales_out_above_band(self):
        scaler = UtilizationAutoscaler(low=0.3, high=0.85)
        s = state(used_slots=60, free_slots=4)
        assert scaler.desired_nodes(s) == 5

    def test_scales_in_below_band(self):
        scaler = UtilizationAutoscaler(low=0.3, high=0.85)
        s = state(used_slots=8, free_slots=56)
        assert scaler.desired_nodes(s) == 3

    def test_holds_inside_band(self):
        scaler = UtilizationAutoscaler(low=0.3, high=0.85)
        assert scaler.desired_nodes(state(used_slots=32, free_slots=32)) == 4

    def test_demand_floor_overrides_band(self):
        # Occupancy is low, but a queued job cannot fit: scale out anyway.
        scaler = UtilizationAutoscaler(low=0.3, high=0.85)
        s = state(used_slots=8, free_slots=56, queued_jobs=1,
                  queued_demand=64)
        assert scaler.desired_nodes(s) == 5

    def test_rejects_bad_band(self):
        with pytest.raises(CloudError):
            UtilizationAutoscaler(low=0.9, high=0.5)


class TestIdleTimeout:
    def test_powers_on_for_stuck_queue(self):
        scaler = IdleTimeoutAutoscaler()
        s = state(queued_jobs=1, queued_demand=24, free_slots=0,
                  used_slots=64)
        assert scaler.desired_nodes(s) == 6

    def test_powers_off_after_idle_timeout(self):
        scaler = IdleTimeoutAutoscaler(idle_timeout=600.0)
        idle = dict(queued_jobs=0, free_slots=16, used_slots=48)
        assert scaler.desired_nodes(state(now=0.0, **idle)) == 4
        assert scaler.desired_nodes(state(now=599.0, **idle)) == 4
        assert scaler.desired_nodes(state(now=600.0, **idle)) == 3

    def test_activity_resets_idle_clock(self):
        scaler = IdleTimeoutAutoscaler(idle_timeout=600.0)
        idle = dict(queued_jobs=0, free_slots=16, used_slots=48)
        assert scaler.desired_nodes(state(now=0.0, **idle)) == 4
        busy = state(now=500.0, queued_jobs=0, free_slots=0, used_slots=64)
        assert scaler.desired_nodes(busy) == 4
        assert scaler.desired_nodes(state(now=700.0, **idle)) == 4

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(CloudError):
            IdleTimeoutAutoscaler(idle_timeout=0.0)


class TestFactory:
    def test_builds_every_named_policy(self):
        for name in AUTOSCALER_NAMES:
            assert make_autoscaler(name).name == name

    def test_unknown_name_raises(self):
        with pytest.raises(CloudError, match="unknown autoscaler"):
            make_autoscaler("hodor")

    def test_kwargs_flow_through(self):
        scaler = make_autoscaler("idle", idle_timeout=42.0)
        assert scaler.idle_timeout == 42.0


def test_utilization_property():
    assert state(used_slots=16, free_slots=48).utilization == 0.25
    assert state(total_slots=0, used_slots=0, free_slots=0).utilization == 1.0


def test_unmet_demand_property():
    assert state(queued_demand=40, free_slots=8).unmet_demand == 32
    assert state(queued_demand=4, free_slots=8).unmet_demand == 0
