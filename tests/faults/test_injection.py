"""Fault injection at the provider level: windows, retries, point events."""

import random

import pytest

from repro.cloud import CloudProvider, NodePool, NodeState
from repro.errors import FaultPlanError
from repro.faults import FaultEvent, FaultInjector, FaultPlan, RetryPolicy
from repro.sim import Engine


def pool(**kwargs):
    defaults = dict(name="ondemand", slots_per_node=16, price_per_hour=0.68,
                    provision_delay=60.0)
    defaults.update(kwargs)
    return NodePool(**defaults)


def build(plan, retry=None, **pool_kwargs):
    """A bound (engine, provider) pair carrying the given plan."""
    engine = Engine()
    injector = FaultInjector(plan, retry=retry)
    provider = CloudProvider([pool(**pool_kwargs)], faults=injector)
    return engine, provider


class TestProvisioningWindows:
    def no_jitter(self, **kwargs):
        defaults = dict(base_delay=30.0, jitter=0.0)
        defaults.update(kwargs)
        return RetryPolicy(**defaults)

    def test_fail_window_burns_then_retries_past_the_window(self):
        plan = FaultPlan(entries=(
            FaultEvent("provision_fail", time=0.0, duration=40.0, delay=5.0),
        ))
        engine, provider = build(plan, retry=self.no_jitter())
        ready = []
        provider.bind(engine, on_ready=lambda n: ready.append(engine.now))
        provider.request_node()
        engine.run()
        # attempt 0 fails at t=5; retry at t=35 is still inside the window
        # and fails at t=40; the next retry (t=100) boots cleanly.
        assert provider.provision_failures == 2
        assert provider.provision_retries == 2
        assert ready == [160.0]
        assert provider.ready_slots == 16

    def test_failed_attempts_bill_until_detection(self):
        plan = FaultPlan(entries=(
            FaultEvent("provision_fail", time=0.0, duration=10.0, delay=5.0),
        ))
        engine, provider = build(plan, retry=RetryPolicy(max_retries=0))
        provider.bind(engine)
        node = provider.request_node()
        engine.run()
        assert node.provision_failed
        assert node.state == NodeState.RELEASED
        assert node.requested_at == 0.0
        assert node.released_at == 5.0

    def test_timeout_window_counts_and_defaults_to_3x_delay(self):
        plan = FaultPlan(entries=(
            FaultEvent("provision_timeout", time=0.0, duration=10.0),
        ))
        engine, provider = build(plan, retry=RetryPolicy(max_retries=0))
        failed = []
        provider.bind(engine,
                      on_provision_failed=lambda n, w: failed.append(w))
        provider.request_node()
        engine.run()
        # the hang is detected only after 3x the pool's provision delay
        assert engine.now == 180.0
        assert provider.provision_timeouts == 1
        assert provider.provision_failures == 1
        assert failed == [False]  # max_retries=0: no retry announced

    def test_shortage_rejects_immediately(self):
        plan = FaultPlan(entries=(
            FaultEvent("capacity_shortage", time=0.0, duration=10.0),
        ))
        engine, provider = build(plan, retry=RetryPolicy(max_retries=0))
        provider.bind(engine)
        node = provider.request_node()
        engine.run()
        assert provider.capacity_shortages == 1
        assert node.released_at == 0.0

    def test_window_count_budget_caps_affected_attempts(self):
        plan = FaultPlan(entries=(
            FaultEvent("provision_fail", time=0.0, duration=500.0,
                       delay=5.0, count=1),
        ))
        engine, provider = build(plan, retry=self.no_jitter())
        provider.bind(engine)
        provider.request_node()
        engine.run()
        # only the first attempt is affected; the retry boots inside the
        # still-open window because the budget is spent
        assert provider.provision_failures == 1
        assert provider.ready_slots == 16

    def test_window_restricted_to_named_pool(self):
        plan = FaultPlan(entries=(
            FaultEvent("provision_fail", time=0.0, duration=100.0,
                       pool="spot", delay=5.0),
        ))
        engine, provider = build(plan)
        provider.bind(engine)
        provider.request_node()  # the on-demand pool is untouched
        engine.run()
        assert provider.provision_failures == 0
        assert provider.ready_slots == 16

    def test_pruned_scan_matches_a_full_scan(self):
        # Every window tested on every attempt, in plan order: the scan
        # the injector's closed-window prune must reproduce exactly.
        rng = random.Random(3)
        entries = tuple(
            FaultEvent(rng.choice(("provision_fail", "provision_timeout",
                                   "capacity_shortage")),
                       time=rng.uniform(0.0, 5000.0),
                       duration=rng.uniform(1.0, 900.0),
                       pool=rng.choice((None, "ondemand", "spot")),
                       count=rng.choice((None, 1, 3)))
            for _ in range(40)
        )
        plan = FaultPlan(entries=entries)
        injector = FaultInjector(plan)
        budgets = [e.count for e in plan.entries]
        pools = (pool(), pool(name="spot"))
        kinds = {"fail": "provision_fail", "timeout": "provision_timeout",
                 "shortage": "capacity_shortage"}
        now = 0.0
        hits = 0
        for _ in range(2000):
            now += rng.choice((0.0, rng.uniform(0.0, 5.0)))
            target = rng.choice(pools)
            expected = None
            for i, entry in enumerate(plan.entries):
                if (entry.pool in (None, target.name)
                        and entry.time <= now < entry.end
                        and budgets[i] != 0):
                    if budgets[i] is not None:
                        budgets[i] -= 1
                    expected = entry.kind
                    break
            outcome = injector.provision_outcome(target, now)
            got = None if outcome is None else kinds[outcome[0]]
            assert got == expected, now
            hits += got is not None
        assert hits > 0

    def test_attempts_must_come_in_time_order(self):
        injector = FaultInjector(FaultPlan(entries=(
            FaultEvent("provision_fail", time=0.0, duration=10.0),
        )))
        injector.provision_outcome(pool(), 5.0)
        with pytest.raises(FaultPlanError, match="after one at 5.0"):
            injector.provision_outcome(pool(), 4.0)

    def test_window_closings_are_sorted_and_deduplicated(self):
        plan = FaultPlan(entries=(
            FaultEvent("provision_fail", time=300.0, duration=100.0),
            FaultEvent("capacity_shortage", time=0.0, duration=400.0),
            FaultEvent("provision_timeout", time=500.0, duration=100.0),
        ))
        injector = FaultInjector(plan)
        assert injector.window_closings() == [400.0, 600.0]


class TestPointEvents:
    def test_crash_kills_oldest_ready_node(self):
        plan = FaultPlan(entries=(FaultEvent("node_crash", time=100.0),))
        engine, provider = build(plan, initial_nodes=2)
        lost = []
        provider.bind(engine, on_interrupt=lambda n, s: lost.append((n, s)))
        engine.run()
        assert provider.crashes == 1
        assert provider.interruptions == 1
        assert lost == [(provider.nodes[0], 16)]
        assert provider.nodes[0].state == NodeState.RELEASED

    def test_notice_fires_before_the_reclaim_lands(self):
        plan = FaultPlan(entries=(
            FaultEvent("spot_interrupt", time=50.0, notice=20.0),
        ))
        engine, provider = build(plan, initial_nodes=1)
        noticed, taken = [], []
        provider.bind(
            engine,
            on_interrupt=lambda n, s: taken.append(engine.now),
            on_interrupt_notice=lambda n, w: noticed.append((engine.now, w)),
        )
        engine.run()
        assert noticed == [(50.0, 20.0)]
        assert taken == [70.0]
        assert provider.crashes == 0
        assert provider.interruptions == 1

    def test_zero_notice_interrupt_is_immediate(self):
        plan = FaultPlan(entries=(
            FaultEvent("spot_interrupt", time=50.0, notice=0.0),
        ))
        engine, provider = build(plan, initial_nodes=1)
        noticed, taken = [], []
        provider.bind(
            engine,
            on_interrupt=lambda n, s: taken.append(engine.now),
            on_interrupt_notice=lambda n, w: noticed.append(w),
        )
        engine.run()
        assert noticed == []
        assert taken == [50.0]

    def test_event_with_no_victim_is_skipped(self):
        plan = FaultPlan(entries=(FaultEvent("node_crash", time=10.0),))
        engine, provider = build(plan)  # no initial nodes
        provider.bind(engine)
        engine.run()
        assert provider.faults.skipped_events == 1
        assert provider.crashes == 0

    def test_victim_selection_respects_pool_restriction(self):
        plan = FaultPlan(entries=(
            FaultEvent("node_crash", time=10.0, pool="spot"),
        ))
        engine = Engine()
        injector = FaultInjector(plan)
        provider = CloudProvider(
            [pool(initial_nodes=1),
             pool(name="spot", initial_nodes=1, price_per_hour=0.2)],
            faults=injector,
        )
        provider.bind(engine)
        engine.run()
        assert provider.nodes[0].state == NodeState.READY
        assert provider.nodes[1].state == NodeState.RELEASED


class TestInjectorLifecycle:
    def test_injector_cannot_serve_two_providers(self):
        plan = FaultPlan(entries=(FaultEvent("node_crash", time=10.0),))
        injector = FaultInjector(plan)
        first = CloudProvider([pool()], faults=injector)
        first.bind(Engine())
        second = CloudProvider([pool()], faults=injector)
        with pytest.raises(FaultPlanError, match="already bound"):
            second.bind(Engine())

    def test_faultless_provider_has_no_injector_hooks(self):
        engine = Engine()
        provider = CloudProvider([pool(initial_nodes=1)])
        provider.bind(engine)
        assert provider.faults is None
        provider.request_node()
        engine.run()
        assert provider.provision_failures == 0
        assert provider.ready_slots == 32
