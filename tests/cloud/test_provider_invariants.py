"""The provider's live-node counters against a recount, transition by
transition.

``CloudProvider`` answers the per-event fleet questions (fleet size,
booting nodes, pool headroom, in-flight drains) from counters its one
transition helper keeps.  A seeded random driver pushes a provider
through every lifecycle edge — provision, ready, failed boot and retry,
cancel, drain, partial and final drain, release, spot reclaim, noticed
reclaim and crash — with and without a fault injector, and calls
``check_invariants`` after each one.
"""

import random
from collections import Counter

import pytest

from repro.cloud import CloudProvider, NodePool, NodeState
from repro.errors import CloudError, ProvisioningError
from repro.faults import FaultEvent, FaultInjector, FaultLoad, FaultPlan
from repro.sim import Engine

HORIZON = 20_000.0


def pools():
    return (
        NodePool("ondemand", slots_per_node=16, price_per_hour=0.68,
                 provision_delay=60.0, min_nodes=1, max_nodes=4,
                 initial_nodes=1),
        NodePool("spot", slots_per_node=8, price_per_hour=0.2,
                 provision_delay=45.0, max_nodes=5, initial_nodes=2,
                 spot=True, mean_lifetime=1500.0),
    )


def injector(seed):
    load = FaultLoad(crashes=6, interruptions=6, notice=30.0,
                     fail_windows=3, timeout_windows=2, shortage_windows=2,
                     window_duration=900.0)
    plan = FaultPlan.synthesize(seed, HORIZON, load).extend([
        # Pin at least one failed boot and its retry early in the run.
        FaultEvent("provision_fail", time=0.0, duration=200.0, delay=5.0,
                   count=2),
    ])
    return FaultInjector(plan)


def live(provider, *states):
    return [n for pool in provider.pools for n in provider.nodes_in(pool, *states)]


def drive(seed, faults, steps=600):
    """Run the random driver; returns the count of each transition seen."""
    rng = random.Random(seed)
    engine = Engine()
    provider = CloudProvider(pools(), seed=seed,
                             faults=injector(seed) if faults else None)
    seen = Counter()

    def observed(kind):
        def callback(*_):
            seen[kind] += 1
            provider.check_invariants()
        return callback

    provider.bind(
        engine,
        on_ready=observed("ready"),
        on_interrupt=observed("interrupt"),
        on_interrupt_notice=observed("notice"),
        on_provision_failed=lambda node, will_retry: observed(
            "retry" if will_retry else "fail")(),
    )
    provider.check_invariants()

    for _ in range(steps):
        action = rng.choice(("provision", "provision", "cancel", "drain",
                             "drained", "release", "crash", "notice",
                             "advance", "advance", "advance"))
        if action == "provision":
            if provider.has_headroom():
                provider.request_node()
            else:
                with pytest.raises(ProvisioningError):
                    provider.request_node()
        elif action == "advance":
            for _ in range(rng.randint(1, 4)):
                if engine.peek() is None or engine.peek() > HORIZON:
                    break
                engine.step()
                provider.check_invariants()
            continue
        else:
            candidates = {
                "cancel": (NodeState.PROVISIONING,),
                "drain": (NodeState.READY,),
                "drained": (NodeState.DRAINING,),
                "release": (),
                "crash": (NodeState.READY, NodeState.DRAINING),
                "notice": (NodeState.READY, NodeState.DRAINING),
            }[action]
            nodes = live(provider, *candidates)
            if not nodes:
                continue
            node = rng.choice(nodes)
            if action == "cancel":
                provider.cancel_node(node)
            elif action == "drain":
                provider.begin_drain(node)
            elif action == "drained":
                provider.drained(node, rng.randint(0, node.drain_remaining))
            elif action == "release":
                provider.release_node(node)
            elif action == "crash":
                provider.crash_node(node)
            else:
                provider.interrupt_with_notice(node, rng.choice((0.0, 20.0)))
        seen[action] += 1
        provider.check_invariants()

    while engine.peek() is not None and engine.peek() <= HORIZON:
        engine.step()
        provider.check_invariants()
    return seen


@pytest.mark.parametrize("faults", [False, True], ids=["plain", "faulted"])
def test_counters_match_a_recount_after_every_transition(faults):
    seen = Counter()
    for seed in range(1, 6):
        seen.update(drive(seed, faults))
    # The seeds between them walk every lifecycle edge.
    kinds = ["provision", "ready", "cancel", "drain", "drained", "release",
             "crash", "notice", "interrupt"]
    if faults:
        kinds += ["fail", "retry"]
    assert all(seen[kind] > 0 for kind in kinds), seen


def test_final_drain_releases_and_leaves_the_drain_list():
    engine = Engine()
    provider = CloudProvider(pools())
    provider.bind(engine)
    first, second = provider.nodes[1], provider.nodes[2]
    # Drains advance in ledger order, whatever order they began in.
    provider.begin_drain(second)
    provider.begin_drain(first)
    assert provider.draining_nodes == [first, second]
    assert provider.drained(first, first.slots) is True
    assert provider.draining_nodes == [second]
    assert provider.draining_count == 1
    provider.check_invariants()


@pytest.mark.parametrize("counter", ["_provisioning", "_ready", "_ready_slots"])
def test_a_drifted_counter_is_reported(counter):
    engine = Engine()
    provider = CloudProvider(pools())
    provider.bind(engine)
    setattr(provider, counter, getattr(provider, counter) + 1)
    with pytest.raises(CloudError, match="recount"):
        provider.check_invariants()


def test_a_drifted_pool_count_or_drain_list_is_reported():
    engine = Engine()
    provider = CloudProvider(pools())
    provider.bind(engine)
    provider._pool_active["spot"] -= 1
    with pytest.raises(CloudError, match="'spot'"):
        provider.check_invariants()
    provider._pool_active["spot"] += 1
    provider._draining.append(provider.nodes[0])
    with pytest.raises(CloudError, match="draining"):
        provider.check_invariants()


def test_request_for_a_foreign_pool_is_refused():
    engine = Engine()
    provider = CloudProvider(pools())
    provider.bind(engine)
    stranger = NodePool("gpu", slots_per_node=4, price_per_hour=3.0)
    with pytest.raises(CloudError, match="not one of"):
        provider.request_node(stranger)
