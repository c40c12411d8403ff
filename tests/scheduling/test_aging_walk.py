"""Aging on the indexed Figure-3 walk against the aging engine it replaced.

The ``aging`` stage re-keys a waiter in the engine's indexed queue when
its effective priority steps, then hands out slots through the same
two-pointer walk as every other config.
:mod:`tests.scheduling.fig3_oracle` keeps the subclass that sorted
``running + queue`` by effective priority at every hand-out and walked
the literal scan.  Each scenario drives the shipped engine and the
oracle through one randomized stream and compares the serialized
decision logs and the final snapshots, with ``BLOCK_LOAD`` at 2 (many
blocks, so the walk's block skips fire) and at its default.
"""

import dataclasses
import random

import pytest

from repro.scheduling import Aging, ElasticPolicyEngine, joblist
from repro.scheduling.registry import REGISTRY

from .fig3_oracle import AgingPolicyEngine, PreemptiveAgingEngine
from .test_easy_oracle import SEEDS, SLOTS, Stream
from .test_fig2_oracle import BUDGET_WATTS, by_name

INTERVALS = (15.0, 60.0, 300.0)


def _elastic(**overrides):
    return REGISTRY.resolve("elastic", **overrides)


#: Base config factories, without aging: the shipped engine adds the
#: stage, the oracle takes the interval as a constructor argument.
CONFIGS = {
    "elastic": _elastic,
    "elastic-launcher": lambda: _elastic(launcher_slots=1),
    "elastic-gap0": lambda: _elastic(rescale_gap=0.0),
    "elastic-gap30": lambda: _elastic(rescale_gap=30.0),
    "moldable": lambda: REGISTRY.resolve("moldable"),
    "literal-budget": lambda: dataclasses.replace(
        _elastic(), literal_completion_budget=True
    ),
    "shrink-filter": lambda: _elastic(rescale_gap=30.0, shrink_filter=by_name),
    "power-capped": lambda: REGISTRY.resolve(
        "power-capped", budget_watts=BUDGET_WATTS
    ),
    "prb": lambda: REGISTRY.resolve("prb"),
}


@pytest.fixture(params=[2, None], ids=["blocks2", "blocks-default"])
def block_load(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(joblist, "BLOCK_LOAD", request.param)


def aged(config, interval):
    return dataclasses.replace(
        config, priority=Aging(config.priority, interval=interval)
    )


def engines(config, interval, preemptive=False):
    """(shipped, oracle) engines for one base config and interval."""
    oracle_cls = PreemptiveAgingEngine if preemptive else AgingPolicyEngine
    base = dataclasses.replace(CONFIGS[config](), preempt=preemptive)
    shipped = ElasticPolicyEngine(SLOTS, aged(base, interval))
    oracle = oracle_cls(SLOTS, base, aging_interval=interval)
    return shipped, oracle


def assert_same(shipped, oracle):
    assert shipped.log == oracle.log
    assert shipped.engine.snapshot() == oracle.engine.snapshot()
    mine, theirs = shipped.engine._constraint, oracle.engine._constraint
    if mine is not None:
        assert mine.used == theirs.used


@pytest.mark.parametrize("interval", INTERVALS)
@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("seed", SEEDS)
def test_aging_walk_matches_the_oracle(block_load, config, interval, seed):
    shipped, oracle = engines(config, interval)
    assert_same(Stream(shipped, seed).run(), Stream(oracle, seed).run())


@pytest.mark.parametrize("interval", INTERVALS)
@pytest.mark.parametrize("seed", SEEDS)
def test_preemptive_aging_matches_the_oracle(block_load, interval, seed):
    """Preempted victims re-enter the queue and age from submission."""
    shipped, oracle = engines("elastic-gap0", interval, preemptive=True)
    assert_same(Stream(shipped, seed).run(), Stream(oracle, seed).run())


def grid_run(engine, seed, tick, n_jobs=70):
    """A stream whose events land on multiples of ``tick``.

    With a ``tick`` that shares no exact binary grid with the interval,
    ``now - submit_time`` lands on, just below and just above multiples
    of the interval, so the step boundaries are decided by rounding.
    """
    stream = Stream(engine, seed, n_jobs=n_jobs)
    pick = random.Random(seed)
    ticks = 0
    while not stream.done:
        ticks += pick.choice((0, 1, 1, 2, 3))
        stream.step(now=ticks * tick)
    return stream


@pytest.mark.parametrize("tick, interval", [(0.1, 0.1), (0.1, 0.2),
                                            (0.1, 0.3), (0.7, 2.1),
                                            (1e5 / 3, 1e5)])
@pytest.mark.parametrize("seed", SEEDS)
def test_float_step_boundaries_match_the_oracle(tick, interval, seed):
    shipped, oracle = engines("elastic-gap0", interval)
    assert_same(grid_run(shipped, seed, tick), grid_run(oracle, seed, tick))


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_aging_changes_the_streams(config):
    """The diffs above are not vacuous: aging reorders every config."""
    changed = 0
    for seed in SEEDS:
        shipped, _ = engines(config, 15.0)
        plain = ElasticPolicyEngine(SLOTS, CONFIGS[config]())
        changed += Stream(shipped, seed).run().log != Stream(plain, seed).run().log
    assert changed > len(SEEDS) // 2
