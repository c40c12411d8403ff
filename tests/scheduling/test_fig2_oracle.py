"""One Figure-2 submit path against the three it replaced.

The engine runs Figure 2 once for every config: the start cap folds in
the capacity constraint's ``admit``, an arrival past a non-empty queue is
a backfill that never shrinks, and the dry run and the victim walk carry
a constraint-unit deficit beside the slot deficit.
:mod:`tests.scheduling.fig2_oracle` keeps the separate plain, backfill
and constrained paths it replaced.  Each scenario drives the shipped
engine and the oracle through one randomized stream and compares the
serialized decision logs, the final snapshots and the constraint's live
charge, with ``BLOCK_LOAD`` at 2 (many blocks, so the block credits and
skips fire) and at its default.
"""

import dataclasses

import pytest

from repro.scheduling import ElasticPolicyEngine, joblist
from repro.scheduling.extensions import PreemptivePolicyEngine
from repro.scheduling.policy import ShrinkJob
from repro.scheduling.power import PowerBudget
from repro.scheduling.registry import REGISTRY

from .fig2_oracle import Fig2OracleEngine, PreemptiveFig2Oracle
from .test_easy_oracle import SEEDS, SLOTS, Stream

#: 16 replicas at the default 150 W: tighter than the 32 slots.
BUDGET_WATTS = 2400.0


def by_name(job, new_replicas):
    """A shrink veto keyed on the job's name, which two engines fed one
    stream share (``seq`` is process-global, so they disagree on it)."""
    return int(job.name[1:]) % 4 != 1


class MixedWatts(PowerBudget):
    """Draws by job name, so unit deficits need ceil(units / w); some
    jobs draw nothing and can pay no unit deficit."""

    def weight(self, request):
        return (0.0, 100.0, 150.0, 250.0)[int(request.name[1:]) % 4]


def _power(**overrides):
    return REGISTRY.resolve("power-capped", budget_watts=BUDGET_WATTS,
                            **overrides)


def _easy(**overrides):
    return REGISTRY.resolve("easy-backfill", **overrides)


#: Config factories: every engine gets a fresh config, since backfill
#: rules carry reservation state.
CONFIGS = {
    "elastic": lambda: REGISTRY.resolve("elastic"),
    "elastic-launcher": lambda: REGISTRY.resolve("elastic", launcher_slots=1),
    "elastic-gap30": lambda: REGISTRY.resolve("elastic", rescale_gap=30.0),
    "moldable": lambda: REGISTRY.resolve("moldable"),
    "easy": _easy,
    "easy-conservative": lambda: _easy(conservative=True),
    "easy-launcher": lambda: _easy(launcher_slots=1),
    # A finite gap lets arrivals shrink, but only on an empty queue.
    "easy-gap30": lambda: dataclasses.replace(_easy(), rescale_gap=30.0),
    "power-capped": _power,
    "power-capped-tuned": lambda: _power(
        launcher_slots=1, rescale_gap=30.0, shrink_filter=by_name
    ),
    "power-mixed-watts": lambda: dataclasses.replace(
        _power(rescale_gap=30.0),
        capacity_constraint=lambda: MixedWatts(budget_watts=BUDGET_WATTS),
    ),
    "easy+power": lambda: dataclasses.replace(
        _easy(),
        capacity_constraint=lambda: PowerBudget(budget_watts=BUDGET_WATTS),
    ),
    "easy+power-gap30": lambda: dataclasses.replace(
        _easy(), rescale_gap=30.0,
        capacity_constraint=lambda: PowerBudget(budget_watts=BUDGET_WATTS),
    ),
}

#: Configs whose streams must shrink at submission for the diff to
#: cover the victim walk.
SHRINKING = ("elastic-gap30", "easy-gap30", "power-capped-tuned",
             "power-mixed-watts", "easy+power-gap30")


@pytest.fixture(params=[2, None], ids=["blocks2", "blocks-default"])
def block_load(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(joblist, "BLOCK_LOAD", request.param)


def run_pair(shipped_cls, oracle_cls, config, seed):
    shipped = Stream(shipped_cls(SLOTS, CONFIGS[config]()), seed).run()
    oracle = Stream(oracle_cls(SLOTS, CONFIGS[config]()), seed).run()
    return shipped, oracle


def assert_same(shipped, oracle):
    assert shipped.log == oracle.log
    assert shipped.engine.snapshot() == oracle.engine.snapshot()
    mine, theirs = shipped.engine._constraint, oracle.engine._constraint
    if mine is not None:
        assert mine.used == theirs.used


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("seed", SEEDS)
def test_submit_path_matches_the_oracle(block_load, config, seed):
    assert_same(*run_pair(ElasticPolicyEngine, Fig2OracleEngine, config, seed))


@pytest.mark.parametrize("config", ["elastic", "elastic-gap30", "easy"])
@pytest.mark.parametrize("seed", SEEDS)
def test_preemptive_submit_path_matches_the_oracle(block_load, config, seed):
    assert_same(*run_pair(PreemptivePolicyEngine, PreemptiveFig2Oracle,
                          config, seed))


@pytest.mark.parametrize("config", SHRINKING)
def test_streams_shrink_on_submit(config):
    shrinks = 0
    for seed in SEEDS:
        stream = Stream(ElasticPolicyEngine(SLOTS, CONFIGS[config]()), seed)
        while not stream.done:
            before = len(stream.decisions)
            submitted = stream.submitted
            stream.step()
            if stream.submitted > submitted:
                shrinks += sum(isinstance(d, ShrinkJob)
                               for d in stream.decisions[before:])
    assert shrinks > 0
