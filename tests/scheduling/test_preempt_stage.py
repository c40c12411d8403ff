"""The preemption stage against the subclass it replaced.

``PolicyConfig.preempt`` turns on §3.2.2 job preemption in the one
engine: Figure 2's enqueue exits share a tail that checkpoints
lower-priority running jobs to disk when that lets the arrival start.
:mod:`tests.scheduling.preempt_oracle` keeps the subclass that did the
same after the base engine had already enqueued the arrival.  Each
scenario drives the shipped engine and the oracle through one
randomized stream and compares the serialized decision logs and the
final snapshots, with ``BLOCK_LOAD`` at 2 (many blocks) and at its
default.
"""

import dataclasses

import pytest

from repro.scheduling import ElasticPolicyEngine, PreemptJob, joblist
from repro.scheduling.registry import REGISTRY

from .preempt_oracle import PreemptOracle
from .test_easy_oracle import SEEDS, SLOTS, Stream
from .test_fig2_oracle import by_name

resolve = REGISTRY.resolve

#: Config factories, preemption off: every engine gets a fresh config,
#: since backfill rules carry reservation state.
CONFIGS = {
    "elastic": lambda: resolve("elastic"),
    "elastic-gap0": lambda: resolve("elastic", rescale_gap=0.0),
    "elastic-launcher": lambda: resolve("elastic", launcher_slots=1),
    "moldable": lambda: resolve("moldable"),
    "min_replicas": lambda: resolve("min_replicas"),
    "max_replicas": lambda: resolve("max_replicas"),
    "easy": lambda: resolve("easy-backfill"),
    "easy-conservative": lambda: resolve("easy-backfill", conservative=True),
    "ewt": lambda: resolve("ewt"),
    "prb": lambda: resolve("prb"),
    "literal-budget": lambda: dataclasses.replace(
        resolve("elastic"), literal_completion_budget=True
    ),
    "shrink-filter": lambda: resolve("elastic", rescale_gap=30.0,
                                     shrink_filter=by_name),
    "aging-15": lambda: resolve("aging", aging_interval=15.0),
    "aging-60": lambda: resolve("aging", aging_interval=60.0),
    "aging-300": lambda: resolve("aging", aging_interval=300.0),
}


def preemptive(config):
    return dataclasses.replace(CONFIGS[config](), preempt=True)


@pytest.fixture(params=[2, None], ids=["blocks2", "blocks-default"])
def block_load(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(joblist, "BLOCK_LOAD", request.param)


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("seed", SEEDS)
def test_stage_matches_the_oracle(block_load, config, seed):
    shipped = Stream(ElasticPolicyEngine(SLOTS, preemptive(config)), seed).run()
    oracle = Stream(PreemptOracle(SLOTS, preemptive(config)), seed).run()
    assert shipped.log == oracle.log
    assert shipped.engine.snapshot() == oracle.engine.snapshot()


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_streams_preempt(config):
    """Every scenario above really takes the preemption tail."""
    preempted = sum(
        isinstance(d, PreemptJob)
        for seed in SEEDS
        for d in Stream(ElasticPolicyEngine(SLOTS, preemptive(config)),
                        seed).run().decisions
    )
    assert preempted > 0


POLICIES = [*REGISTRY.list_policies(), "preemptive-gap0"]


def policy_config(name):
    if name == "preemptive-gap0":
        return resolve("preemptive", rescale_gap=0.0)
    return resolve(name)


@pytest.mark.parametrize("policy", POLICIES)
def test_decision_log_holds_what_was_returned(policy):
    """``decision_log`` is the concatenation of the returned lists: no
    decision the substrate never received, none logged twice."""
    assert "preemptive" in POLICIES
    for seed in SEEDS:
        stream = Stream(ElasticPolicyEngine(SLOTS, policy_config(policy)),
                        seed).run()
        log = stream.engine.decision_log
        assert len(log) == len(stream.decisions)
        assert all(a is b for a, b in zip(log, stream.decisions))
