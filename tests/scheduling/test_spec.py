"""The engine against the executable spec, decision by decision.

:mod:`tests.scheduling.spec` writes the scheduler out from its
definitions and shares no code with :class:`ElasticPolicyEngine`.  Each
scenario drives both through one randomized stream
(:mod:`tests.scheduling.streams`) and compares, after every event, the
serialized decisions, ``snapshot()``, ``free_slots``, the queue order,
the capacity constraint's ``used`` and, under EASY, the head
reservations.  Every registry policy runs, with the variants of its
parameters and stages, at ``BLOCK_LOAD`` 2 (many blocks, so the walks
cross block boundaries and the queue's block skip fires) and at its
default.
"""

import ast
import dataclasses
import inspect
import itertools
import math
import random

import pytest

from repro.obs import metrics as obs_metrics
from repro.scheduling import (
    REGISTRY,
    Aging,
    ElasticPolicyEngine,
    StaticPriority,
    joblist,
)
from repro.scheduling.literature import ewt_priority
from repro.scheduling.policy import PreemptJob, ResumeJob, ShrinkJob
from repro.scheduling.power import PowerBudget

from . import spec
from .streams import Stream, by_name

#: Every config and variant runs 20 seeds; the costlier preemptive and
#: aged diffs run a prefix of them.
SEEDS = tuple(range(20))
SLOTS = 32
#: 16 replicas at the default 150 W: tighter than the 32 slots.
BUDGET_WATTS = 2400.0


class MixedWatts(PowerBudget):
    """Draws by job name, so unit deficits need ceil(units / w); some
    jobs draw nothing and can pay no unit deficit."""

    def weight(self, request):
        return (0.0, 100.0, 150.0, 250.0)[int(request.name[1:]) % 4]


resolve = REGISTRY.resolve


def _power(**overrides):
    return resolve("power-capped", budget_watts=BUDGET_WATTS, **overrides)


def _with(config, **fields):
    return dataclasses.replace(config, **fields)


def _watts(factory=PowerBudget):
    return lambda: factory(budget_watts=BUDGET_WATTS)


#: Config factories: every engine gets a fresh config, since backfill
#: rules carry reservation state.  The ten registry policies first.
CONFIGS = {name: (lambda name=name: resolve(name))
           for name in REGISTRY.list_policies()}
CONFIGS.update({
    "elastic-launcher": lambda: resolve("elastic", launcher_slots=1),
    "elastic-gap0": lambda: resolve("elastic", rescale_gap=0.0),
    "elastic-gap30": lambda: resolve("elastic", rescale_gap=30.0),
    "moldable-launcher2": lambda: resolve("moldable", launcher_slots=2),
    "literal-budget": lambda: _with(resolve("elastic"),
                                    literal_completion_budget=True),
    "shrink-filter": lambda: resolve("elastic", rescale_gap=30.0,
                                     shrink_filter=by_name),
    "easy-conservative": lambda: resolve("easy-backfill", conservative=True),
    "easy-launcher": lambda: resolve("easy-backfill", launcher_slots=1),
    "easy-conservative-launcher": lambda: resolve(
        "easy-backfill", conservative=True, launcher_slots=1),
    # A finite gap lets arrivals shrink, but only on an empty queue.
    "easy-gap30": lambda: _with(resolve("easy-backfill"), rescale_gap=30.0),
    "power-tight": _power,
    "power-tuned": lambda: _power(launcher_slots=1, rescale_gap=30.0,
                                  shrink_filter=by_name),
    "power-mixed-watts": lambda: _with(
        _power(rescale_gap=30.0), capacity_constraint=_watts(MixedWatts)),
    "easy+power": lambda: _with(resolve("easy-backfill"),
                                capacity_constraint=_watts()),
    "easy+power-gap30": lambda: _with(resolve("easy-backfill"),
                                      rescale_gap=30.0,
                                      capacity_constraint=_watts()),
})

#: Aging stages laid over a config's own priority rule (``ewt-1s`` over
#: EWT: wait minus estimate, in seconds, up to 0).
AGINGS = {
    "user-15s": lambda base: Aging(base, interval=15.0),
    "user-60s": lambda base: Aging(base, interval=60.0),
    "user-300s": lambda base: Aging(base, interval=300.0),
    "ewt-1s": lambda base: Aging(StaticPriority(ewt_priority), interval=1.0,
                                 max_priority=0),
}


def build(config, preempt=False, aging=None):
    config = CONFIGS[config]()
    if preempt:
        config = _with(config, preempt=True)
    if aging is not None:
        base = config.priority
        base = base.base if isinstance(base, Aging) else base
        config = _with(config, priority=AGINGS[aging](base))
    return config


#: Configs that may carry the preemption stage (not a constraint).
PREEMPTIBLE = sorted(name for name in CONFIGS
                     if CONFIGS[name]().capacity_constraint is None)


@pytest.fixture(params=[2, None], ids=["blocks2", "blocks-default"])
def block_load(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(joblist, "BLOCK_LOAD", request.param)


def assert_same_state(engine, model):
    assert engine.free_slots == model.free_slots
    assert [j.name for j in engine.queue] == [j.name for j in model.queue]
    assert [j.name for j in engine.running] == [j.name for j in model.running]
    if engine._constraint is not None:
        assert engine._constraint.used == model.used
    rule = engine.config.backfill
    if rule is not None:
        assert rule.last_head_reservations == model.head_reservations


def run_pair(config, seed, slots=SLOTS, times=None, audit=False):
    """Drive the engine and the spec on one stream, comparing after every
    event.  ``times`` may give each event's time; ``audit`` checks the
    engine's queue invariants after every event too."""
    engine = Stream(ElasticPolicyEngine(slots, config()), seed)
    model = Stream(spec.Spec(slots, config()), seed)
    while not engine.done:
        now = None if times is None else next(times)
        engine.step(now)
        model.step(now)
        assert engine.log == model.log
        assert_same_state(engine.engine, model.engine)
        if audit:
            engine.engine.queue.check_invariants()
    assert model.done
    assert engine.engine.snapshot() == model.engine.snapshot()
    assert engine.log, "the stream decided nothing"


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("seed", SEEDS)
def test_engine_matches_the_spec(block_load, config, seed):
    run_pair(lambda: build(config), seed)


@pytest.mark.parametrize("config", PREEMPTIBLE)
@pytest.mark.parametrize("seed", SEEDS[:12])
def test_preemptive_engine_matches_the_spec(block_load, config, seed):
    run_pair(lambda: build(config, preempt=True), seed)


@pytest.mark.parametrize("gap", [180.0, math.inf])
@pytest.mark.parametrize("config", PREEMPTIBLE)
def test_preempted_jobs_resume_and_complete_once(config, gap):
    """The rescale gap governs rescales, not restarts: at any gap every
    preempted job resumes, and every job completes (the engine refuses
    to complete a job twice)."""
    preempted = 0
    for seed in SEEDS[:12]:
        engine = ElasticPolicyEngine(
            SLOTS, _with(build(config, preempt=True), rescale_gap=gap))
        stream = Stream(engine, seed).settle()
        waiting = set()
        for decision in stream.decisions:
            if isinstance(decision, PreemptJob):
                assert decision.job.name not in waiting
                waiting.add(decision.job.name)
                preempted += 1
            elif isinstance(decision, ResumeJob):
                waiting.remove(decision.job.name)
        assert not waiting, f"seed {seed}: never resumed {sorted(waiting)}"
        assert engine.snapshot() == {
            f"j{i}": ("Completed", 0) for i in range(stream.n_jobs)}
    assert preempted > 0


@pytest.mark.parametrize("aging", sorted(AGINGS))
@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("seed", SEEDS[:3])
def test_aged_engine_matches_the_spec(block_load, config, aging, seed):
    """Seed 1 adds preemption where the config allows it."""
    preempt = seed % 2 == 1 and config in PREEMPTIBLE
    run_pair(lambda: build(config, preempt, aging), seed, audit=True)


@pytest.mark.parametrize("config", ["elastic", "easy-backfill",
                                    "power-tight", "aging"])
@pytest.mark.parametrize("seed", SEEDS)
def test_merging_blocks_match_the_spec(monkeypatch, config, seed):
    """At ``BLOCK_LOAD`` 4 blocks also merge (below 2 members), which a
    block of a 2-load list never does."""
    monkeypatch.setattr(joblist, "BLOCK_LOAD", 4)
    run_pair(lambda: build(config), seed)


@pytest.mark.parametrize("tick, interval", [(0.1, 0.1), (0.1, 0.2),
                                            (0.1, 0.3), (0.7, 2.1),
                                            (1e5 / 3, 1e5)])
@pytest.mark.parametrize("seed", SEEDS[:6])
def test_aging_steps_on_float_boundaries(tick, interval, seed):
    """Events on multiples of ``tick``, which shares no exact binary grid
    with ``interval``: ``now - submit_time`` lands on, just below and just
    above multiples of the interval, so rounding decides the steps."""
    pick = random.Random(seed)
    ticks = itertools.accumulate(pick.choice((0, 1, 1, 2, 3))
                                 for _ in itertools.count())
    config = lambda: _with(resolve("elastic", rescale_gap=0.0),
                           priority=Aging(interval=interval))
    run_pair(config, seed, times=(n * tick for n in ticks))


def test_deep_backlog_spans_many_blocks():
    """A mostly-submitting stream on a large cluster: at the default
    ``BLOCK_LOAD`` the queue grows past one block, so the walk crosses
    block boundaries, the queue's block skip fires, and splits and
    merges under it run for real; the running list grows past what
    would be several blocks, so the victim walks cover a long list."""
    peak = {"running": 0, "queue": 0}

    class Probe(ElasticPolicyEngine):
        def on_submit(self, request, now):
            decisions = super().on_submit(request, now)
            peak["running"] = max(peak["running"], len(self.running))
            peak["queue"] = max(peak["queue"], len(self.queue.blocks))
            return decisions

    for policy, seed in (("elastic", 0), ("preemptive", 1), ("aging", 2)):
        engine = Stream(Probe(2048, resolve(policy)), seed, n_jobs=800,
                        submit_share=0.75).run()
        model = Stream(spec.Spec(2048, resolve(policy)), seed, n_jobs=800,
                       submit_share=0.75).run()
        assert engine.log == model.log
        assert engine.engine.snapshot() == model.engine.snapshot()
        keys = [job.sort_key for job in engine.engine.running]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        engine.engine.queue.check_invariants()
    assert peak["running"] >= 257 and peak["queue"] >= 2


@pytest.mark.parametrize("conservative", [False, True])
@pytest.mark.parametrize("seed", SEEDS[:6])
def test_engines_sharing_one_config_interleave(seed, conservative):
    """Engines built from one resolved config share its EASY rule: a
    profile priced for one engine must never answer for the other."""
    logs = {}
    config = resolve("easy-backfill", conservative=conservative)
    makers = {
        "engine": lambda: ElasticPolicyEngine(SLOTS, config),
        "spec": lambda: spec.Spec(
            SLOTS, resolve("easy-backfill", conservative=conservative)),
    }
    for label, make in makers.items():
        streams = [Stream(make(), seed * 7 + i, prefix=p)
                   for i, p in enumerate(("a", "b"))]
        pick = random.Random(seed)
        now = 0.0
        while not all(s.done for s in streams):
            if pick.random() < 0.5:
                now += pick.expovariate(1.0 / 40.0)
            pick.choice([s for s in streams if not s.done]).step(now)
        logs[label] = [s.log for s in streams]
    assert logs["engine"] == logs["spec"]


def test_decision_log_gating_does_not_change_decisions():
    """keep_decision_log=False only empties the log, never the decisions."""
    logged = ElasticPolicyEngine(SLOTS, resolve("elastic"))
    gated = ElasticPolicyEngine(SLOTS, resolve("elastic"))
    gated.keep_decision_log = False
    assert Stream(logged, 3).run().log == Stream(gated, 3).run().log
    assert gated.decision_log == []
    assert logged.decision_log  # default behaviour unchanged


# -- the diffs above are not vacuous ------------------------------------


@pytest.mark.parametrize("config", ["elastic-gap30", "easy-gap30",
                                    "power-tuned", "power-mixed-watts"])
def test_streams_shrink_on_submit(config):
    shrinks = 0
    for seed in SEEDS:
        stream = Stream(ElasticPolicyEngine(SLOTS, CONFIGS[config]()), seed)
        while not stream.done:
            before, submitted = len(stream.decisions), stream.submitted
            stream.step()
            if stream.submitted > submitted:
                shrinks += sum(isinstance(d, ShrinkJob)
                               for d in stream.decisions[before:])
    assert shrinks > 0


@pytest.mark.parametrize("config", ["elastic", "easy-backfill",
                                    "power-tight", "prb"])
def test_aging_changes_the_streams(config):
    changed = sum(
        Stream(ElasticPolicyEngine(SLOTS, build(config, aging="user-15s")),
               seed).run().log
        != Stream(ElasticPolicyEngine(SLOTS, build(config)), seed).run().log
        for seed in SEEDS
    )
    assert changed > len(SEEDS) // 2


@pytest.mark.parametrize("config", ["easy-backfill", "power-tight"])
def test_block_skips_fire(monkeypatch, config):
    """At ``BLOCK_LOAD`` 2 the Figure-3 walk's queue-block skip is on the
    streams' path, so the diffs above exercise it."""
    monkeypatch.setattr(joblist, "BLOCK_LOAD", 2)
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


# -- the spec is independent of the engine ------------------------------

#: Modules whose code the spec must not share, and the ways round an
#: import statement.
FORBIDDEN_MODULES = ("repro.scheduling.elastic", "repro.scheduling.joblist",
                     "repro.scheduling.literature", "repro.scheduling.power",
                     "repro.scheduling._reference", "importlib", "sys")
#: Names the spec must not import from anywhere.
FORBIDDEN_NAMES = {"priority_order_key", "ElasticPolicyEngine",
                   "IndexedJobList", "EasyBackfill", "PowerBudget",
                   "estimate_runtime", "ewt_priority", "prb_priority"}


def forbidden_imports(source):
    """The imports in ``source`` that would share the engine's code."""
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported += [module] + [f"{module}.{alias.name}"
                                    for alias in node.names]
        elif getattr(node, "id", None) == "__import__":
            imported.append("__import__")
    return [name for name in imported
            if name.startswith(".") or name == "__import__"
            or any(name == bad or name.startswith(bad + ".")
                   for bad in FORBIDDEN_MODULES)
            or name.rsplit(".", 1)[-1] in FORBIDDEN_NAMES]


@pytest.mark.parametrize("source", [
    "from repro.scheduling.job import JobRequest, priority_order_key",
    "from repro.scheduling import elastic",
    "import repro.scheduling.joblist",
    "from repro.scheduling import ElasticPolicyEngine",
    "from repro.scheduling.literature import EasyBackfill",
    "from .power import PowerBudget",
    "import importlib",
    "engine = __import__('repro.scheduling.elastic')",
])
def test_the_import_guard_catches(source):
    assert forbidden_imports(source)


def test_the_spec_imports_nothing_of_the_engine():
    assert forbidden_imports(inspect.getsource(spec)) == []
