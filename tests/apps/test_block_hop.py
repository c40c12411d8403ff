"""The block hop against the per-block driver loop it replaced.

A :class:`ModeledApp` waits once per hop, until the next sync point where
something can happen; :class:`~tests.apps.block_oracle.PerBlockModeledApp`
sleeps through every sync block.  Over randomized step models (with
``total_steps % sync_every != 0``), rescale requests, disk checkpoints,
vetoes and pod deaths, both must produce bit-identical timelines, rescale
reports, request outcomes, completion times and progress readings.
"""

import random

import pytest

from repro.apps.base import RescaleDecision, _blocks_to_multiple
from repro.apps.evolving import EfficiencyDecision
from repro.apps.modeled import ModeledApp, ModeledAppConfig
from repro.charm import CcsRequest, CcsServer, CharmRuntime
from repro.charm.faulttolerance import DiskCheckpointStore
from repro.sim import Engine

from tests.apps.block_oracle import PerBlockModeledApp

SEEDS = range(40)


def random_model(rng, stalls=True):
    """A step-time model of the PE count; some models stall (take no
    time) at one size."""
    a = rng.uniform(0.01, 1.0)
    b = rng.uniform(0.0, 0.05)
    e = rng.uniform(0.5, 1.0)
    stall = rng.choice([None, None, None, rng.randint(1, 8)]) if stalls else None

    def step_time(p):
        return 0.0 if p == stall else a / p ** e + b

    return step_time


def random_shape(rng):
    sync = rng.randint(2, 12)
    total = rng.randint(3, 60) * sync + rng.randint(1, sync - 1)
    assert total % sync != 0
    return sync, total


def boundary_times(step_time, pes, sync, total):
    """Sync-point times of an unrescaled run, accumulated like the sleeps."""
    t, done, out = 0.0, 0, []
    while done < total:
        block = min(sync, total - done)
        dt = step_time(pes) * block
        if dt > 0:
            t += dt
        out.append(t)
        done += block
    return out


def drive(app_cls, step_time, sync, total, pes=4, requests=(), polls=(),
          kill_at=None, decision=None, store=None, ckpt_every=None,
          record=True):
    """Run one app; return everything the two drivers must agree on."""
    engine = Engine()
    rts = CharmRuntime(engine, num_pes=pes)
    config = ModeledAppConfig(
        name="hop", total_steps=total, step_time=step_time,
        data_bytes=1 << 20, chares=16, sync_every=sync,
    )
    app = app_cls(
        config, record_iterations=record,
        decision=decision or RescaleDecision(),
        ft_store=store, disk_checkpoint_every=ckpt_every,
    )
    server = CcsServer(engine)
    app.attach_ccs(server)
    outcomes, readings, finished = [], [], []

    def send(key, target):
        request = CcsRequest(engine, "rescale", {"target": target})
        request.done.add_callback(lambda ev: outcomes.append(
            (key, engine.now, ev.value if ev.ok else str(ev.exception))))
        server._receive(request)

    def poll(at):
        readings.append((at, app.completed_steps, app.progress))

    proc = engine.process(app.main(rts), name="app")
    proc.add_callback(lambda ev: finished.append(engine.now))
    for key, (at, target) in enumerate(requests):
        engine.schedule_at(at, send, key, target)
    for at in polls:
        engine.schedule_at(at, poll, at)
    if kill_at is not None:
        engine.schedule_at(kill_at, proc.interrupt, "worker pod died")
    engine.run()
    return {
        "log": list(app.iteration_log),
        "reports": list(app.rescale_reports),
        "outcomes": sorted(outcomes),
        "readings": readings,
        "finished": finished,
        "completed_steps": app.completed_steps,
        "num_pes": rts.num_pes,
        "declined": list(getattr(app.decision, "declined", [])),
        "checkpoint": (store.peek("hop").completed_steps
                       if store is not None and store.has("hop") else None),
    }


def diff(step_time, sync, total, decision=None, **kwargs):
    """Run both drivers (each with a fresh ``decision()``) and require
    equal results."""
    hop, oracle = (
        drive(app_cls, step_time, sync, total,
              decision=None if decision is None else decision(), **kwargs)
        for app_cls in (ModeledApp, PerBlockModeledApp)
    )
    assert hop == oracle
    return hop


def span(step_time, pes, sync, total):
    return boundary_times(step_time, pes, sync, total)[-1]


@pytest.mark.parametrize("seed", SEEDS)
def test_random_requests_and_polls(seed):
    rng = random.Random(seed)
    step_time = random_model(rng)
    sync, total = random_shape(rng)
    pes = rng.randint(1, 8)
    horizon = max(span(step_time, pes, sync, total), 1.0)
    first = rng.uniform(0.0, horizon)
    requests = [
        (first, rng.randint(1, 8)),
        # Lands during the first rescale: pending when the next hop starts.
        (first + rng.uniform(0.0, 2.0), rng.randint(1, 8)),
        (rng.uniform(0.0, 1.5 * horizon), rng.randint(1, 8)),
    ]
    polls = sorted(rng.uniform(0.0, 1.5 * horizon) for _ in range(12))
    out = diff(step_time, sync, total, pes=pes, requests=requests, polls=polls)
    assert out["completed_steps"] == total


@pytest.mark.parametrize("seed", SEEDS)
def test_request_exactly_on_a_sync_point(seed):
    rng = random.Random(1000 + seed)
    step_time = random_model(rng)
    sync, total = random_shape(rng)
    pes = rng.randint(1, 8)
    times = boundary_times(step_time, pes, sync, total)
    at = times[rng.randrange(len(times))]
    # A read at the very instant is left out: see
    # test_read_on_a_sync_point_counts_its_block.
    polls = sorted(rng.uniform(0.0, times[-1]) for _ in range(6))
    out = diff(step_time, sync, total, pes=pes,
               requests=[(at, rng.randint(1, 8))], polls=polls)
    assert out["completed_steps"] == total


@pytest.mark.parametrize("seed", SEEDS)
def test_request_pending_at_hop_start(seed):
    # Delivered at t=0, after setup and before the first hop is laid out.
    rng = random.Random(2000 + seed)
    step_time = random_model(rng)
    sync, total = random_shape(rng)
    out = diff(step_time, sync, total, pes=rng.randint(1, 8),
               requests=[(0.0, rng.randint(1, 8))])
    assert out["completed_steps"] == total


@pytest.mark.parametrize("seed", SEEDS)
def test_disk_checkpoints_and_restart(seed):
    rng = random.Random(3000 + seed)
    step_time = random_model(rng)
    sync, total = random_shape(rng)
    pes = rng.randint(1, 8)
    every = rng.randint(1, 4) * sync + rng.choice([0, 0, rng.randint(1, sync)])
    horizon = max(span(step_time, pes, sync, total), 1.0)
    kill_at = rng.uniform(0.0, horizon)
    common = dict(pes=pes, ckpt_every=every,
                  requests=[(rng.uniform(0.0, horizon), rng.randint(1, 8))],
                  polls=sorted(rng.uniform(0.0, horizon) for _ in range(8)))
    # Run each driver into a pod death with its own store, then restart
    # it from that store: the restore path starts mid-run.
    runs = {}
    for app_cls in (ModeledApp, PerBlockModeledApp):
        store = DiskCheckpointStore()
        killed = drive(app_cls, step_time, sync, total, kill_at=kill_at,
                       store=store, **common)
        restarted = drive(app_cls, step_time, sync, total, store=store, **common)
        runs[app_cls] = (killed, restarted)
    assert runs[ModeledApp] == runs[PerBlockModeledApp]
    assert runs[ModeledApp][1]["completed_steps"] == total


@pytest.mark.parametrize("seed", SEEDS)
def test_pod_death_interrupt(seed):
    rng = random.Random(4000 + seed)
    step_time = random_model(rng)
    sync, total = random_shape(rng)
    pes = rng.randint(1, 8)
    horizon = max(span(step_time, pes, sync, total), 1.0)
    kill_at = rng.uniform(0.0, horizon)
    requests = [(rng.uniform(0.0, kill_at), rng.randint(1, 8))]
    polls = sorted(rng.uniform(0.0, 1.2 * horizon) for _ in range(8))
    out = diff(step_time, sync, total, pes=pes, requests=requests,
               polls=polls, kill_at=kill_at)
    assert out["finished"]


@pytest.mark.parametrize("seed", SEEDS)
def test_efficiency_vetoes(seed):
    rng = random.Random(5000 + seed)
    step_time = random_model(rng, stalls=False)  # efficiency divides by it
    sync, total = random_shape(rng)
    pes = rng.randint(1, 8)
    horizon = max(span(step_time, pes, sync, total), 1.0)
    min_eff = rng.uniform(0.2, 1.0)
    max_prog = rng.uniform(0.1, 1.0)
    requests = sorted((rng.uniform(0.0, horizon), rng.randint(1, 8))
                      for _ in range(4))

    def decision():
        return EfficiencyDecision(min_efficiency=min_eff, max_progress=max_prog,
                                  step_time=step_time)

    diff(step_time, sync, total, pes=pes, requests=requests,
         decision=decision)


@pytest.mark.parametrize("seed", range(10))
def test_blocks_that_take_no_time(seed):
    # block_seconds is 0 for every block: every sync point lands on the
    # start instant, so the whole run is the dt <= 0 branch.
    rng = random.Random(6000 + seed)
    sync, total = random_shape(rng)
    common = dict(pes=rng.randint(1, 8), requests=[(0.0, rng.randint(1, 8))],
                  polls=[0.0])
    if seed % 2:
        # Disk checkpoints too, each driver with its own store.
        every = rng.randint(1, 3) * sync
        out = [drive(app_cls, lambda p: 0.0, sync, total, ckpt_every=every,
                     store=DiskCheckpointStore(), **common)
               for app_cls in (ModeledApp, PerBlockModeledApp)]
        assert out[0] == out[1]
        out = out[0]
    else:
        out = diff(lambda p: 0.0, sync, total, **common)
    assert out["completed_steps"] == total


def test_blocks_to_checkpoint_against_a_count():
    # The hop's stop block: the first k >= 1 with (start + k * sync) a
    # multiple of every, within every blocks or never.
    for start in range(0, 40):
        for sync in range(1, 13):
            for every in range(1, 30):
                hits = [k for k in range(1, every + 1)
                        if (start + k * sync) % every == 0]
                assert _blocks_to_multiple(start, sync, every) == (
                    hits[0] if hits else None)


def test_record_iterations_off():
    out = diff(lambda p: 0.1 / p, 7, 100, requests=[(1.0, 2)], record=False)
    assert out["log"] == []


def test_read_on_a_sync_point_counts_its_block():
    # At the instant a sync point is reached its block is complete, so
    # an exact read counts it: the veto sees 50% progress, not 45%.
    decision = EfficiencyDecision(max_progress=0.5)
    out = drive(ModeledApp, lambda p: 0.25, 10, 200, requests=[(25.0, 6)],
                polls=[25.0], decision=decision)
    assert out["readings"] == [(25.0, 100, 0.5)]
    assert out["declined"] == [(6, "nearly finished")]


def engine_events_to_finish(app_cls, total_steps):
    engine = Engine()
    rts = CharmRuntime(engine, num_pes=4)
    config = ModeledAppConfig(name="m", total_steps=total_steps,
                              step_time=lambda p: 0.01 / p,
                              data_bytes=1 << 20, chares=8, sync_every=10)
    app = app_cls(config)
    engine.process(app.main(rts))
    engine.run()
    assert app.completed_steps == total_steps
    return engine.events_executed


def test_event_count_is_independent_of_total_steps():
    hop = engine_events_to_finish(ModeledApp, 40_000)
    assert hop == engine_events_to_finish(ModeledApp, 400)
    assert hop == engine_events_to_finish(ModeledApp, 11)
    assert hop < 20
    # The per-block loop pays a sleep and a quiescence wait per block.
    assert engine_events_to_finish(PerBlockModeledApp, 40_000) >= 3 * 4000
