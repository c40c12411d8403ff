"""Benchmarks for the §3.2.2/§6 extensions (beyond the paper's evaluation).

Quantifies what the paper's discussion predicts:

* preemption rescues high-priority arrivals that the evaluated policy can
  only queue (rigid low-priority jobs hold the cluster);
* aging bounds the starvation of low-priority jobs under sustained
  high-priority traffic;
* evolving jobs track their internal load schedule better than any static
  size.
"""

from benchmarks.conftest import once
from repro.experiments import render_table
from repro.scheduling import (
    REGISTRY, Aging, JobRequest, PolicyConfig, StaticPriority,
)
from repro.schedsim import ScheduleSimulator, Submission
from repro.perfmodel import size_class


def _submission(name, size_name, time, priority):
    size = size_class(size_name)
    request = JobRequest(
        name=name, min_replicas=size.min_replicas, max_replicas=size.max_replicas,
        priority=priority, size_class=size.name,
        params={"size_class": size.name, "timesteps": size.timesteps},
    )
    return Submission(time=time, request=request, size=size)


def _rigid_submission(name, size_name, replicas, time, priority):
    size = size_class(size_name)
    request = JobRequest(
        name=name, min_replicas=replicas, max_replicas=replicas,
        priority=priority, size_class=size.name,
        params={"size_class": size.name, "timesteps": size.timesteps},
    )
    return Submission(time=time, request=request, size=size)


def adversarial_workload():
    """Rigid low-priority jobs hold the cluster when the VIP arrives."""
    return [
        _rigid_submission("hog-a", "large", 32, 0.0, priority=1),
        _rigid_submission("hog-b", "large", 31, 0.0, priority=1),
        _submission("vip", "xlarge", 120.0, priority=5),
    ]


def test_extension_preemption_rescues_vip(benchmark, save_result):
    def run():
        out = {}
        for label, policy in (
            ("elastic (paper)", "elastic"),
            ("elastic + preemption", "preemptive"),
        ):
            sim = ScheduleSimulator(REGISTRY.resolve(policy, rescale_gap=60.0))
            result = sim.run(adversarial_workload())
            vip = next(o for o in result.outcomes if o.name == "vip")
            out[label] = vip.response_time
        return out

    responses = once(benchmark, run)
    # The evaluated policy can only queue the VIP behind the rigid hogs;
    # preemption starts it (checkpointing a hog to disk).
    assert responses["elastic + preemption"] < responses["elastic (paper)"] * 0.25
    rows = [[label, f"{resp:.1f}"] for label, resp in responses.items()]
    save_result(
        "ext_preemption",
        render_table(["policy", "VIP response time (s)"], rows,
                     title="Preemption extension vs rigid-job lockout"),
    )


def test_extension_aging_bounds_starvation(benchmark, save_result):
    """A low-priority job vs a stream of high-priority arrivals."""

    def workload():
        subs = [_submission("starved", "medium", 0.0, priority=1)]
        # High-priority xlarge jobs (each ~214 s long, taking all 64 slots)
        # arrive every 150 s: there is *always* a queued VIP when a
        # completion frees the cluster, so the plain policy hands every
        # completion to a VIP and the low-priority job starves.
        subs.insert(0, _rigid_submission("seed-hog", "xlarge", 64, 0.0, priority=4))
        for i in range(12):
            subs.append(
                _rigid_submission(f"vip-{i}", "xlarge", 64, 100.0 + 150.0 * i,
                                  priority=4)
            )
        return sorted(subs, key=lambda s: s.time)

    def run():
        out = {}
        for label, priority in (
            ("elastic (paper)", StaticPriority()),
            ("elastic + aging", Aging(interval=300.0)),
        ):
            sim = ScheduleSimulator(
                PolicyConfig(name=label, rescale_gap=60.0, priority=priority)
            )
            result = sim.run(workload())
            starved = next(o for o in result.outcomes if o.name == "starved")
            out[label] = starved.response_time
        return out

    responses = once(benchmark, run)
    assert responses["elastic + aging"] < responses["elastic (paper)"]
    rows = [[label, f"{resp:.1f}"] for label, resp in responses.items()]
    save_result(
        "ext_aging",
        render_table(["policy", "starved job response time (s)"], rows,
                     title="Aging extension vs low-priority starvation"),
    )


def test_extension_evolving_tracks_load(benchmark, save_result):
    """An evolving job beats every static size on its phase schedule."""
    from repro.apps.evolving import EvolvingApp, EvolvingConfig
    from repro.charm import CharmRuntime
    from repro.sim import Engine

    config = EvolvingConfig(
        phases=(
            (100, lambda p: 0.10 / p + 0.01, 2),
            (100, lambda p: 1.60 / p + 0.01, 16),
            (100, lambda p: 0.10 / p + 0.01, 2),
        ),
        sync_every=10,
    )

    def makespan(max_pes):
        engine = Engine()
        rts = CharmRuntime(engine, num_pes=2)
        app = EvolvingApp(config, max_pes=max_pes)
        engine.process(app.main(rts))
        engine.run()
        return engine.now

    def run():
        return {"static-2": makespan(2), "evolving": makespan(None)}

    times = once(benchmark, run)
    assert times["evolving"] < times["static-2"]
    rows = [[label, f"{t:.1f}"] for label, t in times.items()]
    save_result(
        "ext_evolving",
        render_table(["configuration", "makespan (s)"], rows,
                     title="Evolving job vs static sizing on a phased load"),
    )
