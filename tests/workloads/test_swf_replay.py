"""Full-length replay of the bundled frozen SWF reference trace.

PR-3 satellite (ROADMAP: "replaying a bundled real SWF trace at full
length in CI").  The fixture is a deterministic generator-frozen trace
(see ``benchmarks/data/make_fixture.py`` and the calibration notes in
``benchmarks/data/README.md``); its committed bytes are a golden input,
so the replay doubles as an end-to-end regression net over the SWF
parser, the streaming simulator, and every policy engine the trace is
driven through.  The full-length replays are slow-marked and wired into
the CI perf-gate job; the parse/shape checks run with the tier-1 suite.
"""

import os

import pytest

from repro.schedsim import ScheduleSimulator
from repro.scheduling import REGISTRY
from repro.workloads import SWFTrace

FIXTURE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "benchmarks", "data", "frozen-elastic-cluster.swf",
)
FIXTURE_JOBS = 2500
TOTAL_SLOTS = 128


def test_fixture_parses_to_its_frozen_shape():
    trace = SWFTrace(FIXTURE)
    assert len(trace) == FIXTURE_JOBS
    assert trace.parsed.skipped_lines == 0
    assert trace.parsed.header["MaxJobs"] == str(FIXTURE_JOBS)
    assert trace.parsed.header["MaxProcs"] == "64"
    times = [job.submit_time for job in trace.jobs]
    assert times == sorted(times)
    # The documented statistical shape: all four size classes exercised.
    sizes = {job.procs for job in trace.jobs}
    assert min(sizes) == 1 and max(sizes) == 64


def test_fixture_short_prefix_replays_deterministically():
    """Fast tier-1 guard: a 200-job prefix replay, exact job count."""
    trace = SWFTrace(FIXTURE, max_jobs=200)
    simulator = ScheduleSimulator(REGISTRY.resolve("elastic"), total_slots=TOTAL_SLOTS)
    result = simulator.run(trace.submissions(), retain="metrics")
    assert result.metrics.job_count == 200
    assert 0.0 < result.metrics.utilization <= 1.0


@pytest.mark.slow
@pytest.mark.parametrize("policy", ["elastic", "moldable"])
def test_full_length_replay(policy):
    """Every trace job must run to completion under streaming metrics."""
    trace = SWFTrace(FIXTURE)
    simulator = ScheduleSimulator(REGISTRY.resolve(policy), total_slots=TOTAL_SLOTS)
    result = simulator.run(trace.submissions(), retain="metrics")
    assert result.metrics.job_count == FIXTURE_JOBS
    assert 0.0 < result.metrics.utilization <= 1.0
    assert result.metrics.weighted_mean_completion > 0.0
    # Streaming contract at trace length: nothing leaked per-job state.
    assert simulator.policy._jobs == {}
    assert simulator._timelines == {}


@pytest.mark.slow
def test_full_length_replay_is_policy_sensitive():
    """The four policies must land measurably apart on this trace.

    No ordering is asserted: the fixture runs the cluster deep into
    overload, a regime where rigid-at-minimum can beat elastic on mean
    completion (narrow jobs strong-scale more efficiently) — unlike the
    paper's moderately loaded 16-job draws.  What the frozen trace pins
    is that the policies stay *distinguishable*: a refactor that makes
    them collapse onto each other has broken policy dispatch somewhere.
    """
    results = {}
    for policy in ("elastic", "moldable", "min_replicas", "max_replicas"):
        trace = SWFTrace(FIXTURE)
        simulator = ScheduleSimulator(REGISTRY.resolve(policy), total_slots=TOTAL_SLOTS)
        results[policy] = simulator.run(trace.submissions(), retain="metrics").metrics
    completions = [m.weighted_mean_completion for m in results.values()]
    assert len({round(c, 3) for c in completions}) == len(completions)
    # Elastic must actually rescale on a trace this contended.
    assert results["elastic"].utilization > 0.9
