"""Tests of the benchmark itself.  From the repository root:

    python3 -m pytest perfbench -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

from measure import NOMINAL_SLICE_S, Meter, percentile  # noqa: E402
from metered import MeteredProbe  # noqa: E402
from trace_run import ACCOUNTING_TOLERANCE, MetricsPatch, Tracer, TracingProbe  # noqa: E402
from workloads import WORKLOADS, Probe  # noqa: E402

TINY = {"paper_stream": 400, "easy_backlog": 100, "spot_faults": 400,
        "k8s_operator": 3}


def _run(name, probe, around=lambda go: go()):
    wl = WORKLOADS[name]
    inputs = wl.inputs(5, TINY[name])
    return {label: around(build()) for label, build in wl.units(inputs, probe)}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_passes_its_output_checks(name):
    for result in _run(name, Probe()).values():
        assert result.problems == []
        assert result.jobs == TINY[name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_metering_and_tracing_change_no_decision(name):
    plain = _run(name, Probe())

    meter = Meter()

    def metered_go(go):
        meter.begin()
        try:
            return go()
        finally:
            meter.end()

    metered = _run(name, MeteredProbe(meter, chunk=50.0), metered_go)
    assert len(meter.segments) > len(plain)

    counts = []
    for _ in range(2):
        tracer = Tracer()
        with MetricsPatch(tracer):
            traced = _run(name, TracingProbe(tracer), tracer.root)
        accounted = sum(tracer.self_s.values())
        assert abs(accounted - tracer.traced_s) <= ACCOUNTING_TOLERANCE * tracer.traced_s
        counts.append(dict(tracer.counts))
    assert counts[0] == counts[1]
    for label, result in plain.items():
        assert metered[label].fingerprint == result.fingerprint
        assert traced[label].fingerprint == result.fingerprint


def test_percentile_refuses_a_tail_it_cannot_support():
    with pytest.raises(ValueError):
        percentile([1.0] * 999, 0.99)
    with pytest.raises(ValueError):
        percentile([1.0] * 99, 0.9)
    assert percentile([float(v) for v in range(1, 1001)], 0.99) == 990.0
    assert percentile([float(v) for v in range(20, 0, -1)], 0.5) == 10.0


def test_speed_correction_cancels_a_uniform_slowdown():
    meter = Meter()
    # Two segments at nominal speed, then the machine halves its speed:
    # work and reference slices both take twice as long.
    meter.slices = [NOMINAL_SLICE_S] * 4 + [2 * NOMINAL_SLICE_S] * 4
    meter.segments = [(0.010, 0), (0.010, 1), (0.020, 5), (0.020, 6)]
    assert meter.work_seconds() == pytest.approx(0.060)
    assert meter.corrected_seconds() == pytest.approx(0.040)


def test_one_disturbed_slice_does_not_rescale_its_segment():
    meter = Meter()
    meter.slices = [NOMINAL_SLICE_S, NOMINAL_SLICE_S, 5 * NOMINAL_SLICE_S,
                    NOMINAL_SLICE_S, NOMINAL_SLICE_S]
    meter.segments = [(0.010, 2)]
    assert meter.corrected_seconds() == pytest.approx(0.010)


def test_latency_samples_take_their_segments_scale():
    meter = Meter()
    meter.slices = [NOMINAL_SLICE_S] * 3 + [2 * NOMINAL_SLICE_S] * 4
    meter.segments = [(0.01, 0), (0.01, 5)]
    meter.samples["submit"] = [1e-6, 1e-6, 4e-6]
    meter._sample_marks = [(2, 0), (3, 0)]
    assert meter.corrected_samples("submit") == pytest.approx([1e-6, 1e-6, 2e-6])
