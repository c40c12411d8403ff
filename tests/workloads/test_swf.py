"""SWF parser edge cases and trace-to-workload mapping."""

import io

import pytest

from repro.errors import SchedulingError
from repro.schedsim import ScheduleSimulator
from repro.scheduling import REGISTRY
from repro.workloads import SWFTrace, materialize, parse_swf_lines, size_class_for_procs

#: A small but representative trace: header comments, a blank line, full
#: records, a truncated record, and a garbage line.
SAMPLE = """\
; Version: 2.2
; Computer: Test Cluster
; MaxJobs: 6
;  Note: indented comment without a key-colon payload

1 0    10 3600 8  -1 -1 8  7200 -1 1 3 1 1 0 -1 -1 -1
2 60   5  1800 16 -1 -1 16 3600 -1 1 4 1 1 1 -1 -1 -1
3 120  0  900  64 -1 -1 -1 1800 -1 1 5 1 2 2 -1 -1 -1
4 180  0  600  4
not a record at all
5 240  0  -1   8  -1 -1 8  1200 -1 0 6 1 1 0 -1 -1 -1
"""


def sample_result():
    return parse_swf_lines(io.StringIO(SAMPLE))


class TestParser:
    def test_header_comments_parsed(self):
        result = sample_result()
        assert result.header["Version"] == "2.2"
        assert result.header["Computer"] == "Test Cluster"
        assert result.header["MaxJobs"] == "6"

    def test_blank_and_garbage_lines(self):
        result = sample_result()
        assert result.skipped_lines == 1  # only the non-numeric line
        assert len(result.jobs) == 5

    def test_truncated_record_padded_with_unknown(self):
        job4 = next(j for j in sample_result() if j.job_id == 4)
        assert job4.run_time == 600
        assert job4.allocated_procs == 4
        # Everything past the truncation point is the SWF "unknown" value.
        assert job4.requested_procs == -1
        assert job4.user_id == -1
        assert job4.queue == -1

    def test_missing_fields_are_minus_one(self):
        job3 = next(j for j in sample_result() if j.job_id == 3)
        assert job3.requested_procs == -1
        assert job3.procs == 64  # falls back to allocated_procs

    def test_field_values(self):
        job1 = next(j for j in sample_result() if j.job_id == 1)
        assert job1.submit_time == 0.0
        assert job1.wait_time == 10.0
        assert job1.run_time == 3600.0
        assert job1.requested_procs == 8
        assert job1.user_id == 3

    def test_empty_input(self):
        result = parse_swf_lines(io.StringIO(""))
        assert result.jobs == [] and result.header == {}


class TestTrace:
    def test_non_runnable_jobs_filtered(self):
        # Job 5 has run_time == -1: parsed, but not runnable.
        trace = SWFTrace(sample_result())
        assert len(trace) == 4

    def test_max_jobs_truncates(self):
        trace = SWFTrace(sample_result(), max_jobs=2)
        assert len(trace) == 2

    def test_size_class_mapping(self):
        trace = SWFTrace(sample_result())
        sizes = [sub.size.name for sub in trace.submissions()]
        # 8 procs -> small, 16 -> medium, 64 -> xlarge, 4 -> small.
        assert sizes == ["small", "medium", "xlarge", "small"]

    def test_size_class_for_procs_boundaries(self):
        assert size_class_for_procs(1).name == "small"
        assert size_class_for_procs(8).name == "small"
        assert size_class_for_procs(9).name == "medium"
        assert size_class_for_procs(32).name == "large"
        assert size_class_for_procs(10_000).name == "xlarge"
        with pytest.raises(SchedulingError):
            size_class_for_procs(0)

    def test_arrivals_rebased_and_ordered(self):
        times = [sub.time for sub in SWFTrace(sample_result()).submissions()]
        assert times[0] == 0.0
        assert times == sorted(times)

    def test_time_scale_compresses_arrivals_and_durations(self):
        full = materialize(SWFTrace(sample_result()))
        tenth = materialize(SWFTrace(sample_result(), time_scale=0.1))
        assert tenth[1].time == pytest.approx(full[1].time * 0.1)
        assert (tenth[0].request.params["timesteps"]
                <= full[0].request.params["timesteps"])

    def test_priorities_in_paper_range(self):
        for sub in SWFTrace(sample_result()).submissions():
            assert 1 <= sub.request.priority <= 5

    def test_deterministic(self):
        a = materialize(SWFTrace(sample_result()))
        b = materialize(SWFTrace(sample_result()))
        assert a == b

    def test_invalid_parameters(self):
        with pytest.raises(SchedulingError):
            SWFTrace(sample_result(), time_scale=0.0)
        with pytest.raises(SchedulingError):
            SWFTrace(sample_result(), priority_levels=0)

    def test_make_source_keeps_whole_trace_by_default(self, tmp_path):
        from repro.workloads import make_source

        path = tmp_path / "trace.swf"
        path.write_text(SAMPLE)
        # The synthetic sources' jobs=16 default must not truncate a trace.
        assert len(make_source("swf", trace=str(path), jobs=2)) == 4
        assert len(make_source("swf", trace=str(path), max_jobs=2)) == 2

    def test_trace_runs_through_simulator(self):
        trace = SWFTrace(sample_result(), time_scale=0.05)
        simulator = ScheduleSimulator(REGISTRY.resolve("elastic"), total_slots=64)
        result = simulator.run(trace.submissions(), retain="metrics")
        assert result.metrics.job_count == len(trace)
        assert result.metrics.total_time > 0
