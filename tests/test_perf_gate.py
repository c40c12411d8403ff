"""The A/B speed gate's verdict rule and its bad-input contract.

The verdicts are computed on synthetic run lists, so no benchmark runs
here; ``benchmarks/perf_gate.py`` is loaded from its path because
``benchmarks/`` is not an installed package.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "perf_gate", ROOT / "benchmarks" / "perf_gate.py")
perf_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_gate)

METRICS = [
    {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "complete_p50_us", "unit": "us", "better": "lower",
     "bound": 0.25},
]
STEADY = [0.98, 0.99, 1.0, 1.01, 1.02]


def runs(jobs, p50, correct=True, failed=0):
    """One run document per (jobs_per_s, complete_p50_us) pair."""
    return [{"correct": correct, "attempted": 1000, "failed": failed,
             "metrics": {"jobs_per_s": {"value": j, "unit": "1/s"},
                         "complete_p50_us": {"value": p, "unit": "us"}}}
            for j, p in zip(jobs, p50)]


def verdicts(parent, change):
    return {name: entry["verdict"] for name, entry
            in perf_gate.judge(parent, change, METRICS).items()}


def scaled(factor):
    return [factor * x for x in STEADY]


PARENT = runs(scaled(100), scaled(20))


class TestVerdict:
    def test_within_the_bound_passes_in_both_directions(self):
        change = runs(scaled(80), scaled(24))  # 20% slower on both
        assert verdicts(PARENT, change) == {"jobs_per_s": "pass",
                                            "complete_p50_us": "pass"}

    def test_better_passes_in_both_directions(self):
        change = runs(scaled(150), scaled(10))
        assert verdicts(PARENT, change) == {"jobs_per_s": "pass",
                                            "complete_p50_us": "pass"}

    def test_worse_than_the_bound_fails_in_both_directions(self):
        change = runs(scaled(70), scaled(26))  # 30% fewer jobs, p50 +30%
        results = perf_gate.judge(PARENT, change, METRICS)
        assert {n: e["verdict"] for n, e in results.items()} == {
            "jobs_per_s": "fail", "complete_p50_us": "fail"}
        assert "30.0% worse" in results["jobs_per_s"]["reason"]

    def test_direction_matters(self):
        # Higher jobs/s and higher p50: only the p50 got worse.
        change = runs(scaled(140), scaled(28))
        assert verdicts(PARENT, change) == {"jobs_per_s": "pass",
                                            "complete_p50_us": "fail"}

    def test_wide_parent_spread_gives_unresolved(self):
        parent = runs([60, 80, 100, 120, 140], [20] * 5)  # IQR/median 60%
        change = runs([60, 65, 70, 75, 140], [20] * 5)  # median 30% lower
        results = perf_gate.judge(parent, change, METRICS)
        assert results["jobs_per_s"]["verdict"] == "unresolved"
        assert results["jobs_per_s"]["reason"] == (
            "change median is 30.0% worse, but the parent IQR/median 60.0% "
            "is wider than the 25% bound")
        assert results["complete_p50_us"]["verdict"] == "pass"

    def test_wide_spread_turns_no_pass_into_unresolved(self):
        parent = runs([60, 80, 100, 120, 140], [20] * 5)
        change = runs([80, 90, 95, 100, 140], [20] * 5)  # 5% lower
        assert verdicts(parent, change)["jobs_per_s"] == "pass"

    def test_wide_spread_still_fails_when_every_change_run_is_worse(self):
        parent = runs([60, 80, 100, 120, 140], [20] * 5)
        change = runs([50, 51, 52, 53, 54], [20] * 5)
        assert verdicts(parent, change)["jobs_per_s"] == "fail"

    def test_an_incorrect_change_run_fails_every_metric(self):
        change = runs(scaled(100), scaled(20))
        change[3]["correct"] = False
        results = perf_gate.judge(PARENT, change, METRICS)
        assert {e["verdict"] for e in results.values()} == {"fail"}
        assert results["jobs_per_s"]["reason"] == "a change run is not correct"

    def test_a_higher_failed_share_fails(self):
        parent = runs(scaled(100), scaled(20), failed=1)
        change = runs(scaled(100), scaled(20), failed=2)
        results = perf_gate.judge(parent, change, METRICS)
        assert {e["verdict"] for e in results.values()} == {"fail"}
        assert "larger share" in results["jobs_per_s"]["reason"]
        # The same share as the parent is not a failure.
        assert set(verdicts(parent, parent).values()) == {"pass"}

    def test_without_a_parent_there_is_no_verdict(self):
        change = runs(scaled(100), scaled(20), correct=False)
        results = perf_gate.judge([], change, METRICS)
        assert results["jobs_per_s"] == {
            "unit": "1/s", "bound": 0.25, "parent": [], "change": scaled(100),
            "verdict": None}


class TestReport:
    def test_each_delta_shows_beside_its_bound(self):
        change = runs(scaled(80), scaled(24))
        lines = perf_gate.report(
            {"w": perf_gate.judge(PARENT, change, METRICS)}).splitlines()
        assert "delta / bound" in lines[0]
        assert lines[1].split()[:2] == ["w", "jobs_per_s"]
        assert "-20.0% / 25%" in lines[1] and lines[1].endswith("pass")
        assert "+20.0% / 25%" in lines[2] and lines[2].endswith("pass")

    def test_a_failing_metric_names_its_bound_twice(self):
        change = runs(scaled(70), scaled(20))
        line = perf_gate.report(
            {"w": perf_gate.judge(PARENT, change, METRICS)}).splitlines()[1]
        assert "-30.0% / 25%" in line
        assert line.endswith("fail (change median is 30.0% worse; "
                             "the bound is 25%)")

    def test_without_a_parent_there_is_no_delta(self):
        line = perf_gate.report({"w": perf_gate.judge(
            [], runs(scaled(100), scaled(20)), METRICS)}).splitlines()[1]
        assert line.split()[-2:] == ["-", "-"]


class TestBadInput:
    def test_unknown_workload(self, capsys):
        assert perf_gate.main(["--workload", "no_such_workload"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown workload(s) ['no_such_workload']")

    def test_unknown_base_revision(self, capsys):
        assert perf_gate.main(["--base", "no-such-rev-123",
                               "--workload", "paper_stream"]) == 2
        assert capsys.readouterr().err == (
            "error: unknown --base revision 'no-such-rev-123'\n")

    def test_benchmark_json_without_a_bound(self, tmp_path, monkeypatch,
                                            capsys):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        del spec["end_to_end"][2]["bound"]
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
        monkeypatch.setattr(perf_gate, "ROOT", str(tmp_path))
        assert perf_gate.main([]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'peak_rss_mb' needs a bound" in err

    def test_script_exits_2_without_a_traceback(self, tmp_path):
        (tmp_path / "benchmarks").mkdir()
        shutil.copy(ROOT / "benchmarks" / "perf_gate.py", tmp_path / "benchmarks")
        (tmp_path / "BENCHMARK.json").write_text("{not json")
        proc = subprocess.run(
            [sys.executable, str(tmp_path / "benchmarks" / "perf_gate.py")],
            capture_output=True, text=True, check=False)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: cannot read ")
        assert "Traceback" not in proc.stderr

    def test_only_three_flags(self):
        with pytest.raises(SystemExit) as exit_info:
            perf_gate.main(["--pairs", "3"])
        assert exit_info.value.code == 2
