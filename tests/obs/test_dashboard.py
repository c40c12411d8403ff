"""The trend dashboard: document discovery, series folding, rendering."""

import json

import pytest

from repro.obs.dashboard import (
    DashboardError,
    build_series,
    collect_documents,
    render_dashboard,
    write_dashboard,
)


def gate_doc(sha, stamp, jobs_per_s, **workloads):
    """A perf_gate document measured without ``--base``."""
    results = {
        "paper_stream": {
            "jobs_per_s": {"unit": "1/s", "parent": [],
                           "change": [jobs_per_s - 1, jobs_per_s,
                                      jobs_per_s + 5],
                           "verdict": None},
            "peak_rss_mb": {"unit": "MB", "parent": [], "change": [60.0],
                            "verdict": None},
        },
    }
    results.update(workloads)
    return {
        "benchmark": "perfbench",
        "manifest": {
            "schema_version": 2,
            "git_sha": sha,
            "created_utc": stamp,
        },
        "results": results,
    }


def legacy_doc(suite="policy_engine"):
    """A document of the retired per-suite harness."""
    return {"benchmark": suite,
            "manifest": {"git_sha": "0ld", "created_utc": "2026-08-01T00:00:00Z"},
            "results": {"engine_1000": {"normalized": 0.02}}}


@pytest.fixture
def history(tmp_path):
    """Two synthetic nightly gate documents, one day apart."""
    for run, (sha, stamp, jobs) in enumerate((
        ("aaaa111122223333", "2026-08-07T01:00:00Z", 100.0),
        ("bbbb444455556666", "2026-08-08T01:00:00Z", 110.0),
    )):
        run_dir = tmp_path / f"run{run}"
        run_dir.mkdir()
        (run_dir / "perfbench.json").write_text(
            json.dumps(gate_doc(sha, stamp, jobs))
        )
        (run_dir / "notes.txt").write_text("not json")
        (run_dir / "other.json").write_text('{"no": "benchmark key"}')
    return tmp_path


class TestCollect:
    def test_finds_and_orders_documents(self, history):
        documents = collect_documents(str(history))
        assert len(documents) == 2
        stamps = [d.timestamp for d in documents]
        assert stamps == sorted(stamps)

    def test_label_prefers_sha(self, history):
        documents = collect_documents(str(history))
        assert documents[0].label == "aaaa1111"

    def test_mtime_fallback_without_manifest(self, tmp_path):
        (tmp_path / "gate.json").write_text(
            json.dumps({"benchmark": "perfbench", "results": {}})
        )
        (document,) = collect_documents(str(tmp_path))
        assert document.timestamp.endswith("Z")
        assert document.label == document.timestamp[:10]

    def test_skips_malformed_json(self, tmp_path):
        (tmp_path / "bad.json").write_text("{truncated")
        with pytest.warns(RuntimeWarning, match="bad.json"):
            assert collect_documents(str(tmp_path)) == []

    def test_legacy_documents_warn_once_each_and_are_skipped(self, history):
        # A restored nightly history still holds the retired suites' files.
        old = history / "run0"
        for suite in ("policy_engine", "sweep", "cloud", "faults"):
            (old / f"BENCH_{suite}.json").write_text(
                json.dumps(legacy_doc(suite)))
        with pytest.warns(RuntimeWarning) as caught:
            documents = collect_documents(str(history))
        legacy = [str(w.message) for w in caught if "legacy" in str(w.message)]
        assert len(legacy) == 4
        assert all("BENCH_" in message for message in legacy)
        assert len(documents) == 2


class TestCorruptArtifacts:
    """A damaged nightly artifact must cost a warning, never the dashboard."""

    def test_corrupt_artifact_warns_and_survivors_render(self, history,
                                                         tmp_path):
        bad = history / "run1" / "truncated.json"
        bad.write_text(json.dumps(gate_doc(
            "eeee7777", "2026-08-08T03:00:00Z", 5.0))[:40])
        with pytest.warns(RuntimeWarning, match="truncated.json"):
            documents = collect_documents(str(history))
        assert len(documents) == 2  # the good documents all survived
        out = tmp_path / "dash.html"
        with pytest.warns(RuntimeWarning):
            assert write_dashboard(str(history), str(out)) == 2
        assert out.read_text().startswith("<!DOCTYPE html>")

    def test_non_object_manifest_warns_and_skips(self, tmp_path):
        document = gate_doc("ffff8888", "2026-08-08T04:00:00Z", 1.0)
        document["manifest"] = ["not", "an", "object"]
        (tmp_path / "listman.json").write_text(json.dumps(document))
        with pytest.warns(RuntimeWarning, match="manifest is list"):
            assert collect_documents(str(tmp_path)) == []

    def test_garbage_timestamp_does_not_break_ordering(self, tmp_path):
        document = gate_doc("abcd1234", "2026-08-08T05:00:00Z", 1.0)
        document["manifest"]["created_utc"] = {"bad": "stamp"}
        (tmp_path / "stamp.json").write_text(json.dumps(document))
        (collected,) = collect_documents(str(tmp_path))
        # the garbage stamp falls back to file mtime instead of crashing
        assert collected.timestamp.endswith("Z")
        assert collected.label == "abcd1234"

    @pytest.mark.parametrize("runs", [["fast-ish"], [True], [], "12"])
    def test_non_numeric_runs_warn_and_skip_the_point(self, tmp_path, runs):
        document = gate_doc("dcba4321", "2026-08-08T06:00:00Z", 1.0)
        document["results"]["paper_stream"]["jobs_per_s"]["change"] = runs
        (tmp_path / "nonnum.json").write_text(json.dumps(document))
        with pytest.warns(RuntimeWarning, match="non-numeric"):
            all_series = build_series(collect_documents(str(tmp_path)))
        assert [s.title for s in all_series] == ["paper_stream peak_rss_mb"]


class TestSeries:
    def test_one_series_per_workload_and_metric(self, history):
        all_series = build_series(collect_documents(str(history)))
        by_title = {s.title: s for s in all_series}
        assert set(by_title) == {"paper_stream jobs_per_s",
                                 "paper_stream peak_rss_mb"}
        jobs = by_title["paper_stream jobs_per_s"]
        # each point is the median of that run's change values
        assert [y for _, y in jobs.points] == [100.0, 110.0]
        assert [label for label, _ in jobs.points] == ["aaaa1111", "bbbb4444"]
        assert jobs.unit == "1/s"
        assert by_title["paper_stream peak_rss_mb"].unit == "MB"

    def test_gate_document_with_a_base_plots_the_change(self, tmp_path):
        document = gate_doc("1234abcd", "2026-08-08T08:00:00Z", 50.0)
        entry = document["results"]["paper_stream"]["jobs_per_s"]
        entry["parent"], entry["verdict"] = [10.0, 11.0, 12.0], "pass"
        (tmp_path / "gate.json").write_text(json.dumps(document))
        (series, _) = build_series(collect_documents(str(tmp_path)))
        assert series.points == [("1234abcd", 50.0)]


class TestRender:
    def test_renders_from_two_nightly_documents(self, history):
        documents = collect_documents(str(history))
        page = render_dashboard(documents, str(history))
        assert page.startswith("<!DOCTYPE html>")
        assert "<svg" in page
        assert "aaaa1111" in page and "bbbb4444" in page
        assert "2 runs ·" in page
        assert "+10.0% vs previous run" in page  # 100 -> 110 jobs/s

    def test_write_dashboard_counts_artifacts(self, history, tmp_path):
        output = tmp_path / "out"
        output.mkdir()
        path = output / "dashboard.html"
        assert write_dashboard(str(history), str(path)) == 2
        assert path.read_text().startswith("<!DOCTYPE html>")

    def test_write_dashboard_walks_the_tree_once(self, history, tmp_path,
                                                 monkeypatch):
        import repro.obs.dashboard as dashboard

        calls = []
        collect = dashboard.collect_documents
        monkeypatch.setattr(dashboard, "collect_documents",
                            lambda root: calls.append(root) or collect(root))
        write_dashboard(str(history), str(tmp_path / "d.html"))
        assert calls == [str(history)]

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(DashboardError):
            write_dashboard(str(tmp_path), str(tmp_path / "d.html"))

    def test_only_legacy_documents_raise(self, tmp_path):
        (tmp_path / "BENCH_sweep.json").write_text(
            json.dumps(legacy_doc("sweep")))
        with pytest.warns(RuntimeWarning, match="legacy"):
            with pytest.raises(DashboardError):
                write_dashboard(str(tmp_path), str(tmp_path / "d.html"))

    def test_single_run_renders_without_delta(self, tmp_path):
        (tmp_path / "one.json").write_text(json.dumps(
            gate_doc("cccc0000dddd1111", "2026-08-08T02:00:00Z", 2.0)
        ))
        page = render_dashboard(collect_documents(str(tmp_path)),
                                str(tmp_path))
        assert "vs previous run" not in page
