"""The ``repro obs`` CLI verbs."""

import json

from repro.cli import main


class TestExportTrace:
    def test_export_trace_writes_valid_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["obs", "export-trace", "--jobs", "20",
                     "--output", str(out)]) == 0
        document = json.load(open(out))
        events = document["traceEvents"]
        assert events and {"name", "ph", "ts", "pid", "tid"} <= set(events[0])
        assert any(e["ph"] == "B" for e in events)
        manifest = document["otherData"]["manifest"]
        assert manifest["seed"] == 0 and manifest["policy"] == "elastic"
        assert "exported" in capsys.readouterr().out

    def test_export_trace_cloud_path(self, tmp_path):
        out = tmp_path / "cloud.json"
        assert main(["obs", "export-trace", "--cloud", "--jobs", "12",
                     "--output", str(out)]) == 0
        document = json.load(open(out))
        categories = {e.get("cat") for e in document["traceEvents"]}
        assert any(c and c.startswith("cloud.") for c in categories)


class TestDashboardVerb:
    def test_dashboard_renders(self, tmp_path, capsys):
        (tmp_path / "perfbench.json").write_text(json.dumps({
            "benchmark": "perfbench",
            "manifest": {"git_sha": "abc", "created_utc": "2026-08-08T00:00:00Z"},
            "results": {"k8s_operator": {"jobs_per_s": {
                "unit": "1/s", "parent": [], "change": [80.0, 81.0],
                "verdict": None}}},
        }))
        out = tmp_path / "dash.html"
        assert main(["obs", "dashboard", "--input", str(tmp_path),
                     "--output", str(out)]) == 0
        page = out.read_text()
        assert "<svg" in page and "k8s_operator jobs_per_s" in page
        assert "rendered from 1 artifacts" in capsys.readouterr().out

    def test_dashboard_empty_dir_exits_2(self, tmp_path, capsys):
        assert main(["obs", "dashboard", "--input", str(tmp_path),
                     "--output", str(tmp_path / "d.html")]) == 2
        assert "error" in capsys.readouterr().err
