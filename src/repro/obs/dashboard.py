"""The nightly trend dashboard: perf_gate documents → one static HTML page.

``repro obs dashboard`` scans a directory tree for the JSON documents
``benchmarks/perf_gate.py --output`` writes (``"benchmark":
"perfbench"``), orders them by their manifest's UTC timestamp (file
mtime when a document has none), and renders trend charts with no
dependencies beyond the standard library: inline SVG line charts in a
self-contained HTML file the nightly workflow uploads as an artifact.

Input layout
------------
Any nesting works; the nightly workflow keeps one subdirectory per run::

    history/
      1001/perfbench.json
      1002/perfbench.json
      ...

Tracked series
--------------
One series per workload × end-to-end metric: the median of the run's
``change`` values, in the unit the document records.  Documents with
any other ``"benchmark"`` value (the retired per-suite speed documents
a restored history may still hold) are skipped with one
``RuntimeWarning`` each.
"""

from __future__ import annotations

import html
import json
import os
import statistics
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["collect_documents", "build_series", "render_dashboard",
           "write_dashboard", "DashboardError"]


class DashboardError(ValueError):
    """No usable artifacts under the input directory."""


@dataclass
class BenchDocument:
    """One discovered perf_gate document plus its ordering key and label."""

    path: str
    document: Dict
    timestamp: str  # ISO-8601 (manifest) or mtime-derived fallback
    git_sha: str

    @property
    def label(self) -> str:
        return self.git_sha[:8] if self.git_sha != "unknown" else self.timestamp[:10]


@dataclass
class Series:
    """One metric's trajectory across runs."""

    title: str
    unit: str
    points: List[Tuple[str, float]] = field(default_factory=list)  # (label, y)

    def add(self, label: str, value: float) -> None:
        self.points.append((label, float(value)))


def collect_documents(root: str) -> List[BenchDocument]:
    """Every parseable benchmark document under ``root``, oldest first.

    A nightly-history directory accumulates artifacts from interrupted
    runs — truncated JSON, half-written files, stray non-bench JSON.
    Corrupt documents are *warned about and skipped* (never fatal): one
    bad artifact must not take down the whole trend page.
    """
    found: List[BenchDocument] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".json"):
                continue
            path = os.path.join(dirpath, name)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    document = json.load(handle)
            except (OSError, ValueError) as exc:
                warnings.warn(
                    f"skipping bench artifact {path}: {exc}",
                    RuntimeWarning, stacklevel=2,
                )
                continue
            if not isinstance(document, dict) or "benchmark" not in document:
                # Not a bench document at all (other tooling's JSON
                # living in the same tree) — quietly irrelevant.
                continue
            if document["benchmark"] != "perfbench":
                warnings.warn(
                    f"skipping legacy BENCH_* document {path} (benchmark "
                    f"{document['benchmark']!r}); only perf_gate documents "
                    "are plotted", RuntimeWarning, stacklevel=2,
                )
                continue
            manifest = document.get("manifest") or {}
            if not isinstance(manifest, dict):
                warnings.warn(
                    f"skipping bench artifact {path}: manifest is "
                    f"{type(manifest).__name__}, expected an object",
                    RuntimeWarning, stacklevel=2,
                )
                continue
            timestamp = manifest.get("created_utc", "")
            if not isinstance(timestamp, str):
                timestamp = ""  # a garbage timestamp must not break sort
            if not timestamp:
                try:
                    from datetime import datetime, timezone

                    timestamp = datetime.fromtimestamp(
                        os.stat(path).st_mtime, tz=timezone.utc
                    ).strftime("%Y-%m-%dT%H:%M:%SZ")
                except OSError:
                    timestamp = "1970-01-01T00:00:00Z"
            found.append(BenchDocument(
                path=path,
                document=document,
                timestamp=timestamp,
                git_sha=str(manifest.get("git_sha", "unknown")),
            ))
    found.sort(key=lambda d: (d.timestamp, d.path))
    return found


def _numeric(value: object) -> Optional[float]:
    """``value`` as a float, or ``None`` for anything non-numeric.

    Bools are rejected explicitly (they are ints to ``isinstance`` but a
    ``"change": [true]`` in a mangled artifact is garbage, not a 1.0).
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def build_series(documents: Sequence[BenchDocument]) -> List[Series]:
    """Fold the discovered documents into per-metric trend series.

    Run values that are not plain numbers (a truncated write, a hand-
    edited artifact) cost that point a warning: the series keeps its
    other runs rather than the page crashing.
    """
    table: Dict[Tuple[str, str], Series] = {}
    for doc in documents:
        results = doc.document.get("results", {})
        if not isinstance(results, dict):
            continue
        for workload, metrics in sorted(results.items()):
            if not isinstance(metrics, dict):
                continue
            for name, entry in sorted(metrics.items()):
                runs = entry.get("change") if isinstance(entry, dict) else None
                values = ([_numeric(v) for v in runs]
                          if isinstance(runs, list) else [None])
                if not values or None in values:
                    warnings.warn(
                        f"skipping non-numeric {workload}/{name} runs "
                        f"{runs!r} in {doc.path}", RuntimeWarning, stacklevel=2,
                    )
                    continue
                key = (workload, name)
                if key not in table:
                    table[key] = Series(title=f"{workload} {name}",
                                        unit=str(entry.get("unit", "")))
                table[key].add(doc.label, statistics.median(values))
    return [table[key] for key in sorted(table)]


# ----------------------------------------------------------------------
# SVG rendering (no dependencies: hand-rolled polyline charts)
# ----------------------------------------------------------------------

_W, _H = 640, 220
_PAD_L, _PAD_R, _PAD_T, _PAD_B = 56, 16, 18, 40


def _svg_chart(series: Series) -> str:
    points = series.points
    n = len(points)
    ys = [y for _, y in points]
    lo, hi = min(ys), max(ys)
    if hi == lo:
        lo, hi = lo - (abs(lo) * 0.1 or 0.5), hi + (abs(hi) * 0.1 or 0.5)
    span_x = _W - _PAD_L - _PAD_R
    span_y = _H - _PAD_T - _PAD_B

    def sx(i: int) -> float:
        return _PAD_L + (span_x * i / (n - 1) if n > 1 else span_x / 2)

    def sy(y: float) -> float:
        return _PAD_T + span_y * (1.0 - (y - lo) / (hi - lo))

    parts = [
        f'<svg viewBox="0 0 {_W} {_H}" role="img" '
        f'aria-label="{html.escape(series.title)}">',
        f'<rect x="{_PAD_L}" y="{_PAD_T}" width="{span_x}" height="{span_y}" '
        'class="plot"/>',
    ]
    # Horizontal gridlines + y tick labels at min/mid/max.
    for frac in (0.0, 0.5, 1.0):
        value = lo + (hi - lo) * frac
        y = sy(value)
        parts.append(f'<line x1="{_PAD_L}" y1="{y:.1f}" '
                     f'x2="{_W - _PAD_R}" y2="{y:.1f}" class="grid"/>')
        parts.append(f'<text x="{_PAD_L - 6}" y="{y + 4:.1f}" '
                     f'class="tick" text-anchor="end">{value:.4g}</text>')
    coords = " ".join(f"{sx(i):.1f},{sy(y):.1f}" for i, (_, y) in enumerate(points))
    if n > 1:
        parts.append(f'<polyline points="{coords}" class="line"/>')
    for i, (label, y) in enumerate(points):
        parts.append(f'<circle cx="{sx(i):.1f}" cy="{sy(y):.1f}" r="3.5" '
                     f'class="dot"><title>{html.escape(label)}: {y:.6g}'
                     '</title></circle>')
    # x labels: first, last, and every point while they fit.
    step = max(1, (n + 7) // 8)
    for i, (label, _) in enumerate(points):
        if i % step and i != n - 1:
            continue
        parts.append(f'<text x="{sx(i):.1f}" y="{_H - _PAD_B + 16}" '
                     f'class="tick" text-anchor="middle">'
                     f'{html.escape(label)}</text>')
    parts.append(f'<text x="{_PAD_L}" y="{_H - 6}" class="unit">'
                 f'{html.escape(series.unit)}</text>')
    parts.append("</svg>")
    return "".join(parts)


_STYLE = """
body { font: 14px/1.5 -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 72rem; padding: 0 1rem;
       color: #1a202c; background: #fafafa; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.05rem; margin: 1.6rem 0 .4rem; }
.meta { color: #718096; font-size: .85rem; }
.grid-cards { display: grid; gap: 1.2rem;
              grid-template-columns: repeat(auto-fill, minmax(21rem, 1fr)); }
.card { background: #fff; border: 1px solid #e2e8f0; border-radius: 8px;
        padding: .8rem 1rem; }
.card .delta { font-size: .85rem; color: #4a5568; }
.card .delta.up { color: #2f855a; } .card .delta.down { color: #c53030; }
svg { width: 100%; height: auto; display: block; }
svg .plot { fill: #fff; stroke: none; }
svg .grid { stroke: #edf2f7; stroke-width: 1; }
svg .line { fill: none; stroke: #3182ce; stroke-width: 2; }
svg .dot { fill: #3182ce; }
svg .tick { font-size: 10px; fill: #a0aec0; }
svg .unit { font-size: 10px; fill: #718096; }
table { border-collapse: collapse; width: 100%; font-size: .85rem; }
th, td { text-align: left; padding: .3rem .6rem;
         border-bottom: 1px solid #e2e8f0; }
th { color: #718096; font-weight: 600; }
"""


def render_dashboard(documents: Sequence[BenchDocument], root: str,
                     title: str = "repro nightly trends") -> str:
    """The trend page for ``documents`` (paths shown relative to ``root``)."""
    all_series = build_series(documents)

    from .manifest import git_sha, utc_timestamp

    cards = []
    for series in all_series:
        latest = series.points[-1][1]
        delta_html = ""
        if len(series.points) > 1:
            previous = series.points[-2][1]
            if previous:
                change = 100.0 * (latest - previous) / abs(previous)
                cls = "up" if change >= 0 else "down"
                delta_html = (f'<div class="delta {cls}">'
                              f'{change:+.1f}% vs previous run</div>')
        cards.append(
            '<div class="card">'
            f"<h2>{html.escape(series.title)}</h2>"
            f'<div class="meta">latest: {latest:.6g} {html.escape(series.unit)}'
            f"</div>{delta_html}{_svg_chart(series)}</div>"
        )

    doc_rows = "".join(
        f"<tr><td>{html.escape(os.path.relpath(d.path, root))}</td>"
        f"<td>{html.escape(d.timestamp)}</td>"
        f"<td><code>{html.escape(d.git_sha)}</code></td></tr>"
        for d in documents
    )
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{html.escape(title)}</title>
<style>{_STYLE}</style>
</head>
<body>
<h1>{html.escape(title)}</h1>
<p class="meta">{len(documents)} runs ·
generated {utc_timestamp()} at <code>{git_sha()}</code></p>
<div class="grid-cards">
{''.join(cards)}
</div>
<h2>Artifacts</h2>
<table>
<tr><th>file</th><th>timestamp</th><th>git sha</th></tr>
{doc_rows}
</table>
</body>
</html>
"""


def write_dashboard(root: str, output: str,
                    title: str = "repro nightly trends") -> int:
    """Render ``root``'s trend page into ``output``; returns #artifacts."""
    documents = collect_documents(root)
    if not documents:
        raise DashboardError(
            f"no perf_gate documents found under {root!r}"
        )
    page = render_dashboard(documents, root, title=title)
    with open(output, "w", encoding="utf-8") as handle:
        handle.write(page)
    return len(documents)
