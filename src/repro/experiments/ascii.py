"""Terminal rendering: aligned tables and ASCII line charts.

The ``repro`` figure and table verbs print the same rows/series the paper
plots; these helpers keep that output readable without any plotting
dependency.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

__all__ = ["render_table", "render_chart", "render_profile"]


def render_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> str:
    """Fixed-width table with right-aligned cells."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = " | ".join(h.rjust(w) for h, w in zip(cells[0], widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in cells[1:]:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_chart(
    series: Dict[str, List[Tuple[float, float]]],
    width: int = 64,
    height: int = 16,
    title: str = "",
    y_label: str = "",
    log_y: bool = False,
) -> str:
    """Plot one or more (x, y) series as an ASCII chart.

    Each series gets a marker character; overlapping points show the later
    series' marker.  Good enough to eyeball the Figure-7/8 shapes in a
    terminal.
    """
    markers = "*o+x#@%&"
    points_all = [p for pts in series.values() for p in pts]
    if not points_all:
        return "(empty chart)"
    xs = [p[0] for p in points_all]
    ys = [p[1] for p in points_all]
    if log_y:
        ys = [math.log10(max(y, 1e-12)) for y in ys]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for (name, pts), marker in zip(series.items(), markers):
        for x, y in pts:
            yy = math.log10(max(y, 1e-12)) if log_y else y
            col = int((x - x_lo) / x_span * (width - 1))
            row = int((yy - y_lo) / y_span * (height - 1))
            grid[height - 1 - row][col] = marker
    lines: List[str] = []
    if title:
        lines.append(title)
    top = f"{(10 ** y_hi if log_y else y_hi):.3g}"
    bottom = f"{(10 ** y_lo if log_y else y_lo):.3g}"
    gutter = max(len(top), len(bottom), len(y_label)) + 1
    for i, row_chars in enumerate(grid):
        if i == 0:
            prefix = top.rjust(gutter)
        elif i == height - 1:
            prefix = bottom.rjust(gutter)
        elif i == height // 2 and y_label:
            prefix = y_label.rjust(gutter)
        else:
            prefix = " " * gutter
        lines.append(prefix + "|" + "".join(row_chars))
    lines.append(" " * gutter + "+" + "-" * width)
    lines.append(
        " " * gutter + f"{x_lo:<12.6g}" + " " * max(0, width - 24) + f"{x_hi:>12.6g}"
    )
    legend = "   ".join(
        f"{marker}={name}" for (name, _), marker in zip(series.items(), markers)
    )
    lines.append(" " * gutter + " " + legend)
    return "\n".join(lines)


def render_profile(samples: List[Tuple[float, float]], width: int = 72,
                   title: str = "") -> str:
    """Render a 0..1 utilization profile as a bar strip over time."""
    blocks = " .:-=+*#%@"
    if not samples:
        return "(empty profile)"
    t_hi = max(t for t, _ in samples) or 1.0
    cells = [0.0] * width
    counts = [0] * width
    for t, u in samples:
        col = min(width - 1, int(t / t_hi * (width - 1)))
        cells[col] += u
        counts[col] += 1
    strip = "".join(
        blocks[min(len(blocks) - 1, int((cells[i] / counts[i]) * (len(blocks) - 1)))]
        if counts[i]
        else " "
        for i in range(width)
    )
    lines = []
    if title:
        lines.append(title)
    lines.append("util |" + strip + "|")
    lines.append(f"     0s{' ' * (width - 12)}{t_hi:8.0f}s")
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value != 0 and abs(value) < 0.01:
            return f"{value:.2e}"
        return f"{value:.2f}"
    return str(value)
