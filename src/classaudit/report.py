"""Render group summaries as tables and bar charts.

Three tables mirror the study layout: sizes (Classes / LoC / L/C), cohesion
(LCOM5 / NHD), and complexity (CC / CoCo / ACoCo / MxCoCo / MnCoCo), rows
in ErOr, Utils, Rest order. In text format the worst cohesion cell per
column (highest LCOM5, lowest NHD) and the highest cell per complexity
column are marked with `*`; ties mark every tied cell. Marking compares the
rendered 3-decimal values, so what is starred is what the reader sees.

`TABLES` and `TALLIES` are the one place the layout lives: which columns
and pipeline tallies appear, in which order, under which text and CSV/JSON
names, read from which field, and which cells are marked. The text, CSV
and JSON renderers all loop over them.

Charts are written as self-contained SVG (no plotting dependency), one per
metric (LCOM5, NHD, CoCo, CC), with a companion CSV holding the same
numbers to the same printed precision. Output is byte-stable run to run.
"""

import os
from typing import List, Optional, Sequence, Tuple

from .pipeline import FilterOutcome, GroupSummary

_UNDERLINE = "\x1b[4m"
_RESET = "\x1b[0m"

# (key, title, columns); a column is (header, CSV/JSON key, GroupSummary
# field, worst). `worst` is `str` for a count, printed as an integer; None
# for a mean never marked; `max` or `min` for a mean marked where it is worst.
TABLES = (
    ("size", "Group sizes", (
        ("Classes", "classes", "class_count", str),
        ("LoC", "loc", "loc_total", str),
        ("L/C", "l_per_c", "loc_per_class", None),
    )),
    ("cohesion", "Cohesion", (
        ("LCOM5", "lcom5", "lcom5_mean", max),
        ("NHD", "nhd", "nhd_mean", min),
    )),
    ("complexity", "Complexity", (
        ("CC", "cc", "cc_mean", max),
        ("CoCo", "coco", "coco_mean", max),
        ("ACoCo", "acoco", "acoco_mean", max),
        ("MxCoCo", "mxcoco", "mxcoco_mean", max),
        ("MnCoCo", "mncoco", "mncoco_mean", max),
    )),
)

# (text label, CSV/JSON key, FilterOutcome field); the skipped count has none.
TALLIES = (
    ("Input classes", "input", "input_count"),
    ("Kept", "kept", "output_count"),
    ("Dropped: metric", "dropped_metric", "dropped_by_metric"),
    ("Dropped: outlier", "dropped_quantile", "dropped_by_quantile"),
    ("Dropped: label", "dropped_label", "dropped_by_label"),
    ("Skipped inputs", "skipped", None),
)


def fmt3(value: Optional[float]) -> str:
    """Half-to-even 3-decimal rendering; '-' for undefined."""
    if value is None:
        return "-"
    return format(value + 0.0, ".3f")


def _rounded(value: Optional[float]) -> Optional[float]:
    return None if value is None else float(fmt3(value))


def _shown(s: GroupSummary, field: str, worst) -> str:
    value = getattr(s, field)
    return str(value) if worst is str else fmt3(value)


def _tallies(pipeline: FilterOutcome, skipped: int) -> List[Tuple[str, str, int]]:
    return [(label, key, skipped if field is None else getattr(pipeline, field))
            for label, key, field in TALLIES]


def render_tables(
    summaries: Sequence[GroupSummary],
    format: str = "text",
    pipeline: Optional[FilterOutcome] = None,
    skipped: int = 0,
    style: bool = False,
) -> str:
    """Render all three tables (plus the drop tallies) in one string."""
    rows = [s for s in summaries if s.class_count > 0]
    if format == "text":
        return _render_text(rows, pipeline, skipped, style)
    if format == "csv":
        return _render_csv(rows, pipeline, skipped)
    if format == "json":
        return _render_json(rows, pipeline, skipped)
    raise ValueError(f"unknown format: {format}")


def _render_text(rows, pipeline, skipped, style) -> str:
    out: List[str] = []
    for _, title, columns in TABLES:
        body = [[s.label.value] + [_shown(s, field, worst) for _, _, field, worst in columns]
                for s in rows]
        # Star each column's worst cells, comparing values as rendered.
        for col, (_, _, field, worst) in enumerate(columns, 1):
            values = [_rounded(getattr(s, field)) for s in rows]
            defined = [v for v in values if v is not None]
            if worst in (max, min) and defined:
                target = worst(defined)
                for cells, value in zip(body, values):
                    if value == target:
                        cells[col] = "*" + cells[col]
        head = ["Group"] + [header for header, _, _, _ in columns]
        widths = [max(map(len, cells)) for cells in zip(head, *body)]
        out.append(title)
        for cells in [head] + body:
            line = [cells[0].ljust(widths[0])]
            for cell, width in zip(cells[1:], widths[1:]):
                pad = " " * (width - len(cell))
                if style and cell[0] == "*":
                    cell = _UNDERLINE + cell + _RESET
                line.append(pad + cell)
            out.append("  ".join(line))
        out.append("")
    if pipeline is not None:
        out.append("Pipeline")
        out += [f"{label:<19}{value}" for label, _, value in _tallies(pipeline, skipped)]
        out.append("")
    return "\n".join(out)


def _render_csv(rows, pipeline, skipped) -> str:
    lines = ["table,group,column,value"]
    for key, _, columns in TABLES:
        for s in rows:
            for _, name, field, worst in columns:
                lines.append(f"{key},{s.label.value},{name},{_shown(s, field, worst)}")
    if pipeline is not None:
        lines += [f"pipeline,,{key},{value}" for _, key, value in _tallies(pipeline, skipped)]
    return "\n".join(lines) + "\n"


def _render_json(rows, pipeline, skipped) -> str:
    import json  # only a --format=json run writes JSON

    doc = {
        key: [
            {"group": s.label.value, **{
                name: getattr(s, field) if worst is str else _rounded(getattr(s, field))
                for _, name, field, worst in columns
            }}
            for s in rows
        ]
        for key, _, columns in TABLES
    }
    if pipeline is not None:
        doc["pipeline"] = {key: value for _, key, value in _tallies(pipeline, skipped)}
    return json.dumps(doc, indent=2) + "\n"


# ---- charts ----------------------------------------------------------------

CHART_SPECS = (
    ("lcom5", "Mean LCOM5 by group", "lcom5_mean"),
    ("nhd", "Mean NHD by group", "nhd_mean"),
    ("coco", "Mean total cognitive complexity by group", "coco_mean"),
    ("cc", "Mean total cyclomatic complexity by group", "cc_mean"),
)

_BAR_COLORS = {"ErOr": "#4878a8", "Utils": "#e49444", "Rest": "#6a9f58"}

_W, _H = 480, 320
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 56, 16, 40, 44


def emit_chart_data(summaries: Sequence[GroupSummary], out_dir: str) -> List[str]:
    """Write one SVG + CSV pair per metric; returns the written paths.

    Groups without classes get no bar; with nothing to draw, returns [].
    """
    rows = [s for s in summaries if s.class_count > 0]
    written: List[str] = []
    if not rows:
        return written
    os.makedirs(out_dir, exist_ok=True)
    for stem, title, field in CHART_SPECS:
        points = [(s.label.value, _rounded(getattr(s, field))) for s in rows]
        points = [(g, v) for g, v in points if v is not None]
        if not points:
            continue
        csv_path = os.path.join(out_dir, f"{stem}.csv")
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            fh.write("group,value\n")
            for group, value in points:
                fh.write(f"{group},{format(value, '.3f')}\n")
        svg_path = os.path.join(out_dir, f"{stem}.svg")
        with open(svg_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(_bar_chart_svg(title, points))
        written.extend([svg_path, csv_path])
    return written


def _bar_chart_svg(title: str, points: List[Tuple[str, float]]) -> str:
    plot_w = _W - _MARGIN_L - _MARGIN_R
    plot_h = _H - _MARGIN_T - _MARGIN_B
    ymax = max(v for _, v in points)
    if ymax <= 0:
        ymax = 1.0
    n = len(points)
    slot = plot_w / n
    bar_w = slot * 0.6

    def x_of(idx: int) -> float:
        return _MARGIN_L + slot * idx + (slot - bar_w) / 2

    def y_of(value: float) -> float:
        return _MARGIN_T + plot_h * (1 - value / ymax)

    def num(v: float) -> str:
        return format(v, ".2f")

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.2f}" y="24" font-family="sans-serif" font-size="15" '
        f'text-anchor="middle">{title}</text>',
        # axes
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
        f'y2="{_MARGIN_T + plot_h}" stroke="#333" stroke-width="1"/>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T + plot_h}" '
        f'x2="{_MARGIN_L + plot_w}" y2="{_MARGIN_T + plot_h}" '
        f'stroke="#333" stroke-width="1"/>',
        f'<text x="{_MARGIN_L - 6}" y="{_MARGIN_T + 4}" font-family="sans-serif" '
        f'font-size="11" text-anchor="end">{format(ymax, ".3f")}</text>',
        f'<text x="{_MARGIN_L - 6}" y="{_MARGIN_T + plot_h + 4}" '
        f'font-family="sans-serif" font-size="11" text-anchor="end">0</text>',
    ]
    for idx, (group, value) in enumerate(points):
        x = x_of(idx)
        y = y_of(value)
        height = _MARGIN_T + plot_h - y
        color = _BAR_COLORS.get(group, "#888888")
        parts.append(
            f'<rect x="{num(x)}" y="{num(y)}" width="{num(bar_w)}" '
            f'height="{num(height)}" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{num(x + bar_w / 2)}" y="{num(y - 5)}" '
            f'font-family="sans-serif" font-size="12" text-anchor="middle">'
            f'{format(value, ".3f")}</text>'
        )
        parts.append(
            f'<text x="{num(x + bar_w / 2)}" y="{_MARGIN_T + plot_h + 18}" '
            f'font-family="sans-serif" font-size="12" text-anchor="middle">'
            f"{group}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
