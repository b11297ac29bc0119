"""Render group summaries as tables and bar charts.

Three tables mirror the study layout: sizes (Classes / LoC / L/C), cohesion
(LCOM5 / NHD), and complexity (CC / CoCo / ACoCo / MxCoCo / MnCoCo), rows
in ErOr, Utils, Rest order. In text format the worst cohesion cell per
column (highest LCOM5, lowest NHD) and the highest cell per complexity
column are marked with `*`; ties mark every tied cell. Marking compares the
rendered 3-decimal values, so what is starred is what the reader sees.

Charts are written as self-contained SVG (no plotting dependency), one per
metric (LCOM5, NHD, CoCo, CC), with a companion CSV holding the same
numbers to the same printed precision. Output is byte-stable run to run.
"""

import os
from typing import Dict, List, Optional, Sequence, Tuple

from .pipeline import FilterOutcome, GroupSummary

_UNDERLINE = "\x1b[4m"
_RESET = "\x1b[0m"

SIZE_COLUMNS = ("Classes", "LoC", "L/C")
COHESION_COLUMNS = ("LCOM5", "NHD")
COMPLEXITY_COLUMNS = ("CC", "CoCo", "ACoCo", "MxCoCo", "MnCoCo")


def fmt3(value: Optional[float]) -> str:
    """Half-to-even 3-decimal rendering; '-' for undefined."""
    if value is None:
        return "-"
    return format(value + 0.0, ".3f")


def _rounded(value: Optional[float]) -> Optional[float]:
    return None if value is None else float(fmt3(value))


def _visible_rows(summaries: Sequence[GroupSummary]) -> List[GroupSummary]:
    return [s for s in summaries if s.class_count > 0]


def _size_cells(s: GroupSummary) -> List[str]:
    return [str(s.class_count), str(s.loc_total), fmt3(s.loc_per_class)]


def _cohesion_values(s: GroupSummary) -> List[Optional[float]]:
    return [s.lcom5_mean, s.nhd_mean]


def _complexity_values(s: GroupSummary) -> List[Optional[float]]:
    return [s.cc_mean, s.coco_mean, s.acoco_mean, s.mxcoco_mean, s.mncoco_mean]


def _mark_worst(rows: List[List[Optional[float]]], mark_min: Sequence[bool]) -> List[List[bool]]:
    """Flag per cell; compares rendered values so ties follow the printout."""
    marks = [[False] * len(mark_min) for _ in rows]
    if not rows:
        return marks
    for col, minimize in enumerate(mark_min):
        rendered = [_rounded(row[col]) for row in rows]
        defined = [v for v in rendered if v is not None]
        if not defined:
            continue
        target = min(defined) if minimize else max(defined)
        for r, v in enumerate(rendered):
            if v is not None and v == target:
                marks[r][col] = True
    return marks


def render_tables(
    summaries: Sequence[GroupSummary],
    format: str = "text",
    pipeline: Optional[FilterOutcome] = None,
    skipped: int = 0,
    style: bool = False,
) -> str:
    """Render all three tables (plus the drop tallies) in one string."""
    rows = _visible_rows(summaries)
    if format == "text":
        return _render_text(rows, pipeline, skipped, style)
    if format == "csv":
        return _render_csv(rows, pipeline, skipped)
    if format == "json":
        return _render_json(rows, pipeline, skipped)
    raise ValueError(f"unknown format: {format}")


def _render_text(rows, pipeline, skipped, style) -> str:
    out: List[str] = []

    def table(title: str, headers: Tuple[str, ...], body: List[List[str]]):
        out.append(title)
        widths = [len(h) for h in ("Group",) + headers]
        plain = [[_strip_ansi(c) for c in row] for row in body]
        for row in plain:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        header_line = "  ".join(
            h.ljust(widths[0]) if i == 0 else h.rjust(widths[i])
            for i, h in enumerate(("Group",) + headers)
        )
        out.append(header_line)
        for styled_row, plain_row in zip(body, plain):
            cells = []
            for i, (cell, bare) in enumerate(zip(styled_row, plain_row)):
                pad = widths[i] - len(bare)
                cells.append(cell + " " * pad if i == 0 else " " * pad + cell)
            out.append("  ".join(cells))
        out.append("")

    size_body = [[s.label.value] + _size_cells(s) for s in rows]
    table("Group sizes", SIZE_COLUMNS, size_body)

    coh_rows = [_cohesion_values(s) for s in rows]
    coh_marks = _mark_worst(coh_rows, mark_min=(False, True))
    coh_body = [
        [s.label.value] + [_cell(v, m, style) for v, m in zip(vals, marks)]
        for s, vals, marks in zip(rows, coh_rows, coh_marks)
    ]
    table("Cohesion", COHESION_COLUMNS, coh_body)

    cpx_rows = [_complexity_values(s) for s in rows]
    cpx_marks = _mark_worst(cpx_rows, mark_min=(False,) * 5)
    cpx_body = [
        [s.label.value] + [_cell(v, m, style) for v, m in zip(vals, marks)]
        for s, vals, marks in zip(rows, cpx_rows, cpx_marks)
    ]
    table("Complexity", COMPLEXITY_COLUMNS, cpx_body)

    if pipeline is not None:
        out.append("Pipeline")
        out.append(f"Input classes      {pipeline.input_count}")
        out.append(f"Kept               {pipeline.output_count}")
        out.append(f"Dropped: metric    {pipeline.dropped_by_metric}")
        out.append(f"Dropped: outlier   {pipeline.dropped_by_quantile}")
        out.append(f"Dropped: label     {pipeline.dropped_by_label}")
        out.append(f"Skipped inputs     {skipped}")
        out.append("")
    return "\n".join(out)


def _cell(value: Optional[float], marked: bool, style: bool) -> str:
    text = fmt3(value)
    if marked and value is not None:
        text = "*" + text
        if style:
            text = _UNDERLINE + text + _RESET
    return text


def _strip_ansi(text: str) -> str:
    return text.replace(_UNDERLINE, "").replace(_RESET, "")


_CSV_COLUMN_KEYS = {
    "size": ("classes", "loc", "l_per_c"),
    "cohesion": ("lcom5", "nhd"),
    "complexity": ("cc", "coco", "acoco", "mxcoco", "mncoco"),
}


def _table_values(table: str, s: GroupSummary) -> List[str]:
    if table == "size":
        return _size_cells(s)
    if table == "cohesion":
        return [fmt3(v) for v in _cohesion_values(s)]
    return [fmt3(v) for v in _complexity_values(s)]


def _render_csv(rows, pipeline, skipped) -> str:
    lines = ["table,group,column,value"]
    for tname in ("size", "cohesion", "complexity"):
        for s in rows:
            for key, cell in zip(_CSV_COLUMN_KEYS[tname], _table_values(tname, s)):
                lines.append(f"{tname},{s.label.value},{key},{cell}")
    if pipeline is not None:
        lines.append(f"pipeline,,input,{pipeline.input_count}")
        lines.append(f"pipeline,,kept,{pipeline.output_count}")
        lines.append(f"pipeline,,dropped_metric,{pipeline.dropped_by_metric}")
        lines.append(f"pipeline,,dropped_quantile,{pipeline.dropped_by_quantile}")
        lines.append(f"pipeline,,dropped_label,{pipeline.dropped_by_label}")
        lines.append(f"pipeline,,skipped,{skipped}")
    return "\n".join(lines) + "\n"


def _render_json(rows, pipeline, skipped) -> str:
    import json  # only a --format=json run writes JSON

    doc: Dict[str, object] = {
        "size": [
            {
                "group": s.label.value,
                "classes": s.class_count,
                "loc": s.loc_total,
                "l_per_c": _rounded(s.loc_per_class),
            }
            for s in rows
        ],
        "cohesion": [
            {
                "group": s.label.value,
                "lcom5": _rounded(s.lcom5_mean),
                "nhd": _rounded(s.nhd_mean),
            }
            for s in rows
        ],
        "complexity": [
            {
                "group": s.label.value,
                "cc": _rounded(s.cc_mean),
                "coco": _rounded(s.coco_mean),
                "acoco": _rounded(s.acoco_mean),
                "mxcoco": _rounded(s.mxcoco_mean),
                "mncoco": _rounded(s.mncoco_mean),
            }
            for s in rows
        ],
    }
    if pipeline is not None:
        doc["pipeline"] = {
            "input": pipeline.input_count,
            "kept": pipeline.output_count,
            "dropped_metric": pipeline.dropped_by_metric,
            "dropped_quantile": pipeline.dropped_by_quantile,
            "dropped_label": pipeline.dropped_by_label,
            "skipped": skipped,
        }
    return json.dumps(doc, indent=2) + "\n"


# ---- charts ----------------------------------------------------------------

CHART_SPECS = (
    ("lcom5", "Mean LCOM5 by group", lambda s: s.lcom5_mean),
    ("nhd", "Mean NHD by group", lambda s: s.nhd_mean),
    ("coco", "Mean total cognitive complexity by group", lambda s: s.coco_mean),
    ("cc", "Mean total cyclomatic complexity by group", lambda s: s.cc_mean),
)

_BAR_COLORS = {"ErOr": "#4878a8", "Utils": "#e49444", "Rest": "#6a9f58"}

_W, _H = 480, 320
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 56, 16, 40, 44


def emit_chart_data(summaries: Sequence[GroupSummary], out_dir: str) -> List[str]:
    """Write one SVG + CSV pair per metric; returns the written paths.

    Groups without classes get no bar; with nothing to draw, returns [].
    """
    rows = [
        s for s in _visible_rows(summaries)
    ]
    written: List[str] = []
    if not rows:
        return written
    os.makedirs(out_dir, exist_ok=True)
    for stem, title, pick in CHART_SPECS:
        points = [(s.label.value, _rounded(pick(s))) for s in rows]
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
