"""Independent expectations for the benchmark's outputs.

The report table is recomputed here from the generators' stated per-class
values, with its own nearest-rank filter and means, and compared with what
classaudit printed. Nothing here imports classaudit.
"""

import math
import os
from typing import Dict, List, Optional, Sequence

from workloads import METRIC_KEYS, ExpectedClass

GROUPS = ("ErOr", "Utils", "Rest")
# The report prints 3 decimals; renamed fixture copies may differ from the
# oracle in the last ulp, so a printed value matches when it is within half
# a unit of the third decimal of the exact reference, plus float slack.
PRINT_TOLERANCE = 0.0005 + 1e-9

_MEAN_FIELDS = {
    "cohesion": (("lcom5", "lcom5"), ("nhd", "nhd")),
    "complexity": (("cc", "cc_total"), ("coco", "coco_total"), ("acoco", "coco_avg"),
                   ("mxcoco", "coco_max"), ("mncoco", "coco_min")),
}


def _nearest_rank(sorted_values: Sequence[int], percent: int) -> int:
    """Element at rank ceil(percent/100 * n), in exact integer arithmetic."""
    n = len(sorted_values)
    rank = -(-percent * n // 100)
    return sorted_values[min(max(rank - 1, 0), n - 1)]


def _mean(values: List[float]) -> Optional[float]:
    return math.fsum(values) / len(values) if values else None


def expected_report(classes: Sequence[ExpectedClass], skipped: int = 0) -> dict:
    """The JSON report (unrounded) for the classes the program should see."""
    defined = [c for c in classes if all(c.metrics[k] is not None for k in METRIC_KEYS)]
    ncloc = sorted(c.loc - c.blank_lines for c in defined)
    if ncloc:
        lo, hi = _nearest_rank(ncloc, 1), _nearest_rank(ncloc, 99)
        in_bounds = [c for c in defined if lo <= c.loc - c.blank_lines <= hi]
    else:
        in_bounds = []
    kept = [c for c in in_bounds if c.label != "Dropped"]
    groups = {g: [c for c in kept if c.label == g] for g in GROUPS}
    rows = [(g, members) for g, members in groups.items() if members]
    doc = {
        "size": [
            {"group": g, "classes": len(m), "loc": sum(c.loc for c in m),
             "l_per_c": sum(c.loc for c in m) / len(m)}
            for g, m in rows
        ],
        "pipeline": {
            "input": len(classes),
            "kept": len(kept),
            "dropped_metric": len(classes) - len(defined),
            "dropped_quantile": len(defined) - len(in_bounds),
            "dropped_label": len(in_bounds) - len(kept),
            "skipped": skipped,
        },
    }
    for table, fields in _MEAN_FIELDS.items():
        doc[table] = [
            dict({"group": g}, **{col: _mean([c.metrics[key] for c in m]) for col, key in fields})
            for g, m in rows
        ]
    return doc


def report_mismatches(expected, actual, where: str = "") -> List[str]:
    """Differences between an unrounded expected JSON value and a printed one."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            return [f"{where}: keys {sorted(actual) if isinstance(actual, dict) else actual!r}"
                    f" != {sorted(expected)}"]
        return [m for k in expected for m in report_mismatches(expected[k], actual[k], f"{where}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{where}: {actual!r} != {expected!r}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in report_mismatches(e, a, f"{where}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        ok = abs(expected - actual) <= PRINT_TOLERANCE
    else:
        ok = expected == actual and type(expected) is type(actual)
    return [] if ok else [f"{where}: {actual!r} != {expected!r}"]


def chart_mismatches(expected_doc: dict, chart_dir: str) -> List[str]:
    """Each chart CSV holds one row per visible group with its mean."""
    means: Dict[str, dict] = {}
    for table in ("cohesion", "complexity"):
        for row in expected_doc[table]:
            means.setdefault(row["group"], {}).update(row)
    problems = []
    for stem in ("lcom5", "nhd", "coco", "cc"):
        want = [(g, row[stem]) for g, row in means.items() if row[stem] is not None]
        if not want:
            continue
        path = os.path.join(chart_dir, f"{stem}.csv")
        if not os.path.exists(os.path.join(chart_dir, f"{stem}.svg")):
            problems.append(f"chart {stem}.svg missing")
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            problems.append(f"chart {stem}.csv: {exc}")
            continue
        got = [line.split(",") for line in lines[1:]]
        if lines[:1] != ["group,value"] or [g for g, _ in got] != [g for g, _ in want]:
            problems.append(f"chart {stem}.csv rows {lines!r}")
            continue
        for (g, value), (_, printed) in zip(want, got):
            if abs(float(printed) - value) > PRINT_TOLERANCE:
                problems.append(f"chart {stem}.csv {g}: {printed} != {value!r}")
    return problems


def record_mismatches(expected: ExpectedClass, record) -> List[str]:
    """Field-by-field check of one ClassRecord against its stated values."""
    m = record.metrics
    actual = {k: getattr(m, k) for k in METRIC_KEYS}
    problems = []
    for key in METRIC_KEYS:
        want, got = expected.metrics[key], actual[key]
        if want is None or got is None:
            same = want is got
        else:
            same = math.isclose(want, got, rel_tol=1e-9, abs_tol=1e-12)
        if not same:
            problems.append(f"{expected.name}.{key}: {got!r} != {want!r}")
    for key, want, got in (
        ("name", expected.name, record.qualified_name),
        ("label", expected.label, record.label.kind.value),
        ("loc", expected.loc, record.loc),
        ("blank_lines", expected.blank_lines, record.blank_lines),
    ):
        if want != got:
            problems.append(f"{expected.name}.{key}: {got!r} != {want!r}")
    return problems
