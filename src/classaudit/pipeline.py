"""Corpus pipeline: ingest classes, filter, aggregate per group.

Filtering order matters and is frozen per run: records with any undefined
metric go first; the 0.01/0.99 nearest-rank thresholds of ncloc are then
computed over everything that remains (including still-Dropped-labeled
records) and strict outliers go; Dropped-labeled records go last. The four
tallies always satisfy input = output + metric + quantile + label drops.
"""

import math
import os
import re
from fractions import Fraction
from itertools import islice
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, TextIO, Union

from ._record import Record
from .classify import EXCLUDED_TO_REST, GroupKind, GroupLabel, SuffixRules, classify
from .errors import EmptyInput, MissingColumn, ParseError, RowParseError
from .javamodel.parser import parse_compilation_unit
from .metrics import ClassMetrics, class_metrics


class ClassRecord(Record):
    __slots__ = ("qualified_name", "origin", "metrics", "loc", "blank_lines", "label")

    def __init__(self, qualified_name: str, origin: str, metrics: ClassMetrics, loc: int,
                 blank_lines: int, label: GroupLabel):
        self.qualified_name = qualified_name
        self.origin = origin
        self.metrics = metrics
        self.loc = loc
        self.blank_lines = blank_lines
        self.label = label

    @property
    def ncloc(self) -> int:
        return self.loc - self.blank_lines


class GroupSummary(Record):
    __slots__ = ("label", "class_count", "loc_total", "loc_per_class", "lcom5_mean",
                 "nhd_mean", "cc_mean", "coco_mean", "acoco_mean", "mxcoco_mean",
                 "mncoco_mean")

    def __init__(self, label: GroupKind, class_count: int, loc_total: int,
                 loc_per_class: Optional[float], lcom5_mean: Optional[float],
                 nhd_mean: Optional[float], cc_mean: Optional[float],
                 coco_mean: Optional[float], acoco_mean: Optional[float],
                 mxcoco_mean: Optional[float], mncoco_mean: Optional[float]):
        self.label = label
        self.class_count = class_count
        self.loc_total = loc_total
        self.loc_per_class = loc_per_class
        self.lcom5_mean = lcom5_mean
        self.nhd_mean = nhd_mean
        self.cc_mean = cc_mean
        self.coco_mean = coco_mean
        self.acoco_mean = acoco_mean
        self.mxcoco_mean = mxcoco_mean
        self.mncoco_mean = mncoco_mean


class Diagnostics(Record):
    """Skip tally plus one `SKIP path:line reason` line per skipped unit, or
    `ERROR path:0 Type: message` for a file that raised unexpectedly."""

    __slots__ = ("files_seen", "rows_seen", "skipped", "lines", "warnings")

    def __init__(self, files_seen: int = 0, rows_seen: int = 0, skipped: int = 0,
                 lines: Optional[List[str]] = None, warnings: Optional[List[str]] = None):
        self.files_seen = files_seen
        self.rows_seen = rows_seen
        self.skipped = skipped
        self.lines = [] if lines is None else lines
        self.warnings = [] if warnings is None else warnings

    def skip(self, path: str, line: int, reason: str):
        self.skipped += 1
        self.lines.append(f"SKIP {path}:{line} {reason}")

    def error(self, path: str, exc: Exception):
        """An unexpected exception while analyzing one file: skipped like a
        parse failure, but reported as an internal error. The message is
        joined onto one line so that each entry stays one line."""
        self.skipped += 1
        message = " ".join(str(exc).splitlines())
        self.lines.append(f"ERROR {path}:0 {type(exc).__name__}: {message}")

    def units_seen(self) -> int:
        return self.files_seen + self.rows_seen

    def skip_rate(self) -> float:
        seen = self.units_seen()
        return self.skipped / seen if seen else 0.0

    def write(self, stream: TextIO):
        for line in self.lines:
            stream.write(line + "\n")
        for warning in self.warnings:
            stream.write(f"WARN {warning}\n")


def ingest_sources(
    roots: Sequence[Union[str, os.PathLike]],
    rules: SuffixRules = SuffixRules(),
    excluded_to: str = EXCLUDED_TO_REST,
    diagnostics: Optional[Diagnostics] = None,
) -> Iterator[ClassRecord]:
    """Parse every .java file under the roots into ClassRecords.

    Unreadable roots raise OSError (fatal); per-file parse failures, files
    nested too deeply for the recursive walk, and any other exception raised
    while analyzing one file are tallied in diagnostics and skipped.
    Traversal order is sorted, so the record stream is deterministic.
    """
    diag = diagnostics if diagnostics is not None else Diagnostics()
    for root in roots:
        root = os.fspath(root)
        if not os.path.isdir(root):
            raise FileNotFoundError(f"input root is not a directory: {root}")
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for fname in sorted(filenames):
                if not fname.endswith(".java"):
                    continue
                path = os.path.join(dirpath, fname)
                diag.files_seen += 1
                try:
                    text = _read_text(path)
                    classes = parse_compilation_unit(text, path)
                    records = [
                        ClassRecord(
                            qualified_name=cls.qualified_name,
                            origin=path,
                            metrics=class_metrics(cls),
                            loc=cls.loc,
                            blank_lines=cls.blank_lines,
                            label=classify(cls.name, cls.has_static_member, rules, excluded_to),
                        )
                        for cls in _flatten(classes)
                    ]
                except ParseError as exc:
                    diag.skip(path, exc.line, exc.message)
                    continue
                except (OSError, UnicodeDecodeError) as exc:
                    diag.skip(path, 0, str(exc))
                    continue
                except RecursionError:
                    diag.skip(path, 0, "nesting too deep")
                    continue
                except Exception as exc:
                    diag.error(path, exc)
                    continue
                yield from records


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return fh.read()


def _flatten(classes):
    for cls in classes:
        yield cls
        yield from _flatten(cls.nested)


# Logical keys the CAM-style CSV column map must bind.
CAM_REQUIRED_KEYS = (
    "name", "lcom5", "nhd", "cc", "coco", "acoco", "mxcoco", "mncoco",
    "loc", "blank",
)

DEFAULT_CAM_COLUMN_MAP: Dict[str, str] = {
    "name": "class_name",
    "lcom5": "lcom5",
    "nhd": "nhd",
    "cc": "cc",
    "coco": "coco",
    "acoco": "acoco",
    "mxcoco": "mxcoco",
    "mncoco": "mncoco",
    "loc": "loc",
    "blank": "blanks",
}


def ingest_cam_csv(
    path: Union[str, os.PathLike],
    column_map: Dict[str, str],
    rules: SuffixRules = SuffixRules(),
    excluded_to: str = EXCLUDED_TO_REST,
    diagnostics: Optional[Diagnostics] = None,
) -> Iterator[ClassRecord]:
    """One record per CSV row; empty metric cells become undefined metrics.

    Rows with a missing name or size cell, a name whose simple name (after
    the last '.' or '$') is empty, a non-numeric metric cell, or a count
    cell that is not a finite whole number are tallied and skipped,
    reported at the file line where the row starts, and so is a row the csv
    module rejects, through to its end: a quoted cell left open runs on to
    its closing quote. A metric column absent from the header is fatal
    (MissingColumn), and so are a header the csv module rejects and bytes
    that are not UTF-8 (ParseError, the latter at line 0). As with
    csv.DictReader, blank rows are skipped and not counted, a short row's
    missing cells are empty, extra cells are ignored and a repeated header
    name binds its last column.
    """
    diag = diagnostics if diagnostics is not None else Diagnostics()
    for key in CAM_REQUIRED_KEYS:
        if key not in column_map:
            raise MissingColumn(f"column map does not bind '{key}'")
    import csv  # only a cam run reads CSV

    path = os.fspath(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            index = {name: i for i, name in enumerate(next(reader, []))}
            for key in CAM_REQUIRED_KEYS:
                if column_map[key] not in index:
                    raise MissingColumn(
                        f"CSV is missing column '{column_map[key]}' (bound to '{key}')"
                    )
            static_col = column_map.get("static")
            if static_col is not None and static_col not in index:
                raise MissingColumn(f"CSV is missing column '{static_col}' (bound to 'static')")
            if static_col is None:
                diag.warnings.append(
                    "no static-member column mapped; treating every class as static-free"
                )
            columns = [column_map[key] for key in _CAM_CELL_ORDER]
            positions = [index[col] for col in columns]
            static_at = index.get(static_col)
            width = max(positions + [static_at or 0]) + 1
            cells_of = itemgetter(*positions)
            skipped = 0  # lines read past the reader to the end of a rejected row
            start = reader.line_num + 1
            while True:
                try:
                    for row in reader:
                        lineno, start = start, reader.line_num + skipped + 1
                        if not row:
                            continue
                        diag.rows_seen += 1
                        if len(row) < width:
                            row += [""] * (width - len(row))
                        has_static = static_at is not None and _truthy(row[static_at])
                        try:
                            record = _row_to_record(cells_of(row), columns, has_static, path,
                                                    lineno, rules, excluded_to)
                        except RowParseError as exc:
                            diag.skip(path, lineno, str(exc))
                            continue
                        yield record
                    break
                except csv.Error as exc:  # the reader goes on at the next line
                    diag.rows_seen += 1
                    diag.skip(path, start, str(exc))
                    skipped += _rest_of_row(path, start, reader.line_num + skipped, fh)
                    start = reader.line_num + skipped + 1
        except UnicodeDecodeError as exc:
            # Decoded in chunks, so no row line is known.
            raise ParseError(path, 0, f"not valid UTF-8: byte 0x{exc.object[exc.start]:02x}, "
                                      f"{exc.reason}") from None
        except csv.Error as exc:  # the header's; a row's is a SKIP above
            raise ParseError(path, reader.line_num, str(exc)) from None


# The text of a CSV row that ends inside a quoted cell, as the csv module
# reads its default dialect (the text after a cell's closing quote joins it).
_OPEN_QUOTED_CELL = re.compile(
    r'(?:(?:"(?:[^"]|"")*"(?!")[^,\r\n]*|[^",\r\n][^,\r\n]*|),)*"(?:[^"]|"")*')


def _rest_of_row(path: str, first: int, last: int, fh) -> int:
    """How many lines of ``fh`` finish the row the csv module rejected on
    lines ``first`` to ``last`` of ``path``: those up to where the row's
    open quoted cell, if it has one, closes."""
    with open(path, "r", encoding="utf-8", newline="") as again:
        text = "".join(islice(again, first - 1, last))
    read = 0
    while _OPEN_QUOTED_CELL.fullmatch(text) and (line := next(fh, "")):
        read += 1
        text = '"' + line  # the line goes on inside the quoted cell
    return read


# The order in which a row's cells are read and checked; the first bad cell
# names the SKIP reason.
_CAM_CELL_ORDER = (
    "name", "loc", "blank", "lcom5", "nhd", "cc", "coco", "acoco", "mxcoco", "mncoco",
)


def _row_to_record(cells, columns, has_static, path, lineno, rules, excluded_to) -> ClassRecord:
    name = cells[0].strip()
    if not name:
        raise RowParseError("empty class name")
    simple = name[max(name.rfind("."), name.rfind("$")) + 1:]
    if not simple:
        raise RowParseError(f"empty simple name in class name {name!r}")
    # A row whose nine raw cells all pass float(), with whole counts, is built
    # at once. Any other row goes through the per-cell readers, in
    # _CAM_CELL_ORDER, which alone make None and the SKIP reasons. Records
    # are built with positional calls, half the cost of keyword ones.
    try:
        loc, blank, lcom5, nhd, cc, coco, acoco, mxcoco, mncoco = map(float, cells[1:])
    except ValueError:
        pass
    else:
        if (loc.is_integer() and blank.is_integer() and cc.is_integer()
                and coco.is_integer() and mxcoco.is_integer() and mncoco.is_integer()):
            metrics = ClassMetrics(lcom5, nhd, int(cc), int(coco), acoco, int(mncoco),
                                   int(mxcoco), 0, 0, 0)
            return ClassRecord(name, f"{path}:{lineno}", metrics, int(loc), int(blank),
                               classify(simple, has_static, rules, excluded_to))
    (_, loc_col, blank_col, lcom5_col, nhd_col, cc_col, coco_col, acoco_col,
     mxcoco_col, mncoco_col) = columns
    loc = _cell_count(cells[1], loc_col, required=True)
    blank = _cell_count(cells[2], blank_col, required=True)
    lcom5 = _cell_float(cells[3], lcom5_col)
    nhd = _cell_float(cells[4], nhd_col)
    cc = _cell_count(cells[5], cc_col)
    coco = _cell_count(cells[6], coco_col)
    acoco = _cell_float(cells[7], acoco_col)
    mxcoco = _cell_count(cells[8], mxcoco_col)
    mncoco = _cell_count(cells[9], mncoco_col)
    metrics = ClassMetrics(lcom5, nhd, cc, coco, acoco, mncoco, mxcoco, 0, 0, 0)
    return ClassRecord(name, f"{path}:{lineno}", metrics, loc, blank,
                       classify(simple, has_static, rules, excluded_to))


# Both cell readers try float() on the raw cell first, as _row_to_record does
# for a whole row: float() accepts the surrounding whitespace that strip()
# removes, except the separators \x1c-\x1f, so only a failed cell is
# stripped and tried once more.


def _cell_float(raw: str, col: str) -> Optional[float]:
    try:
        return float(raw)
    except ValueError:
        raw = raw.strip()
    if raw == "":
        return None
    try:
        return float(raw)
    except ValueError:
        raise RowParseError(f"bad numeric value {raw!r} in column {col!r}")


def _cell_count(raw: str, col: str, required=False) -> Optional[int]:
    """A whole-number cell ("3", "3.0", "3e2"); None when empty and optional."""
    try:
        value = float(raw)
    except ValueError:
        raw = raw.strip()
        if raw == "":
            if required:
                raise RowParseError(f"missing value in column {col!r}")
            return None
        try:
            value = float(raw)
        except ValueError:
            value = math.nan  # reported below as a bad integer
    if value.is_integer():  # false for nan and inf too
        return int(value)
    raise RowParseError(f"bad integer value {raw.strip()!r} in column {col!r}")


_TRUE_CELLS = frozenset(("1", "true", "yes", "y"))


def _truthy(raw: str) -> bool:
    return raw.strip().lower() in _TRUE_CELLS


def quantile(values: Sequence[float], p: Union[float, Fraction]) -> float:
    """Nearest-rank quantile of an ascending-sorted sequence.

    Element at index ceil(p*n) - 1, clamped into range. The rank is computed
    with exact rational arithmetic so 0.01 * 1000 lands on 10, not 10.000...2.
    """
    n = len(values)
    if n == 0:
        raise EmptyInput("quantile of empty input")
    frac = p if isinstance(p, Fraction) else Fraction(str(p))
    rank = math.ceil(frac * n)
    return values[min(max(rank - 1, 0), n - 1)]


class FilterOutcome(Record):
    __slots__ = ("kept", "input_count", "dropped_by_metric", "dropped_by_quantile",
                 "dropped_by_label", "q_low_value", "q_high_value")

    def __init__(self, kept: List[ClassRecord], input_count: int, dropped_by_metric: int,
                 dropped_by_quantile: int, dropped_by_label: int,
                 q_low_value: Optional[float], q_high_value: Optional[float]):
        self.kept = kept
        self.input_count = input_count
        self.dropped_by_metric = dropped_by_metric
        self.dropped_by_quantile = dropped_by_quantile
        self.dropped_by_label = dropped_by_label
        self.q_low_value = q_low_value
        self.q_high_value = q_high_value

    @property
    def output_count(self) -> int:
        return len(self.kept)


def filter_records(
    records: Iterable[ClassRecord],
    q_low: Union[float, Fraction] = Fraction(1, 100),
    q_high: Union[float, Fraction] = Fraction(99, 100),
) -> FilterOutcome:
    """Apply the three drops in order; thresholds are computed once."""
    materialized = list(records)
    with_metrics = [r for r in materialized if not r.metrics.has_undefined()]
    dropped_by_metric = len(materialized) - len(with_metrics)
    if with_metrics:
        population = sorted(r.ncloc for r in with_metrics)
        lo = quantile(population, q_low)
        hi = quantile(population, q_high)
        in_bounds = [r for r in with_metrics if lo <= r.ncloc <= hi]
    else:
        lo = hi = None
        in_bounds = []
    dropped_by_quantile = len(with_metrics) - len(in_bounds)
    kept = [r for r in in_bounds if r.label.kind is not GroupKind.DROPPED]
    dropped_by_label = len(in_bounds) - len(kept)
    return FilterOutcome(
        kept=kept,
        input_count=len(materialized),
        dropped_by_metric=dropped_by_metric,
        dropped_by_quantile=dropped_by_quantile,
        dropped_by_label=dropped_by_label,
        q_low_value=lo,
        q_high_value=hi,
    )


GROUP_ORDER = (GroupKind.EROR, GroupKind.UTILS, GroupKind.REST)


def aggregate_groups(records: Iterable[ClassRecord]) -> List[GroupSummary]:
    """One summary per group in fixed ErOr, Utils, Rest order; a record of
    any other kind (Dropped) is in no group.

    Means are fsum-based, so the result is identical for any record order.
    """
    records = list(records)
    summaries = []
    for kind in GROUP_ORDER:
        group = [r for r in records if r.label.kind is kind]
        count = len(group)
        loc_total = sum(r.loc for r in group)
        summaries.append(
            GroupSummary(
                label=kind,
                class_count=count,
                loc_total=loc_total,
                loc_per_class=(loc_total / count) if count else None,
                lcom5_mean=_mean([r.metrics.lcom5 for r in group]),
                nhd_mean=_mean([r.metrics.nhd for r in group]),
                cc_mean=_mean([r.metrics.cc_total for r in group]),
                coco_mean=_mean([r.metrics.coco_total for r in group]),
                acoco_mean=_mean([r.metrics.coco_avg for r in group]),
                mxcoco_mean=_mean([r.metrics.coco_max for r in group]),
                mncoco_mean=_mean([r.metrics.coco_min for r in group]),
            )
        )
    return summaries


def _mean(values) -> Optional[float]:
    defined = [v for v in values if v is not None]
    if not defined:
        return None
    return math.fsum(defined) / len(defined)
