"""Corpus pipeline: ingest classes, filter, aggregate per group.

Filtering order matters and is frozen per run: records with any undefined
metric go first; the 0.01/0.99 nearest-rank thresholds of ncloc are then
computed over everything that remains (including still-Dropped-labeled
records) and strict outliers go; Dropped-labeled records go last. The four
tallies always satisfy input = output + metric + quantile + label drops.
"""

import io
import math
import os
import re
from fractions import Fraction
from itertools import chain, islice
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, TextIO, Tuple, Union

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


# Inputs from which a run's second half goes to one forked child: below
# it the fork and the pickled records cost more than the child saves
# (CHANGES.md has the measurement).
_FORK_MIN_FILES = 512


def ingest_sources(
    roots: Sequence[Union[str, os.PathLike]],
    rules: SuffixRules = SuffixRules(),
    excluded_to: str = EXCLUDED_TO_REST,
    diagnostics: Optional[Diagnostics] = None,
) -> Iterator[ClassRecord]:
    """Parse every .java file under the roots into ClassRecords.

    Unreadable roots raise OSError (fatal); subdirectories that cannot be
    listed, per-file parse failures, files nested too deeply for the
    recursive walk, and any other exception raised while analyzing one file
    are tallied in diagnostics, as one input each, and skipped. Traversal
    order is sorted, so the record stream is deterministic.

    With at least ``_FORK_MIN_FILES`` inputs, two CPUs to run on and no
    other thread, one forked child analyzes the second half of the inputs
    while this process analyzes the first; records and diagnostics are
    those of a serial run, in the same order.
    """
    diag = diagnostics if diagnostics is not None else Diagnostics()
    inputs = _list_sources(roots)
    if len(inputs) >= _FORK_MIN_FILES and _two_cpus_one_thread():
        half = len(inputs) // 2
        yield from _forked(
            chain(_analyze(inputs[:half], rules, excluded_to, diag), [None],
                  _analyze(inputs[half:], rules, excluded_to, diag)),
            lambda part: _analyze(inputs[half:], rules, excluded_to, part), diag)
    else:
        yield from _analyze(inputs, rules, excluded_to, diag)


def _list_sources(roots) -> List[Union[str, OSError]]:
    """The .java paths under the roots in sorted walk order, with the error
    of each subdirectory that cannot be listed where the walk met it."""
    inputs: List[Union[str, OSError]] = []

    def unlisted(exc: OSError):
        if exc.filename == root:  # os.walk lists the root by the name given
            raise exc
        inputs.append(exc)

    for root in roots:
        root = os.fspath(root)
        if not os.path.isdir(root):
            raise FileNotFoundError(f"input root is not a directory: {root}")
        for dirpath, dirnames, filenames in os.walk(root, onerror=unlisted):
            dirnames.sort()
            inputs.extend(os.path.join(dirpath, fname) for fname in sorted(filenames)
                          if fname.endswith(".java"))
    return inputs


def _analyze(inputs, rules: SuffixRules, excluded_to: str,
             diag: Diagnostics) -> Iterator[ClassRecord]:
    """The records of each input in turn; each input is one seen, and one
    that cannot be analyzed is one skipped."""
    for path in inputs:
        diag.files_seen += 1
        if isinstance(path, OSError):  # a subdirectory that cannot be listed
            diag.skip(path.filename, 0, str(path))
            continue
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


def _two_cpus_one_thread() -> bool:
    """Whether a forked child would have a CPU of its own, and no other
    thread's lock could be held forever in it."""
    import threading

    return (hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1)


# Records per pickle a forked child sends. The parent holds one chunk's
# field tuples at a time, never all of the child's: a fresh `cam` pass
# (40,000 rows) peaked at 41.3 MB serially and at 41.8 MB forked.
_SEND_CHUNK = 1000


def _forked(serial: Iterator[Optional[ClassRecord]], second,
            diag: Diagnostics) -> Iterator[ClassRecord]:
    """The records of ``serial``, a serial ingest that yields one None
    where its second part begins, with that part read by one forked child:
    ``second(part)`` yields the same records, its diagnostics in the
    ``Diagnostics`` part. The child pickles them in chunks of field tuples
    before it writes any, so that a full pipe does not leave the pickling
    to the time this process waits for it. This process yields its own
    part as it goes, then the child's. If ``serial`` ends without its
    None, the child's records are not wanted; if the child fails, or no
    pipe or process can be had, this process reads on itself. If the
    generator is closed or raises first, the child is killed."""
    import pickle  # only a forked run sends records between processes
    import signal

    try:
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
    except OSError:  # no descriptor or process to be had: the run goes on in this one
        yield from (record for record in serial if record is not None)
        return
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            part = Diagnostics()
            fields = [(r.qualified_name, r.origin, r.metrics._fields(r.metrics), r.loc,
                       r.blank_lines, r.label) for r in second(part)]
            chunks = [pickle.dumps(fields[i:i + _SEND_CHUNK], pickle.HIGHEST_PROTOCOL)
                      for i in range(0, len(fields), _SEND_CHUNK)]
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(
                    (len(chunks), part.files_seen, part.rows_seen, part.skipped, part.lines)))
                pipe.writelines(chunks)
            status = 0
        finally:
            os._exit(status)  # no atexit hooks, no flush of inherited buffers
    try:
        os.close(write_fd)
        with open(read_fd, "rb") as pipe:
            for record in serial:
                if record is not None:
                    yield record
                    continue
                # All that the child sent, one chunk at a time, and its exit
                # status before any of it is yielded.
                try:
                    chunks, files_seen, rows_seen, skipped, lines = pickle.load(pipe)
                    records = [ClassRecord(name, origin, ClassMetrics(*metrics), loc, blank, label)
                               for _ in range(chunks)
                               for name, origin, metrics, loc, blank, label in pickle.load(pipe)]
                except (EOFError, OSError, pickle.UnpicklingError):  # the child failed
                    records = None
                pipe.close()  # so that a child still writing fails and exits
                _, status = os.waitpid(pid, 0)
                pid = 0
                if records is not None and status == 0:
                    break
            else:  # read past the second part's start, or on after a failed child
                return
        diag.files_seen += files_seen
        diag.rows_seen += rows_seen
        diag.skipped += skipped
        diag.lines.extend(lines)
        yield from records
    finally:
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


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


# CSVs from which the rows after the middle line go to one forked child.
# Serial and forked reads of `cam`-workload CSVs, alternated 16 or 20 times
# per set on a 2-CPU host: at 167 KB (2,500 rows) the fork lost all 20, by
# 14 ms; from 337 to 675 KB it won most of some sets and lost most of
# others; at 1 MB (15,000 rows) it won 13 to 17 of each set, by 17-26 ms
# in the median. Where two busy processes share one CPU's time, it loses
# at any size.
_FORK_MIN_BYTES = 1 << 20

_NO_STATIC_COLUMN = "no static-member column mapped; treating every class as static-free"


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
    name binds its last column. Without a `static` column the diagnostics
    warn once, however many CSVs they tally.

    A CSV of at least ``_FORK_MIN_BYTES``, with two CPUs to run on and no
    other thread, is read in two processes: one forked child reads the rows
    from the first line start past half the file's bytes that follows a
    newline. Its records are taken only if this process's reader ends a row
    exactly there; records and diagnostics are those of a serial read, in
    the same order.
    """
    diag = diagnostics if diagnostics is not None else Diagnostics()
    for key in CAM_REQUIRED_KEYS:
        if key not in column_map:
            raise MissingColumn(f"column map does not bind '{key}'")
    import csv  # only a cam run reads CSV

    path = os.fspath(path)
    # A second handle reads a rejected row's lines again, forward only.
    with _open_at(path, 0) as fh, _open_at(path, 0) as again:
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
            if static_col is None and _NO_STATIC_COLUMN not in diag.warnings:
                diag.warnings.append(_NO_STATIC_COLUMN)
            columns = [column_map[key] for key in _CAM_CELL_ORDER]
            positions = [index[col] for col in columns]
            static_at = index.get(static_col)
            width = max(positions + [static_at or 0]) + 1
            cells_of = itemgetter(*positions)

            def records(reader, fh, again, passed, stop, diag):
                """The records of the rows ``reader`` reads from ``fh``, and
                one None where the next row starts at file line ``stop``.
                ``passed`` file lines are behind both handles; a rejected
                row is read again from ``again``."""
                # ``reader.line_num + passed`` is the file line read to:
                # ``passed`` goes on to count the lines read past the
                # reader to the end of a rejected row.
                read_again = passed  # file lines ``again`` is past
                start = reader.line_num + passed + 1
                while True:
                    try:
                        for row in reader:
                            lineno, start = start, reader.line_num + passed + 1
                            if row:
                                diag.rows_seen += 1
                                if len(row) < width:
                                    row += [""] * (width - len(row))
                                has_static = static_at is not None and _truthy(row[static_at])
                                try:
                                    record = _row_to_record(cells_of(row), columns, has_static,
                                                            path, lineno, rules, excluded_to)
                                except RowParseError as exc:
                                    diag.skip(path, lineno, str(exc))
                                else:
                                    yield record
                            if start == stop:
                                yield None
                        return
                    except csv.Error as exc:  # the reader goes on at the next line
                        diag.rows_seen += 1
                        diag.skip(path, start, str(exc))
                        last = reader.line_num + passed
                        row = "".join(islice(again, start - 1 - read_again, last - read_again))
                        read_again = last
                        passed += _rest_of_row(row, fh)
                        start = reader.line_num + passed + 1
                        if start == stop:
                            yield None

            size = os.fstat(fh.fileno()).st_size
            split = (_split_line(path, size) if size >= _FORK_MIN_BYTES
                     and _two_cpus_one_thread() else None)
            if split is None or split[1] <= reader.line_num:  # none, or inside the header
                yield from records(reader, fh, again, 0, 0, diag)
                return
            offset, lines = split

            def second(part):
                with _open_at(path, offset) as fh, _open_at(path, offset) as again:
                    yield from records(csv.reader(fh), fh, again, lines, 0, part)

            yield from _forked(records(reader, fh, again, 0, lines + 1, diag), second, diag)
        except UnicodeDecodeError as exc:
            # Decoded in chunks, so no row line is known.
            raise ParseError(path, 0, f"not valid UTF-8: byte 0x{exc.object[exc.start]:02x}, "
                                      f"{exc.reason}") from None
        except csv.Error as exc:  # the header's; a row's is a SKIP above
            raise ParseError(path, reader.line_num, str(exc)) from None


def _open_at(path: str, offset: int):
    """A text handle on the CSV at ``path`` that reads from byte ``offset``,
    a line start, splitting lines at each \\n, \\r\\n and bare \\r as the
    csv module wants them split."""
    raw = open(path, "rb")
    raw.seek(offset)
    return io.TextIOWrapper(raw, encoding="utf-8", newline="")


def _split_line(path: str, size: int) -> Optional[Tuple[int, int]]:
    """The first line start past half of the file's ``size`` bytes that
    follows a \\n, and the number of lines before it, counted as
    ``_open_at`` splits them; None when no line starts there."""
    with open(path, "rb") as fh:
        head = fh.read(size // 2)
        head += fh.readline()
    if len(head) >= size:
        return None
    return len(head), head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")


# The text of a CSV row that ends inside a quoted cell, as the csv module
# reads its default dialect (the text after a cell's closing quote joins it).
_OPEN_QUOTED_CELL = re.compile(
    r'(?:(?:"(?:[^"]|"")*"(?!")[^,\r\n]*|[^",\r\n][^,\r\n]*|),)*"(?:[^"]|"")*')


def _rest_of_row(text: str, fh) -> int:
    """How many lines of ``fh`` finish the row the csv module rejected on
    the lines ``text`` holds: those up to where the row's open quoted cell,
    if it has one, closes."""
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
