"""Corpus pipeline: ingest classes, filter, aggregate per group.

A CAM-style CSV's columns are named by `load_cam_map`: the default map,
updated from a `--cam-map` JSON file when one is given.

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
from operator import attrgetter, itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, TextIO, Tuple, Union

from ._record import Record
from .classify import EXCLUDED_TO_REST, GroupKind, SuffixRules, classify
from .errors import ConfigError, EmptyInput, MissingColumn, ParseError, RowParseError
from .javamodel.parser import parse_compilation_unit
from .metrics import ClassMetrics, class_metrics


# A ClassMetrics' ten fields, read from it or from a ClassRecord.
_metric_fields = ClassMetrics._fields


class ClassRecord(Record):
    """One class: its name, where it was read, the ten fields of its
    ClassMetrics in their order, its lines and its group label. The metric
    fields are held flat, so that a record is one object to build, send and
    read; `metrics` builds a ClassMetrics of them on each access."""

    __slots__ = ("qualified_name", "origin", *ClassMetrics.__slots__, "loc", "blank_lines",
                 "label")

    has_undefined = ClassMetrics.has_undefined

    @property
    def metrics(self) -> ClassMetrics:
        """A new ClassMetrics of the record's metric fields: writing to it
        changes nothing in the record."""
        return ClassMetrics(*_metric_fields(self))

    @property
    def ncloc(self) -> int:
        return self.loc - self.blank_lines


class GroupSummary(Record):
    """A GroupKind's class count, lines and means; a mean, and
    ``loc_per_class``, is None where the group has no value to average."""

    __slots__ = ("label", "class_count", "loc_total", "loc_per_class", "lcom5_mean",
                 "nhd_mean", "cc_mean", "coco_mean", "acoco_mean", "mxcoco_mean",
                 "mncoco_mean")


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
    of each subdirectory that cannot be listed where the walk met it.

    The order is that of a top-down `os.walk` with sorted names: a
    directory's files, then each subdirectory's listing. Directory
    symlinks are not followed. One `os.scandir` lists each directory, and
    its entries tell which names are directories and which are symlinks;
    a root that cannot be listed raises. A `.java` symlink that reaches a
    listed file, or the target of an earlier such link, is left out (see
    `_without_repeated_links`)."""
    inputs: List[Union[str, OSError]] = []
    links: List[int] = []  # the indices in inputs of .java symlinks
    for root in roots:
        root = os.fspath(root)
        if not os.path.isdir(root):
            raise FileNotFoundError(f"input root is not a directory: {root}")
        pending = [root]  # directories still to list, the next one last
        while pending:
            top = pending.pop()
            try:
                with os.scandir(top) as listing:
                    entries = sorted(listing, key=attrgetter("name"))
            except OSError as exc:
                if top is root:
                    raise
                inputs.append(exc)
                continue
            subdirs = []
            for entry in entries:
                try:
                    is_dir = entry.is_dir()
                except OSError:  # as os.walk reads it: not a directory
                    is_dir = False
                if is_dir:
                    if not entry.is_symlink():
                        subdirs.append(entry.path)
                elif entry.name.endswith(".java"):
                    if entry.is_symlink():
                        links.append(len(inputs))
                    inputs.append(entry.path)
            pending.extend(reversed(subdirs))
    return _without_repeated_links(inputs, links) if links else inputs


def _without_repeated_links(inputs: List[Union[str, OSError]],
                            links: List[int]) -> List[Union[str, OSError]]:
    """``inputs`` less each `.java` symlink, at an index in ``links``, whose
    target is a listed file that is no link, or the target of a link listed
    before it. Files are the same when `os.path.samestat` would say so:
    their `os.stat` results share device and inode. A link that cannot be
    followed stays, to be reported where it is read."""
    linked = set(links)
    seen = set()
    for i, path in enumerate(inputs):
        if i not in linked and isinstance(path, str):
            try:
                st = os.stat(path)
            except OSError:
                continue
            seen.add((st.st_dev, st.st_ino))
    kept = []
    for i, path in enumerate(inputs):
        if i in linked:
            try:
                st = os.stat(path)
            except OSError:
                kept.append(path)
                continue
            if (st.st_dev, st.st_ino) in seen:
                continue
            seen.add((st.st_dev, st.st_ino))
        kept.append(path)
    return kept


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
                ClassRecord(cls.qualified_name, path, *_metric_fields(class_metrics(cls)),
                            cls.loc, cls.blank_lines,
                            classify(cls.name, cls.has_static_member, rules, excluded_to))
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
            fields = list(map(ClassRecord._fields, second(part)))
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
                    records = [ClassRecord(*fields)
                               for _ in range(chunks) for fields in pickle.load(pipe)]
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


_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)
# Bytes per os.read: most sources take one read and the read that finds EOF.
_READ_SIZE = 1 << 16
_BOM = b"\xef\xbb\xbf"


def _read_text(path: str) -> str:
    """The text of the file at ``path``, or the exception, that
    `open(path, encoding="utf-8-sig").read()` gives, read with no file
    object: a UTF-8 BOM is stripped (a file of a BOM's first one or two
    bytes reads empty, as there), the rest is decoded strictly, so that a
    decode error's position counts from after the BOM, and `\\r\\n` and a
    lone `\\r` read as `\\n`. An error of `os.read`, such as reading a
    directory, carries no filename, so it is raised again with the path,
    as `open` names it."""
    fd = os.open(path, _READ_FLAGS)
    try:
        chunks = []
        while True:
            try:
                chunk = os.read(fd, _READ_SIZE)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from None
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(fd)
    data = b"".join(chunks)
    if data.startswith(_BOM) or _BOM.startswith(data):
        data = data[3:]
    text = data.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _flatten(classes):
    for cls in classes:
        yield cls
        yield from _flatten(cls.nested)


# Logical keys to CAM-style CSV column names; a map binds every key.
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

CAM_REQUIRED_KEYS = tuple(DEFAULT_CAM_COLUMN_MAP)


def load_cam_map(path: Optional[str]) -> Dict[str, str]:
    """The default CAM column map, updated from the `--cam-map` file at
    ``path`` if given. The file must be UTF-8 JSON holding one object that
    maps keys of CAM_REQUIRED_KEYS or `static` to column names; anything
    else raises ConfigError."""
    column_map = dict(DEFAULT_CAM_COLUMN_MAP)
    if path:
        import json  # only a --cam-map run reads JSON

        with open(path, "r", encoding="utf-8-sig") as fh:
            try:
                overrides = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise ConfigError(f"{path}: {exc}") from None
        if not (isinstance(overrides, dict)
                and all(isinstance(v, str) for v in overrides.values())):
            raise ConfigError(f"{path}: --cam-map must be a JSON object of column names")
        for key in overrides:
            if key not in CAM_REQUIRED_KEYS and key != "static":
                raise ConfigError(f"{path}: unknown --cam-map key {key!r}; the keys are "
                                  f"{', '.join(CAM_REQUIRED_KEYS)} and static")
        column_map.update(overrides)
    return column_map


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
    csv module wants them split. From the file's start it skips a UTF-8 BOM,
    which holds no line break."""
    raw = open(path, "rb")
    raw.seek(offset)
    return io.TextIOWrapper(raw, encoding="utf-8" if offset else "utf-8-sig", newline="")


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
            return ClassRecord(name, f"{path}:{lineno}", lcom5, nhd, int(cc), int(coco), acoco,
                               int(mncoco), int(mxcoco), 0, 0, 0, int(loc), int(blank),
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
    return ClassRecord(name, f"{path}:{lineno}", lcom5, nhd, cc, coco, acoco, mncoco, mxcoco,
                       0, 0, 0, loc, blank, classify(simple, has_static, rules, excluded_to))


def _cell_float(raw: str, col: str) -> Optional[float]:
    raw = raw.strip()
    if raw == "":
        return None
    try:
        return float(raw)
    except ValueError:
        raise RowParseError(f"bad numeric value {raw!r} in column {col!r}")


def _cell_count(raw: str, col: str, required=False) -> Optional[int]:
    """A whole-number cell ("3", "3.0", "3e2"); None when empty and optional."""
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
    raise RowParseError(f"bad integer value {raw!r} in column {col!r}")


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
    """The list of records kept, the three drop tallies and the ncloc
    thresholds, None when no record has every metric defined."""

    __slots__ = ("kept", "input_count", "dropped_by_metric", "dropped_by_quantile",
                 "dropped_by_label", "q_low_value", "q_high_value")

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
    with_metrics = [r for r in materialized if not r.has_undefined()]
    dropped_by_metric = len(materialized) - len(with_metrics)
    if with_metrics:
        nclocs = [r.loc - r.blank_lines for r in with_metrics]
        population = sorted(nclocs)
        lo = quantile(population, q_low)
        hi = quantile(population, q_high)
        in_bounds = [r for r, ncloc in zip(with_metrics, nclocs) if lo <= ncloc <= hi]
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
                lcom5_mean=_mean([r.lcom5 for r in group]),
                nhd_mean=_mean([r.nhd for r in group]),
                cc_mean=_mean([r.cc_total for r in group]),
                coco_mean=_mean([r.coco_total for r in group]),
                acoco_mean=_mean([r.coco_avg for r in group]),
                mxcoco_mean=_mean([r.coco_max for r in group]),
                mncoco_mean=_mean([r.coco_min for r in group]),
            )
        )
    return summaries


def _mean(values: list) -> Optional[float]:
    defined = values if None not in values else [v for v in values if v is not None]
    if not defined:
        return None
    return math.fsum(defined) / len(defined)
