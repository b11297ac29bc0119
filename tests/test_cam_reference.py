"""ingest_cam_csv against a csv.DictReader reference kept here.

The reference reads rows the way CAM ingest did before it moved to
csv.reader with the header resolved once: one dict per row, each cell
fetched by column name and stripped before float(). It has two fixes: a
short row's missing static cell reads as empty, where the DictReader version
called strip() on None and raised AttributeError out of the run; and a name
whose simple name is empty (`org.p.`, `Outer$`) is a SKIP, where classify()
raised ValueError out of the run. On CSVs
without blank rows or multi-line cells, where the reference's record count
plus one is the file line, both must give the same records, the same
SKIP lines and tallies, or the same exception. Neither sees a row the csv
module rejects, which the reference would raise out of the run: where
ingest resumes after one rests on its reading of quoted cells, which is
checked against the csv module's own reading at the end of this file.
"""

import csv
import io
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from classaudit.classify import EXCLUDED_TO_REST, SuffixRules, classify
from classaudit.errors import MissingColumn, RowParseError
from classaudit.metrics import ClassMetrics
from classaudit.pipeline import (
    _OPEN_QUOTED_CELL,
    CAM_REQUIRED_KEYS,
    ClassRecord,
    DEFAULT_CAM_COLUMN_MAP,
    Diagnostics,
    ingest_cam_csv,
)
from conftest import field_view


def reference_ingest_cam_csv(path, column_map, rules=SuffixRules(),
                             excluded_to=EXCLUDED_TO_REST, diagnostics=None):
    diag = diagnostics if diagnostics is not None else Diagnostics()
    for key in CAM_REQUIRED_KEYS:
        if key not in column_map:
            raise MissingColumn(f"column map does not bind '{key}'")
    path = os.fspath(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for key in CAM_REQUIRED_KEYS:
            if column_map[key] not in header:
                raise MissingColumn(
                    f"CSV is missing column '{column_map[key]}' (bound to '{key}')"
                )
        static_col = column_map.get("static")
        if static_col is not None and static_col not in header:
            raise MissingColumn(f"CSV is missing column '{static_col}' (bound to 'static')")
        if static_col is None:
            diag.warnings.append(
                "no static-member column mapped; treating every class as static-free"
            )
        for lineno, row in enumerate(reader, start=2):
            diag.rows_seen += 1
            try:
                record = _row_to_record(row, column_map, static_col, path, lineno,
                                        rules, excluded_to)
            except RowParseError as exc:
                diag.skip(path, lineno, str(exc))
                continue
            yield record


def _row_to_record(row, column_map, static_col, path, lineno, rules, excluded_to):
    name = (row.get(column_map["name"]) or "").strip()
    if not name:
        raise RowParseError("empty class name")
    simple = name.rsplit(".", 1)[-1].rsplit("$", 1)[-1]
    if not simple:  # the second fix
        raise RowParseError(f"empty simple name in class name {name!r}")
    loc = _cell_count(row, column_map["loc"], required=True)
    blank = _cell_count(row, column_map["blank"], required=True)
    lcom5_v = _cell_float(row, column_map["lcom5"])
    nhd_v = _cell_float(row, column_map["nhd"])
    cc_v = _cell_count(row, column_map["cc"])
    coco_v = _cell_count(row, column_map["coco"])
    acoco_v = _cell_float(row, column_map["acoco"])
    mxcoco_v = _cell_count(row, column_map["mxcoco"])
    mncoco_v = _cell_count(row, column_map["mncoco"])
    has_static = False
    if static_col is not None:
        has_static = _truthy(row.get(static_col) or "")  # the first fix
    metrics = ClassMetrics(
        lcom5=lcom5_v, nhd=nhd_v, cc_total=cc_v, coco_total=coco_v,
        coco_avg=acoco_v, coco_min=mncoco_v, coco_max=mxcoco_v,
        k=0, l_attr=0, l_types=0,
    )
    return ClassRecord(
        qualified_name=name,
        origin=f"{path}:{lineno}",
        metrics=metrics,
        loc=loc,
        blank_lines=blank,
        label=classify(simple, has_static, rules, excluded_to),
    )


def _cell_float(row, col):
    raw = (row.get(col) or "").strip()
    if raw == "":
        return None
    try:
        return float(raw)
    except ValueError:
        raise RowParseError(f"bad numeric value {raw!r} in column {col!r}")


def _cell_count(row, col, required=False):
    raw = (row.get(col) or "").strip()
    if raw == "":
        if required:
            raise RowParseError(f"missing value in column {col!r}")
        return None
    try:
        value = float(raw)
        if value.is_integer():
            return int(value)
    except ValueError:
        pass
    raise RowParseError(f"bad integer value {raw!r} in column {col!r}")


def _truthy(raw):
    return raw.strip().lower() in ("1", "true", "yes", "y")


# ---- the comparison --------------------------------------------------------------------

CAM_MAP = dict(DEFAULT_CAM_COLUMN_MAP, static="has_static")
COLUMNS = [CAM_MAP[key] for key in (*CAM_REQUIRED_KEYS, "static")]


def outcome(ingest, path, column_map):
    """Everything one ingest shows: records (as repr, so that nan compares
    equal to nan), diagnostics, or the exception it raised. Only the
    ingest's own exceptions count; one raised while building the view of
    its records fails the test."""
    diag = Diagnostics()
    try:
        records = list(ingest(path, column_map, diagnostics=diag))
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc), diag.lines, diag.warnings)
    records = [repr(field_view(r)) for r in records]
    return (records, diag.lines, diag.warnings, diag.rows_seen, diag.skipped)


def assert_same_as_reference(path, column_map=CAM_MAP):
    new = outcome(ingest_cam_csv, path, column_map)
    assert new == outcome(reference_ingest_cam_csv, path, column_map)
    return new


ODD_CELLS = [
    "", " ", "3", "3.0", " 3.0 ", "4e0", "0", "-0", "12", "2.5", "0.75", "nan", "inf",
    "-inf", "1e400", "junk", " x ", "1_000", "\x1c3", "\x1c", "\t7\t",
    "1", "true", "yes", " Y ", "no", "false",
    "a.b.Manager", "com.x.StringUtils", "Outer$Inner", "p.Widget", "Logger",
    "org.p.", "Outer$", " a.b$ ",
]
# Mostly whole numbers, which every column takes, so that many rows ingest.
CELLS = st.sampled_from(["1", "2", "3", "40", "7.0"] * 30 + ODD_CELLS)

HEADERS = st.lists(
    st.sampled_from(COLUMNS + ["extra", "note"]), min_size=0, max_size=4,
).flatmap(lambda extras: st.permutations(COLUMNS + extras))


@st.composite
def cam_csvs(draw):
    """A header with every bound column, possibly repeated or missing one,
    and rows from 1 cell to a few cells past the header's width, most of
    them exactly as wide as the header."""
    header = list(draw(HEADERS))
    if draw(st.integers(0, 9)) == 0:
        header.remove(draw(st.sampled_from(COLUMNS)))
    width = len(header)
    widths = st.one_of(st.just(width), st.just(width), st.integers(1, width + 3))
    rows = draw(st.lists(
        st.tuples(st.lists(CELLS, min_size=width + 3, max_size=width + 3), widths)
        .map(lambda cells_width: cells_width[0][:cells_width[1]]),
        max_size=12,
    ))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@given(text=cam_csvs(), with_static=st.booleans())
@settings(max_examples=200, deadline=None)
def test_ingest_matches_dictreader_reference(tmp_path_factory, text, with_static):
    path = tmp_path_factory.getbasetemp() / "cam-reference.csv"  # one file, rewritten
    path.write_text(text, encoding="utf-8")
    column_map = CAM_MAP if with_static else DEFAULT_CAM_COLUMN_MAP
    assert_same_as_reference(path, column_map)


def test_ingest_matches_reference_on_padded_and_repeated_cells(tmp_path):
    header = ",".join(COLUMNS + ["cc"]) + "\n"
    rows = [
        " a.b.Manager ,0.5, 0.7 , 3.0 ,4e0,2.0,3,1,100,10,true,7\n",
        "a.b.Short,0.5,0.7\n",
        "a.b.Long,0.5,0.7,3,4,2.0,3,1,100,10,yes,2.5,extra,cells\n",
        "a.b.Junk,0.5,nan,3,4,inf,3,1,100,10,false,junk\n",
        "a.b.Widget,,,,,,,,40,4\n",
    ]
    path = tmp_path / "cam.csv"
    path.write_text(header + "".join(rows))
    records, lines, _, rows_seen, skipped = assert_same_as_reference(path)
    assert (len(records), rows_seen, skipped) == (2, 5, 3)
    assert lines == [
        f"SKIP {path}:3 missing value in column 'loc'",
        f"SKIP {path}:4 bad integer value '2.5' in column 'cc'",
        f"SKIP {path}:5 bad integer value 'junk' in column 'cc'",
    ]


def test_empty_file_is_missing_column(tmp_path):
    path = tmp_path / "cam.csv"
    path.write_text("")
    result = assert_same_as_reference(path)
    assert result[:3] == ("raised", "MissingColumn",
                          "CSV is missing column 'class_name' (bound to 'name')")


def test_header_only_file_has_no_records(tmp_path):
    path = tmp_path / "cam.csv"
    path.write_text(",".join(COLUMNS) + "\n")
    diag = Diagnostics()
    assert list(ingest_cam_csv(path, CAM_MAP, diagnostics=diag)) == []
    assert (diag.rows_seen, diag.skipped, diag.lines) == (0, 0, [])
    assert_same_as_reference(path)



@given(line=st.text(alphabet='a ,"', max_size=12), inside=st.booleans())
@settings(max_examples=300, deadline=None)
def test_open_quoted_cell_is_where_the_csv_module_reads_on(line, inside):
    # A row's line, from its start or from inside a quoted cell, leaves a
    # quoted cell open exactly when the csv module reads the next line into
    # the same row.
    text = ('"' if inside else "") + line + "\n"
    reader = csv.reader([text, "next\n"])
    next(reader)
    assert bool(_OPEN_QUOTED_CELL.fullmatch(text)) == (reader.line_num == 2)
