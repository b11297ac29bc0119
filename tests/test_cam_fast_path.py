"""CAM rows on both sides of the one-pass read in pipeline._row_to_record.

A row whose nine numeric cells all pass float(), with whole counts, is built
at once; every other row goes through the per-cell readers. Each case must
match the csv.DictReader reference of test_cam_reference.py and give the
exact SKIP text.
"""

import pytest

from classaudit.pipeline import (
    CAM_REQUIRED_KEYS,
    aggregate_groups,
    filter_records,
    ingest_cam_csv,
)
from classaudit.report import render_tables

from conftest import copy_with
from test_cam_reference import (
    CAM_MAP,
    COLUMNS,
    assert_same_as_reference,
    reference_ingest_cam_csv,
)

KEYS = (*CAM_REQUIRED_KEYS, "static")  # the order of COLUMNS
GOOD = dict(name="p.CManager", lcom5="0.5", nhd="0.7", cc="3", coco="4", acoco="2.0",
            mxcoco="3", mncoco="1", loc="100", blank="10", static="false")
NUMERIC = KEYS[1:-1]
COUNTS = ("cc", "coco", "mxcoco", "mncoco", "loc", "blank")


def write_rows(tmp_path, *changes, name="cam.csv"):
    """A CSV with the header COLUMNS and one GOOD row per dict of changed
    cells; the first row is on line 2."""
    lines = [",".join(COLUMNS)]
    lines += [",".join({**GOOD, **change}[key] for key in KEYS) for change in changes]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("cell", ["2.5", "nan", "inf", "1e400"])
@pytest.mark.parametrize("key", ["cc", "mxcoco", "loc"])
def test_count_that_float_takes_but_is_not_whole_is_skipped(tmp_path, key, cell):
    path = write_rows(tmp_path, {}, {key: cell}, {})
    records, lines, _, rows_seen, skipped = assert_same_as_reference(path)
    assert (len(records), rows_seen, skipped) == (2, 3, 1)
    assert lines == [f"SKIP {path}:3 bad integer value {cell!r} in column {CAM_MAP[key]!r}"]


def test_cells_padded_with_separators_are_read_per_cell(tmp_path):
    padded = {key: f"\x1c{GOOD[key]}\x1c" for key in NUMERIC}
    path = write_rows(tmp_path, {}, padded, {"cc": "\x1c2.5\x1c"},
                      {"lcom5": "\x1c", "loc": "\x1f40 "})
    _, lines, _, rows_seen, skipped = assert_same_as_reference(path)
    assert (rows_seen, skipped) == (4, 1)
    assert lines == [f"SKIP {path}:4 bad integer value '2.5' in column 'cc'"]
    plain, padded, empty_lcom5 = ingest_cam_csv(path, CAM_MAP)
    assert copy_with(padded, origin=plain.origin) == plain
    assert empty_lcom5.metrics.lcom5 is None and empty_lcom5.loc == 40


def test_first_bad_cell_in_check_order_names_the_skip(tmp_path):
    # lcom5 comes first in the file, but loc is checked first.
    path = write_rows(tmp_path, {"loc": "2.5", "lcom5": "junk"})
    _, lines, _, _, _ = assert_same_as_reference(path)
    assert lines == [f"SKIP {path}:2 bad integer value '2.5' in column 'loc'"]


def _json_report(records):
    outcome = filter_records(records)
    return render_tables(aggregate_groups(outcome.kept), format="json", pipeline=outcome)


def test_whole_counts_written_as_floats_are_ints(tmp_path):
    rows = [{"name": "p.CManager"}, {"name": "p.StringUtils", "static": "true"},
            {"name": "p.Widget", "lcom5": "0.25"}]
    path = write_rows(tmp_path, *[{**row, **{key: "3.0" for key in COUNTS}} for row in rows])
    plain = write_rows(tmp_path, *[{**row, **{key: "3" for key in COUNTS}} for row in rows],
                       name="plain.csv")
    assert_same_as_reference(path)
    records = list(ingest_cam_csv(path, CAM_MAP))
    for r in records:
        m = r.metrics
        counts = (r.loc, r.blank_lines, m.cc_total, m.coco_total, m.coco_max, m.coco_min)
        assert counts == (3,) * 6 and all(type(v) is int for v in counts)
    report = _json_report(records)
    assert report == _json_report(reference_ingest_cam_csv(path, CAM_MAP))
    assert report == _json_report(ingest_cam_csv(plain, CAM_MAP))


@pytest.mark.parametrize("name", ["org.p.", "Outer$", "a.b$", " p$ "])
def test_empty_simple_name_is_skipped(tmp_path, name):
    path = write_rows(tmp_path, {}, {"name": name})
    records, lines, _, rows_seen, skipped = assert_same_as_reference(path)
    assert (len(records), rows_seen, skipped) == (1, 2, 1)
    assert lines == [f"SKIP {path}:3 empty simple name in class name {name.strip()!r}"]
