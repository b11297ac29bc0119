"""Table rendering and chart emission."""

import json
import random
import re

import pytest

from classaudit.classify import GroupKind
from classaudit.pipeline import GroupSummary, aggregate_groups
from classaudit.report import emit_chart_data, fmt3, render_tables


def summary(label, count=1, loc=10, **means):
    defaults = dict(lcom5_mean=0.5, nhd_mean=0.5, cc_mean=3.0, coco_mean=2.0,
                    acoco_mean=1.0, mxcoco_mean=2.0, mncoco_mean=0.0)
    defaults.update(means)
    return GroupSummary(
        label=label, class_count=count, loc_total=loc,
        loc_per_class=loc / count if count else None, **defaults,
    )


def three_groups():
    return [
        summary(GroupKind.EROR, count=2, loc=40, lcom5_mean=0.8, nhd_mean=0.4,
                cc_mean=6.0, coco_mean=8.0),
        summary(GroupKind.UTILS, count=1, loc=30, lcom5_mean=0.3, nhd_mean=0.9,
                cc_mean=2.0, coco_mean=1.0),
        summary(GroupKind.REST, count=3, loc=60, lcom5_mean=0.5, nhd_mean=0.6,
                cc_mean=3.0, coco_mean=2.0),
    ]


def test_csv_single_summary_header_and_row():
    out = render_tables([summary(GroupKind.EROR)], format="csv")
    lines = out.strip().splitlines()
    assert lines[0] == "table,group,column,value"
    assert "size,ErOr,classes,1" in lines


def test_empty_input_renders_zero_rows():
    text = render_tables([], format="text")
    assert "Group sizes" in text and "Cohesion" in text and "Complexity" in text
    assert "ErOr" not in text
    csv_out = render_tables([], format="csv")
    assert csv_out.strip() == "table,group,column,value"


def test_groups_with_zero_classes_omitted():
    rows = aggregate_groups([])  # three empty summaries
    text = render_tables(rows, format="text")
    assert "ErOr" not in text and "Utils" not in text and "Rest" not in text


def test_worst_marking_cohesion():
    text = render_tables(three_groups(), format="text")
    # highest LCOM5 marked, lowest NHD marked
    assert "*0.800" in text
    assert "*0.400" in text
    assert "*0.300" not in text


def test_highest_marking_complexity():
    text = render_tables(three_groups(), format="text")
    assert "*6.000" in text  # CC max
    assert "*8.000" in text  # CoCo max


def test_tie_marks_both_cells():
    rows = [
        summary(GroupKind.EROR, lcom5_mean=1.0),
        summary(GroupKind.UTILS, lcom5_mean=1.0),
        summary(GroupKind.REST, lcom5_mean=0.4),
    ]
    text = render_tables(rows, format="text")
    assert text.count("*1.000") >= 2


def test_marking_compares_rendered_values():
    rows = [
        summary(GroupKind.EROR, lcom5_mean=1.00000004),
        summary(GroupKind.UTILS, lcom5_mean=1.0),
        summary(GroupKind.REST, lcom5_mean=0.4),
    ]
    text = render_tables(rows, format="text")
    cohesion = text[text.index("Cohesion"):text.index("Complexity")]
    assert cohesion.count("*1.000") == 2  # indistinguishable at 3 decimals: both marked


# Each table's text title and its (text header, CSV/JSON key) columns.
LAYOUT = {
    "size": ("Group sizes", [("Classes", "classes"), ("LoC", "loc"), ("L/C", "l_per_c")]),
    "cohesion": ("Cohesion", [("LCOM5", "lcom5"), ("NHD", "nhd")]),
    "complexity": ("Complexity", [("CC", "cc"), ("CoCo", "coco"), ("ACoCo", "acoco"),
                                  ("MxCoCo", "mxcoco"), ("MnCoCo", "mncoco")]),
}
# Where the text marks a column's cells: at its highest or lowest value.
WORST = {"lcom5": max, "nhd": min, "cc": max, "coco": max, "acoco": max,
         "mxcoco": max, "mncoco": max}
MEAN_FIELDS = ("lcom5_mean", "nhd_mean", "cc_mean", "coco_mean", "acoco_mean",
               "mxcoco_mean", "mncoco_mean")


def random_groups(seed):
    """Three summaries drawn to hit undefined means, zero-class groups,
    integer-valued means, means that tie once rendered to 3 decimals and
    cells of different widths."""
    rng = random.Random(seed)
    pool = [None, 0.0, 1.0, 1.0004, 0.9996, 2.0, 2.0000001, 0.25, 0.2504, 12.5, 1234.5]
    rows = []
    for label in (GroupKind.EROR, GroupKind.UTILS, GroupKind.REST):
        count = rng.choice([0, 1, 1, 2, 3, 7])
        if count == 0:
            rows.append(GroupSummary(label, 0, 0, None, *[None] * len(MEAN_FIELDS)))
            continue
        loc = rng.randint(count, 40 * count)
        means = [rng.choice(pool) if rng.random() < 0.7 else rng.uniform(0, 30)
                 for _ in MEAN_FIELDS]
        rows.append(GroupSummary(label, count, loc, loc / count, *means))
    return rows


def text_cells(text):
    """{(table, group, key): cell} from the text tables, marks kept."""
    cells = {}
    blocks = text.split("\n\n")
    for key, (title, columns) in LAYOUT.items():
        block = next(b for b in blocks if b.startswith(title + "\n")).splitlines()
        assert block[1].split() == ["Group"] + [h for h, _ in columns]
        for line in block[2:]:
            group, *values = line.split()
            assert len(values) == len(columns)
            for (_, column), value in zip(columns, values):
                cells[(key, group, column)] = value
    return cells


def assert_formats_agree(rows):
    """Text, CSV and JSON show the same value in every cell, and the text
    stars exactly each marked column's worst rendered values."""
    visible = [s for s in rows if s.class_count > 0]
    text = render_tables(rows, format="text")
    styled = render_tables(rows, format="text", style=True)
    assert re.sub("\x1b\\[[04]m", "", styled) == text
    marked = text_cells(text)
    shown = {k: v.lstrip("*") for k, v in marked.items()}

    csv_lines = render_tables(rows, format="csv").splitlines()
    assert csv_lines[0] == "table,group,column,value"
    csv_cells = {}
    for line in csv_lines[1:]:
        table, group, column, value = line.split(",")
        csv_cells[(table, group, column)] = value
    assert csv_cells == shown

    doc = json.loads(render_tables(rows, format="json"))
    assert list(doc) == list(LAYOUT)
    json_cells = {}
    for key, (_, columns) in LAYOUT.items():
        assert [r["group"] for r in doc[key]] == [s.label.value for s in visible]
        for row in doc[key]:
            assert list(row) == ["group"] + [c for _, c in columns]
            for _, column in columns:
                value = row[column]
                if column in ("classes", "loc"):
                    assert type(value) is int
                    json_cells[(key, row["group"], column)] = str(value)
                else:
                    json_cells[(key, row["group"], column)] = fmt3(value)
    assert json_cells == shown

    for (key, group, column), cell in marked.items():
        if column not in WORST:
            assert not cell.startswith("*")
            continue
        defined = [float(shown[(key, s.label.value, column)]) for s in visible
                   if shown[(key, s.label.value, column)] != "-"]
        worst = cell != "-" and float(shown[(key, group, column)]) == WORST[column](defined)
        assert cell.startswith("*") == worst, (key, group, column)


def test_csv_json_text_carry_identical_numbers():
    assert_formats_agree(three_groups())


@pytest.mark.parametrize("seed", range(40))
def test_csv_json_text_carry_identical_numbers_on_random_groups(seed):
    assert_formats_agree(random_groups(seed))


def test_text_unstyled_by_default():
    text = render_tables(three_groups(), format="text")
    assert "\x1b[" not in text


def test_text_styling_opt_in():
    text = render_tables(three_groups(), format="text", style=True)
    assert "\x1b[4m" in text and "\x1b[0m" in text


def test_chart_bar_heights_proportional(tmp_path):
    rows = [
        summary(GroupKind.EROR, lcom5_mean=1.0),
        summary(GroupKind.UTILS, lcom5_mean=2.0),
        summary(GroupKind.REST, lcom5_mean=3.0),
    ]
    emit_chart_data(rows, str(tmp_path))
    svg = (tmp_path / "lcom5.svg").read_text()
    heights = [float(h) for h in re.findall(r'height="([0-9.]+)" fill="#', svg)]
    assert len(heights) == 3
    # coordinates carry two decimals, so ratios hold to rendering precision
    assert abs(heights[1] / heights[0] - 2.0) < 5e-3
    assert abs(heights[2] / heights[0] - 3.0) < 5e-3


def test_chart_csv_matches_table_rendering(tmp_path):
    rows = three_groups()
    emit_chart_data(rows, str(tmp_path))
    table_text = render_tables(rows, format="text")
    for stem, attr in (("lcom5", "lcom5_mean"), ("nhd", "nhd_mean"),
                       ("coco", "coco_mean"), ("cc", "cc_mean")):
        lines = (tmp_path / f"{stem}.csv").read_text().strip().splitlines()
        assert lines[0] == "group,value"
        for line, row in zip(lines[1:], rows):
            group, value = line.split(",")
            assert group == row.label.value
            assert value == fmt3(getattr(row, attr))
            assert value in table_text


def test_chart_files_and_order(tmp_path):
    emit_chart_data(three_groups(), str(tmp_path))
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["cc.csv", "cc.svg", "coco.csv", "coco.svg",
                     "lcom5.csv", "lcom5.svg", "nhd.csv", "nhd.svg"]
    svg = (tmp_path / "nhd.svg").read_text()
    # bar order fixed: ErOr, Utils, Rest
    assert svg.index(">ErOr<") < svg.index(">Utils<") < svg.index(">Rest<")


def test_empty_groups_emit_nothing(tmp_path):
    out = emit_chart_data(aggregate_groups([]), str(tmp_path))
    assert out == []
    assert list(tmp_path.iterdir()) == []


def test_chart_output_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    emit_chart_data(three_groups(), str(a))
    emit_chart_data(three_groups(), str(b))
    for path in sorted(a.iterdir()):
        assert path.read_bytes() == (b / path.name).read_bytes()


def test_render_deterministic():
    rows = three_groups()
    assert render_tables(rows, format="text") == render_tables(rows, format="text")
    assert render_tables(rows, format="json") == render_tables(rows, format="json")
