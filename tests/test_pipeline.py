"""Ingestion, quantile filtering, and aggregation."""

import csv
import errno
import io
import os
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction
from itertools import groupby
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classaudit import pipeline
from classaudit.classify import GroupKind, GroupLabel
from classaudit.errors import EmptyInput, MissingColumn, ParseError
from classaudit.javamodel import parse_compilation_unit
from classaudit.metrics import ClassMetrics, class_metrics
from classaudit.pipeline import (
    ClassRecord,
    DEFAULT_CAM_COLUMN_MAP,
    Diagnostics,
    aggregate_groups,
    filter_records,
    ingest_cam_csv,
    ingest_sources,
    quantile,
)

from conftest import (child_env, copy_with, count_forks, field_view, fixture_copies,
                      refuse_listing)


def record(name="C", label=GroupKind.REST, ncloc=10, lcom5=0.5, nhd=0.5,
           cc=3, coco=2, avg=1.0, lo=0, hi=2, loc=None, blank=0):
    loc = ncloc + blank if loc is None else loc
    return ClassRecord(
        qualified_name=name,
        origin="synthetic",
        lcom5=lcom5, nhd=nhd, cc_total=cc, coco_total=coco,
        coco_avg=avg, coco_min=lo, coco_max=hi, k=2, l_attr=1, l_types=1,
        loc=loc,
        blank_lines=blank,
        label=GroupLabel(label) if isinstance(label, GroupKind) else label,
    )


# ---- quantile -----------------------------------------------------------------

def test_quantile_examples():
    values = list(range(1, 101))
    assert quantile(values, 0.01) == 1
    assert quantile(values, 0.99) == 99
    assert quantile(list(range(1, 8)), 0.5) == 4


def test_quantile_extremes_are_min_and_max():
    values = [3, 7, 9, 22]
    assert quantile(values, 0) == 3
    assert quantile(values, 1) == 22


def test_quantile_empty_raises():
    with pytest.raises(EmptyInput):
        quantile([], 0.5)


def test_quantile_exact_rank_arithmetic():
    # float ceil(0.01 * 1000) would give 11; the exact rank is 10
    values = list(range(1, 1001))
    assert quantile(values, 0.01) == 10
    assert quantile(values, 0.99) == 990
    assert quantile(values, Fraction(1, 100)) == 10


@given(st.lists(st.integers(0, 1000), min_size=1, max_size=50),
       st.fractions(min_value=0, max_value=1))
@settings(max_examples=200, deadline=None)
def test_quantile_returns_member(values, p):
    values = sorted(values)
    assert quantile(values, p) in values


# ---- filter_records --------------------------------------------------------------

def test_all_inside_bounds_unchanged():
    records = [record(name=f"C{i}", ncloc=50 + i) for i in range(10)]
    outcome = filter_records(records)
    assert outcome.output_count == 10
    assert outcome.dropped_by_quantile == 0


def test_undefined_metric_dropped_regardless_of_ncloc():
    records = [record(name=f"C{i}", ncloc=50) for i in range(5)]
    records.append(record(name="U", ncloc=50, nhd=None))
    outcome = filter_records(records)
    assert outcome.dropped_by_metric == 1
    assert all(r.qualified_name != "U" for r in outcome.kept)


def test_incomplete_csv_metrics_dropped():
    r = record(name="I", ncloc=50, cc=None)
    outcome = filter_records([r] + [record(name=f"C{i}", ncloc=50) for i in range(3)])
    assert outcome.dropped_by_metric == 1


def test_dropped_label_removed_last():
    records = [record(name=f"C{i}", ncloc=100 + i) for i in range(10)]
    # ncloc extremes carried by Dropped-labeled records: they still anchor
    # the quantile population because label removal happens last
    records.append(record(name="LO", ncloc=1,
                          label=GroupLabel(GroupKind.DROPPED, "static-member")))
    outcome = filter_records(records)
    assert outcome.q_low_value == 1
    assert outcome.dropped_by_label == 1


def test_conservation_tallies():
    rng = random.Random(42)
    records = []
    for i in range(1000):
        r = record(name=f"C{i}", ncloc=rng.randint(1, 10_000),
                   label=rng.choice([GroupKind.EROR, GroupKind.UTILS, GroupKind.REST]))
        if rng.random() < 0.05:
            r.lcom5 = None
        if rng.random() < 0.05:
            r.label = GroupLabel(GroupKind.DROPPED, "static-member")
        records.append(r)
    outcome = filter_records(records)
    assert outcome.input_count == 1000
    assert (outcome.output_count + outcome.dropped_by_metric
            + outcome.dropped_by_quantile + outcome.dropped_by_label) == 1000


def test_quantile_drop_exact_enumeration_on_distinct_ncloc():
    records = [record(name=f"C{i}", ncloc=i + 1) for i in range(1000)]
    outcome = filter_records(records)
    # nearest-rank thresholds: ranks 10 and 990 of 1..1000
    assert outcome.q_low_value == 10
    assert outcome.q_high_value == 990
    # strictly outside: 1..9 and 991..1000
    assert outcome.dropped_by_quantile == 19
    kept_ncloc = {r.ncloc for r in outcome.kept}
    assert min(kept_ncloc) == 10 and max(kept_ncloc) == 990


def test_boundary_values_kept():
    # every record at the threshold value survives (strict inequality drops)
    records = [record(name=f"C{i}", ncloc=5) for i in range(100)]
    outcome = filter_records(records)
    assert outcome.output_count == 100


def test_filter_idempotent_with_frozen_thresholds():
    # Filtering again at the outcome's own thresholds drops nothing: every
    # kept record has defined metrics, a label that is not Dropped, and an
    # NCLOC within [q_low_value, q_high_value].
    rng = random.Random(9)
    kinds = (GroupKind.EROR, GroupKind.UTILS, GroupKind.REST, GroupKind.DROPPED)
    records = [
        record(name=f"C{i}", ncloc=rng.randint(1, 500), label=rng.choice(kinds),
               lcom5=None if rng.random() < 0.1 else 0.5)
        for i in range(400)
    ]
    once = filter_records(records)
    assert once.kept and once.dropped_by_metric and once.dropped_by_quantile
    assert once.dropped_by_label
    for r in once.kept:
        assert not r.metrics.has_undefined()
        assert r.label.kind is not GroupKind.DROPPED
        assert once.q_low_value <= r.ncloc <= once.q_high_value


# ---- aggregate_groups --------------------------------------------------------------

def test_single_group_mean():
    records = [record(name="A", label=GroupKind.EROR, coco=2),
               record(name="B", label=GroupKind.EROR, coco=4)]
    summaries = aggregate_groups(records)
    eror = next(s for s in summaries if s.label is GroupKind.EROR)
    assert eror.coco_mean == 3.0


def test_always_three_summaries_in_fixed_order():
    summaries = aggregate_groups([])
    assert [s.label for s in summaries] == [GroupKind.EROR, GroupKind.UTILS, GroupKind.REST]
    assert all(s.class_count == 0 and s.lcom5_mean is None for s in summaries)


def test_loc_per_class_uses_loc_not_ncloc():
    records = [record(name="A", label=GroupKind.REST, ncloc=10, blank=5, loc=15)]
    summaries = aggregate_groups(records)
    rest = next(s for s in summaries if s.label is GroupKind.REST)
    assert rest.loc_total == 15
    assert rest.loc_per_class == 15.0


def test_order_independence_bitwise():
    rng = random.Random(3)
    records = [
        record(name=f"C{i}", label=rng.choice(list(GroupKind)[:3]),
               ncloc=rng.randint(5, 500), lcom5=rng.random() * 2,
               nhd=rng.random(), cc=rng.randint(1, 40), coco=rng.randint(0, 60),
               avg=rng.random() * 8, lo=rng.randint(0, 3), hi=rng.randint(3, 20))
        for i in range(300)
    ]
    base = aggregate_groups(records)
    for _ in range(5):
        rng.shuffle(records)
        again = aggregate_groups(records)
        assert again == base  # fsum makes the means exactly order-independent


def test_aggregate_takes_any_iterable_and_ignores_dropped():
    records = [record(name="A", label=GroupKind.EROR, loc=11),
               record(name="B", label=GroupKind.DROPPED, loc=500),
               record(name="C", label=GroupKind.REST, loc=7)]
    summaries = aggregate_groups(records)
    assert aggregate_groups(iter(records)) == summaries
    assert [(s.label, s.class_count, s.loc_total) for s in summaries] == [
        (GroupKind.EROR, 1, 11), (GroupKind.UTILS, 0, 0), (GroupKind.REST, 1, 7)]


def test_records_are_slotted_and_copy_field_wise():
    rec = record(name="A", cc=3)
    for obj in (rec, rec.metrics):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            obj.not_a_field = 1
    moved = copy_with(rec, origin="x:3", cc_total=9)
    assert (moved.origin, moved.cc_total, rec.cc_total) == ("x:3", 9, 3)
    assert moved.metrics == copy_with(rec.metrics, cc_total=9)
    assert field_view(moved)["cc_total"] == 9


def test_record_metrics_is_a_copy_of_its_fields():
    rec = record(cc=3, lcom5=None)
    assert rec.metrics == ClassMetrics(None, 0.5, 3, 2, 1.0, 0, 2, 2, 1, 1)
    assert rec.metrics is not rec.metrics
    rec.metrics.cc_total = 9  # lost with the copy
    assert rec.cc_total == 3 and rec.metrics.cc_total == 3
    assert rec.has_undefined() and rec.metrics.has_undefined()
    assert ClassRecord.has_undefined is ClassMetrics.has_undefined


# ---- ingest_sources -------------------------------------------------------------------

def test_ingest_empty_directory(tmp_path):
    diag = Diagnostics()
    assert list(ingest_sources([tmp_path], diagnostics=diag)) == []
    assert diag.skipped == 0


def test_ingest_fixture_tree(corpus_dir, expected_corpus):
    records = list(ingest_sources([corpus_dir]))
    assert len(records) == 9
    expected_names = {c["qualified_name"] for c in expected_corpus["classes"]}
    assert {r.qualified_name for r in records} == expected_names


def test_a_source_record_holds_its_class_metrics(fixtures_dir):
    records = list(ingest_sources([fixtures_dir]))
    pairs = []
    for path, group in groupby(records, key=attrgetter("origin")):
        classes = parse_compilation_unit(pipeline._read_text(path), path)
        want = [(c.qualified_name, class_metrics(c)) for c in pipeline._flatten(classes)]
        got = [(r.qualified_name, r.metrics) for r in group]
        assert got == want
        pairs += got
    assert len(pairs) == len(records) > 20
    assert all(type(m) is ClassMetrics for _, m in pairs)


def test_ingest_isolates_malformed_files(tmp_path):
    good = tmp_path / "Good.java"
    good.write_text("class Good { int x; void f() { x = 1; } void g() { x = 2; } }")
    bad = tmp_path / "Bad.java"
    bad.write_text('class Bad { String s = "unterminated; }')
    diag = Diagnostics()
    records = list(ingest_sources([tmp_path], diagnostics=diag))
    assert [r.qualified_name for r in records] == ["Good"]
    assert diag.skipped == 1
    assert any(line.startswith("SKIP") and "Bad.java" in line for line in diag.lines)


def test_deep_nests_parse_at_the_default_recursion_limit():
    # Each nest is the deepest that parses at the default limit (about 246
    # ifs, 988 parens and 164 lambdas on 3.10 to 3.13) less a margin, so a
    # walker change that spends one more stack frame per level fails here.
    bodies = [
        "if (v > 0) { " * 240 + "x = v;" + " }" * 240,
        "x = " + "(" * 950 + "v" + ")" * 950 + ";",
        "f(y -> { " * 160 + "x = v;" + " });" * 160,
    ]
    script = (
        "import sys\n"
        "from classaudit.javamodel import parse_compilation_unit\n"
        "from classaudit.metrics import class_metrics\n"
        "for body in sys.argv[1:]:\n"
        "    (cls,) = parse_compilation_unit('class A { int x; void m(int v) { ' + body + ' } }')\n"
        "    print(class_metrics(cls).cc_total, sorted(cls.methods[0].accessed_attributes))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, *bodies],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=30,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["241 ['x']", "1 ['x']", "1 ['x']"]


@pytest.mark.parametrize("body", [
    "if (v > 0) { " * 300 + "v--;" + " }" * 300,
    "v = " + "(" * 1000 + "1" + ")" * 1000 + ";",
], ids=["if_depth_300", "paren_depth_1000"])
def test_ingest_skips_file_nested_too_deep(tmp_path, body):
    good_src = "class Good { int x; void f() { x = 1; } void g() { x = 2; } }"
    alone = tmp_path / "alone"
    alone.mkdir()
    (alone / "Good.java").write_text(good_src)
    expected = list(ingest_sources([alone]))

    mixed = tmp_path / "mixed"
    mixed.mkdir()
    (mixed / "Good.java").write_text(good_src)
    deep = mixed / "Deep.java"
    deep.write_text("class Deep { int x; void f(int v) { " + body + " } }")
    diag = Diagnostics()
    records = list(ingest_sources([mixed], diagnostics=diag))
    assert diag.lines == [f"SKIP {deep}:0 nesting too deep"]
    assert diag.skipped == 1
    assert [copy_with(r, origin=os.path.basename(r.origin)) for r in records] == [
        copy_with(r, origin=os.path.basename(r.origin)) for r in expected
    ]


@pytest.mark.parametrize(
    "message, reported",
    [("boom", "boom"), ("first line\nsecond line\r\nthird", "first line second line third")],
    ids=["one_line", "multi_line"],
)
def test_ingest_reports_unexpected_exception_as_error(
    tmp_path, monkeypatch, message, reported
):
    for name in ("A", "B", "C"):
        (tmp_path / f"{name}.java").write_text(
            f"class {name} {{ int x; void f() {{ x = 1; }} void g() {{ x = 2; }} }}"
        )
    expected = [r for r in ingest_sources([tmp_path]) if r.qualified_name != "B"]
    real_parse = pipeline.parse_compilation_unit

    def parse_failing_on_b(text, path):
        if path.endswith("B.java"):
            raise ValueError(message)
        return real_parse(text, path)

    monkeypatch.setattr(pipeline, "parse_compilation_unit", parse_failing_on_b)
    diag = Diagnostics()
    assert list(ingest_sources([tmp_path], diagnostics=diag)) == expected
    assert diag.lines == [f"ERROR {tmp_path / 'B.java'}:0 ValueError: {reported}"]
    stream = io.StringIO()
    diag.write(stream)
    assert stream.getvalue().splitlines() == diag.lines
    assert diag.skipped == 1
    assert diag.skip_rate() == 1 / 3


def test_ingest_unclosed_try_resources_does_not_hang(tmp_path):
    (tmp_path / "A.java").write_text("class A { void f() { try ( { ; } } }")
    script = (
        "import sys\n"
        "from classaudit.pipeline import Diagnostics, ingest_sources\n"
        "diag = Diagnostics()\n"
        "records = list(ingest_sources([sys.argv[1]], diagnostics=diag))\n"
        "print(len(records), diag.skipped)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=30,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["1", "0"]


def test_ingest_missing_root_fatal(tmp_path):
    with pytest.raises(OSError):
        list(ingest_sources([tmp_path / "nope"]))


def test_ingest_root_it_cannot_list_is_fatal(tmp_path, monkeypatch):
    (tmp_path / "A.java").write_text("class A { }")
    refuse_listing(monkeypatch, tmp_path)
    with pytest.raises(PermissionError):
        list(ingest_sources([tmp_path]))


def test_ingest_skips_a_subdirectory_it_cannot_list(tmp_path, monkeypatch):
    (tmp_path / "A.java").write_text("class A { }")
    locked = tmp_path / "locked"
    locked.mkdir()
    (locked / "B.java").write_text("class B { }")
    refuse_listing(monkeypatch, locked)
    diag = Diagnostics()
    assert [r.qualified_name for r in ingest_sources([tmp_path], diagnostics=diag)] == ["A"]
    assert (diag.files_seen, diag.skipped) == (2, 1)
    assert diag.lines == [f"SKIP {locked}:0 [Errno 13] Permission denied: '{locked}'"]


def test_ingest_non_java_files_ignored(tmp_path):
    (tmp_path / "notes.txt").write_text("class NotJava {}")
    assert list(ingest_sources([tmp_path])) == []


def origins(roots):
    diag = Diagnostics()
    records = list(ingest_sources(roots, diagnostics=diag))
    assert diag.skipped == 0
    return [r.origin for r in records]


def test_a_java_link_to_a_file_of_another_root_counts_once(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (b / "X.java").write_text("class X { }")
    os.symlink(os.path.join("..", "b", "X.java"), a / "Y.java")
    assert origins([a, b]) == [str(b / "X.java")]


def linked_outside(tmp_path):
    """A root ``r`` with a subdirectory, and ``X.java`` beside it."""
    (tmp_path / "X.java").write_text("class X { }")
    root = tmp_path / "r"
    (root / "sub").mkdir(parents=True)
    return root, tmp_path / "X.java"


def test_a_java_link_to_a_file_outside_every_root_counts(tmp_path):
    root, target = linked_outside(tmp_path)
    os.symlink(target, root / "sub" / "Y.java")
    assert origins([root]) == [str(root / "sub" / "Y.java")]


def test_java_links_to_one_file_outside_every_root_count_once(tmp_path):
    # The first in walk order stays: a directory's files come before its
    # subdirectories' files.
    root, target = linked_outside(tmp_path)
    os.symlink(target, root / "sub" / "Y.java")
    os.symlink(target, root / "Z.java")
    os.symlink(root / "Z.java", root / "sub" / "A.java")  # a link to that link
    assert origins([root]) == [str(root / "Z.java")]


def test_a_broken_java_link_is_still_reported(tmp_path):
    os.symlink(tmp_path / "Missing.java", tmp_path / "Y.java")
    diag = Diagnostics()
    assert list(ingest_sources([tmp_path], diagnostics=diag)) == []
    path = tmp_path / "Y.java"
    assert diag.lines == [f"SKIP {path}:0 [Errno 2] No such file or directory: '{path}'"]


# ---- ingest_sources in two processes ------------------------------------------------

def two_halves(root, monkeypatch):
    """A tree of ``_FORK_MIN_FILES`` inputs or more, in two halves ``a`` and
    ``b``. Each holds fixture copies, then a file the parser rejects, one
    whose analysis raises, one that is not UTF-8 and a subdirectory that
    cannot be listed."""
    per_half = pipeline._FORK_MIN_FILES // 2 + 1
    for half in ("a", "b"):
        part = root / half
        fixture_copies(part, per_half - 4)
        (part / "Bad.java").write_text('class Bad { String s = "unterminated; }')
        (part / "Boom.java").write_text("class Boom { }")
        (part / "Latin1.java").write_bytes(b"class Latin1 { char c = '\xe9'; }")
        (part / "locked").mkdir()
        (part / "locked" / "Hidden.java").write_text("class Hidden { }")
        refuse_listing(monkeypatch, part / "locked")
    real_parse = pipeline.parse_compilation_unit

    def parse_failing_on_boom(text, path):
        if path.endswith("Boom.java"):
            raise ValueError("boom")
        return real_parse(text, path)

    monkeypatch.setattr(pipeline, "parse_compilation_unit", parse_failing_on_boom)
    return root


def ingest(root):
    diag = Diagnostics()
    return list(ingest_sources([root], diagnostics=diag)), field_view(diag)


def serial_ingest(root, monkeypatch):
    threshold = pipeline._FORK_MIN_FILES
    monkeypatch.setattr(pipeline, "_FORK_MIN_FILES", 10 ** 9)  # above any tree here
    try:
        return ingest(root)
    finally:
        monkeypatch.setattr(pipeline, "_FORK_MIN_FILES", threshold)


def test_forked_ingest_equals_a_serial_one(tmp_path, monkeypatch):
    root = two_halves(tmp_path, monkeypatch)
    forks = count_forks(monkeypatch)
    forked = ingest(root)
    assert len(forks) == 1
    serial = serial_ingest(root, monkeypatch)
    assert len(forks) == 1
    assert forked == serial
    records, diag = serial
    assert len(records) > pipeline._FORK_MIN_FILES
    assert (diag["files_seen"], diag["skipped"]) == (pipeline._FORK_MIN_FILES + 2, 8)
    assert [(line.split()[0], os.path.relpath(line.split()[1].rsplit(":", 1)[0], root))
            for line in diag["lines"]] == [
        (kind, os.path.join(half, name)) for half in ("a", "b") for kind, name in
        (("SKIP", "Bad.java"), ("ERROR", "Boom.java"), ("SKIP", "Latin1.java"),
         ("SKIP", "locked"))]


def test_closing_a_forked_ingest_leaves_no_child(tmp_path, monkeypatch):
    root = two_halves(tmp_path, monkeypatch)
    forks = count_forks(monkeypatch)
    records = ingest_sources([root])
    next(records)
    records.close()
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_half_of_a_child_that_fails_is_analyzed_by_the_parent(tmp_path, monkeypatch):
    import pickle

    root = two_halves(tmp_path, monkeypatch)
    serial = serial_ingest(root, monkeypatch)
    forks = count_forks(monkeypatch)
    monkeypatch.setattr(pickle, "dumps", lambda *args: os._exit(1))  # only the child dumps
    assert ingest(root) == serial
    assert len(forks) == 1


def test_ingest_without_a_pipe_stays_in_one_process(tmp_path, monkeypatch):
    root = two_halves(tmp_path, monkeypatch)
    serial = serial_ingest(root, monkeypatch)
    forks = count_forks(monkeypatch)

    def no_pipe():
        raise OSError(errno.EMFILE, "Too many open files")

    monkeypatch.setattr(os, "pipe", no_pipe)
    assert ingest(root) == serial
    assert forks == []


@pytest.mark.filterwarnings("error")
def test_forked_ingest_raises_no_warning(tmp_path, monkeypatch):
    # Python 3.12 and later raise a DeprecationWarning on a fork in a
    # process with more than one thread.
    fixture_copies(tmp_path, pipeline._FORK_MIN_FILES)
    forks = count_forks(monkeypatch)
    assert len(list(ingest_sources([tmp_path]))) > pipeline._FORK_MIN_FILES
    assert len(forks) == 1


def test_ingest_below_the_threshold_or_beside_a_thread_stays_in_one_process(
    tmp_path, monkeypatch
):
    fixture_copies(tmp_path, pipeline._FORK_MIN_FILES - 1)
    forks = count_forks(monkeypatch)
    records = list(ingest_sources([tmp_path]))
    fixture_copies(tmp_path / "more", 1)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert len(list(ingest_sources([tmp_path]))) > len(records)
    finally:
        stop.set()
        thread.join()
    assert forks == []


# ---- ingest_cam_csv ---------------------------------------------------------------------

CSV_HEADER = "class_name,lcom5,nhd,cc,coco,acoco,mxcoco,mncoco,loc,blanks,has_static\n"
CSV_MAP = dict(DEFAULT_CAM_COLUMN_MAP, static="has_static")


def write_csv(tmp_path, rows, header=CSV_HEADER):
    path = tmp_path / "cam.csv"
    path.write_text(header + "".join(rows))
    return path


def test_cam_csv_three_rows(tmp_path):
    path = write_csv(tmp_path, [
        "a.b.Manager,0.5,0.7,3,4,2.0,3,1,100,10,false\n",
        "a.b.StringUtils,1.5,0.9,8,9,4.5,6,3,50,5,true\n",
        "a.b.Widget,0.1,0.2,2,2,1.0,1,1,40,4,false\n",
    ])
    records = list(ingest_cam_csv(path, CSV_MAP))
    assert len(records) == 3
    kinds = [r.label.kind for r in records]
    assert kinds == [GroupKind.EROR, GroupKind.UTILS, GroupKind.REST]
    assert records[0].ncloc == 90


def test_a_cam_record_holds_its_row_metrics(tmp_path):
    path = write_csv(tmp_path, [
        "a.b.Manager,0.5,0.7,3,4,2.0,3,1,100,10,false\n",  # read at once
        "a.b.Widget,,0.2,2.0,2,1.5,5,1,40,4,false\n",  # read cell by cell
    ])
    assert [r.metrics for r in ingest_cam_csv(path, CSV_MAP)] == [
        ClassMetrics(0.5, 0.7, 3, 4, 2.0, 1, 3, 0, 0, 0),
        ClassMetrics(None, 0.2, 2, 2, 1.5, 1, 5, 0, 0, 0),
    ]


def test_cam_csv_empty_metric_cell_is_undefined(tmp_path):
    path = write_csv(tmp_path, ["a.B,,0.7,3,4,2.0,3,1,100,10,false\n"])
    records = list(ingest_cam_csv(path, CSV_MAP))
    assert records[0].metrics.lcom5 is None
    outcome = filter_records(records)
    assert outcome.dropped_by_metric == 1


def test_cam_csv_missing_cc_marks_incomplete(tmp_path):
    path = write_csv(tmp_path, ["a.B,0.5,0.7,,4,2.0,3,1,100,10,false\n"])
    records = list(ingest_cam_csv(path, CSV_MAP))
    assert records[0].metrics.cc_total is None
    assert records[0].metrics.has_undefined()
    assert filter_records(records).dropped_by_metric == 1


def test_cam_csv_missing_column_fatal(tmp_path):
    path = tmp_path / "cam.csv"
    path.write_text("class_name,lcom5\nA,0.5\n")
    with pytest.raises(MissingColumn):
        list(ingest_cam_csv(path, CSV_MAP))


def test_cam_csv_bad_row_tallied(tmp_path):
    path = write_csv(tmp_path, [
        "a.B,zzz,0.7,3,4,2.0,3,1,100,10,false\n",
        "a.C,0.5,0.7,3,4,2.0,3,1,100,10,false\n",
    ])
    diag = Diagnostics()
    records = list(ingest_cam_csv(path, CSV_MAP, diagnostics=diag))
    assert [r.qualified_name for r in records] == ["a.C"]
    assert diag.skipped == 1


def test_cam_csv_missing_loc_is_row_error(tmp_path):
    path = write_csv(tmp_path, ["a.B,0.5,0.7,3,4,2.0,3,1,,10,false\n"])
    diag = Diagnostics()
    assert list(ingest_cam_csv(path, CSV_MAP, diagnostics=diag)) == []
    assert diag.skipped == 1


@pytest.mark.parametrize("key, cell", [
    ("cc", "2.5"), ("cc", "nan"), ("loc", "inf"), ("blank", "1e400"),
])
def test_cam_csv_non_integral_count_cell_is_row_error(tmp_path, key, cell):
    column = DEFAULT_CAM_COLUMN_MAP[key]
    header = CSV_HEADER.strip().split(",")
    bad = "a.B,0.5,0.7,3,4,2.0,3,1,100,10,false".split(",")
    bad[header.index(column)] = cell
    good = ["a.C,0.5,0.7,3,4,2.0,3,1,100,10,false\n",
            "a.D,0.1,0.2,2.0,2,1.0,1,1,40,4,true\n"]
    path = write_csv(tmp_path, [good[0], ",".join(bad) + "\n", good[1]])
    diag = Diagnostics()
    records = list(ingest_cam_csv(path, CSV_MAP, diagnostics=diag))
    assert diag.lines == [f"SKIP {path}:3 bad integer value {cell!r} in column {column!r}"]
    alone = tmp_path / "alone"
    alone.mkdir()
    expected = list(ingest_cam_csv(write_csv(alone, good), CSV_MAP))
    assert [copy_with(r, origin="") for r in records] == [copy_with(r, origin="") for r in expected]
    for r in records:
        assert type(r.metrics.cc_total) is int and type(r.metrics.coco_total) is int


def test_cam_csv_skip_line_is_where_the_row_starts(tmp_path):
    good = "a.C,0.5,0.7,3,4,2.0,3,1,100,10,false\n"
    path = write_csv(tmp_path, [
        good,                                            # line 2
        "\n", "\n",                                      # lines 3-4: blank
        "a.B,zzz,0.7,3,4,2.0,3,1,100,10,false\n",        # line 5
        '"a.Multi\nLine",0.5,0.7,x,4,2.0,3,1,100,10,no\n',  # lines 6-7
        "\r\n",                                          # line 8: blank
        good.replace("a.C", "a.D"),                      # line 9
    ])
    diag = Diagnostics()
    records = list(ingest_cam_csv(path, CSV_MAP, diagnostics=diag))
    assert diag.lines == [
        f"SKIP {path}:5 bad numeric value 'zzz' in column 'lcom5'",
        f"SKIP {path}:6 bad integer value 'x' in column 'cc'",
    ]
    assert [r.origin for r in records] == [f"{path}:2", f"{path}:9"]
    assert (diag.rows_seen, diag.skipped) == (4, 2)  # blank rows are not counted


def test_cam_csv_row_the_csv_module_rejects_is_skipped(tmp_path):
    good = "a.C,0.5,0.7,3,4,2.0,3,1,100,10,false\n"
    huge = "x" * (csv.field_size_limit() + 1)
    path = write_csv(tmp_path, [
        good,                                            # line 2
        f"a.B,{huge},0.7,3,4,2.0,3,1,100,10,false\n",    # line 3: cell over the limit
        good.replace("a.C", "a.D"),                      # line 4
    ])
    diag = Diagnostics()
    records = list(ingest_cam_csv(path, CSV_MAP, diagnostics=diag))
    limit = csv.field_size_limit()
    assert diag.lines == [f"SKIP {path}:3 field larger than field limit ({limit})"]
    assert [r.origin for r in records] == [f"{path}:2", f"{path}:4"]
    assert (diag.rows_seen, diag.skipped) == (3, 1)


@pytest.mark.parametrize("rest, lines", [
    ('more",0.7,3,4,2.0,3,1,100,10,false\n', 2),
    ('more""\n"" still quoted",0.7,3,"4\n",2.0,3,1,100,10,false\n', 4),
], ids=["one_line_more", "doubled_quotes_and_a_second_quoted_cell"])
def test_cam_csv_row_rejected_in_a_quoted_cell_ends_where_the_cell_does(tmp_path, rest, lines):
    good = "a.C,0.5,0.7,3,4,2.0,3,1,100,10,false\n"
    huge = "x" * (csv.field_size_limit() + 1)
    path = write_csv(tmp_path, [
        good,                                            # line 2
        f'a.B,"{huge}\n' + rest,                         # lines 3 on: one row
        good.replace("a.C", "a.D"),
    ])
    diag = Diagnostics()
    records = list(ingest_cam_csv(path, CSV_MAP, diagnostics=diag))
    limit = csv.field_size_limit()
    assert diag.lines == [f"SKIP {path}:3 field larger than field limit ({limit})"]
    assert [r.origin for r in records] == [f"{path}:2", f"{path}:{3 + lines}"]
    assert (diag.rows_seen, diag.skipped) == (3, 1)


def test_cam_csv_rows_the_csv_module_rejects_are_read_again_in_linear_time(tmp_path):
    # A rejected row's lines are read again to find where the row ends.
    # Reading them from the file's first line at every rejected row took
    # time quadratic in the rows: 4 times the rows took about 12 times as long.
    good = "a.C,0.5,0.7,3,4,2.0,3,1,100,10,false\n"
    bad = "a.B," + "x" * 100 + ",0.7,3,4,2.0,3,1,100,10,false\n"
    limit = csv.field_size_limit(64)
    try:
        times = []
        for rows in (2000, 8000):
            directory = tmp_path / str(rows)
            directory.mkdir()
            path = write_csv(directory, [good, bad] * (rows // 2))
            best = float("inf")
            for _ in range(3):
                diag = Diagnostics()
                started = time.perf_counter()
                records = list(ingest_cam_csv(path, CSV_MAP, diagnostics=diag))
                best = min(best, time.perf_counter() - started)
            assert (len(records), diag.skipped) == (rows // 2, rows // 2)
            times.append(best)
    finally:
        csv.field_size_limit(limit)
    assert times[1] < 8 * times[0], times


def test_cam_csv_header_the_csv_module_rejects_is_a_parse_error(tmp_path):
    huge = "x" * (csv.field_size_limit() + 1)
    path = write_csv(tmp_path, ["a.C,0.5,0.7,3,4,2.0,3,1,100,10,false\n"],
                     header=CSV_HEADER.replace("blanks", huge))
    with pytest.raises(ParseError) as info:
        list(ingest_cam_csv(path, CSV_MAP))
    limit = csv.field_size_limit()
    assert str(info.value) == f"{path}:1: field larger than field limit ({limit})"


@pytest.mark.parametrize("line", [1, 3])
def test_cam_csv_not_utf8_is_a_parse_error_at_line_0(tmp_path, line):
    good = b"a.C,0.5,0.7,3,4,2.0,3,1,100,10,false\n"
    lines = [CSV_HEADER.encode(), good, good]
    lines[line - 1] = lines[line - 1].replace(b",", b",\xff", 1)
    path = tmp_path / "cam.csv"
    path.write_bytes(b"".join(lines))
    with pytest.raises(ParseError) as info:
        list(ingest_cam_csv(path, CSV_MAP))
    assert str(info.value) == f"{path}:0: not valid UTF-8: byte 0xff, invalid start byte"


def test_cam_csv_short_long_rows_and_repeated_header(tmp_path):
    header = CSV_HEADER.strip() + ",cc\n"  # a repeated name binds its last column
    path = write_csv(tmp_path, [
        "a.B,0.5,0.7,1,4,2.0,3,1,100,10\n",               # short: no static, no cc
        "a.C,0.5,0.7,1,4,2.0,3,1,100,10,yes,8,extra\n",   # long: extra cell ignored
    ], header=header)
    records = list(ingest_cam_csv(path, CSV_MAP))
    assert [(r.label.kind, r.metrics.cc_total) for r in records] == [
        (GroupKind.REST, None), (GroupKind.DROPPED, 8)]


def test_cam_csv_without_static_column_warns(tmp_path):
    header = "class_name,lcom5,nhd,cc,coco,acoco,mxcoco,mncoco,loc,blanks\n"
    path = write_csv(tmp_path, ["a.B,0.5,0.7,3,4,2.0,3,1,100,10\n"], header=header)
    diag = Diagnostics()
    records = list(ingest_cam_csv(path, DEFAULT_CAM_COLUMN_MAP, diagnostics=diag))
    assert records[0].label.kind is GroupKind.REST
    assert any("static" in w for w in diag.warnings)


def test_cam_csv_classifies_on_simple_name(tmp_path):
    path = write_csv(tmp_path, [
        "com.x.Outer$InnerManager,0.5,0.7,3,4,2.0,3,1,100,10,false\n",
    ])
    records = list(ingest_cam_csv(path, CSV_MAP))
    assert records[0].label.kind is GroupKind.EROR
