"""A large CAM CSV is read in two processes: one forked child reads the
rows from the first line start past half the file's bytes, and its records
are taken only where this process's reader ends a row exactly there. A
forked read equals a serial one, on hostile CSVs as on the benchmark's."""

import csv
import errno
import importlib.util
import io
import os
import pickle
from pathlib import Path

import pytest

from classaudit import cli, pipeline
from classaudit.errors import ParseError
from classaudit.pipeline import DEFAULT_CAM_COLUMN_MAP, Diagnostics, ingest_cam_csv

from conftest import count_forks, field_view

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

HEADER = "class_name,lcom5,nhd,cc,coco,acoco,mxcoco,mncoco,loc,blanks,has_static\n"
CAM_MAP = dict(DEFAULT_CAM_COLUMN_MAP, static="has_static")


def good(i, end="\n"):
    return f"p.C{i}Manager,0.5,0.7,3,4,2.0,3,1,{100 + i},10,false{end}"


def hostile_half(n):
    """Rows of every kind a CAM read treats apart, between good rows at
    either end: a bad cell, a blank row, a multi-line quoted name, a row the
    csv module rejects (its cell over a limit of 64) whose open quoted cell
    runs on two more lines, and a short row."""
    return "".join([
        *(good(n + i) for i in range(5)),
        f"p.Bad{n},zzz,0.7,3,4,2.0,3,1,100,10,false\n",
        "\n",
        f'"p.Multi\nLine{n}Manager",0.5,0.7,3,4,2.0,3,1,100,10,yes\n',
        f'p.Huge{n},"{"x" * 100}\nstill\nquoted",0.7,3,4,2.0,3,1,100,10,false\n',
        f"p.Short{n}Util,0.5,0.7,3,4,2.0,3,1,100,10\n",
        *(good(n + 10 + i) for i in range(5)),
    ])


def write(tmp_path, text, name="cam.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode() if isinstance(text, str) else text)
    return path


def read(path):
    """The records and diagnostics of one read, or the text of the
    ParseError that ended it."""
    diag = Diagnostics()
    try:
        records = list(ingest_cam_csv(path, CAM_MAP, diagnostics=diag))
    except ParseError as exc:
        return str(exc)
    return records, field_view(diag)


def count_parent_rows(monkeypatch) -> list:
    """Count, in the returned list, the rows this process builds a record
    of or rejects a cell of; a forked child's rows are not counted."""
    built, pid = [], os.getpid()
    row_to_record = pipeline._row_to_record

    def counted(*args):
        if os.getpid() == pid:
            built.append(1)
        return row_to_record(*args)

    monkeypatch.setattr(pipeline, "_row_to_record", counted)
    return built


@pytest.fixture
def small_cells():
    limit = csv.field_size_limit(64)
    yield
    csv.field_size_limit(limit)


def forked_and_serial(path, monkeypatch, forks=1):
    """A read of ``path`` with the threshold below its size, which forks
    ``forks`` times, and one with the threshold above it, which forks none;
    and the number of rows the first read's parent built."""
    forked_at = count_forks(monkeypatch)
    built = count_parent_rows(monkeypatch)
    monkeypatch.setattr(pipeline, "_FORK_MIN_BYTES", 0)
    forked = read(path)
    assert len(forked_at) == forks
    in_parent = len(built)
    monkeypatch.setattr(pipeline, "_FORK_MIN_BYTES", 10 ** 12)
    serial = read(path)
    assert len(forked_at) == forks
    return forked, serial, in_parent


def test_hostile_rows_on_both_sides_of_the_split(tmp_path, monkeypatch, small_cells):
    path = write(tmp_path, HEADER + hostile_half(0) + hostile_half(100))
    forked, serial, built = forked_and_serial(path, monkeypatch)
    assert built <= 14  # the first half's rows at most: the child's rows were taken
    assert forked == serial
    records, diag = serial
    assert (len(records), diag["rows_seen"], diag["skipped"]) == (24, 28, 4)
    assert diag["lines"] == [
        f"SKIP {path}:7 bad numeric value 'zzz' in column 'lcom5'",
        f"SKIP {path}:11 field larger than field limit (64)",
        f"SKIP {path}:25 bad numeric value 'zzz' in column 'lcom5'",
        f"SKIP {path}:29 field larger than field limit (64)",
    ]
    assert diag["warnings"] == []


def test_a_leading_bom_reads_as_the_same_csv(tmp_path, monkeypatch, small_cells):
    text = HEADER + hostile_half(0) + hostile_half(100)
    path = write(tmp_path, text)
    plain = read(path)
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    forked, serial, built = forked_and_serial(path, monkeypatch)
    assert built <= 14
    assert forked == serial == plain
    assert len(plain[0]) == 24


def test_a_quoted_cell_across_the_split_is_read_by_the_parent(tmp_path, monkeypatch):
    cell = "x\n" * 200
    text = (HEADER + "".join(good(i) for i in range(20))
            + f'"p.Long{cell}Manager",0.5,0.7,3,4,2.0,3,1,100,10,false\n'
            + "".join(good(i) for i in range(20, 40)))
    middle = len(text) // 2
    assert text.index('"p.Long') < middle < text.index("Manager", text.index('"p.Long'))
    path = write(tmp_path, text)
    forked, serial, built = forked_and_serial(path, monkeypatch)
    assert forked == serial
    assert built == 41
    assert serial[1]["rows_seen"] == 41


@pytest.mark.parametrize("ends", [("\r\n",), ("\r",), ("\r\n", "\r", "\n")],
                         ids=["crlf", "bare_cr", "mixed"])
def test_line_ends_before_the_split_are_counted_as_the_reader_counts_them(
    tmp_path, monkeypatch, ends
):
    first = "".join(good(i, ends[i % len(ends)]) for i in range(30))
    first += f'"p.Multi{ends[0]}Line{ends[-1]}Manager",0.5,0.7,3,4,2.0,3,1,100,10,no{ends[0]}'
    path = write(tmp_path, HEADER + first + "".join(good(i) for i in range(30, 70)))
    forked, serial, built = forked_and_serial(path, monkeypatch)
    assert built < serial[1]["rows_seen"]
    assert forked == serial
    records, _ = serial
    assert records[-1].origin == f"{path}:74"  # header, 30 rows, 3 lines, 40 rows


def test_a_byte_not_utf8_after_the_split_ends_the_read_as_a_serial_one(tmp_path, monkeypatch):
    rows = [good(i).encode() for i in range(4000)]
    rows[-10] = rows[-10].replace(b",", b",\xff", 1)
    path = write(tmp_path, HEADER.encode() + b"".join(rows))
    forked, serial, _ = forked_and_serial(path, monkeypatch)
    assert forked == serial == f"{path}:0: not valid UTF-8: byte 0xff, invalid start byte"


def test_the_rows_of_a_child_that_fails_are_read_by_the_parent(tmp_path, monkeypatch,
                                                              small_cells):
    path = write(tmp_path, HEADER + hostile_half(0) + hostile_half(100))
    monkeypatch.setattr(pickle, "dumps", lambda *args: os._exit(1))  # only the child dumps
    forked, serial, built = forked_and_serial(path, monkeypatch)
    assert forked == serial
    assert built == serial[1]["rows_seen"] - 2  # every row the csv module passes


def test_closing_a_forked_read_leaves_no_child(tmp_path, monkeypatch):
    path = write(tmp_path, HEADER + "".join(good(i) for i in range(100)))
    forks = count_forks(monkeypatch)
    monkeypatch.setattr(pipeline, "_FORK_MIN_BYTES", 0)
    records = ingest_cam_csv(path, CAM_MAP)
    next(records)
    records.close()
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_read_without_a_pipe_stays_in_one_process(tmp_path, monkeypatch, small_cells):
    path = write(tmp_path, HEADER + hostile_half(0) + hostile_half(100))

    def no_pipe():
        raise OSError(errno.EMFILE, "Too many open files")

    monkeypatch.setattr(os, "pipe", no_pipe)
    forked, serial, _ = forked_and_serial(path, monkeypatch, forks=0)
    assert forked == serial


def test_a_split_in_the_header_reads_in_one_process(tmp_path, monkeypatch):
    header = HEADER.strip() + "," + "x" * 200 + "\n"
    path = write(tmp_path, header + good(0) + good(1))
    forked, serial, _ = forked_and_serial(path, monkeypatch, forks=0)
    assert forked == serial
    assert len(serial[0]) == 2


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(cli.config_from_args(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_a_run_forks_once_for_each_large_csv_and_warns_once(tmp_path, monkeypatch):
    header = HEADER.replace(",has_static", "")
    rows = "".join(good(i).replace(",false", "") for i in range(200))
    argv = ["--mode=cam", "--format=json",
            *(f"--input={write(tmp_path, header + rows, name)}" for name in ("a.csv", "b.csv"))]
    forks = count_forks(monkeypatch)
    monkeypatch.setattr(pipeline, "_FORK_MIN_BYTES", 0)
    forked = run_cli(argv)
    assert len(forks) == 2
    monkeypatch.setattr(pipeline, "_FORK_MIN_BYTES", 10 ** 12)
    assert run_cli(argv) == forked
    assert forked[2] == ("WARN no static-member column mapped; "
                         "treating every class as static-free\n")


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_the_benchmark_csv_is_read_in_two_processes(tmp_path, monkeypatch):
    # The `cam` workload's CSV, at its full size and seed: a threshold above
    # its size, or a split check that never matches, reads it in one process.
    inputs = load_workloads().make_cam(str(tmp_path), 102, 40_000)
    assert os.path.getsize(inputs.cam_csv) == 2_736_001
    argv = ["--mode=cam", f"--input={inputs.cam_csv}", f"--cam-map={inputs.cam_map}",
            "--format=json"]
    built = count_parent_rows(monkeypatch)
    forks = count_forks(monkeypatch)
    forked = run_cli(argv)
    assert len(forks) == 1
    assert len(built) < 0.6 * 40_000
    monkeypatch.setattr(pipeline, "_FORK_MIN_BYTES", 10 ** 12)
    assert run_cli(argv) == forked
    assert forked[0] == 0
