"""CLI surface: flags, exit codes, output routing."""

import io
import json
import subprocess
import sys

import pytest

from classaudit import pipeline
from classaudit.cli import RunConfig, config_from_args, main, run

from conftest import child_env, fixture_copies, refuse_listing


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    config = config_from_args(argv)
    code = run(config, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_source_mode_exit_zero(corpus_dir):
    code, out, err = run_cli(["--mode=source", f"--input={corpus_dir}"])
    assert code == 0
    assert "Group sizes" in out
    assert "\x1b[" not in out  # no styling when not a tty


def test_exit_one_on_bad_quantile_bounds(corpus_dir):
    out, err = io.StringIO(), io.StringIO()
    config = config_from_args(
        ["--mode=source", f"--input={corpus_dir}", "--q-low=0.9", "--q-high=0.1"]
    )
    assert run(config, out=out, err=err) == 1
    assert "error:" in err.getvalue()


def test_exit_one_on_missing_input(tmp_path):
    out, err = io.StringIO(), io.StringIO()
    config = RunConfig(mode="source", inputs=[str(tmp_path / "absent")])
    assert run(config, out=out, err=err) == 1
    assert "error:" in err.getvalue()


def test_exit_one_on_a_root_it_cannot_list(tmp_path, monkeypatch):
    (tmp_path / "A.java").write_text("class A { int x; void f() { x = 1; } }")
    refuse_listing(monkeypatch, tmp_path)
    code, out, err = run_cli(["--mode=source", f"--input={tmp_path}"])
    assert code == 1
    assert err.splitlines() == [f"error: [Errno 13] Permission denied: '{tmp_path}'"]


def test_a_subdirectory_it_cannot_list_counts_toward_the_skip_rate(tmp_path, monkeypatch):
    (tmp_path / "A.java").write_text("class A { int x; void f() { x = 1; } }")
    (tmp_path / "locked").mkdir()
    refuse_listing(monkeypatch, tmp_path / "locked")
    code, out, err = run_cli(["--mode=source", f"--input={tmp_path}"])
    assert code == 2  # 1 of 2 inputs skipped
    assert err.splitlines() == [f"SKIP {tmp_path / 'locked'}:0 [Errno 13] Permission denied: "
                                f"'{tmp_path / 'locked'}'"]


def test_exit_two_on_high_skip_rate(tmp_path):
    good = tmp_path / "Good.java"
    good.write_text("class Good { int x; void f() { x = 1; } void g() { x = 2; } }")
    for i in range(3):
        (tmp_path / f"Bad{i}.java").write_text("class Bad { {")
    code, out, err = run_cli(["--mode=source", f"--input={tmp_path}"])
    assert code == 2
    assert err.count("SKIP") == 3


def test_diagnostics_file(tmp_path):
    (tmp_path / "Bad.java").write_text("class Bad { {")
    (tmp_path / "Ok.java").write_text("class Ok { int x; void f() { x = 1; } void g() { x = 0; } }")
    diag_path = tmp_path / "diag.txt"
    code, out, err = run_cli(
        ["--mode=source", f"--input={tmp_path}", f"--diagnostics={diag_path}"]
    )
    assert "SKIP" not in err
    assert "SKIP" in diag_path.read_text()


def test_excluded_to_drop_changes_grouping(corpus_dir):
    _, keep_out, _ = run_cli(["--mode=source", f"--input={corpus_dir}", "--format=json"])
    _, drop_out, _ = run_cli(
        ["--mode=source", f"--input={corpus_dir}", "--format=json", "--excluded-to=drop"]
    )
    keep = json.loads(keep_out)
    drop = json.loads(drop_out)
    rest_keep = next(r for r in keep["size"] if r["group"] == "Rest")
    rest_drop = next(r for r in drop["size"] if r["group"] == "Rest")
    # Calculator and Color leave Rest under the drop policy
    assert rest_keep["classes"] - rest_drop["classes"] == 2
    assert drop["pipeline"]["dropped_label"] == keep["pipeline"]["dropped_label"] + 2


def test_rules_file_flag(tmp_path, corpus_dir):
    rules = tmp_path / "rules.txt"
    rules.write_text("[exclude]\nManager\n")
    _, out, _ = run_cli(
        ["--mode=source", f"--input={corpus_dir}", "--format=json", f"--rules={rules}"]
    )
    doc = json.loads(out)
    eror = next(r for r in doc["size"] if r["group"] == "ErOr")
    rest = next(r for r in doc["size"] if r["group"] == "Rest")
    # the file replaces the exclusion list: TaskManager is now excluded,
    # while Color and Calculator stop being excluded and join ErOr
    assert eror["classes"] == 4
    assert rest["classes"] == 2


@pytest.mark.parametrize("content, message", [
    (b"[utils]\nHelper\n[eror]\nFoo\n",
     ":3: unknown section [eror], expected [utils] or [exclude]"),
    (b"[utils]\r\nHelper\fKit\r\n[eror]\r\n",
     ":3: unknown section [eror], expected [utils] or [exclude]"),
    (b"# comment\nHelper\n[utils]\nKit\n", ":2: suffix 'Helper' before any section header"),
    (b"[exclude]\nLogger\n\nLogger\n", ":4: repeated exclusion suffix 'Logger'"),
    (b"[utils]\n\xff\n", ": 'utf-8' codec can't decode byte 0xff in position 8: invalid start byte"),
], ids=["unknown_header", "crlf_and_form_feed", "suffix_before_header", "repeated_exclusion",
         "not_utf8"])
def test_rules_file_mistake_is_an_error_line(tmp_path, corpus_dir, capsys, content, message):
    rules = tmp_path / "rules.txt"
    rules.write_bytes(content)
    assert main(["--mode=source", f"--input={corpus_dir}", f"--rules={rules}"]) == 1
    assert capsys.readouterr() == ("", f"error: {rules}{message}\n")


@pytest.mark.parametrize("content, message", [
    (b'{"cc": ', "Expecting value: line 1 column 8 (char 7)"),
    (b'["cc", "cyclo"]', "--cam-map must be a JSON object of column names"),
    (b'{"cc": ["a"]}', "--cam-map must be a JSON object of column names"),
    (b'{"cc": "\xff"}', "'utf-8' codec can't decode byte 0xff in position 8: invalid start byte"),
    (b'{"statik": "static"}', "unknown --cam-map key 'statik'; the keys are name, lcom5, nhd, "
                              "cc, coco, acoco, mxcoco, mncoco, loc, blank and static"),
], ids=["not_json", "a_list", "a_list_value", "not_utf8", "misspelt_key"])
def test_bad_cam_map_is_an_error_line(tmp_path, capsys, content, message):
    csv_path = tmp_path / "cam.csv"
    csv_path.write_text("class_name,lcom5,nhd,cc,coco,acoco,mxcoco,mncoco,loc,blanks\n"
                        "p.CManager,0.5,0.7,3,4,2.0,3,1,100,10\n")
    cam_map = tmp_path / "map.json"
    cam_map.write_bytes(content)
    assert main(["--mode=cam", f"--input={csv_path}", f"--cam-map={cam_map}"]) == 1
    assert capsys.readouterr() == ("", f"error: {cam_map}: {message}\n")


def test_cam_row_with_empty_simple_name_is_a_skip_line(tmp_path, capsys):
    csv_path = tmp_path / "cam.csv"
    csv_path.write_text("class_name,lcom5,nhd,cc,coco,acoco,mxcoco,mncoco,loc,blanks\n"
                        + "".join(f"p.C{i}Manager,0.5,0.7,3,4,2.0,3,1,100,10\n" for i in range(10))
                        + "org.p.,0.5,0.7,3,4,2.0,3,1,100,10\n")
    assert main(["--mode=cam", f"--input={csv_path}"]) == 0
    err = capsys.readouterr().err
    assert f"SKIP {csv_path}:12 empty simple name in class name 'org.p.'\n" in err


def test_cam_mode_roundtrip(tmp_path):
    csv_path = tmp_path / "cam.csv"
    csv_path.write_text(
        "class_name,lcom5,nhd,cc,coco,acoco,mxcoco,mncoco,loc,blanks,static\n"
        + "".join(
            f"p.C{i}Manager,0.5,0.7,3,4,2.0,3,1,{100 + i},10,false\n"
            for i in range(20)
        )
    )
    cam_map = tmp_path / "map.json"
    cam_map.write_text(json.dumps({"static": "static"}))
    code, out, err = run_cli(
        ["--mode=cam", f"--input={csv_path}", f"--cam-map={cam_map}", "--format=json"]
    )
    assert code == 0
    doc = json.loads(out)
    eror = next(r for r in doc["size"] if r["group"] == "ErOr")
    assert eror["classes"] == 20
    assert doc["cohesion"][0]["lcom5"] == 0.5


def test_cam_mode_csv_not_utf8_is_an_error_line(tmp_path):
    csv_path = tmp_path / "cam.csv"
    csv_path.write_bytes(
        b"class_name,lcom5,nhd,cc,coco,acoco,mxcoco,mncoco,loc,blanks\n"
        b"p.C\xffManager,0.5,0.7,3,4,2.0,3,1,100,10\n"
    )
    code, out, err = run_cli(["--mode=cam", f"--input={csv_path}"])
    assert (code, out) == (1, "")
    assert err == f"error: {csv_path}:0: not valid UTF-8: byte 0xff, invalid start byte\n"


def test_two_csvs_without_a_static_column_warn_once(tmp_path):
    header = "class_name,lcom5,nhd,cc,coco,acoco,mxcoco,mncoco,loc,blanks\n"
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for i, path in enumerate(paths):
        path.write_text(header + f"p.C{i}Manager,0.5,0.7,3,4,2.0,3,1,100,10\n")
    code, out, err = run_cli(["--mode=cam", *(f"--input={path}" for path in paths),
                              "--format=json"])
    assert code == 0
    assert json.loads(out)["pipeline"]["input"] == 2
    assert err == ("WARN no static-member column mapped; "
                   "treating every class as static-free\n")


def test_multiple_inputs(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (a / "One.java").write_text("class One { int x; void f() { x = 1; } void g() { x = 2; } }")
    (b / "Two.java").write_text("class Two { int y; void f() { y = 1; } void g() { y = 2; } }")
    code, out, _ = run_cli(["--mode=source", f"--input={a}", f"--input={b}", "--format=json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["pipeline"]["input"] == 2


def test_installed_entry_point(corpus_dir, tmp_path):
    # The env is minimal on purpose; PYTHONPATH only points the child at the
    # classaudit this process imported.
    result = subprocess.run(
        [sys.executable, "-m", "classaudit.cli", "--mode=source", f"--input={corpus_dir}"],
        capture_output=True,
        text=True,
        env=child_env(AUDIT_NO_COLOR="1"),
    )
    assert result.returncode == 0
    assert "Group sizes" in result.stdout


def test_forked_run_with_stdout_piped_prints_one_report(tmp_path, monkeypatch):
    # The text printed before the run sits in the stdout buffer when the
    # ingest forks. A child that flushed the buffers it inherited would
    # print it twice. The child is given two CPUs on any host, and the
    # number of forks goes to stderr.
    fixture_copies(tmp_path, pipeline._FORK_MIN_FILES)
    script = (
        "import os, sys\n"
        "from classaudit import cli\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "fork, forks = os.fork, []\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "print('before the run')\n"
        "code = cli.main(sys.argv[1:])\n"
        "print('forks', len(forks), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    argv = ["--mode=source", f"--input={tmp_path}", "--format=json"]
    result = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                            text=True, env=child_env(), timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines()[-1] == "forks 1"
    first, report = result.stdout.split("\n", 1)
    assert first == "before the run"
    assert json.loads(report)["pipeline"]["input"] > pipeline._FORK_MIN_FILES
    monkeypatch.setattr(pipeline, "_FORK_MIN_FILES", 10 ** 9)
    assert run_cli(argv)[:2] == (0, report)


def test_main_rejects_unknown_format(corpus_dir, capsys):
    assert main(["--mode=source", f"--input={corpus_dir}", "--format=xml"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "--format" in err


def test_main_missing_mode_exits_one(corpus_dir, capsys):
    assert main([f"--input={corpus_dir}"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "--mode" in err


def test_main_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "--mode" in capsys.readouterr().out
