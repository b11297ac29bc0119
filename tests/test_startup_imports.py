"""What `import classaudit.cli` loads, and the runs that load the rest.

A fresh interpreter's start-up is most of a small audit, so modules that
only some runs use are imported where those runs use them: ``json`` when a
``--cam-map`` is read or ``--format=json`` is written, ``csv`` when a CAM
CSV is read, ``pickle`` when a large ingest forks. The records are
plain slotted classes, so ``dataclasses`` (and ``inspect``, which it
imports) is not loaded at all.
"""

import json
import subprocess
import sys

from conftest import child_env

DEFERRED = {"dataclasses", "inspect", "json", "csv", "pickle"}


def run_child(args, **kwargs):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=child_env(), timeout=60, **kwargs)


def test_cli_import_loads_no_deferred_module():
    # Diffing sys.modules leaves out what the interpreter's own start-up
    # (site hooks included) loaded before the import.
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import classaudit.cli\n"
              "print(*sorted(set(sys.modules) - before))\n")
    done = run_child(["-c", script])
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "classaudit.cli" in loaded
    assert not loaded & DEFERRED


def test_fresh_json_run_writes_json(corpus_dir):
    done = run_child(["-m", "classaudit.cli", "--mode=source", f"--input={corpus_dir}",
                      "--format=json"])
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["pipeline"]["input"] == 9


def test_fresh_cam_run_reads_its_map(tmp_path):
    # The name column is `cls`, which only the map binds: a run that ignored
    # the map would stop at a MissingColumn for `class_name`.
    csv_path = tmp_path / "cam.csv"
    csv_path.write_text(
        "cls,lcom5,nhd,cc,coco,acoco,mxcoco,mncoco,loc,blanks\n"
        + "".join(f"p.C{i}Manager,0.5,0.7,3,4,2.0,3,1,{100 + i},10\n" for i in range(5))
    )
    cam_map = tmp_path / "map.json"
    cam_map.write_text(json.dumps({"name": "cls"}))
    done = run_child(["-m", "classaudit.cli", "--mode=cam", f"--input={csv_path}",
                      f"--cam-map={cam_map}", "--format=json"])
    assert done.returncode == 0, done.stderr
    eror = next(r for r in json.loads(done.stdout)["size"] if r["group"] == "ErOr")
    assert eror["classes"] == 5
