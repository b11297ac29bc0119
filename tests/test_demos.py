"""Every demo runs to completion and leaves nothing in the temp dir."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["classify_names", "corpus_study", "metrics_tour"])
def test_demo_runs_clean(name, tmp_path):
    result = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")],
        capture_output=True,
        text=True,
        env=child_env(TMPDIR=str(tmp_path)),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert list(tmp_path.iterdir()) == []
