"""Every demo runs to completion under ``python -X dev``, which also
reports files left open as ResourceWarnings, and leaves no temporary
file behind."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cvilab

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_clean(demo, tmp_path):
    # As in the rerun criterion: the child imports the cvilab this suite
    # imported, whatever the inherited PYTHONPATH.
    package_root = str(Path(cvilab.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    proc = subprocess.run(
        [sys.executable, "-X", "dev", str(demo)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath, TMPDIR=str(scratch)),
        cwd=tmp_path,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ResourceWarning" not in proc.stderr
    assert list(scratch.iterdir()) == []
