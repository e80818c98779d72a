"""Every demo script runs to completion against the package in ``src``."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_exits_cleanly(path, tmp_path):
    # The demos assert their own results; any failure shows as a nonzero exit.
    # A demo may use the temporary directory but must leave it empty.
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    out = subprocess.run(
        [sys.executable, path],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": SRC, "TMPDIR": str(tmpdir)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert list(tmpdir.iterdir()) == []
