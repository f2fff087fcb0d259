"""Every script under demos/ runs to completion against the library in src/.

Each demo is copied into a temporary directory and run there, so whatever
it writes next to itself lands in that directory, never in the repository.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


def repo_files():
    """(path, size, mtime) of every file under the repository but .git."""
    out = set()
    for dirpath, dirnames, filenames in os.walk(REPO):
        dirnames[:] = [d for d in dirnames if d != ".git"]
        for name in filenames:
            st = os.stat(os.path.join(dirpath, name))
            out.add((os.path.join(dirpath, name), st.st_size, st.st_mtime_ns))
    return out


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_and_writes_nothing_under_the_repo(tmp_path, demo):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONDONTWRITEBYTECODE="1")
    before = repo_files()
    run = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    assert repo_files() == before
