"""The scripts under ``scripts/`` run against the current library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


@pytest.mark.parametrize(
    "script,args",
    [
        ("sequence_table.py", ["--max", "8", "--orders", "2", "5", "7"]),
        ("growth_gallery.py", ["--steps", "1"]),
    ],
)
def test_script_runs(script, args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
