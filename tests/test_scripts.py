"""The scripts under ``scripts/`` run against the current library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from hrd._recurrences import OPERATORS

ROOT = Path(__file__).parent.parent


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize(
    "script,args",
    [
        ("sequence_table.py", ["--max", "8", "--orders", "2", "5", "7"]),
        ("growth_gallery.py", ["--steps", "1"]),
    ],
)
def test_script_runs(script, args):
    result = _run(script, *args)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_derive_recurrences_reproduces_the_committed_entry(tmp_path):
    out = tmp_path / "operators.py"
    # class 5 is the operator the damaged-operator tests and ``count --k 5`` rely on
    result = _run("derive_recurrences.py", "--classes", "2", "5", "--out", str(out))
    assert result.returncode == 0, result.stderr
    namespace = {}
    exec(out.read_text(), namespace)
    assert namespace["OPERATORS"] == {2: OPERATORS[2], 5: OPERATORS[5]}
