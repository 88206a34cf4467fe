import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hrd.perm import Permutation

from oracles import baxter_pair_scan


@pytest.fixture(autouse=True)
def _isolated_memo(tmp_path, monkeypatch):
    monkeypatch.setenv("HRD_MEMO_DIR", str(tmp_path / "memo"))


@pytest.fixture(scope="session")
def baxter_by_n():
    """All Baxter permutations for n = 1..7, computed by exhaustive filter."""
    out = {}
    for n in range(1, 8):
        out[n] = [
            Permutation(tup)
            for tup in itertools.permutations(range(1, n + 1))
            if baxter_pair_scan(tup)
        ]
    return out
