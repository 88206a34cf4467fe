"""The committed P-recursions of ``hrd._recurrences``: each passes its exact
certificate, the module is what the script writes, and the count table they
drive equals the convolution.  A fresh process loads them only for a long
table, and loads only the layers its ``hrd`` command runs."""

import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hrd import counting
from hrd._recurrences import OPERATORS
from hrd.counting import _convolve, _operator, _recur, sequence, skeleton_counts

from oracles import recur_by_polynomials

ROOT = Path(__file__).parent.parent


def _load_script():
    spec = importlib.util.spec_from_file_location("derive_recurrences", ROOT / "scripts" / "derive_recurrences.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


derive = _load_script()


def test_the_required_classes_are_committed():
    assert {2, 5, 7, 8, 9} <= set(OPERATORS)
    for c in OPERATORS:
        assert c == max(skeleton_counts(c), default=2)


@pytest.mark.parametrize("c", sorted(OPERATORS))
def test_every_committed_operator_is_certified(c):
    assert derive.certify(c, _operator(c))


def test_the_certificate_rejects_a_damaged_operator():
    n0, diffs = _operator(5)
    damaged = [list(D) for D in diffs]
    damaged[2][3] += 1
    assert not derive.certify(5, (n0, tuple(map(tuple, damaged))))
    # a start below the order would index t at n <= 0
    assert not derive.certify(5, (len(diffs) - 2, diffs))


def test_no_root_from():
    # (n - 3)(n + 2)
    assert not derive.no_root_from((-6, -1, 1), 0)
    assert derive.no_root_from((-6, -1, 1), 4)
    assert derive.no_root_from((5, 0, 1), -10)


def test_equal_to_the_convolution_for_every_order_to_300():
    for k in range(2, 14):
        assert sequence(k, 300) == _convolve(skeleton_counts(k), 300)[1:], k


@pytest.mark.parametrize("c", sorted(OPERATORS))
def test_the_packed_route_equals_the_reference_stepping(c):
    n0, diffs = _operator(c)
    start = _convolve(skeleton_counts(c), n0)
    for n in (n0 + 1, counting._CONVOLVED + 1, 1000, 2000):
        expected, packed = list(start), list(start)
        recur_by_polynomials(expected, diffs, n)
        _recur(packed, diffs, n)
        assert packed == expected, n
        assert sequence(c, n) == expected[1:], n


def _random_operator(rng, r):
    """Differences for p_0..p_{r-1} and p_r = +-1, so every division is exact.

    Either the p_i have mixed-sign differences of random lengths, or they are
    constants of either sign whose largest, 2^(8m - 1) - 1, fills a slot of
    m bytes up to its sign bit."""
    lead = (rng.choice((-1, 1)),) + (0,) * rng.randint(0, 3)
    if rng.random() < 0.3:
        top = (1 << 8 * rng.randint(1, 4) - 1) - 1
        return tuple((rng.choice((-top, top, rng.randint(-top, top))),) for _ in range(r)) + (lead,)
    bits = rng.choice((3, 40, 200))
    return tuple(tuple(rng.randint(-(1 << bits), 1 << bits) for _ in range(rng.randint(1, 12))) for _ in range(r)) + (lead,)


def test_the_packed_route_equals_the_reference_on_random_operators():
    # negative slots borrow from the slot above, and values reach the width bound
    rng = random.Random(22)
    for _ in range(200):
        r, n_max = rng.randint(1, 8), rng.randint(10, 200)
        diffs = _random_operator(rng, r)
        start = [rng.randint(-(1 << 30), 1 << 30) for _ in range(r)]
        expected, packed = list(start), list(start)
        recur_by_polynomials(expected, diffs, n_max)
        _recur(packed, diffs, n_max)
        assert packed == expected, (diffs, start, n_max)
        assert len(packed) == n_max + 1


def test_the_certificate_catches_damage_the_division_cannot(monkeypatch):
    # p_r = 1 keeps every division exact, so the recurrence returns wrong
    # counts without an error; only the certificate rejects the operator
    n0, diffs = _operator(5)
    damaged = diffs[:-1] + ((1,) + (0,) * (len(diffs[-1]) - 1),)
    assert not derive.certify(5, (n0, damaged))
    monkeypatch.setattr(counting, "_operator", lambda c: (n0, damaged) if c == 5 else None)
    wrong = sequence(5, counting._CONVOLVED + 1)
    assert wrong[:n0] == _convolve(skeleton_counts(5), n0)[1:]
    assert wrong != _convolve(skeleton_counts(5), counting._CONVOLVED + 1)[1:]


def test_the_committed_module_is_what_the_script_writes():
    # no hand edits: decoding every class and writing it back gives the same bytes
    module = ROOT / "src" / "hrd" / "_recurrences.py"
    assert derive.module_text({c: _operator(c) for c in OPERATORS}) == module.read_text()


def test_a_class_is_decoded_once():
    # the decoded entry is cached: every table of the class steps the same one
    assert _operator(5) is _operator(5)
    assert _operator(3) is None


def test_a_damaged_operator_raises_instead_of_returning_a_count(monkeypatch):
    n0, diffs = _operator(5)
    damaged = [list(D) for D in diffs]
    damaged[0][1] += 1
    entry = (n0, tuple(map(tuple, damaged)))
    monkeypatch.setattr(counting, "_operator", lambda c: entry if c == 5 else None)
    with pytest.raises(ArithmeticError):
        sequence(5, counting._CONVOLVED + 1)


def _fresh(code):
    """Run ``code`` in a fresh interpreter with ``src`` on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_short_tables_do_not_load_the_operators():
    _fresh(
        "import sys\n"
        "import hrd.counting as c\n"
        "assert 'hrd._recurrences' not in sys.modules\n"
        "assert c.sequence(9, 1) == [1]\n"
        "assert 'hrd._recurrences' not in sys.modules\n"
        f"c.sequence(9, {counting._CONVOLVED + 1})\n"
        "assert 'hrd._recurrences' in sys.modules\n"
    )


# what each start-up loads: the hrd modules, and dataclasses if it was loaded
_LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] in ('hrd', 'dataclasses')))\n"


def test_importing_the_cli_loads_no_layer():
    assert _fresh("import sys\nimport hrd.cli\n" + _LOADED) == "['hrd', 'hrd.cli']\n"


@pytest.mark.parametrize(
    "argv,out,loaded",
    [
        (["check", "baxter", "2", "4", "1", "3"], "false", ["hrd", "hrd.cli", "hrd.perm"]),
        (["count", "--k", "5", "--n", "40", "--no-memo"], "36124518729790881708258069274", ["hrd", "hrd.cli", "hrd.counting"]),
        (["census", "--len", "7"], "12", ["hrd", "hrd.cli", "hrd.perm"]),
        (["check", "ihrd", "25314"], "true", ["hrd", "hrd.cli", "hrd.perm"]),
        (
            ["lowerbound", "--k", "5", "--n", "6", "--seed", "41352"],
            "seed=41352 k=5 n=6 family=3 expected=3 all_baxter=True all_hrd_k=True none_hrd_k-1=True",
            ["hrd", "hrd.cli", "hrd.gentree", "hrd.lowerbound", "hrd.perm"],
        ),
    ],
)
def test_a_command_loads_only_its_layer(argv, out, loaded):
    code = f"import sys\nimport hrd.cli\nhrd.cli.run({argv!r})\n" + _LOADED
    assert _fresh(code) == f"{out}\n{loaded!r}\n"
