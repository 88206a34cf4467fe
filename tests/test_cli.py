import random
import re
import shlex
import sys
import time
from pathlib import Path

import pytest

import hrd.floorplan
from hrd import gentree, lowerbound
from hrd.cli import run
from hrd.counting import load_table, memo_dir
from hrd.perm import Permutation, census_simple_baxter, is_ihrd
from hrd.floorplan import bp2fp, format_floorplan, parse_floorplan, fp2bp
from hrd.gentree import perm_of_tree

from oracles import inflate_entry, odd_up_even_down, parse_tree, slicing_chain


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def wheel_file(tmp_path):
    path = tmp_path / "wheel.fp"
    path.write_text(format_floorplan(bp2fp(Permutation.parse("41352"))))
    return str(path)


class TestCheck:
    def test_baxter_false_exits_one(self, capsys):
        code, out, _ = invoke(capsys, "check", "baxter", "2 4 1 3")
        assert code == 1 and out == "false\n"

    def test_baxter_true_exits_zero(self, capsys):
        code, out, _ = invoke(capsys, "check", "baxter", "41352")
        assert code == 0 and out == "true\n"

    def test_hrd_with_flag_after_kind(self, capsys):
        code, out, _ = invoke(capsys, "check", "hrd", "--k", "4", "41352")
        assert code == 1 and out == "false\n"
        code, out, _ = invoke(capsys, "check", "hrd", "--k", "5", "41352")
        assert code == 0 and out == "true\n"

    def test_simple_and_ihrd(self, capsys):
        assert invoke(capsys, "check", "simple", "3421")[0] == 1
        assert invoke(capsys, "check", "ihrd", "25314")[0] == 0

    def test_hrd_requires_k(self, capsys):
        code, _, err = invoke(capsys, "check", "hrd", "41352")
        assert code == 2 and "k" in err

    def test_malformed_perm_is_a_parse_error(self, capsys):
        code, _, err = invoke(capsys, "check", "baxter", "1 2 2")
        assert code == 2 and "error" in err
        # int() alone would read 1_0 as 10 and accept the permutation
        assert invoke(capsys, "check", "baxter", "2 1_0 3 4 5 6 7 8 9 1") == (
            2,
            "",
            "error: malformed permutation text: '2 1_0 3 4 5 6 7 8 9 1'\n",
        )

    def test_baxter_worst_case_from_file(self, capsys, tmp_path):
        # the slowest input for a scan over value pairs: quadratic there,
        # linear for the corner insertions that is_baxter runs
        n = 20_000
        chain = odd_up_even_down(n)
        bad = inflate_entry(chain, n // 3, (2, 4, 1, 3))
        path = tmp_path / "chain.txt"
        start = time.perf_counter()
        for vals, expected in ((chain, (0, "true\n", "")), (bad, (1, "false\n", ""))):
            path.write_text(" ".join(map(str, vals)))
            assert invoke(capsys, "check", "baxter", "--file", str(path)) == expected
        assert time.perf_counter() - start < 3.0

    @pytest.mark.parametrize(
        "kind, make, expected",
        [
            ("hrd", lambda n: perm_of_tree(slicing_chain(n, Permutation.parse("21"), first=True)).values, "true\n"),
            ("hrd", odd_up_even_down, "true\n"),
            ("simple", lambda n: tuple(random.Random(n).sample(range(1, n + 1), n)), "false\n"),
        ],
        ids=["first-child-chain", "odd-up-even-down", "random"],
    )
    def test_decomposition_is_linear_on_large_inputs(self, capsys, tmp_path, kind, make, expected):
        # quadratic for a top-down walk that splits each node by a scan:
        # tens of seconds at this size
        path = tmp_path / "p.txt"
        path.write_text(" ".join(map(str, make(20_000))))
        args = ("check", kind, "--k", "2") if kind == "hrd" else ("check", kind)
        start = time.perf_counter()
        assert invoke(capsys, *args, "--file", str(path)) == (0 if expected == "true\n" else 1, expected, "")
        assert time.perf_counter() - start < 3.0

    def test_perm_from_file(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("4 1 3 5 2\n")
        code, out, _ = invoke(capsys, "check", "baxter", "--file", str(path))
        assert code == 0 and out == "true\n"

    def test_deep_tree_is_printed(self, capsys, tmp_path):
        # a chain 1499 levels deep, past Python's default recursion limit
        path = tmp_path / "identity.txt"
        path.write_text(" ".join(map(str, range(1, 1501))))
        code, out, err = invoke(capsys, "tree", "--k", "2", "--file", str(path))
        assert code == 0 and err == ""
        assert perm_of_tree(parse_tree(out)) == Permutation(tuple(range(1, 1501)))

    def test_deep_nesting_is_checked(self, capsys, tmp_path):
        path = tmp_path / "identity.txt"
        path.write_text(" ".join(map(str, range(1, 1501))))
        assert invoke(capsys, "check", "hrd", "--k", "2", "--file", str(path)) == (0, "true\n", "")


class TestCount:
    def test_order_five_base_case(self, capsys):
        code, out, _ = invoke(capsys, "count", "--k", "5", "--n", "1")
        assert code == 0 and out == "1\n"

    def test_engines_agree(self, capsys):
        code, out, _ = invoke(capsys, "count", "--k", "5", "--n", "7")
        assert code == 0 and out == "2062\n"

    def test_reference_routes_are_not_options(self, capsys):
        for flag in ("--oracle", "--literal", "--force"):
            code, _, err = invoke(capsys, "count", "--k", "5", "--n", "7", flag)
            assert code == 2 and flag in err

    def test_memo_and_no_memo_agree(self, capsys):
        a = invoke(capsys, "count", "--k", "5", "--n", "20")
        b = invoke(capsys, "count", "--k", "5", "--n", "20", "--no-memo")
        c = invoke(capsys, "count", "--k", "5", "--n", "20")
        assert a == b == c

    def test_tampered_memo_is_recomputed(self, capsys):
        invoke(capsys, "count", "--k", "5", "--n", "30")
        path = memo_dir() / "count-table-k5.txt"
        lines = path.read_text().splitlines()
        m, t = lines[-1].split()
        lines[-1] = f"{m} {int(t) + 1}"
        path.write_text("\n".join(lines) + "\n")
        assert load_table(5) is None
        fresh = invoke(capsys, "count", "--k", "5", "--n", "30", "--no-memo")
        assert invoke(capsys, "count", "--k", "5", "--n", "30") == fresh

    def test_warm_memo_does_not_answer_invalid_sizes(self, capsys):
        invoke(capsys, "count", "--k", "5", "--n", "30")
        for argv in (("count", "--k", "5", "--n", "-3"),
                     ("count", "--k", "5", "--n", "0"),
                     ("sequence", "--k", "5", "--max", "-2")):
            code, out, err = invoke(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: ")

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int text limit")
    def test_counts_longer_than_the_int_text_limit(self, capsys):
        schroeder = [1, 2]  # large Schroeder numbers r_0, r_1, ...; t_n = r_{n-1}
        for m in range(2, 900):
            schroeder.append((3 * (2 * m - 1) * schroeder[-1] - (m - 2) * schroeder[-2]) // (m + 1))
        expected = f"{schroeder[899]}\n"
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = invoke(capsys, "count", "--k", "2", "--n", "900")
            limit_after = sys.get_int_max_str_digits()
        finally:
            sys.set_int_max_str_digits(old)
        assert (code, err) == (0, "")
        assert out == expected and len(out) == 685
        assert limit_after == 640

    def test_unwritable_memo_is_skipped(self, capsys, tmp_path, monkeypatch):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("HRD_MEMO_DIR", str(blocker / "memo"))
        assert invoke(capsys, "count", "--k", "5", "--n", "10") == (0, "296078\n", "")
        assert invoke(capsys, "sequence", "--k", "2", "--max", "3") == (0, "1\n2\n6\n", "")

    def test_order_beyond_census_cap(self, capsys):
        code, out, _ = invoke(capsys, "count", "--k", "11", "--n", "20", "--no-memo")
        assert code == 0 and out == "24535415330662\n"


class TestSequence:
    def test_plain_output(self, capsys):
        code, out, _ = invoke(capsys, "sequence", "--k", "2", "--max", "5")
        assert code == 0 and out.split() == ["1", "2", "6", "22", "90"]

    def test_csv_output(self, capsys):
        code, out, _ = invoke(capsys, "sequence", "--k", "5", "--max", "5", "--csv")
        assert code == 0
        assert out.splitlines() == ["1,1", "2,2", "3,6", "4,22", "5,92"]

    def test_deterministic(self, capsys):
        first = invoke(capsys, "sequence", "--k", "5", "--max", "12")
        second = invoke(capsys, "sequence", "--k", "5", "--max", "12")
        assert first == second


class TestCensus:
    def test_count_only(self, capsys):
        code, out, _ = invoke(capsys, "census", "--len", "6")
        assert code == 0 and out == "0\n"

    def test_list(self, capsys):
        code, out, _ = invoke(capsys, "census", "--len", "5", "--list")
        assert out.splitlines() == ["2", "2 5 3 1 4", "4 1 3 5 2"]

    def test_cap_exits_three(self, capsys):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "census", "--len", "12")
        assert (code, out) == (3, "") and "cap 11" in err
        assert time.perf_counter() - start < 1.0

    def test_force_is_not_an_option(self, capsys):
        code, _, err = invoke(capsys, "census", "--len", "5", "--force")
        assert code == 2 and "--force" in err


class TestFloorplanCommands:
    def test_fp2bp(self, capsys, wheel_file):
        code, out, _ = invoke(capsys, "fp2bp", wheel_file)
        assert code == 0 and out == "4 1 3 5 2\n"

    def test_bp2fp_emits_parseable_floorplan(self, capsys):
        code, out, _ = invoke(capsys, "bp2fp", "41352")
        assert code == 0
        f = parse_floorplan(out)
        assert f.n == 5 and fp2bp(f) == Permutation.parse("41352")

    def test_bp2fp_rejects_non_baxter(self, capsys):
        code, _, err = invoke(capsys, "bp2fp", "2413")
        assert code == 2

    def test_render(self, capsys, wheel_file):
        code, out, _ = invoke(capsys, "render", wheel_file)
        assert code == 0
        for rid in "12345":
            assert rid in out

    def test_render_ranks_spaced_coordinates(self, capsys, tmp_path):
        path = tmp_path / "spaced.fp"
        path.write_text(
            "20 25 7\n123 4 3 17 11\n70 0 0 17 3\n9 9 14 20 25\n8 0 3 4 25\n"
            "55 9 11 17 14\n16 17 0 20 14\n4 4 11 9 25\n"
        )
        code, out, _ = invoke(capsys, "render", str(path))
        assert code == 0
        assert out == (
            "+-----------------+-----+\n"
            "|       70        |     |\n"
            "+-----+-----------+     |\n"
            "|     |    123    | 16  |\n"
            "|     +-----+-----+     |\n"
            "|  8  |     | 55  |     |\n"
            "|     |  4  +-----+-----+\n"
            "|     |     |     9     |\n"
            "+-----+-----+-----------+\n"
        )

    @pytest.mark.parametrize("rid", ["123456789", "12345678"])
    def test_render_widens_cells_for_long_ids(self, capsys, tmp_path, rid):
        path = tmp_path / "long.fp"
        path.write_text(f"1 1 1\n{rid} 0 0 1 1\n")
        code, out, _ = invoke(capsys, "render", str(path))
        assert code == 0
        top, middle, bottom = out.splitlines()
        assert middle.startswith("|" + rid) and middle.endswith("|")
        assert top == bottom == "+" + "-" * (len(middle) - 2) + "+"

    def test_room_line_takes_ascii_integers_only(self, capsys, tmp_path):
        path = tmp_path / "underscore.fp"
        path.write_text("10 1 1\n1 0 0 1_0 1\n")
        assert invoke(capsys, "fp2bp", str(path)) == (
            2,
            "",
            "error: line 2: room line must be five integers: id x1 y1 x2 y2\n",
        )

    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, "fp2bp", "/nonexistent/file.fp")
        assert code == 2

    def test_invalid_floorplan_file(self, capsys, tmp_path):
        path = tmp_path / "bad.fp"
        path.write_text("2 2 4\n1 0 0 1 1\n2 1 0 2 1\n3 0 1 1 2\n4 1 1 2 2\n")
        code, _, err = invoke(capsys, "fp2bp", str(path))
        assert code == 2 and "junction" in err

    @pytest.mark.parametrize("command", ["fp2bp", "render"])
    def test_shifted_room_is_an_overlap(self, capsys, tmp_path, command):
        # a row of three unit rooms with the third shifted one unit left:
        # the area is right, but rooms 2 and 3 overlap and (2,0)-(3,1) is bare
        path = tmp_path / "shifted.fp"
        path.write_text("3 1 3\n1 0 0 1 1\n2 1 0 2 1\n3 1 0 2 1\n")
        code, _, err = invoke(capsys, command, str(path))
        assert code == 2 and "overlap" in err and "(1,0)" in err

    @pytest.mark.parametrize("command", ["fp2bp", "render", "grow-ihrd"])
    def test_checks_the_geometry_once(self, capsys, tmp_path, monkeypatch, command):
        calls = []
        diagnose = hrd.floorplan.diagnose

        def counted(f):
            calls.append(f)
            return diagnose(f)

        monkeypatch.setattr(hrd.floorplan, "diagnose", counted)
        path = tmp_path / "ihrd7.fp"
        path.write_text(format_floorplan(bp2fp(census_simple_baxter(7)[0])))
        assert invoke(capsys, command, str(path))[0] == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["fp2bp", "render", "grow-ihrd"])
    @pytest.mark.parametrize(
        "text, defect",
        [
            ("2 1 2\n1 0 0 1 1\n7 1 0 3 1\n", "room 7: rectangle (1,0)-(3,1) is not a proper box inside the bounds"),
            ("2 1 2\n1 0 0 1 1\n1 1 0 2 1\n", "duplicate room id 1"),
        ],
        ids=["outside-the-box", "duplicate-id"],
    )
    def test_geometry_errors_are_the_library_message(self, capsys, tmp_path, command, text, defect):
        path = tmp_path / "bad.fp"
        path.write_text(text)
        assert invoke(capsys, command, str(path)) == (2, "", f"error: invalid mosaic floorplan: {defect}\n")


class TestDecomposeAndTree:
    def test_decompose(self, capsys):
        code, out, _ = invoke(capsys, "decompose", "451362")
        assert code == 0
        assert out.splitlines()[0] == "skeleton 4 1 3 5 2"
        assert out.splitlines()[1] == "child 1 2"

    def test_tree(self, capsys):
        code, out, _ = invoke(capsys, "tree", "451362", "--k", "5")
        assert code == 0 and out == "(41352 (12 . .) . . . .)\n"

    def test_tree_failure_exits_one(self, capsys):
        code, out, _ = invoke(capsys, "tree", "41352", "--k", "4")
        assert code == 1 and "skeleton" in out
        code, out, _ = invoke(capsys, "tree", "2413", "--k", "5")
        assert code == 1 and "Baxter" in out

    def test_tree_order_errors_keep_their_exit_codes(self, capsys):
        code, out, err = invoke(capsys, "tree", "41352", "--k", "1")
        assert (code, out) == (2, "") and "order k must be >= 2" in err
        assert invoke(capsys, "tree", "2413", "--k", "1") == (1, "no order-1 tree: not a Baxter permutation\n", "")

    def test_no_whole_permutation_baxter_scan(self, capsys):
        # the walk and bp2fp's insertions decide Baxter; neither gentree nor
        # floorplan binds is_baxter
        assert not hasattr(gentree, "is_baxter")
        assert not hasattr(hrd.floorplan, "is_baxter")
        wheel = "4 3 6\n1 0 0 1 2\n2 1 0 4 1\n3 1 1 3 2\n4 0 2 2 3\n5 2 2 3 3\n6 3 1 4 3\n"
        assert invoke(capsys, "tree", "451362", "--k", "5") == (0, "(41352 (12 . .) . . . .)\n", "")
        assert invoke(capsys, "check", "hrd", "--k", "5", "451362") == (0, "true\n", "")
        assert invoke(capsys, "bp2fp", "451362") == (0, wheel, "")
        assert invoke(capsys, "lowerbound", "--k", "5", "--n", "7", "--seed", "41352") == (
            0,
            "seed=41352 k=5 n=7 family=9 expected=9 all_baxter=True all_hrd_k=True none_hrd_k-1=True\n",
            "",
        )
        # 124635 is 1 (+) 1 (+) 2413: the walk meets the 2413 two levels down
        for perm in ("2413", "124635"):
            assert invoke(capsys, "bp2fp", perm) == (2, "", "error: bp2fp requires a Baxter permutation\n")
            assert invoke(capsys, "check", "hrd", "--k", "5", perm) == (1, "false\n", "")
            assert invoke(capsys, "tree", perm, "--k", "5") == (1, "no order-5 tree: not a Baxter permutation\n", "")


class TestLowerboundCommand:
    def test_report(self, capsys):
        code, out, _ = invoke(capsys, "lowerbound", "--k", "5", "--n", "7", "--seed", "41352")
        assert code == 0
        assert out == (
            "seed=41352 k=5 n=7 family=9 expected=9 "
            "all_baxter=True all_hrd_k=True none_hrd_k-1=True\n"
        )

    def test_default_seed_is_first_census_entry(self, capsys):
        code, out, _ = invoke(capsys, "lowerbound", "--k", "5", "--n", "6")
        assert code == 0 and out.startswith("seed=41352 ")

    def test_default_seed_needs_no_census(self, capsys):
        start = time.perf_counter()
        code, out, _ = invoke(capsys, "lowerbound", "--k", "10", "--n", "10")
        assert code == 0 and " k=10 n=10 family=1 expected=1 " in out
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("k", [1, 3, 4, 6])
    def test_no_default_seed_of_lengths_without_skeletons(self, capsys, k):
        code, out, err = invoke(capsys, "lowerbound", "--k", str(k), "--n", "6")
        assert (code, out) == (2, "") and "no irreducible seed" in err

    def test_default_seed_beyond_the_census_cap(self, capsys):
        code, out, _ = invoke(capsys, "lowerbound", "--k", "11", "--n", "12")
        assert code == 0
        assert " k=11 n=12 family=3 expected=3 " in out and out.rstrip().endswith("none_hrd_k-1=True")

    def test_cap_is_checked_before_the_default_seed_is_grown(self, capsys, monkeypatch):
        def no_seed(k):
            raise AssertionError(f"grown_seed({k}) was called")

        monkeypatch.setattr(lowerbound, "grown_seed", no_seed)
        code, out, err = invoke(capsys, "lowerbound", "--k", "61", "--n", "80")
        assert (code, out) == (3, "") and "exceeds the cap 3^10" in err

    def test_force_is_not_an_option(self, capsys):
        code, _, err = invoke(capsys, "lowerbound", "--k", "5", "--n", "6", "--force")
        assert code == 2 and "--force" in err

    def test_all_sites_is_not_an_option(self, capsys):
        code, _, err = invoke(capsys, "lowerbound", "--k", "5", "--n", "6", "--seed", "41352", "--all-sites")
        assert code == 2 and "--all-sites" in err

    @pytest.mark.parametrize("extra", [("--n", "1100", "--seed", "41352"), ("--n", "16")])
    def test_family_over_the_cap_exits_three_at_once(self, capsys, extra):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "lowerbound", "--k", "5", *extra)
        assert code == 3 and out == "" and "cap" in err
        assert time.perf_counter() - start < 1.0


class TestGrowIhrdCommand:
    def test_grow_from_census_seed(self, capsys, tmp_path):
        seed = tmp_path / "ihrd7.fp"
        seed.write_text(format_floorplan(bp2fp(census_simple_baxter(7)[0])))
        code, out, _ = invoke(capsys, "grow-ihrd", str(seed))
        assert code == 0
        grown = parse_floorplan(out)
        assert grown.n == 9 and is_ihrd(fp2bp(grown))

    def test_rejects_wheel(self, capsys, wheel_file):
        code, _, err = invoke(capsys, "grow-ihrd", wheel_file)
        assert code == 2


def test_readme_examples_use_documented_options(capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    examples = [line.split("#")[0].split() for line in readme.splitlines() if line.startswith("hrd ")]
    assert examples
    for argv in examples:
        assert run([argv[1], "--help"]) == 0
        documented = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
        for opt in (tok for tok in argv[2:] if tok.startswith("--")):
            assert opt in documented, (argv, opt)


# README examples whose comment states an output: the words of the comment
# that state it, then the exit code and stdout the command gives
STATED_OUTPUTS = {
    'check baxter "2 4 1 3"': ("exit 1, prints false", 1, "false\n"),
    "check hrd --k 5 41352": ("exit 0, prints true", 0, "true\n"),
    "tree 451362 --k 5": ("(41352 (12 . .) . . . .)", 0, "(41352 (12 . .) . . . .)\n"),
    "fp2bp wheel.fp": ("4 1 3 5 2", 0, "4 1 3 5 2\n"),
    "count --k 11 --n 20": ("24535415330662", 0, "24535415330662\n"),
    "sequence --k 2 --max 7": ("1 2 6 22 90 394 1806, one per line", 0, "1\n2\n6\n22\n90\n394\n1806\n"),
    "census --len 5 --list": ("2, then 25314 and 41352", 0, "2\n2 5 3 1 4\n4 1 3 5 2\n"),
    "lowerbound --k 11 --n 12": (
        "family=3",
        0,
        "seed=2,4,6,10,7,5,3,1,9,11,8 k=11 n=12 family=3 expected=3 all_baxter=True all_hrd_k=True none_hrd_k-1=True\n",
    ),
}


def test_readme_examples_print_what_they_state(capsys, tmp_path, monkeypatch):
    """Each example runs in README order, in an empty directory, so that a
    file the README writes with ``>`` is there for the examples after it."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    monkeypatch.chdir(tmp_path)
    checked = set()
    for line in readme.splitlines():
        if not line.startswith("hrd "):
            continue
        command, _, comment = (part.strip() for part in line[4:].partition("#"))
        command, _, target = (part.strip() for part in command.partition(">"))
        if target:
            assert run(shlex.split(command)) == 0, command
            (tmp_path / target).write_text(capsys.readouterr().out)
        elif command in STATED_OUTPUTS:
            stated, code, out = STATED_OUTPUTS[command]
            assert stated in comment, (command, comment)
            assert invoke(capsys, *shlex.split(command)) == (code, out, ""), command
            checked.add(command)
    assert checked == set(STATED_OUTPUTS)


def test_usage_error_exits_two(capsys):
    assert run(["no-such-command"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--k", "5", "--n", "{}"),
        ("sequence", "--k", "5", "--max", "{}"),
        ("census", "--len", "{}"),
        ("check", "hrd", "--k", "{}", "41352"),
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("number", ["1_0", "١٠"], ids=["underscore", "arabic-indic"])
def test_integer_options_take_ascii_decimals_only(capsys, argv, number):
    """The integer options read what the text formats read: ``int`` would
    take ``1_0`` and Arabic-Indic ten, which the option rejects as a usage
    error, before any command runs."""
    code, out, err = invoke(capsys, *(tok.format(number) for tok in argv))
    assert (code, out) == (2, "")
    assert f"invalid int value: {number!r}" in err
