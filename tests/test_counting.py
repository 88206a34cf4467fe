import sys

import pytest

from hrd import CapExceeded
from hrd.counting import (
    ensure_table,
    load_table,
    memo_dir,
    save_table,
    sequence,
    skeleton_counts,
)
from hrd.perm import census_simple_baxter

from oracles import _composition_sum, count_hrd, count_hrd_literal, oracle_count

SCHROEDER = [1, 2, 6, 22, 90, 394, 1806]
ORDER5 = [1, 2, 6, 22, 92, 422, 2062, 10514]
BAXTER = [1, 2, 6, 22, 92, 422, 2074, 10754]
BAXTER_12 = BAXTER + [58202, 326240, 1882960, 11140560]  # OEIS A001181


class TestCensus:
    def test_fixture_values(self):
        assert len(census_simple_baxter(2)) == 2
        assert len(census_simple_baxter(3)) == 0
        assert len(census_simple_baxter(4)) == 0
        assert len(census_simple_baxter(5)) == 2
        assert len(census_simple_baxter(6)) == 0
        assert len(census_simple_baxter(7)) == 12

    def test_wheel_list(self):
        assert [p.compact() for p in census_simple_baxter(5)] == ["25314", "41352"]

    def test_listed_perms_are_simple_baxter(self):
        from hrd.perm import is_baxter, is_simple

        for p in census_simple_baxter(7):
            assert is_baxter(p) and is_simple(p)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            census_simple_baxter(12)
        with pytest.raises(ValueError):
            census_simple_baxter(1)


class TestSkeletonCounts:
    def test_matches_exhaustive_census(self):
        s = skeleton_counts(9)
        for length in range(4, 10):
            assert s.get(length, 0) == len(census_simple_baxter(length)), length
        assert 0 not in s.values()
        assert skeleton_counts(2) == skeleton_counts(4) == {}

    def test_beyond_the_census_cap(self):
        s = skeleton_counts(16)
        assert [s[l] for l in range(10, 17)] == [418, 1722, 7046, 29774, 127756, 557812, 2469148]


class TestLiteral:
    def test_first_values(self):
        assert [count_hrd_literal(n) for n in range(1, 9)] == ORDER5

    def test_composition_sums_vanish_below_five_parts(self):
        t = [0, 1, 2, 6, 22]
        for m in range(1, 5):
            assert _composition_sum(t, m, 5) == 0
        assert _composition_sum(t, 5, 5) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            count_hrd_literal(0)


class TestGeneral:
    def test_schroeder_at_order_two(self):
        assert [count_hrd(2, n) for n in range(1, 8)] == SCHROEDER

    def test_order_five_matches_literal(self):
        for n in range(1, 21):
            assert count_hrd(5, n) == count_hrd_literal(n)

    def test_order_at_least_n_gives_baxter_counts(self):
        for n in range(1, 8):
            assert count_hrd(8, n) == BAXTER[n - 1]
        assert count_hrd(5, 5) == 92
        assert count_hrd(6, 6) == 422

    def test_monotone_in_k(self):
        for n in range(1, 9):
            row = [count_hrd(k, n) for k in range(2, 9)]
            assert row == sorted(row)
            assert row[-1] <= BAXTER[n - 1]


class TestFast:
    def test_tiny_tables(self):
        assert sequence(5, 1) == [1]
        assert sequence(2, 7)[6] == 1806

    def test_agrees_with_general(self):
        for k in range(2, 8):
            counts = sequence(k, 25)
            for n in (1, 2, 5, 9, 14, 20, 25):
                assert counts[n - 1] == count_hrd(k, n), (k, n)
        # s has gaps (s_4 = s_6 = 0); at k = 12 the top column P_13 is reached
        for k in (8, 9, 12):
            assert sequence(k, 14) == [count_hrd(k, n) for n in range(1, 15)], k

    def test_pinned_thirtieth_terms(self):
        # computed by the earlier evaluator, which kept a separate 12-root column
        pinned = {
            8: 1354309865306594386254,
            9: 1799711509586042718054,
            11: 2707833564351153686582,
        }
        for k, t30 in pinned.items():
            assert sequence(k, 30)[29] == t30, k

    def test_sequence_values(self):
        assert sequence(2, 5) == [1, 2, 6, 22, 90]
        assert sequence(5, 5) == [1, 2, 6, 22, 92]

    def test_unbounded_order_gives_baxter_numbers(self):
        assert sequence(12, 12) == BAXTER_12

    def test_sequence_gap_grows_with_skeleton_multiplicity(self):
        # each of the s_{k+1} seeds contributes a disjoint 3^(n-k-1) family
        for k, s_next in ((4, 2), (6, 12)):
            lo = sequence(k, 12)
            hi = sequence(k + 1, 12)
            for n in range(k + 1, 13):
                assert hi[n - 1] - lo[n - 1] >= s_next * 3 ** (n - (k + 1))


class TestOracle:
    def test_known_counts(self):
        assert oracle_count(2, 4) == 22
        assert oracle_count(5, 5) == 92
        for k in (2, 5, 9):
            assert oracle_count(k, 1) == 1

    def test_matches_recurrence(self):
        for k in range(2, 8):
            for n in range(1, 9):
                assert oracle_count(k, n) == count_hrd(k, n), (k, n)


class TestMemo:
    def test_env_var_controls_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HRD_MEMO_DIR", str(tmp_path / "prime"))
        assert memo_dir() == tmp_path / "prime"

    def test_save_load_roundtrip(self):
        counts = sequence(5, 12)
        assert save_table(5, counts).parent == memo_dir()
        loaded = load_table(5)
        assert loaded is not None
        assert loaded == counts

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int text limit")
    def test_roundtrip_beyond_the_int_text_limit(self):
        counts = sequence(2, 900)
        assert len(str(counts[899])) == 684
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            save_table(2, counts)
            loaded = load_table(2)
            limit_after = sys.get_int_max_str_digits()
        finally:
            sys.set_int_max_str_digits(old)
        assert loaded is not None and loaded == counts
        assert limit_after == 640

    def test_missing_table(self):
        assert load_table(3) is None

    def test_corrupt_table_discarded(self):
        path = save_table(5, sequence(5, 8))
        path.write_text(path.read_text().replace(" 92\n", " 93\n"))
        assert load_table(5) is None

    def test_tampered_final_count_discarded(self):
        path = save_table(5, sequence(5, 8))
        lines = path.read_text().splitlines()
        m, t = lines[-1].split()
        lines[-1] = f"{m} {int(t) + 1}"
        path.write_text("\n".join(lines) + "\n")
        assert load_table(5) is None

    def test_ensure_table_extends_persisted_state(self):
        first = ensure_table(5, 6)
        second = ensure_table(5, 14)
        assert second[:6] == first
        assert second[13] == count_hrd(5, 14)
        assert len(load_table(5)) == 14

    def test_ensure_table_without_memo_leaves_no_file(self):
        ensure_table(5, 6, use_memo=False)
        assert load_table(5) is None
