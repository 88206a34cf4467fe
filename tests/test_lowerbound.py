import itertools

import pytest

import hrd.perm
from hrd import lowerbound
from hrd.perm import Permutation, _one_point_extensions, census_simple_baxter, is_baxter, is_ihrd
from hrd.floorplan import bp2fp, fp2bp, grow_ihrd
from hrd.gentree import is_hrd
from hrd.lowerbound import (
    format_report,
    grown_seed,
    insertion_family,
    insertion_traces,
    safe_sites,
)

from oracles import (
    contains_pattern_bruteforce,
    grow_label_by_sorting,
    insert_max,
    one_point_extensions_by_set,
    validate,
)

P = Permutation.parse


class TestSafeSites:
    def test_singleton_collapses_to_two(self):
        assert safe_sites(P("1")) == [0, 1]

    def test_wheel_has_four(self):
        # before first, before the max, after the max, after last
        assert safe_sites(P("41352")) == [0, 3, 4, 5]

    def test_max_first_gives_three(self):
        assert safe_sites(P("312")) == [0, 1, 3]

    def test_max_last_gives_three(self):
        assert safe_sites(P("123")) == [0, 2, 3]

    def test_never_fewer_than_three_beyond_singletons(self, baxter_by_n):
        for n in range(2, 7):
            for p in baxter_by_n[n]:
                assert len(safe_sites(p)) in (3, 4)


class TestInsertMax:
    def test_known_insertions(self):
        assert insert_max(P("12"), 0) == P("312")
        assert insert_max(P("12"), 2) == P("123")
        assert insert_max(P("41352"), 4) == P("413562")

    def test_unsafe_site_rejected(self):
        with pytest.raises(ValueError):
            insert_max(P("41352"), 1)

    def test_preserves_baxter_on_all_small_hrd5_seeds(self, baxter_by_n):
        for n in (5, 6):
            for p in baxter_by_n[n]:
                if not is_hrd(p, 5):
                    continue
                for site in safe_sites(p):
                    grown = insert_max(p, site)
                    assert is_baxter(grown), (p, site)
                    assert is_hrd(grown, 5)


class TestInsertionFamily:
    def test_trivial_family_is_the_seed(self):
        r = insertion_family(5, 5, P("41352"))
        assert r.count == r.expected == 1
        assert [t.current for t in insertion_traces(5, 5, P("41352"))] == [P("41352")]

    @pytest.mark.parametrize("seed,n,size", [("41352", 7, 9), ("25314", 8, 27)])
    def test_exact_powers_of_three(self, seed, n, size):
        r = insertion_family(5, n, P(seed))
        assert r.count == r.expected == size
        assert r.all_baxter and r.all_hrd_k and r.none_hrd_below

    def test_traces_are_lexicographic_and_sized(self):
        traces = list(insertion_traces(5, 7, P("41352")))
        assert len(traces) == 9
        assert [t.choices for t in traces] == sorted(t.choices for t in traces)
        for t in traces:
            assert len(t.current) == 7
            assert len(t.choices) == 2

    def test_first_trace_past_the_recursion_limit(self):
        # 1100 insertions deep; the first trace always inserts before the first element
        trace = next(insertion_traces(5, 1105, P("41352")))
        assert trace.choices == (0,) * 1100
        assert trace.current == Permutation(tuple(range(1105, 5, -1)) + (4, 1, 3, 5, 2))

    def test_every_intermediate_step_stays_in_order(self):
        for trace in insertion_traces(5, 8, P("41352")):
            cur = trace.seed
            for site in trace.choices:
                cur = insert_max(cur, site)
                assert is_baxter(cur) and is_hrd(cur, 5)
            assert cur == trace.current

    def test_invalid_seeds_rejected(self):
        with pytest.raises(ValueError):
            insertion_family(4, 6, P("2413"))  # not Baxter
        with pytest.raises(ValueError):
            insertion_family(5, 6, P("12"))  # length mismatch
        with pytest.raises(ValueError):
            insertion_family(5, 4, P("41352"))  # target below seed

    def test_flags_match_the_predicates_on_unsafe_members(self, monkeypatch):
        # every slot counts as safe, so some members leave Baxter and order k
        monkeypatch.setattr(lowerbound, "_canonical_sites", lambda p: list(range(len(p) + 1)))
        for k, seed, n in ((2, "12", 5), (5, "41352", 7), (5, "25314", 7)):
            members = [t.current for t in insertion_traces(k, n, P(seed))]
            r = insertion_family(k, n, P(seed))
            assert r.all_baxter == all(is_baxter(q) for q in members)
            assert r.all_hrd_k == all(is_hrd(q, k) for q in members)
            assert r.none_hrd_below == (k == 2 or not any(is_hrd(q, k - 1) for q in members))
            assert not r.all_baxter

    def test_report_line(self):
        r = insertion_family(5, 6, P("41352"))
        assert format_report(r) == (
            "seed=41352 k=5 n=6 family=3 expected=3 "
            "all_baxter=True all_hrd_k=True none_hrd_k-1=True"
        )


class TestGrownSeed:
    def test_extensions_come_sorted_and_distinct(self):
        for n in range(1, 6):
            for vals in itertools.permutations(range(1, n + 1)):
                extensions = _one_point_extensions(vals)
                assert extensions == sorted(one_point_extensions_by_set(vals))
                # independently: the members of S_(n+1), in order, that contain vals
                longer = itertools.permutations(range(1, n + 2))
                assert extensions == [q for q in longer if contains_pattern_bruteforce(q, vals)]

    def test_same_seeds_as_sorting_every_extension(self):
        # grown_seed(k) walks the chain from 41352 (odd k) or 24853617 (even
        # k >= 8) one _grow_label step at a time
        assert grown_seed(2) == P("12") and grown_seed(5) == P("41352")
        for p, top in ((P("41352"), 41), (P("24853617"), 40)):
            while len(p) < top:
                grown = grow_label_by_sorting(p)
                assert hrd.perm._grow_label(p) == grown
                p = grown
            assert grown_seed(top) == p


class TestGrowIhrd:
    def test_growth_chain_from_seven(self):
        f = bp2fp(census_simple_baxter(7)[0])
        for rooms in (9, 11):
            f = grow_ihrd(f)
            assert validate(f) and f.n == rooms
            assert is_ihrd(fp2bp(f))

    def test_growth_from_eight(self):
        f10 = grow_ihrd(bp2fp(census_simple_baxter(8)[0]))
        assert f10.n == 10 and is_ihrd(fp2bp(f10))

    def test_seed_label_survives_as_pattern(self):
        seed = census_simple_baxter(7)[0]
        grown = fp2bp(grow_ihrd(bp2fp(seed)))
        assert contains_pattern_bruteforce(grown.values, seed.values)

    def test_label_without_an_extension_raises(self, monkeypatch):
        # no census stand-in: any answer must contain the input label
        monkeypatch.setattr(hrd.perm, "_simple", lambda q: False)
        with pytest.raises(RuntimeError):
            hrd.perm._grow_label(census_simple_baxter(7)[0])

    def test_low_order_rejected(self):
        with pytest.raises(ValueError):
            grow_ihrd(bp2fp(P("41352")))

    def test_reducible_input_rejected(self):
        with pytest.raises(ValueError):
            grow_ihrd(bp2fp(P("1234567")))
