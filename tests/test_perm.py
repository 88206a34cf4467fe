import itertools

import pytest
from hypothesis import given, settings, strategies as st

from hrd.counting import skeleton_counts
from hrd.perm import (
    Permutation,
    census_simple_baxter,
    decompose,
    is_baxter,
    is_simple,
)

from oracles import (
    baxter_pair_scan,
    baxter_quadruple_scan,
    blocks_bruteforce,
    inflate,
    inflate_bruteforce,
    is_simple_by_scan,
    simple_baxter_perms_by_scan,
    symmetries,
)

P = Permutation.parse


def perms_upto(n_max):
    return st.integers(1, n_max).flatmap(
        lambda n: st.permutations(tuple(range(1, n + 1)))
    )


class TestPermutationType:
    @pytest.mark.parametrize("bad", [(), (0,), (2,), (1, 1), (1, 3), (2, 3)])
    def test_rejects_non_bijections(self, bad):
        with pytest.raises(ValueError):
            Permutation(tuple(bad))

    def test_parse_spaced_and_compact(self):
        assert P("4 1 3 5 2") == P("41352")
        assert P("1").values == (1,)
        assert P("21").values == (2, 1)

    def test_parse_rejects_garbage(self):
        for text in ["", "4 1 x", "0 1", "1 2 2"]:
            with pytest.raises(ValueError):
                P(text)
        # only ASCII decimals: int() alone reads 1_0 as 10 and Arabic-Indic digits
        for text in ["2 1_0 3 4 5 6 7 8 9 1", "\u0662 \u0661", "\u0662\u0661"]:
            with pytest.raises(ValueError, match="malformed permutation text"):
                P(text)

    def test_compact_form_limited_to_nine(self):
        with pytest.raises(ValueError):
            P("1234567891")  # ten digits
        ten = Permutation(tuple(range(1, 11)))
        with pytest.raises(ValueError):
            ten.compact()
        assert P("10 2 3 4 5 6 7 8 9 1").values[0] == 10


class TestIsBaxter:
    def test_known_values(self):
        assert not is_baxter(P("2413"))
        assert is_baxter(P("41352"))
        assert is_baxter(P("1")) and is_baxter(P("12")) and is_baxter(P("21"))

    def test_agrees_with_quadruple_scan_exhaustively(self):
        for n in range(1, 8):
            for tup in itertools.permutations(range(1, n + 1)):
                assert is_baxter(Permutation(tup)) == baxter_quadruple_scan(tup) == baxter_pair_scan(tup), tup

    def test_agrees_with_pair_scan_on_every_permutation_of_length_8(self):
        baxter = 0
        for tup in itertools.permutations(range(1, 9)):
            expected = baxter_pair_scan(tup)
            assert is_baxter(Permutation(tup)) == expected, tup
            baxter += expected
        assert baxter == 10754

    def test_closed_under_symmetries(self, baxter_by_n):
        for n in range(1, 8):
            bax = {p.values for p in baxter_by_n[n]}
            for p in baxter_by_n[n]:
                s = symmetries(p)
                assert s.reverse.values in bax
                assert s.complement.values in bax
                assert s.inverse.values in bax


class TestBlocks:
    def test_3421_has_prefix_block(self):
        bs = blocks_bruteforce(P("3421").values)
        assert (1, 3) in bs
        assert (2, 4) not in bs

    def test_singleton(self):
        assert blocks_bruteforce(P("1").values) == {(1, 1)}

    def test_simple_permutation_has_only_trivial_blocks(self):
        assert blocks_bruteforce(P("41352").values) == {(1, 1), (1, 5), (2, 2), (3, 3), (4, 4), (5, 5)}


class TestIsSimple:
    def test_known_values(self):
        assert is_simple(P("41352"))
        assert not is_simple(P("3421"))
        for n in range(3, 8):
            assert not is_simple(Permutation(tuple(range(1, n + 1))))
        assert is_simple(P("1")) and is_simple(P("12")) and is_simple(P("21"))

    def test_equivalent_to_blocks_being_trivial(self):
        # read off the canonical decomposition; against every block up to
        # length 7 and against the segment scan up to length 8
        for n in range(1, 9):
            for tup in itertools.permutations(range(1, n + 1)):
                p = Permutation(tup)
                assert is_simple(p) == is_simple_by_scan(tup), tup
                if n < 8:
                    trivial = all(i == j or (i, j) == (1, n) for i, j in blocks_bruteforce(tup))
                    assert is_simple(p) == trivial, tup


class TestInflate:
    def test_known_products(self):
        assert inflate(P("41352"), [P("12"), P("1"), P("1"), P("1"), P("1")]) == P("451362")
        assert inflate(P("1"), [P("41352")]) == P("41352")
        assert inflate(P("21"), [P("1"), P("21")]) == P("321")

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            inflate(P("12"), [P("1")])

    @given(perms_upto(4), st.lists(perms_upto(3), min_size=1, max_size=4))
    @settings(max_examples=200)
    def test_length_additive_and_matches_bruteforce(self, skel, kids):
        if len(kids) != len(skel):
            return
        skeleton = Permutation(tuple(skel))
        children = [Permutation(tuple(c)) for c in kids]
        got = inflate(skeleton, children)
        assert len(got) == sum(len(c) for c in children)
        assert got.values == inflate_bruteforce(tuple(skel), [tuple(c) for c in kids])


def _first_child_ok(skeleton, first):
    if skeleton.values == (1, 2):
        d = None if len(first) == 1 else decompose(first)
        return d is None or d.skeleton.values != (1, 2)
    if skeleton.values == (2, 1):
        d = None if len(first) == 1 else decompose(first)
        return d is None or d.skeleton.values != (2, 1)
    return True


class TestDecompose:
    def test_known_decompositions(self):
        d = decompose(P("451362"))
        assert d.skeleton == P("41352")
        assert d.children == (P("12"), P("1"), P("1"), P("1"), P("1"))
        d = decompose(P("41352"))
        assert d.skeleton == P("41352") and all(len(c) == 1 for c in d.children)
        d = decompose(P("321"))
        assert d.skeleton == P("21") and d.children == (P("1"), P("21"))

    def test_singleton_rejected(self):
        with pytest.raises(ValueError):
            decompose(P("1"))

    def test_skeleton_simple_and_roundtrip_exhaustive(self):
        for n in range(2, 8):
            for tup in itertools.permutations(range(1, n + 1)):
                p = Permutation(tup)
                d = decompose(p)
                assert is_simple(d.skeleton) and len(d.skeleton) >= 2
                assert inflate(d.skeleton, list(d.children)) == p
                assert _first_child_ok(d.skeleton, d.children[0])

    @given(perms_upto(4), st.data())
    @settings(max_examples=150)
    def test_inflate_then_decompose_recovers(self, skel, data):
        skeleton = Permutation(tuple(skel))
        if not is_simple(skeleton) or len(skeleton) < 2:
            return
        children = tuple(
            Permutation(tuple(data.draw(perms_upto(3), label=f"child{i}")))
            for i in range(len(skeleton))
        )
        if not _first_child_ok(skeleton, children[0]):
            return
        d = decompose(inflate(skeleton, list(children)))
        assert d.skeleton == skeleton
        assert d.children == children


class TestSymmetries:
    def test_known_images(self):
        assert symmetries(P("1")) == (P("1"), P("1"), P("1"))
        # verified by composing to the identity (see the composition test below)
        assert symmetries(P("41352")).inverse == P("25314")
        assert symmetries(P("12")).reverse == P("21")

    @given(perms_upto(7))
    @settings(max_examples=100)
    def test_involutions_and_inverse_composes_to_identity(self, vals):
        p = Permutation(tuple(vals))
        s = symmetries(p)
        assert symmetries(s.reverse).reverse == p
        assert symmetries(s.complement).complement == p
        composed = tuple(p.values[v - 1] for v in s.inverse.values)
        assert composed == tuple(range(1, len(p) + 1))


def test_simple_baxter_census_values():
    assert [len(census_simple_baxter(n)) for n in range(2, 8)] == [2, 0, 0, 2, 0, 12]
    assert [p.compact() for p in census_simple_baxter(5)] == ["25314", "41352"]


@pytest.mark.parametrize("length", range(2, 10))
def test_pruned_search_matches_the_scan_in_order(length):
    assert census_simple_baxter(length) == simple_baxter_perms_by_scan(length)


@pytest.mark.parametrize("length,count", [(10, 418), (11, 1722)])
def test_pruned_search_reaches_the_census_cap(length, count):
    assert len(census_simple_baxter(length)) == skeleton_counts(length)[length] == count
