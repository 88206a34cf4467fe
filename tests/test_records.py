"""The records of ``hrd`` behave as values: equality, hashing, text forms,
immutability and validation, whatever class implements them."""

import pytest

from hrd.floorplan import MosaicFloorplan, Room, bp2fp
from hrd.gentree import Leaf, Node, format_tree
from hrd.lowerbound import insertion_family
from hrd.perm import Permutation, decompose

from oracles import format_tree_by_fold

P = Permutation.parse


class TestPermutation:
    def test_equality_is_by_value(self):
        assert P("41352") == Permutation((4, 1, 3, 5, 2)) == Permutation(values=(4, 1, 3, 5, 2))
        assert P("41352") != P("25314")
        assert P("12") != P("1 2 3")
        assert P("12") != (1, 2) and (1, 2) != P("12")
        assert P("1") != 1

    def test_hash_follows_equality(self):
        assert hash(P("41352")) == hash(Permutation((4, 1, 3, 5, 2)))
        assert len({P("41352"), Permutation((4, 1, 3, 5, 2)), P("25314")}) == 2
        assert {P("21"): "skew"}[Permutation((2, 1))] == "skew"

    def test_text_forms(self):
        p = P("4 1 3 5 2")
        assert repr(p) == "Permutation(4 1 3 5 2)"
        assert str(p) == "4 1 3 5 2"
        assert p.compact() == "41352"
        assert str(P(" ".join(map(str, range(12, 0, -1))))) == "12 11 10 9 8 7 6 5 4 3 2 1"

    def test_immutable(self):
        p = P("213")
        with pytest.raises(AttributeError):
            p.values = (1, 2, 3)
        with pytest.raises(AttributeError):
            del p.values
        with pytest.raises(AttributeError):
            p.extra = 1
        assert p.values == (2, 1, 3)

    @pytest.mark.parametrize(
        "values,message",
        [
            ((), "length >= 1"),
            ((1, 1), "not a bijection onto 1..2"),
            ((0, 1), "not a bijection"),
            ((1, 3), "not a bijection"),
            ((True, 2), "not a bijection"),
            ((1.0, 2), "not a bijection"),
            (("1", 2), "not a bijection"),
        ],
    )
    def test_validation(self, values, message):
        with pytest.raises(ValueError, match=message):
            Permutation(values)

    @pytest.mark.parametrize("text", ["", "1 x", "1234567890", "1 1"])
    def test_parse_errors(self, text):
        with pytest.raises(ValueError):
            P(text)


class TestTrees:
    def test_leaves_are_equal_and_no_tuple(self):
        assert Leaf() == Leaf()
        assert hash(Leaf()) == hash(Leaf())
        assert Leaf() != ()
        assert () != Leaf()
        assert repr(Leaf()) == "Leaf()"
        with pytest.raises(AttributeError):
            Leaf().x = 1

    def test_node_never_equals_a_tuple(self):
        node = Node(P("12"), (Leaf(), Leaf()))
        assert node != (P("12"), (Leaf(), Leaf()))
        assert (P("12"), (Leaf(), Leaf())) != node
        assert node != Leaf() and Leaf() != node
        assert repr(node) == "Node((12 . .))"
        assert node.label == P("12") and node.children == (Leaf(), Leaf())

    def test_node_is_immutable(self):
        node = Node(P("21"), (Leaf(), Leaf()))
        with pytest.raises(AttributeError):
            node.label = P("12")
        with pytest.raises(AttributeError):
            node.children = ()

    @staticmethod
    def _chain(depth, last):
        t = Node(P("41352"), tuple(Leaf() for _ in range(5)))
        for i in range(depth):
            label = P("12") if i % 2 else P("21")
            t = Node(label, (last if i == 0 else Leaf(), t))
        return t

    def test_deep_chains_compare_and_hash_without_recursion(self):
        a = self._chain(20000, Leaf())
        b = self._chain(20000, Leaf())
        c = self._chain(20000, Node(P("12"), (Leaf(), Leaf())))
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != c
        # the text they compare is the one a fold over the children's texts builds
        assert format_tree(a) == format_tree_by_fold(a) and format_tree(c) == format_tree_by_fold(c)


class TestFieldAccess:
    def test_floorplan(self):
        rooms = (Room(1, 0, 0, 1, 1), Room(2, 1, 0, 2, 1))
        f = MosaicFloorplan(2, 1, rooms)
        assert (f.width, f.height, f.rooms, f.n) == (2, 1, rooms, 2)
        assert f == MosaicFloorplan(2, 1, rooms) and hash(f) == hash(MosaicFloorplan(2, 1, rooms))
        assert f != MosaicFloorplan(1, 2, (Room(1, 0, 0, 1, 1), Room(2, 0, 1, 1, 2)))
        assert bp2fp(P("12")).n == 2
        with pytest.raises(AttributeError):
            f.width = 3

    def test_decomposition(self):
        d = decompose(P("41352"))
        assert d.skeleton == P("41352")
        assert d.children == (P("1"),) * 5
        d = decompose(P("2143"))
        assert (d.skeleton, d.children) == (P("12"), (P("21"), P("21")))

    def test_family_report(self):
        r = insertion_family(5, 7, P("41352"))
        assert r.seed == P("41352")
        assert (r.k, r.n, r.count, r.expected) == (5, 7, 9, 9)
        assert r.all_baxter and r.all_hrd_k and r.none_hrd_below

