import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import hrd.perm
from hrd.perm import Decomposition, Permutation, _decomposition, census_simple_baxter, decompose, is_ihrd, is_simple
from hrd.floorplan import bp2fp, fp2bp
from hrd.gentree import (
    Leaf,
    Node,
    NotBaxter,
    format_tree,
    hierarchy_order,
    is_hrd,
    perm_of_tree,
    tree_of_perm,
)

from oracles import (
    _nodes,
    baxter_pair_scan,
    check_tree,
    enumerate_trees,
    floorplan_of_tree,
    format_tree_by_fold,
    inflate_entry,
    is_simple_by_scan,
    leaf_count,
    odd_up_even_down,
    parse_tree,
    perm_of_tree_by_inflation,
    random_tree,
    slicing_chain,
    tree_of_perm_by_copies,
    tree_of_perm_by_split,
    validate,
    walk_by_split,
)

P = Permutation.parse

WHEEL_TREE = Node(
    P("41352"),
    (Node(P("12"), (Leaf(), Leaf())), Leaf(), Leaf(), Leaf(), Leaf()),
)


class TestPermOfTree:
    def test_leaf(self):
        assert perm_of_tree(Leaf()) == P("1")

    def test_node_of_leaves(self):
        t = Node(P("41352"), tuple(Leaf() for _ in range(5)))
        assert perm_of_tree(t) == P("41352")

    def test_nested(self):
        assert perm_of_tree(WHEEL_TREE) == P("451362")

    def test_arity_violation(self):
        with pytest.raises(ValueError):
            perm_of_tree(Node(P("12"), (Leaf(),)))
        # a mismatch below the root raises too
        nested = Node(P("41352"), (Leaf(), Node(P("21"), (Leaf(), Leaf(), Leaf())), Leaf(), Leaf(), Leaf()))
        with pytest.raises(ValueError, match="skeleton of length 2 needs 2 children, got 3"):
            perm_of_tree(nested)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_nodes_carry_their_leaf_count(self, seed):
        rng = random.Random(seed)
        labels = census_simple_baxter(2) + census_simple_baxter(5)
        for t in (random_tree(rng, 300, labels), slicing_chain(500, P("41352"), first=bool(seed % 2)), WHEEL_TREE):
            assert all(node.size == leaf_count(node) for node in _nodes(t))
        assert Leaf().size == 1
        with pytest.raises(AttributeError):
            WHEEL_TREE.size = 1
        with pytest.raises(AttributeError):
            Leaf().size = 2


class TestTreeOfPerm:
    def test_singleton(self):
        assert tree_of_perm(P("1"), 2) == Leaf()

    def test_wheel_with_split_arm(self):
        assert tree_of_perm(P("451362"), 5) == WHEEL_TREE

    def test_order_too_small(self):
        assert tree_of_perm(P("41352"), 2) is None
        assert tree_of_perm(P("41352"), 4) is None
        assert tree_of_perm(P("41352"), 5) is not None

    def test_non_baxter_rejected(self):
        with pytest.raises(ValueError):
            tree_of_perm(P("2413"), 5)

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            tree_of_perm(P("1"), 1)

    def test_roundtrip_all_baxter(self, baxter_by_n):
        for n in range(1, 8):
            for p in baxter_by_n[n]:
                t = tree_of_perm(p, 7)
                assert t is not None
                check_tree(t, 7)
                assert perm_of_tree(t) == p


class TestPredicates:
    def test_is_hrd_examples(self):
        for k in range(2, 8):
            assert not is_hrd(P("2413"), k)
        assert is_hrd(P("41352"), 5)
        assert not is_hrd(P("41352"), 4)

    def test_is_hrd_monotone_in_k(self, baxter_by_n):
        for p in baxter_by_n[6]:
            for k in range(2, 6):
                if is_hrd(p, k):
                    assert is_hrd(p, k + 1)

    def test_is_hrd_stops_at_the_first_long_skeleton(self):
        # 41352 (+) 41352 (+) ...: at k = 4 the pass stops at its first
        # skeleton, of length 5, five entries into 200,000
        p = Permutation(tuple(5 * i + v for i in range(40_000) for v in (4, 1, 3, 5, 2)))

        def timed(k):
            start = time.perf_counter()
            result = is_hrd(p, k)
            return result, time.perf_counter() - start

        (full, whole), early = timed(5), [timed(4) for _ in range(3)]
        assert full and not any(result for result, _ in early)
        assert min(seconds for _, seconds in early) < whole / 5

    def test_is_ihrd_examples(self):
        assert is_ihrd(P("41352")) and is_ihrd(P("25314"))
        assert not is_ihrd(P("2413")) and not is_ihrd(P("3142"))
        assert is_ihrd(P("12")) and is_ihrd(P("21"))
        assert not is_ihrd(P("1"))

    def test_is_ihrd_on_every_permutation_up_to_eight(self):
        # 46,233 permutations, against the two scans that share no pass with it
        for n in range(1, 9):
            for vals in itertools.permutations(range(1, n + 1)):
                expected = n >= 2 and baxter_pair_scan(vals) and is_simple_by_scan(vals)
                assert is_ihrd(Permutation(vals)) == expected, vals

    def test_ihrd_is_strictly_irreducible(self):
        for p in (P("41352"), P("25314"), P("2475316")):
            n = len(p)
            assert is_hrd(p, n) and not is_hrd(p, n - 1)

    def test_hierarchy_order(self):
        assert hierarchy_order(P("1")) == 1
        assert hierarchy_order(P("12")) == 2
        assert hierarchy_order(P("41352")) == 5
        assert hierarchy_order(P("451362")) == 5
        with pytest.raises(ValueError):
            hierarchy_order(P("2413"))


class TestFloorplanOfTree:
    def test_leaf(self):
        assert floorplan_of_tree(Leaf()).n == 1

    def test_two_room_cut(self):
        f = floorplan_of_tree(Node(P("21"), (Leaf(), Leaf())))
        assert validate(f) and fp2bp(f) == P("21")

    def test_roundtrip_over_small_trees(self):
        for n in range(1, 7):
            for t in enumerate_trees(7, n):
                f = floorplan_of_tree(t)
                assert validate(f)
                assert fp2bp(f) == perm_of_tree(t)


class TestDeepTrees:
    def test_slicing_chain_past_the_recursion_limit(self):
        # 1100 nested cuts alternating 12 and 21 on the last child; the
        # permutation is built bottom-up: 12[1, q] = 1 (q+1), 21[1, q] = (|q|+1) q
        depth = 1100
        t: Leaf | Node = Leaf()
        vals: tuple[int, ...] = (1,)
        for level in range(depth):
            label = P("12") if level % 2 else P("21")
            t = Node(label, (Leaf(), t))
            vals = (1,) + tuple(v + 1 for v in vals) if label == P("12") else (len(vals) + 1,) + vals
        p = Permutation(vals)
        assert leaf_count(t) == depth + 1
        check_tree(t, 2)
        assert perm_of_tree(t) == p
        assert parse_tree(format_tree(t)) == t
        assert tree_of_perm(p, 2) == t
        assert fp2bp(floorplan_of_tree(t)) == p

    def test_equality_hash_and_repr_past_the_recursion_limit(self):
        identity = Permutation(tuple(range(1, 1501)))
        a, b = tree_of_perm(identity, 2), tree_of_perm(identity, 2)
        assert a is not b and a == b and hash(a) == hash(b) and b in {a}
        assert repr(a) == repr(b) == f"Node({format_tree(a)})"
        assert a != tree_of_perm(Permutation(tuple(range(1500, 0, -1))), 2)
        assert a != Leaf() and Leaf() != a


def _agrees_with_copies(p: Permutation, ks) -> None:
    """tree_of_perm, is_hrd and hierarchy_order on the range walk give what
    the walk over re-ranked copies gives, for every order in ``ks``.  One
    walk over copies answers every k: its tree is the order-k tree for k at
    least its longest label, and there is none below."""
    ref = tree_of_perm_by_copies(p, max(2, len(p)))
    order = max([len(node.label) for node in _nodes(ref)], default=1)
    assert hierarchy_order(p) == order
    text = format_tree(ref)
    for k in ks:
        t = tree_of_perm(p, k)
        assert (None if t is None else format_tree(t)) == (text if k >= order else None), (p, k)
        assert is_hrd(p, k) == (k >= order), (p, k)


class TestWalkMatchesCopies:
    """The walk over index ranges against the walk over copies."""

    def test_every_permutation_up_to_length_7(self):
        for n in range(1, 8):
            for vals in itertools.permutations(range(1, n + 1)):
                p = Permutation(vals)
                if baxter_pair_scan(vals):
                    _agrees_with_copies(p, range(2, 10))
                    continue
                with pytest.raises(NotBaxter):
                    tree_of_perm(p, 2)
                with pytest.raises(ValueError):
                    hierarchy_order(p)
                assert not any(is_hrd(p, k) for k in range(2, 10))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_trees_of_800_elements(self, seed):
        rng = random.Random(seed)
        labels = census_simple_baxter(2) + census_simple_baxter(5) + census_simple_baxter(7)[:4]
        t = random_tree(rng, rng.randrange(780, 821), labels)
        p = perm_of_tree_by_inflation(t)
        assert perm_of_tree(t) == p
        order = max(len(node.label) for node in _nodes(t))
        _agrees_with_copies(p, range(max(2, order - 1), order + 1))
        assert tree_of_perm(p, order) == t

    def test_slicing_chain_of_2000_levels(self):
        t = slicing_chain(2000, Permutation.parse("2475316"))
        p = perm_of_tree_by_inflation(t)
        assert perm_of_tree(t) == p
        _agrees_with_copies(p, (6, 7))
        assert tree_of_perm(p, 7) == t


def _pass_preorder(vals: tuple[int, ...]) -> list[tuple[tuple[int, ...], list[tuple[int, int, int]]]]:
    """The blocks of ``perm._decomposition`` as ``walk_by_split`` yields its
    nodes: parents first, each skeleton with its children's ``(start, stop,
    lowest value)``, and a flat 12 (21) block as its right comb."""
    out = []
    stack = [_decomposition(vals, len(vals), False)[0]]
    while stack:
        start, lo, hi, skeleton, kids = stack.pop()[:5]
        if kids is None:
            continue
        if len(skeleton) > 2:
            out.append((skeleton, [(s, s + h - l + 1, l) for s, l, h, *_ in kids]))
            stack.extend(reversed(kids))
            continue
        (s, l, h, *_), rest = kids[0], kids[1:]
        low = h + 1 if skeleton == (1, 2) else lo  # the values of the rest
        out.append((skeleton, [(s, s + h - l + 1, l), (rest[0][0], start + hi - lo + 1, low)]))
        stack.append(rest[0] if len(rest) == 1 else (rest[0][0], low, low + hi - h + l - 1 - lo, skeleton, rest))
        stack.append(kids[0])
    return out


def _agrees_with_split(vals: tuple[int, ...]) -> None:
    """The pass finds the nodes of the walk by splits, node for node, and
    every route that reads it answers as that walk does."""
    parts = list(walk_by_split(vals))
    assert _pass_preorder(vals) == parts, vals
    p, n = Permutation(vals), len(vals)
    assert is_simple(p) == (n <= 2 or len(parts[0][1]) == n)
    if n > 1:
        skeleton, kids = parts[0]
        children = tuple(Permutation(tuple(v - lo + 1 for v in vals[a:b])) for a, b, lo in kids)
        assert decompose(p) == Decomposition(Permutation(skeleton), children)
    if not baxter_pair_scan(vals):
        with pytest.raises(NotBaxter):
            tree_of_perm(p, n)
        with pytest.raises(ValueError):
            hierarchy_order(p)
        assert not is_hrd(p, max(2, n))
        return
    order = max((len(skeleton) for skeleton, _ in parts), default=1)
    assert hierarchy_order(p) == order
    k = max(2, order)
    assert is_hrd(p, k) and tree_of_perm(p, k) == tree_of_perm_by_split(p, k)
    if order > 2:
        assert not is_hrd(p, order - 1) and tree_of_perm(p, order - 1) is None


class TestPassMatchesSplit:
    """The bottom-up pass against the top-down walk by splits."""

    def test_every_permutation_up_to_length_8(self):
        for n in range(1, 9):
            for vals in itertools.permutations(range(1, n + 1)):
                _agrees_with_split(vals)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_trees_of_800_elements(self, seed):
        rng = random.Random(seed)
        labels = census_simple_baxter(2) + census_simple_baxter(5) + census_simple_baxter(7)[:4]
        vals = perm_of_tree(random_tree(rng, rng.randrange(780, 821), labels)).values
        _agrees_with_split(vals)
        _agrees_with_split(inflate_entry(vals, rng.randrange(len(vals)), (2, 4, 1, 3)))

    @pytest.mark.parametrize("first", [False, True])
    def test_chains_nested_in_first_and_last_children(self, first):
        for bottom in ("41352", "2475316"):
            t = slicing_chain(1000, Permutation.parse(bottom), first)
            _agrees_with_split(perm_of_tree(t).values)

    def test_odd_up_even_down(self):
        chain = odd_up_even_down(2000)
        _agrees_with_split(chain)
        _agrees_with_split(_swapped(chain, 700))


def _swapped(vals: tuple[int, ...], j: int) -> tuple[int, ...]:
    return vals[:j] + (vals[j + 1], vals[j]) + vals[j + 2 :]


class TestOneReadDecidesBaxter:
    """Nothing but the walk decides Baxter for ``tree_of_perm``, ``is_hrd``
    and ``hierarchy_order``, and nothing but the insertions for ``bp2fp``:
    each must agree with ``baxter_pair_scan``, which shares no code with
    the insertions that ``is_baxter``, ``bp2fp`` and the walk all run."""

    def test_every_permutation_of_length_8(self):
        baxter = 0
        for vals in itertools.permutations(range(1, 9)):
            p = Permutation(vals)
            expected = baxter_pair_scan(vals)
            baxter += expected
            assert is_hrd(p, 8) == expected, p
            try:
                hierarchy_order(p)
            except ValueError:
                assert not expected, p
            else:
                assert expected, p
        assert baxter == 10754

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_long_inputs(self, seed):
        """A random tree, the same with one leaf inflated by 2413 or 3142,
        and the odd-up/even-down chain as it is, transposed at its peak
        (still Baxter) and transposed at a random place."""
        rng = random.Random(seed)
        labels = census_simple_baxter(2) + census_simple_baxter(5) + census_simple_baxter(7)[:4]
        tree = perm_of_tree(random_tree(rng, rng.randrange(500, 3001), labels)).values
        bad = inflate_entry(tree, rng.randrange(len(tree)), rng.choice([(2, 4, 1, 3), (3, 1, 4, 2)]))
        n = 2 * rng.randrange(250, 751)
        chain = odd_up_even_down(n)
        inputs = [tree, bad, chain, _swapped(chain, n // 2 - 1), _swapped(chain, rng.randrange(n - 1))]
        seen = []
        for vals in inputs:
            p = Permutation(vals)
            expected = baxter_pair_scan(vals)
            seen.append(expected)
            assert is_hrd(p, len(p)) == expected
            for k in (2, len(p)):
                try:
                    t = tree_of_perm(p, k)
                except NotBaxter:
                    assert not expected
                else:
                    assert expected and (t is None or perm_of_tree(t) == p)
            try:
                order = hierarchy_order(p)
            except ValueError:
                assert not expected
            else:
                assert expected and is_hrd(p, order)
            try:
                f = bp2fp(p)
            except ValueError:
                assert not expected
            else:
                assert expected and fp2bp(f) == p
        assert seen[:4] == [True, False, True, True]


class TestNoCopies:
    """Deterministic guard for the linear cost on deep chains: the routes
    count their Permutation constructions, and none calls ``decompose``."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        init = Permutation.__init__

        def counted(self, values):
            calls.append(len(values))
            init(self, values)

        def forbidden(p):
            raise AssertionError("decompose called")

        monkeypatch.setattr(Permutation, "__init__", counted)
        monkeypatch.setattr(hrd.perm, "decompose", forbidden)
        return calls

    def test_chain_of_20000_levels(self, built):
        t = slicing_chain(20000, Permutation.parse("41352"))
        built.clear()
        p = perm_of_tree(t)
        assert built == [20005]
        built.clear()
        assert is_hrd(p, 5) and not is_hrd(p, 4)
        assert hierarchy_order(p) == 5
        assert built == []
        assert tree_of_perm(p, 5) == t


class TestEnumerateTrees:
    def test_counts(self):
        assert sum(1 for _ in enumerate_trees(2, 3)) == 6
        assert sum(1 for _ in enumerate_trees(5, 5)) == 92
        for k in (2, 5, 9):
            assert list(enumerate_trees(k, 1)) == [Leaf()]

    def test_leaf_counts_and_invariants(self):
        for t in enumerate_trees(5, 6):
            assert leaf_count(t) == 6
            check_tree(t, 5)

    def test_injective_with_exact_image(self, baxter_by_n):
        for k in (2, 3, 5, 7):
            for n in range(1, 7):
                perms = [perm_of_tree(t) for t in enumerate_trees(k, n)]
                assert len({q.values for q in perms}) == len(perms)
                expect = {p.values for p in baxter_by_n[n] if is_hrd(p, k)}
                assert {q.values for q in perms} == expect

    def test_tree_roundtrip_over_enumeration(self):
        for k in (2, 5):
            for n in range(1, 7):
                for t in enumerate_trees(k, n):
                    assert tree_of_perm(perm_of_tree(t), k) == t

    def test_deterministic_order(self):
        first = [format_tree(t) for t in enumerate_trees(5, 5)]
        second = [format_tree(t) for t in enumerate_trees(5, 5)]
        assert first == second


class TestTextFormat:
    def test_example_tree_roundtrip(self):
        text = "(41352 (12 . .) . . . .)"
        assert format_tree(parse_tree(text)) == text

    def test_leaf(self):
        assert parse_tree(".") == Leaf()
        assert format_tree(Leaf()) == "."

    def test_same_text_as_the_fold(self):
        for t in enumerate_trees(5, 5):
            assert format_tree(t) == format_tree_by_fold(t)
        labels = census_simple_baxter(2) + census_simple_baxter(5) + census_simple_baxter(7)[:4]
        for seed in (1, 2, 3):
            rng = random.Random(seed)
            t = random_tree(rng, rng.randrange(780, 821), labels)
            assert format_tree(t) == format_tree_by_fold(t), seed
        # labels longer than 9 are written spaced
        wide = Node(Permutation.parse("2 4 1 6 3 8 5 10 7 9"), (Leaf(),) * 10)
        assert format_tree(wide) == format_tree_by_fold(wide) == "(2 4 1 6 3 8 5 10 7 9 . . . . . . . . . .)"

    def test_spaced_labels_accepted(self):
        assert parse_tree("(4 1 3 5 2 . . . . .)") == parse_tree("(41352 . . . . .)")

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "(12 .)",  # arity violation
            "(12 (12 . .) .)",  # skew violation
            "(132 . . .)",  # label not simple
            "(2413 . . . .)",  # label not Baxter
            "(41352 . . . . .",  # unterminated
            "(41352 . . . . .) .",  # trailing content
            "(x . .)",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_tree(bad)

    @given(st.integers(1, 6), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_format_parse_roundtrip(self, n, rng):
        trees = list(enumerate_trees(5, n))
        t = rng.choice(trees)
        assert parse_tree(format_tree(t)) == t
