"""Reference implementations, exhaustive enumerations and small
conveniences used only by the tests.  Each reference answers a question a production route answers, by another
method; what each takes from the library:

- ``baxter_quadruple_scan``, ``contains_pattern_bruteforce``,
  ``blocks_bruteforce``, ``inflate_bruteforce`` and ``symmetries`` work
  on the values alone and share no code with ``hrd.perm``.
- ``baxter_pair_scan`` tests each pair of values v, v + 1 with
  ``hrd.perm._baxter_pair_ok``, the census's pruning test; the production
  ``is_baxter`` runs the corner insertions of ``hrd.perm._insertions``,
  which ``bp2fp`` and the decomposition walk read too.
- ``is_simple_by_scan`` grows every segment from every start and stops at
  the first proper block; the production ``is_simple`` reads simplicity
  off the root of the decomposition pass (``hrd.perm._decomposition``).
- ``simple_baxter_perms_by_scan`` filters the whole symmetric group with
  ``baxter_pair_scan`` and ``is_simple_by_scan``; the production
  ``census_simple_baxter`` prunes prefixes instead.
- ``bp2fp_by_reinsertion`` and ``enumerate_floorplans`` insert rooms with
  ``_insert_top_left`` below, which rank-compresses through ``canonical``;
  the production ``bp2fp`` places its rooms on two boundary stacks instead.
- ``delete_top_left_by_scan``, ``deletion_labels_by_scan`` and
  ``fp2bp_by_scan`` scan every room per deletion and use no library code.
- ``fp2bp_by_two_orders`` runs two whole deletion orders with the
  production ``_delete_top_left``, one per corner index: ``_top_left_order``
  on the floorplan gives the labels (``_deletion_labels``), and on its
  vertical mirror the bottom-left reading.  The production ``fp2bp`` runs
  the top-left order alone and rebuilds the reading from each deletion's
  direction and last sliding room.
- ``canonical`` rank-compresses any floorplan, valid or not, keeping the
  box, and ``_grid`` fills its cell grid; the library has neither.
  ``diagnose_by_grid`` checks that grid for overlaps, gaps and '+'
  junctions, where the production ``diagnose`` counts areas and corner
  parity.  ``diagnose_by_passes`` makes the same checks with the same
  messages in three passes over the rooms, testing every coordinate with
  ``isinstance``; the production ``diagnose`` makes one pass, with a
  class test before ``isinstance``.  ``render_by_grid`` decides each grid
  point and wall unit from the grid, where the production ``render``
  draws each room's outline.
- ``parse_floorplan_by_lines`` cuts the text at its line ends with a
  regular expression and checks every room line's tokens with
  ``hrd._ascii_ints``; the production ``parse_floorplan`` tests the whole
  text for ``_`` and non-ASCII characters once and checks line by line
  only when that test fails.
- ``seg_room_relations`` and ``enveloping_rectangles`` validate with
  ``hrd.floorplan._require_valid``, scan the cell grid of ``canonical`` and
  ``_grid``, and name rooms by ``_deletion_labels`` above, the labels
  ``fp2bp`` assigns.
- ``_fold`` is a post-order fold over ``_nodes``, the internal nodes in
  preorder on an explicit stack, taken in reverse.
  ``format_tree_by_fold`` builds the text of every node from its
  children's texts; the production ``format_tree`` writes it in one
  preorder pass.
- ``floorplan_of_tree`` folds a tree with ``_fold``, draws each
  node's label with the production ``bp2fp`` and embeds the children
  through ``canonical``.  ``enumerate_trees`` takes its labels
  from ``hrd.perm.census_simple_baxter`` and builds every tree bottom-up.
- ``decompositions_by_copies`` walks p's recursive canonical decomposition
  by calling ``hrd.perm.decompose`` on a re-ranked copy of every part, and
  ``tree_of_perm_by_copies`` builds the tree from it, after
  ``baxter_pair_scan`` has decided Baxter; the production pass
  (``hrd.perm._decomposition``) merges blocks of p bottom-up and copies
  nothing.
  ``perm_of_tree_by_inflation`` folds a tree with ``_fold``,
  inflating every label by copies of its children's permutations
  (``inflate``); the production ``perm_of_tree`` places every leaf
  top-down.
- ``walk_by_split`` walks p's decomposition top-down, one ``_split`` of an
  index range per node: a prefix scan up to the first sum cut, or the
  maximal proper blocks at O(size * blocks).  ``tree_of_perm_by_split``
  builds the tree from it after ``baxter_pair_scan``.  Neither shares code
  with the production pass, which reads p once, left to right, and finds
  the same nodes.
- ``single_room``, ``validate``, ``reflect``, ``delete_corner``,
  ``insert_max``, ``leaf_count``, ``check_tree``, ``parse_tree``,
  ``random_tree``, ``slicing_chain``, ``odd_up_even_down`` and
  ``inflate_entry`` are not references but small
  conveniences the tests use and no command needs.
  ``delete_corner`` mirrors the floorplan with ``_mirrored``, as
  ``reflect`` does, so that the corner is at the top left, and deletes
  with the production ``_delete_top_left``, so the per-corner tests
  exercise the deletion that ``fp2bp`` runs.
  ``parse_tree`` reads the text that ``hrd tree`` prints.
- ``count_hrd_literal`` uses no library code; ``count_hrd`` takes the s_l
  from ``hrd.counting.skeleton_counts``, as ``sequence`` does, but
  sums every composition directly; ``oracle_count`` scans S_n with
  ``baxter_pair_scan`` and ``hrd.gentree.hierarchy_order`` and shares
  nothing with the recurrence.
- ``recur_by_polynomials`` steps each coefficient polynomial of a P-recursion
  on its own list of forward differences; the production
  ``hrd.counting._recur`` packs the same differences of every polynomial into
  one integer per difference order.
- ``one_point_extensions_by_set`` builds the same sorted set as the
  production ``hrd.perm._one_point_extensions``; the tests check both
  against the members of the next symmetric group that contain the
  pattern (``contains_pattern_bruteforce``).
  ``grow_label_by_sorting`` walks those extensions in the same order as
  the production ``hrd.perm._grow_label`` and differs from it only in its
  predicates: both test Baxter first and then simplicity, it with the
  scans ``baxter_pair_scan`` and ``is_simple_by_scan``, the production
  route with the passes of ``hrd.perm.is_ihrd``.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from enum import Enum
from functools import lru_cache
from operator import add
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar

from hrd import _ascii_ints
from hrd.counting import _check_order_and_size, skeleton_counts
from hrd.floorplan import (
    FloorplanFormatError,
    MosaicFloorplan,
    Room,
    _corner_index,
    _delete_top_left,
    _require_valid,
    bp2fp,
    diagnose,
)
from hrd.gentree import GenTree, Leaf, Node, NotBaxter, hierarchy_order
from hrd.lowerbound import safe_sites
from hrd.perm import (
    Decomposition,
    Permutation,
    _baxter_pair_ok,
    decompose,
    is_baxter,
    census_simple_baxter,
    is_simple,
)

_P12 = Permutation((1, 2))
_P21 = Permutation((2, 1))
V = TypeVar("V")


def single_room() -> MosaicFloorplan:
    return MosaicFloorplan(1, 1, (Room(1, 0, 0, 1, 1),))


def validate(f: MosaicFloorplan) -> bool:
    """True iff the tiling is exact and every interior junction is a T."""
    return not diagnose(f)


def canonical(f: MosaicFloorplan) -> MosaicFloorplan:
    """Rank-canonical form of any floorplan, valid or not; the bounding
    coordinates are always kept."""
    xs = sorted({0, f.width} | {r.x1 for r in f.rooms} | {r.x2 for r in f.rooms})
    ys = sorted({0, f.height} | {r.y1 for r in f.rooms} | {r.y2 for r in f.rooms})
    xr = {x: i for i, x in enumerate(xs)}
    yr = {y: i for i, y in enumerate(ys)}
    rooms = sorted(
        (Room(r.id, xr[r.x1], yr[r.y1], xr[r.x2], yr[r.y2]) for r in f.rooms),
        key=lambda r: (r.y1, r.x1, r.id),
    )
    return MosaicFloorplan(len(xs) - 1, len(ys) - 1, tuple(rooms))


def _grid(g: MosaicFloorplan) -> list[list[int]]:
    """Cell map of a canonical floorplan: grid[y][x] = room id."""
    grid = [[None] * g.width for _ in range(g.height)]
    for r in g.rooms:
        for y in range(r.y1, r.y2):
            row = grid[y]
            for x in range(r.x1, r.x2):
                row[x] = r.id
    return grid


def _mirrored(width: int, height: int, rooms: Iterable[tuple], flip_x: bool, flip_y: bool) -> Iterator[Room]:
    """Rooms mirrored inside a width x height box, on the same coordinates."""
    for rid, x1, y1, x2, y2 in rooms:
        if flip_x:
            x1, x2 = width - x2, width - x1
        if flip_y:
            y1, y2 = height - y2, height - y1
        yield Room(rid, x1, y1, x2, y2)


def reflect(f: MosaicFloorplan, *, flip_x: bool = False, flip_y: bool = False) -> MosaicFloorplan:
    return canonical(MosaicFloorplan(f.width, f.height, tuple(_mirrored(f.width, f.height, f.rooms, flip_x, flip_y))))


class Corner(Enum):
    TOP_LEFT = "top-left"
    TOP_RIGHT = "top-right"
    BOTTOM_LEFT = "bottom-left"
    BOTTOM_RIGHT = "bottom-right"


def delete_corner(f: MosaicFloorplan, corner: Corner) -> MosaicFloorplan:
    """Remove the block sitting at ``corner``; the result has n-1 rooms and
    rank-canonical coordinates."""
    _require_valid(f)
    fx = corner in (Corner.TOP_RIGHT, Corner.BOTTOM_RIGHT)
    fy = corner in (Corner.BOTTOM_LEFT, Corner.BOTTOM_RIGHT)
    at = _corner_index(_mirrored(f.width, f.height, f.rooms, fx, fy))
    _delete_top_left(at, f.width, f.height)
    rest = ((rid, x1, y1, x2, y2) for (x1, y1), (x2, y2, rid) in at.items())
    return canonical(MosaicFloorplan(f.width, f.height, tuple(_mirrored(f.width, f.height, rest, fx, fy))))


def insert_max(p: Permutation, site: int) -> Permutation:
    """Insert value n+1 at a safe slot."""
    if site not in safe_sites(p):
        raise ValueError(f"slot {site} is not a safe insertion site of {p}")
    vals = p.values
    return Permutation(vals[:site] + (len(p) + 1,) + vals[site:])


def one_point_extensions_by_set(vals: tuple[int, ...]) -> set[tuple[int, ...]]:
    n = len(vals)
    out: set[tuple[int, ...]] = set()
    for v in range(1, n + 2):
        bumped = tuple(x + 1 if x >= v else x for x in vals)
        for pos in range(n + 1):
            out.add(bumped[:pos] + (v,) + bumped[pos:])
    return out


def grow_label_by_sorting(label: Permutation) -> Permutation:
    """A simple Baxter permutation two longer that contains ``label``.

    Deterministic search over all two-element extensions, lexicographically.
    """
    for q1 in sorted(one_point_extensions_by_set(label.values)):
        for q2 in sorted(one_point_extensions_by_set(q1)):
            if baxter_pair_scan(q2) and is_simple_by_scan(q2):
                return Permutation(q2)
    raise RuntimeError(f"no simple Baxter extension of {label} by two elements exists")


def _nodes(t: GenTree) -> Iterator[Node]:
    """The internal nodes of ``t``, parents first and children left to right."""
    stack = [t]
    while stack:
        sub = stack.pop()
        if isinstance(sub, Node):
            yield sub
            stack.extend(reversed(sub.children))


def _fold(t: GenTree, leaf_value: V, combine: Callable[[Node, list[V]], V]) -> V:
    """Post-order fold: ``leaf_value`` at every leaf, ``combine(node, values
    of its children left to right)`` at every node.  Iterative: nodes are
    combined in reverse preorder, which leaves a node's child values on top
    of ``built``, first child topmost.
    """
    built: list[V] = []
    for node in reversed(list(_nodes(t))):
        built.append(combine(node, [leaf_value if isinstance(c, Leaf) else built.pop() for c in node.children]))
    return built[0] if built else leaf_value


def format_tree_by_fold(t: GenTree) -> str:
    """Reference ``format_tree``: every node's text joins its children's
    whole texts, so it costs time quadratic in the depth."""

    def text(node: Node, kids: list[str]) -> str:
        return "(" + " ".join([node.label.compact() if len(node.label) <= 9 else str(node.label)] + kids) + ")"

    return _fold(t, ".", text)


def leaf_count(t: GenTree) -> int:
    return _fold(t, 1, lambda node, counts: sum(counts))


def check_tree(t: GenTree, k: int | None = None) -> None:
    """Raise ValueError if ``t`` violates the generating-tree invariants."""
    for node in _nodes(t):
        m = len(node.label)
        if m < 2:
            raise ValueError("node labels must be non-singleton")
        if k is not None and m > k:
            raise ValueError(f"node label {node.label} exceeds order {k}")
        if not (is_simple(node.label) and is_baxter(node.label)):
            raise ValueError(f"node label {node.label} is not simple Baxter")
        if len(node.children) != m:
            raise ValueError(f"node labeled {node.label} needs {m} children, has {len(node.children)}")
        first = node.children[0]
        if node.label in (_P12, _P21) and isinstance(first, Node) and first.label == node.label:
            raise ValueError(f"skew rule: restricted child of {node.label} repeats the label")


def parse_tree(text: str) -> GenTree:
    """Parse the prefix form of ``hrd.gentree.format_tree``, enforcing
    arity, label and skew invariants.  A loop, so deep trees parse."""
    tokens = re.findall(r"\d+|\S", text)
    bad = next((tok for tok in tokens if not (tok.isdigit() or tok in "().")), None)
    if bad is not None:
        raise ValueError(f"unexpected character {bad!r} in tree text")
    open_nodes: list[tuple[Permutation, list[GenTree]]] = []  # label, children so far
    i = 0
    while True:
        if i == len(tokens):
            raise ValueError("unterminated node: missing ')'" if open_nodes else "unexpected end of tree text")
        tok = tokens[i]
        i += 1
        if tok == "(":
            j = i
            while j < len(tokens) and tokens[j] not in "().":
                j += 1
            if j == i:
                raise ValueError("node is missing its label")
            open_nodes.append((Permutation.parse(" ".join(tokens[i:j])), []))
            i = j
            continue
        if tok == ".":
            done: GenTree = Leaf()
        elif tok == ")" and open_nodes:
            label, children = open_nodes.pop()
            done = Node(label, tuple(children))
        else:
            raise ValueError(f"expected '(' or '.', got {tok!r}")
        if not open_nodes:
            break
        open_nodes[-1][1].append(done)
    if i < len(tokens):
        raise ValueError(f"trailing content after tree: {' '.join(tokens[i:])}")
    check_tree(done)
    return done


def random_tree(rng, n: int, labels: Iterable[Permutation]) -> GenTree:
    """A random skewed generating tree with n leaves and labels from
    ``labels``, which must hold 12 and 21: runs of adjacent subtrees merge
    under a random label until one tree is left.  A 12 (21) that would take
    a first child labeled 12 (21) becomes 21 (12)."""
    labels = tuple(labels)
    parts: list[GenTree] = [Leaf()] * n
    while len(parts) > 1:
        label = rng.choice([s for s in labels if len(s) <= len(parts)])
        i = rng.randrange(len(parts) - len(label) + 1)
        first = parts[i]
        if label in (_P12, _P21) and isinstance(first, Node) and first.label == label:
            label = _P21 if label == _P12 else _P12
        parts[i : i + len(label)] = [Node(label, tuple(parts[i : i + len(label)]))]
    return parts[0]


def odd_up_even_down(n: int) -> tuple[int, ...]:
    """1 3 5 ... n-1 n n-2 ... 4 2 for even n: Baxter, and the slowest
    input for ``baxter_pair_scan``, quadratic in n."""
    return tuple(range(1, n, 2)) + (n,) + tuple(range(n - 2, 0, -2))


def inflate_entry(vals: tuple[int, ...], i: int, pattern: tuple[int, ...]) -> tuple[int, ...]:
    """``vals`` with its i-th entry inflated by ``pattern``."""
    v, m = vals[i], len(pattern)
    up = [x + m - 1 if x > v else x for x in vals]
    return tuple(up[:i] + [v - 1 + x for x in pattern] + up[i + 1 :])


def slicing_chain(depth: int, bottom: Permutation, first: bool = False) -> GenTree:
    """``depth`` nested cuts alternating 21 and 12 from the top, each with a
    leaf first and the rest of the chain second (``first``: the rest first
    and the leaf second), ending in a node labeled ``bottom`` over leaves."""
    t: GenTree = Node(bottom, (Leaf(),) * len(bottom))
    for level in reversed(range(depth)):
        t = Node(_P12 if level % 2 else _P21, (t, Leaf()) if first else (Leaf(), t))
    return t


# ------------------------------------------------ the walk by copies


def inflate(skeleton: Permutation, children: list[Permutation] | tuple[Permutation, ...]) -> Permutation:
    """Wreath product skeleton[child_1, ..., child_m].

    Child i occupies consecutive positions at slot i; its values land in the
    value range determined by the rank of skeleton value i.
    """
    m = len(skeleton)
    if len(children) != m:
        raise ValueError(f"skeleton of length {m} needs {m} children, got {len(children)}")
    sizes = [len(c) for c in children]
    val_off = [0] * m
    total = 0
    for v in range(1, m + 1):
        slot = skeleton.values.index(v)
        val_off[slot] = total
        total += sizes[slot]
    out: list[int] = []
    for slot, child in enumerate(children):
        off = val_off[slot]
        out.extend(off + cv for cv in child.values)
    return Permutation(tuple(out))


def perm_of_tree_by_inflation(t: GenTree) -> Permutation:
    """Reference ``perm_of_tree``: inflate every node's label by copies of
    its children's permutations, bottom-up."""
    return _fold(t, Permutation((1,)), lambda node, kids: inflate(node.label, kids))


def decompositions_by_copies(p: Permutation) -> Iterator[Decomposition]:
    """``decompose`` of every non-singleton part of p's recursive canonical
    decomposition, parents first and children left to right; each child is
    a re-ranked copy."""
    stack = [p]
    while stack:
        q = stack.pop()
        if len(q) == 1:
            continue
        d = decompose(q)
        yield d
        stack.extend(reversed(d.children))


def tree_of_perm_by_copies(p: Permutation, k: int) -> GenTree | None:
    """Reference ``tree_of_perm`` over ``decompositions_by_copies``."""
    if not baxter_pair_scan(p.values):
        raise NotBaxter("generating trees exist only for Baxter permutations")
    if k < 2:
        raise ValueError("order k must be >= 2")
    parts: list[Decomposition] = []
    for d in decompositions_by_copies(p):
        if len(d.skeleton) > k:
            return None
        parts.append(d)
    built: list[GenTree] = []
    for d in reversed(parts):
        kids = tuple(Leaf() if len(c) == 1 else built.pop() for c in d.children)
        built.append(Node(d.skeleton, kids))
    return built[0] if built else Leaf()


# ------------------------------------------------ the walk by splits


def _rank_seq(seq: tuple[int, ...]) -> tuple[int, ...]:
    order = sorted(range(len(seq)), key=seq.__getitem__)
    ranks = [0] * len(seq)
    for r, idx in enumerate(order, 1):
        ranks[idx] = r
    return tuple(ranks)


def _split(vals: tuple[int, ...], a: int, b: int, lo: int) -> tuple[tuple[int, ...], list[tuple[int, int, int]]]:
    """The canonical decomposition of ``vals[a:b]`` (length >= 2), whose
    values are ``lo..lo+b-a-1``: the skeleton's values and each child's
    ``(start, stop, lowest value)``, with nothing copied.

    One prefix scan stops at the first direct-sum cut (the prefix holds the
    lowest values) or skew-sum cut (the highest).  No range has cuts of both
    kinds, so the first cut found is the canonical one, and its first child
    is sum- (skew-) indecomposable.  With no cut, the maximal proper blocks
    partition the range: O(size * blocks).
    """
    top = lo + b - a - 1
    mx = mn = vals[a]
    for j in range(a + 1, b):  # the prefix is vals[a:j]
        if mx == lo + j - a - 1:
            return (1, 2), [(a, j, lo), (j, b, mx + 1)]
        if mn == top - (j - a) + 1:
            return (2, 1), [(a, j, mn), (j, b, lo)]
        v = vals[j]
        if v > mx:
            mx = v
        elif v < mn:
            mn = v

    kids: list[tuple[int, int, int]] = []
    i = a
    while i < b:
        stop, low = i + 1, vals[i]
        mn = mx = vals[i]
        for j in range(i + 1, b - 1 if i == a else b):  # proper blocks only
            v = vals[j]
            if v < mn:
                mn = v
            elif v > mx:
                mx = v
            if mx - mn == j - i:
                stop, low = j + 1, mn
        kids.append((i, stop, low))
        i = stop
    return _rank_seq(tuple(low for _, _, low in kids)), kids


def walk_by_split(vals: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], list[tuple[int, int, int]]]]:
    """``_split`` of every non-singleton part of the recursive canonical
    decomposition of ``vals``, parents first and children left to right,
    on an explicit stack of index ranges.  It decides nothing about Baxter."""
    stack = [(0, len(vals), 1)]
    while stack:
        a, b, lo = stack.pop()
        if b - a > 1:
            skeleton, kids = _split(vals, a, b, lo)
            yield skeleton, kids
            stack.extend(reversed(kids))


def tree_of_perm_by_split(p: Permutation, k: int) -> GenTree | None:
    """Reference ``tree_of_perm`` over ``walk_by_split``, after
    ``baxter_pair_scan`` has decided Baxter."""
    if not baxter_pair_scan(p.values):
        raise NotBaxter("generating trees exist only for Baxter permutations")
    if k < 2:
        raise ValueError("order k must be >= 2")
    parts = list(walk_by_split(p.values))
    if any(len(skeleton) > k for skeleton, _ in parts):
        return None
    built: list[GenTree] = []
    for skeleton, kids in reversed(parts):
        # later siblings were built first, so the first child is on top
        built.append(Node(Permutation(skeleton), tuple(Leaf() if b - a == 1 else built.pop() for a, b, _ in kids)))
    return built[0] if built else Leaf()


def baxter_quadruple_scan(values) -> bool:
    """Literal O(n^4) scan: no indices i<j<k<l may satisfy
    p[k] < p[i]+1 = p[l] < p[j]  or  p[j] < p[i] = p[l]+1 < p[k]."""
    n = len(values)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(k + 1, n):
                    pi, pj, pk, pl = values[i], values[j], values[k], values[l]
                    if pk < pi + 1 == pl < pj:
                        return False
                    if pj < pi == pl + 1 < pk:
                        return False
    return True


def baxter_pair_scan(values) -> bool:
    """Baxter test by value pairs: for each v, ``hrd.perm._baxter_pair_ok``
    scans the entries between v and v + 1 for a forbidden 3142 or 2413 with
    that outer pair.  Quadratic in the worst case."""
    pos = [0] * (len(values) + 1)
    for i, v in enumerate(values):
        pos[v] = i
    return all(_baxter_pair_ok(values, v, pos[v], pos[v + 1]) for v in range(1, len(values)))


def simple_baxter_perms_by_scan(length: int) -> tuple[Permutation, ...]:
    """All simple Baxter permutations of a given length, lexicographically.

    Exhaustive scan of the symmetric group; meant for desk-scale lengths.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    out = []
    for tup in itertools.permutations(range(1, length + 1)):
        if baxter_pair_scan(tup) and is_simple_by_scan(tup):
            out.append(Permutation(tup))
    return tuple(out)


def _pattern_of(seq) -> tuple:
    ranks = sorted(seq)
    return tuple(ranks.index(v) + 1 for v in seq)


def contains_pattern_bruteforce(text, pattern) -> bool:
    """Check every index subset of the text."""
    k = len(pattern)
    target = _pattern_of(pattern)
    for idxs in itertools.combinations(range(len(text)), k):
        if _pattern_of([text[i] for i in idxs]) == target:
            return True
    return False


def is_simple_by_scan(vals: tuple[int, ...]) -> bool:
    """Reference ``is_simple``: for every start, grow the segment and stop at
    the first proper one whose values are an interval.  O(n^2)."""
    n = len(vals)
    if n <= 2:
        return True
    for i in range(n):
        mn = mx = vals[i]
        last = n - 2 if i == 0 else n - 1  # skip the full interval
        for j in range(i + 1, last + 1):
            v = vals[j]
            if v < mn:
                mn = v
            elif v > mx:
                mx = v
            if mx - mn == j - i:
                return False
    return True


def blocks_bruteforce(values) -> set:
    """(start, end) pairs whose value set is a consecutive integer range."""
    n = len(values)
    out = set()
    for i in range(n):
        for j in range(i, n):
            seg = sorted(values[i : j + 1])
            if seg == list(range(seg[0], seg[0] + len(seg))):
                out.add((i + 1, j + 1))
    return out


def inflate_bruteforce(skeleton, children):
    """Wreath product straight from the definition: lay out value intervals
    by skeleton rank, then concatenate the patterned blocks."""
    sizes = [len(c) for c in children]
    starts = {}
    base = 1
    for v in sorted(skeleton):
        slot = skeleton.index(v)
        starts[slot] = base
        base += sizes[slot]
    out = []
    for slot, child in enumerate(children):
        lo = starts[slot]
        ordered = sorted(range(lo, lo + len(child)))
        out.extend(ordered[cv - 1] for cv in child)
    return tuple(out)


class Symmetries(NamedTuple):
    reverse: Permutation
    complement: Permutation
    inverse: Permutation


def symmetries(p: Permutation) -> Symmetries:
    """Reverse, complement and inverse images."""
    n = len(p)
    rev = tuple(reversed(p.values))
    comp = tuple(n + 1 - v for v in p.values)
    inv = [0] * n
    for i, v in enumerate(p.values):
        inv[v - 1] = i + 1
    return Symmetries(Permutation(rev), Permutation(comp), Permutation(tuple(inv)))


def _insert_top_left(g: MosaicFloorplan, side: str, j: int, new_id: int) -> MosaicFloorplan:
    """Insert a room at the top-left corner of a canonical floorplan.

    ``side="top"`` pushes the first j top-boundary rooms down onto a fresh
    horizontal line; ``side="left"`` pushes the first j left-boundary rooms
    right onto a fresh vertical line.  Doubling the coordinates first leaves
    odd ranks free for the fresh line, and canonicalization compresses them
    away again, so one insertion costs O(n log n).  ``enumerate_floorplans``
    and ``bp2fp_by_reinsertion`` are built on it.
    """
    entries = []
    if side == "top":
        tops = sorted((r for r in g.rooms if r.y1 == 0), key=lambda r: r.x1)
        covered = {r.id for r in tops[:j]}
        x_star = tops[j - 1].x2
        for r in g.rooms:
            y1 = 1 if r.id in covered else 2 * r.y1
            entries.append(Room(r.id, r.x1, y1, r.x2, 2 * r.y2))
        entries.append(Room(new_id, 0, 0, x_star, 1))
        box = g.width, 2 * g.height
    else:
        lefts = sorted((r for r in g.rooms if r.x1 == 0), key=lambda r: r.y1)
        covered = {r.id for r in lefts[:j]}
        y_star = lefts[j - 1].y2
        for r in g.rooms:
            x1 = 1 if r.id in covered else 2 * r.x1
            entries.append(Room(r.id, x1, r.y1, 2 * r.x2, r.y2))
        entries.append(Room(new_id, 0, 0, 1, y_star))
        box = 2 * g.width, g.height
    return canonical(MosaicFloorplan(*box, tuple(entries)))


def bp2fp_by_reinsertion(p):
    """Reference ``bp2fp``: one top-left insertion per label, each followed
    by a re-canonicalization of the whole floorplan, with the insertion
    chosen by searching the boundary rooms' bottom-left reading slots.
    O(n^2 log n); the input must be a Baxter permutation."""
    n = len(p)
    g = MosaicFloorplan(1, 1, (Room(n, 0, 0, 1, 1),))
    reading = [n]
    for label in range(n - 1, 0, -1):
        kept = [v for v in p.values if v >= label]
        q = kept.index(label) + 1
        idx = {lab: i + 1 for i, lab in enumerate(reading)}
        move = None
        cur = None
        lefts = sorted((r for r in g.rooms if r.x1 == 0), key=lambda r: r.y1)
        for j, r in enumerate(lefts, 1):
            cur = idx[r.id] if cur is None else min(cur, idx[r.id])
            if cur == q:
                move = ("left", j)
                break
        if move is None:
            cur = None
            tops = sorted((r for r in g.rooms if r.y1 == 0), key=lambda r: r.x1)
            for j, r in enumerate(tops, 1):
                cur = idx[r.id] if cur is None else max(cur, idx[r.id])
                if cur + 1 == q:
                    move = ("top", j)
                    break
        if move is None:
            raise AssertionError(f"no insertion realizes reading slot {q}; input was not Baxter?")
        g = _insert_top_left(g, move[0], move[1], label)
        reading.insert(q - 1, label)
    return g


def delete_top_left_by_scan(width, height, rooms):
    """Top-left deletion that scans every room for the sliding edge; returns
    the remaining rooms and the deleted id."""
    b = next(r for r in rooms if r.x1 == 0 and r.y1 == 0)
    vertical = b.x2 == width or any(r.x1 == b.x2 and r.y1 <= b.y2 < r.y2 for r in rooms)
    rest = []
    for r in rooms:
        if r.id == b.id:
            continue
        if vertical and r.y1 == b.y2 and r.x2 <= b.x2:
            r = r._replace(y1=0)
        elif not vertical and r.x1 == b.x2 and r.y2 <= b.y2:
            r = r._replace(x1=0)
        rest.append(r)
    return rest, b.id


def deletion_labels_by_scan(f):
    """room id -> top-left deletion label of a valid floorplan, one full
    scan per deletion: O(n^2)."""
    labels = {}
    rooms = list(f.rooms)
    for step in range(1, f.n):
        rooms, rid = delete_top_left_by_scan(f.width, f.height, rooms)
        labels[rid] = step
    labels[rooms[0].id] = f.n
    return labels


def fp2bp_by_scan(f):
    """Reference ``fp2bp`` values: top-left deletion labels read in the
    top-left deletion order of the vertical mirror, both by full scans."""
    labels = deletion_labels_by_scan(f)
    mirror = MosaicFloorplan(
        f.width,
        f.height,
        tuple(Room(r.id, r.x1, f.height - r.y2, r.x2, f.height - r.y1) for r in f.rooms),
    )
    reading = deletion_labels_by_scan(mirror)
    return tuple(labels[rid] for rid in sorted(labels, key=reading.__getitem__))


def _top_left_order(width: int, height: int, rooms: Iterable[tuple]) -> list[int]:
    """Room ids of a valid floorplan in top-left deletion order, by the
    production ``_delete_top_left`` on a corner index; O(n)."""
    at = _corner_index(rooms)
    order = [_delete_top_left(at, width, height)[0] for _ in range(len(at) - 1)]
    order.append(at[0, 0][2])
    return order


def _deletion_labels(g: MosaicFloorplan) -> dict[int, int]:
    """room id -> top-left deletion label (1..n) of a valid floorplan."""
    order = _top_left_order(g.width, g.height, g.rooms)
    return {rid: label for label, rid in enumerate(order, 1)}


def fp2bp_by_two_orders(f: MosaicFloorplan) -> Permutation:
    """Reference ``fp2bp``: the top-left deletion labels read in the
    top-left deletion order of the vertical mirror, two whole deletion
    orders on two corner indexes."""
    _require_valid(f)
    labels = _deletion_labels(f)
    h = f.height
    mirror = ((rid, x1, h - y2, x2, h - y1) for rid, x1, y1, x2, y2 in f.rooms)
    return Permutation(tuple(labels[rid] for rid in _top_left_order(f.width, f.height, mirror)))


def diagnose_by_grid(f: MosaicFloorplan) -> list[str]:
    """Reference ``diagnose``: fills the canonical cell grid, reporting the
    first cell covered twice, then the first cell not covered, then every
    grid point where four rooms meet.  O(W*H) on the canonical grid."""
    msgs: list[str] = []
    if f.width < 1 or f.height < 1:
        msgs.append(f"bounding rectangle {f.width}x{f.height} is degenerate")
    if not f.rooms:
        msgs.append("a floorplan needs at least one room")
        return msgs
    seen_ids = set()
    for r in f.rooms:
        for c in (r.x1, r.y1, r.x2, r.y2):
            if not isinstance(c, int) or isinstance(c, bool):
                msgs.append(f"room {r.id}: coordinates must be integers")
                break
        else:
            if not (0 <= r.x1 < r.x2 <= f.width and 0 <= r.y1 < r.y2 <= f.height):
                msgs.append(f"room {r.id}: rectangle ({r.x1},{r.y1})-({r.x2},{r.y2}) is not a proper box inside the bounds")
        if r.id in seen_ids:
            msgs.append(f"duplicate room id {r.id}")
        seen_ids.add(r.id)
    if msgs:
        return msgs

    g = canonical(f)
    grid = [[None] * g.width for _ in range(g.height)]
    for r in g.rooms:
        for y in range(r.y1, r.y2):
            for x in range(r.x1, r.x2):
                if grid[y][x] is not None:
                    msgs.append(f"rooms {grid[y][x]} and {r.id} overlap")
                    return msgs
                grid[y][x] = r.id
    for y in range(g.height):
        for x in range(g.width):
            if grid[y][x] is None:
                msgs.append(f"uncovered area around grid cell ({x},{y})")
                return msgs

    for y in range(1, g.height):
        for x in range(1, g.width):
            nw, ne = grid[y - 1][x - 1], grid[y - 1][x]
            sw, se = grid[y][x - 1], grid[y][x]
            if nw != ne and sw != se and nw != sw and ne != se:
                msgs.append(f"'+' junction at grid point ({x},{y})")
    return msgs


def diagnose_by_passes(f: MosaicFloorplan) -> list[str]:
    """Reference ``diagnose`` with the same checks and messages, three
    passes over the rooms: types, bounds and ids, each coordinate tested by
    ``isinstance``; then the area; then the corner ``Counter``."""
    if not all(isinstance(c, int) and not isinstance(c, bool) for c in (f.width, f.height)):
        return [f"bounding rectangle {f.width}x{f.height}: width and height must be integers"]
    msgs: list[str] = []
    if f.width < 1 or f.height < 1:
        msgs.append(f"bounding rectangle {f.width}x{f.height} is degenerate")
    if not f.rooms:
        msgs.append("a floorplan needs at least one room")
        return msgs
    seen_ids = set()
    for r in f.rooms:
        for c in (r.x1, r.y1, r.x2, r.y2):
            if not isinstance(c, int) or isinstance(c, bool):
                msgs.append(f"room {r.id}: coordinates must be integers")
                break
        else:
            if not (0 <= r.x1 < r.x2 <= f.width and 0 <= r.y1 < r.y2 <= f.height):
                msgs.append(f"room {r.id}: rectangle ({r.x1},{r.y1})-({r.x2},{r.y2}) is not a proper box inside the bounds")
        try:
            if r.id in seen_ids:
                msgs.append(f"duplicate room id {r.id}")
            seen_ids.add(r.id)
        except TypeError:
            msgs.append(f"room {r.id}: id must be hashable")
    if msgs:
        return msgs

    area = sum((r.x2 - r.x1) * (r.y2 - r.y1) for r in f.rooms)
    if area > f.width * f.height:
        return [f"rooms overlap: their areas add up to {area}, more than {f.width}*{f.height}"]
    if area < f.width * f.height:
        return [f"uncovered area: the rooms' areas add up to {area}, less than {f.width}*{f.height}"]
    corners = Counter(p for r in f.rooms for p in ((r.x1, r.y1), (r.x2, r.y1), (r.x1, r.y2), (r.x2, r.y2)))
    odd = {p for p, k in corners.items() if k % 2}
    unmatched = odd ^ {(0, 0), (f.width, 0), (0, f.height), (f.width, f.height)}
    if unmatched:
        x, y = min(unmatched, key=lambda p: (p[1], p[0]))
        return [f"rooms overlap and leave a gap: ({x},{y}) is a corner of {corners[x, y]} rooms"]
    return [f"'+' junction at point ({x},{y})" for (x, y), k in corners.items() if k == 4]


def parse_floorplan_by_lines(text: str) -> MosaicFloorplan:
    """Reference ``parse_floorplan`` with the same checks and messages:
    the text is cut at each ``\n``, ``\r\n`` or ``\r`` by a regular
    expression, and every line's tokens go through ``hrd._ascii_ints`` and
    ``Room``'s own constructor."""
    lines = re.split(r"\r\n|\r|\n", text)
    if lines[-1] == "":
        del lines[-1]
    if not lines or not lines[0].split():
        raise FloorplanFormatError(1, "missing 'W H n' header")
    try:
        width, height, n = _ascii_ints(lines[0].split())
    except ValueError:
        raise FloorplanFormatError(1, "header must be three integers: W H n") from None
    rooms = []
    lineno = 1
    for lineno, raw in enumerate(lines[1:], 2):
        toks = raw.split()
        if not toks:
            continue
        if len(toks) != 5:
            raise FloorplanFormatError(lineno, "room line must be five integers: id x1 y1 x2 y2")
        try:
            rooms.append(Room(*_ascii_ints(toks)))
        except ValueError:
            raise FloorplanFormatError(lineno, "room line must be five integers: id x1 y1 x2 y2") from None
    if len(rooms) != n:
        raise FloorplanFormatError(lineno, f"header announced {n} rooms, found {len(rooms)}")
    return MosaicFloorplan(width, height, tuple(rooms))


def render_by_grid(f: MosaicFloorplan) -> str:
    """Reference ``render``: decides every grid point and every unit of wall
    from the canonical cell grid, a wall lying between two different rooms
    or on the box; O(W*H) on the canonical grid.  Cells are 6 columns wide,
    or the longest id plus 2 when some id is longer than 5."""
    _require_valid(f)
    longest = max(len(str(r.id)) for r in f.rooms)
    cell_width, cell_height = 6 if longest <= 5 else longest + 2, 2
    g = canonical(f)
    grid = _grid(g)
    W, H = g.width, g.height

    def hwall(x: int, y: int) -> bool:
        return y == 0 or y == H or grid[y - 1][x] != grid[y][x]

    def vwall(x: int, y: int) -> bool:
        return x == 0 or x == W or grid[y][x - 1] != grid[y][x]

    cols = W * cell_width + 1
    rows = H * cell_height + 1
    canvas = [[" "] * cols for _ in range(rows)]
    for y in range(H + 1):
        for x in range(W):
            if hwall(x, y):
                for c in range(x * cell_width + 1, (x + 1) * cell_width):
                    canvas[y * cell_height][c] = "-"
    for x in range(W + 1):
        for y in range(H):
            if vwall(x, y):
                for rr in range(y * cell_height + 1, (y + 1) * cell_height):
                    canvas[rr][x * cell_width] = "|"
    for y in range(H + 1):
        for x in range(W + 1):
            hl = x > 0 and hwall(x - 1, y)
            hr = x < W and hwall(x, y)
            vu = y > 0 and vwall(x, y - 1)
            vd = y < H and vwall(x, y)
            if (hl or hr) and (vu or vd):
                canvas[y * cell_height][x * cell_width] = "+"
            elif hl or hr:
                canvas[y * cell_height][x * cell_width] = "-"
            elif vu or vd:
                canvas[y * cell_height][x * cell_width] = "|"
    for r in g.rooms:
        text = str(r.id)
        row = (r.y1 + r.y2) * cell_height // 2
        col = (r.x1 + r.x2) * cell_width // 2 - len(text) // 2
        for i, ch in enumerate(text):
            canvas[row][col + i] = ch
    return "\n".join("".join(row).rstrip() for row in canvas) + "\n"


def enumerate_floorplans(n: int) -> Iterator[MosaicFloorplan]:
    """Every mosaic floorplan with n rooms exactly once.

    Generated bottom-up by top-left insertions; each floorplan arises from
    exactly one (smaller floorplan, insertion) pair, so no deduplication is
    needed.  Geometry only; labels are not assigned.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        yield single_room()
        return
    for g in enumerate_floorplans(n - 1):
        s = sum(1 for r in g.rooms if r.x1 == 0)
        t = sum(1 for r in g.rooms if r.y1 == 0)
        for j in range(1, s + 1):
            yield _insert_top_left(g, "left", j, n)
        for j in range(1, t + 1):
            yield _insert_top_left(g, "top", j, n)


class Segment(NamedTuple):
    """Maximal wall segment on the canonical grid."""

    orientation: str  # "h" or "v"
    level: int  # y for horizontal segments, x for vertical ones
    start: int
    end: int


class SegRoomRelation(NamedTuple):
    segment: Segment
    room: int  # top-left deletion label
    side: str  # one of "top", "left", "right", "bottom"


def _wall_segments(g: MosaicFloorplan) -> list[Segment]:
    grid = _grid(g)
    segs: list[Segment] = []
    for y in range(g.height + 1):
        run_start = None
        for x in range(g.width + 1):
            wall = x < g.width and (
                y == 0 or y == g.height or grid[y - 1][x] != grid[y][x]
            )
            if wall and run_start is None:
                run_start = x
            elif not wall and run_start is not None:
                segs.append(Segment("h", y, run_start, x))
                run_start = None
    for x in range(g.width + 1):
        run_start = None
        for y in range(g.height + 1):
            wall = y < g.height and (
                x == 0 or x == g.width or grid[y][x - 1] != grid[y][x]
            )
            if wall and run_start is None:
                run_start = y
            elif not wall and run_start is not None:
                segs.append(Segment("v", x, run_start, y))
                run_start = None
    return segs


def seg_room_relations(f: MosaicFloorplan) -> list[SegRoomRelation]:
    """All (maximal segment, room, side) incidences, canonically ordered.

    Segments are sorted by geometry and rooms are identified by their
    top-left deletion label, so relabelling or re-spacing a floorplan does
    not change the relation set.
    """
    _require_valid(f)
    g = canonical(f)
    labels = _deletion_labels(g)
    segs = _wall_segments(g)

    def containing(orientation: str, level: int, lo: int, hi: int) -> Segment:
        for s in segs:
            if s.orientation == orientation and s.level == level and s.start <= lo and hi <= s.end:
                return s
        raise AssertionError("room edge not covered by any wall segment")

    rels = []
    for r in g.rooms:
        lab = labels[r.id]
        rels.append(SegRoomRelation(containing("h", r.y1, r.x1, r.x2), lab, "top"))
        rels.append(SegRoomRelation(containing("h", r.y2, r.x1, r.x2), lab, "bottom"))
        rels.append(SegRoomRelation(containing("v", r.x1, r.y1, r.y2), lab, "left"))
        rels.append(SegRoomRelation(containing("v", r.x2, r.y1, r.y2), lab, "right"))
    rels.sort(key=lambda rel: (rel.segment, rel.room, rel.side))
    return rels


def enveloping_rectangles(f: MosaicFloorplan) -> set[frozenset[int]]:
    """Label sets of all rectangles that are unions of rooms.

    Labels are the top-left deletion labels; singletons and the full
    bounding rectangle are included.
    """
    _require_valid(f)
    g = canonical(f)
    labels = _deletion_labels(g)
    out: set[frozenset[int]] = set()
    for x1 in range(g.width):
        for x2 in range(x1 + 1, g.width + 1):
            for y1 in range(g.height):
                for y2 in range(y1 + 1, g.height + 1):
                    inside: list[int] = []
                    exact = True
                    for r in g.rooms:
                        if r.x2 <= x1 or r.x1 >= x2 or r.y2 <= y1 or r.y1 >= y2:
                            continue
                        if x1 <= r.x1 and r.x2 <= x2 and y1 <= r.y1 and r.y2 <= y2:
                            inside.append(labels[r.id])
                        else:
                            exact = False
                            break
                    if exact and inside:
                        out.add(frozenset(inside))
    return out


def floorplan_of_tree(t: GenTree) -> MosaicFloorplan:
    """Realize a tree geometrically by embedding, children before parents.

    The base floorplan of a node is built from its label; the child at
    position i (whose values form value block sigma[i]) is embedded into the
    base room labeled sigma[i].  Embedded walls are placed on grid lines
    that are fresh for the whole arrangement (each child draws from its own
    disjoint offset block), so no accidental collinearity can produce a '+'
    junction.  The result is rank-canonical with fresh room ids.
    """

    def embed(node: Node, kids: list[MosaicFloorplan]) -> MosaicFloorplan:
        drawn = bp2fp(node.label)
        base = {r.id: r for r in drawn.rooms}
        # scale the base grid so each room can host its child's interior
        # lines on globally unused coordinates
        kx = sum(c.width - 1 for c in kids) + 1
        ky = sum(c.height - 1 for c in kids) + 1
        off_x = off_y = 0
        ids = itertools.count(1)
        entries: list[Room] = []
        for pos, child in enumerate(kids):
            room = base[node.label.values[pos]]

            def map_x(cx: int, room=room, child=child, off=off_x) -> int:
                if cx == 0:
                    return room.x1 * kx
                if cx == child.width:
                    return room.x2 * kx
                return room.x1 * kx + off + cx

            def map_y(cy: int, room=room, child=child, off=off_y) -> int:
                if cy == 0:
                    return room.y1 * ky
                if cy == child.height:
                    return room.y2 * ky
                return room.y1 * ky + off + cy

            for cr in child.rooms:
                entries.append(Room(next(ids), map_x(cr.x1), map_y(cr.y1), map_x(cr.x2), map_y(cr.y2)))
            off_x += child.width - 1
            off_y += child.height - 1
        return canonical(MosaicFloorplan(drawn.width * kx, drawn.height * ky, tuple(entries)))

    return _fold(t, single_room(), embed)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Ordered compositions of ``total`` into ``parts`` positive parts, lex order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _trees(k: int, n: int) -> tuple[GenTree, ...]:
    if n == 1:
        return (Leaf(),)
    out: list[GenTree] = []
    for length in range(2, min(k, n) + 1):
        for label in census_simple_baxter(length):
            restricted = label if label in (_P12, _P21) else None
            for comp in _compositions(n, length):
                for kids in itertools.product(*(_trees(k, m) for m in comp)):
                    first = kids[0]
                    if restricted is not None and isinstance(first, Node) and first.label == restricted:
                        continue
                    out.append(Node(label, kids))
    return tuple(out)


def enumerate_trees(k: int, n: int) -> Iterator[GenTree]:
    """Every skewed generating tree of order k with n leaves, exactly once.

    Deterministic order: label length, then label lexicographically, then
    leaf-count composition, then child tuples.
    """
    if k < 2:
        raise ValueError("order k must be >= 2")
    if n < 1:
        raise ValueError("leaf count must be >= 1")
    yield from _trees(k, n)


def count_hrd_literal(n: int) -> int:
    """The order-5 count t_n, evaluated exactly as the recurrence is written:

        t_n = t_{n-1} + sum t_i t_{n-i}
              + 2 * sum over 6-part compositions of n of the t-products
              + 2 * sum over 5-part compositions of n of the t-products

    using direct nested summation over the compositions.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    t = [0] * (n + 1)
    t[1] = 1
    for m in range(2, n + 1):
        x = 0
        for i in range(1, m):
            x += t[i] * t[m - i]
        y = 0  # five-part compositions
        for i in range(1, m - 3):
            for j in range(1, m - i - 2):
                for kk in range(1, m - i - j - 1):
                    for l in range(1, m - i - j - kk):
                        y += t[i] * t[j] * t[kk] * t[l] * t[m - i - j - kk - l]
        z = 0  # six-part compositions
        for h in range(1, m - 4):
            for i in range(1, m - h - 3):
                for j in range(1, m - h - i - 2):
                    for kk in range(1, m - h - i - j - 1):
                        for l in range(1, m - h - i - j - kk):
                            z += t[h] * t[i] * t[j] * t[kk] * t[l] * t[m - h - i - j - kk - l]
        t[m] = t[m - 1] + x + 2 * z + 2 * y
    return t[n]


def _composition_sum(t: list[int], m: int, parts: int) -> int:
    """Sum of t-products over ordered compositions of m into ``parts``
    positive parts, by direct recursion (no memoization)."""
    if parts == 1:
        return t[m] if 1 <= m < len(t) else 0
    total = 0
    for first in range(1, m - parts + 2):
        total += t[first] * _composition_sum(t, m - first, parts - 1)
    return total


def count_hrd(k: int, n: int) -> int:
    """t_n for any order k, by the paper's recurrence with direct
    composition sums."""
    _check_order_and_size(k, n)
    s = skeleton_counts(min(k, n))
    t = [0] * (n + 1)
    t[1] = 1
    for m in range(2, n + 1):
        skel = 0
        for length, mult in s.items():
            skel += mult * (_composition_sum(t, m, length) + _composition_sum(t, m, length + 1))
        t[m] = t[m - 1] + _composition_sum(t, m, 2) + skel
    return t[n]


@lru_cache(maxsize=None)
def _order_histogram(n: int) -> tuple[tuple[int, int], ...]:
    """(hierarchy order, count) pairs over all Baxter permutations of S_n."""
    hist: dict[int, int] = {}
    for tup in itertools.permutations(range(1, n + 1)):
        if not baxter_pair_scan(tup):
            continue
        o = hierarchy_order(Permutation(tup))
        hist[o] = hist.get(o, 0) + 1
    return tuple(sorted(hist.items()))


def recur_by_polynomials(t: list[int], operator: tuple[tuple[int, ...], ...], n_max: int) -> None:
    """Extend t to t_{n_max} by sum_i p_i(n) t_{n+i} = 0, as ``_recur`` does,
    stepping each p_i from n to n + 1 by deg p_i additions of its forward
    differences, and raising ArithmeticError on a remainder."""
    r = len(operator) - 1
    tables = [list(d) for d in operator]
    for n in range(n_max - r + 1):
        if n + r >= len(t):
            q, rem = divmod(-sum(d[0] * t[n + i] for i, d in enumerate(tables[:r])), tables[r][0])
            if rem:
                raise ArithmeticError(f"the operator leaves a remainder at t_{n + r}")
            t.append(q)
        tables = [list(map(add, d, d[1:])) + d[-1:] for d in tables]


def oracle_count(k: int, n: int) -> int:
    """|{p in S_n : is_hrd(p, k)}| by exhaustive scan.

    Uses only the permutation and tree predicates; shares nothing with the
    recurrence evaluations above.
    """
    _check_order_and_size(k, n)
    return sum(count for order, count in _order_histogram(n) if order <= k)
