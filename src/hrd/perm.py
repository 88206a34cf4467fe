"""Permutation algebra: Baxter and simple predicates, the canonical
substitution decomposition, and the simple Baxter permutations, which label
the irreducible dissections.

Positions and values are one-indexed throughout.  A permutation of length n
is a bijection on {1..n} kept in one-line notation, so ``41352`` sends
position 1 to value 4.

``is_baxter`` is the O(n) corner-insertion pass ``_insertions``, which
``floorplan.bp2fp`` places its rooms on and ``_decomposition`` runs on
each skeleton; the census prunes with its pair test, ``_baxter_pair_ok``.
``_decomposition`` builds the recursive canonical decomposition in one
left-to-right stack pass, which ``decompose``, ``is_simple`` and ``gentree``
read.  It is linear on slicing chains nested either way; its worst case,
O(n^2), is one large simple skeleton such as the spiral 4 9 5 3 6 2 7 1 8
..., each of whose entries scans the whole stack.  ``is_ihrd`` tests
irreducibility.  ``census_simple_baxter`` lists the simple Baxter
permutations of one length from 2 up to ``CENSUS_CAP`` by one pruned
search, and ``_grow_label`` finds one two longer that contains it, asking
``is_ihrd`` of each candidate.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from . import CapExceeded, _ascii_ints

# longest census: listing length 11 takes about 2 s, length 12 about 12 s
# (one run each, Python 3.11 on a 2-vCPU VM)
CENSUS_CAP = 11


class _Frozen:
    """A record whose slots ``__init__`` sets once, through
    ``object.__setattr__`` or a slot's own ``__set__``; any later assignment
    raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Permutation(_Frozen):
    """Immutable one-line permutation of {1..n}, equal to another exactly
    when their values are."""

    __slots__ = ("values",)
    values: tuple[int, ...]

    def __init__(self, values: tuple[int, ...]) -> None:
        n = len(values)
        if n == 0:
            raise ValueError("a permutation needs length >= 1")
        seen = [False] * (n + 1)
        for v in values:
            if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= n or seen[v]:
                raise ValueError(f"not a bijection onto 1..{n}: {values!r}")
            seen[v] = True
        object.__setattr__(self, "values", values)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Permutation:
            return self.values == other.values
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.values,))

    @classmethod
    def parse(cls, text: str) -> Permutation:
        """Parse whitespace-separated values, or a compact digit string.

        The compact form (``41352``) is accepted only for n <= 9, where it is
        unambiguous.
        """
        tokens = text.split()
        if not tokens:
            raise ValueError("empty permutation text")
        if len(tokens) == 1 and len(tokens[0]) > 1 and tokens[0].isascii() and tokens[0].isdigit():
            if len(tokens[0]) > 9:
                raise ValueError("compact digit form is limited to n <= 9")
            return cls(tuple(int(ch) for ch in tokens[0]))
        try:
            values = tuple(_ascii_ints(tokens))
        except ValueError:
            raise ValueError(f"malformed permutation text: {text!r}") from None
        return cls(values)

    def compact(self) -> str:
        """Digit-string form, defined for n <= 9 only."""
        if len(self.values) > 9:
            raise ValueError("compact form is limited to n <= 9")
        return "".join(str(v) for v in self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.values)

    def __repr__(self) -> str:
        return f"Permutation({' '.join(str(v) for v in self.values)})"


class Decomposition(NamedTuple):
    """Canonical substitution decomposition p = skeleton[child_1, ..., child_m].

    The skeleton is simple and non-singleton.  When the skeleton is 12
    (resp. 21) the first child is the minimal one, i.e. it cannot itself be
    written as 12[b, c] (resp. 21[b, c]).
    """

    skeleton: Permutation
    children: tuple[Permutation, ...]


def _baxter_pair_ok(vals, v: int, i: int, j: int) -> bool:
    """False iff values v and v+1, at indices i and j of ``vals``, are the
    outer pair of a forbidden 3142 or 2413: read from v+1 towards v, the
    entries between them hold a value below v and later one above v+1."""
    step = 1 if j < i else -1
    seen_small = False
    for k in range(j + step, i, step):
        if vals[k] < v:
            seen_small = True
        elif vals[k] > v + 1 and seen_small:
            return False
    return True


def _insertions(vals: tuple[int, ...]) -> tuple[list[int], list[int], list[int]]:
    """Rebuild, without coordinates, the mosaic floorplan whose label
    permutation (``fp2bp``) is ``vals``; ValueError unless ``vals`` is Baxter.

    Rooms go in at the top-left corner in decreasing label order, each
    inverting a top-left deletion: a push moves the rooms nearest the corner
    on the left boundary right, or on the top boundary down, onto a fresh
    line.  The bottom-left reading, ``vals`` restricted to the labels
    inserted so far, runs up the left boundary and on along the top one, so
    label i takes its slot by a left push down to its successor there, the
    next greater value to its right, when that room is on the left boundary,
    and else by a top push up to its predecessor, the previous greater value
    to its left, which must then be on the top boundary.  A room stays on a
    boundary until a push covers it there, so two stacks hold the boundaries
    and the insertions cost O(n) in all.

    Every label finds its slot exactly when ``vals`` is Baxter: the result
    is then a floorplan whose ``fp2bp`` is ``vals``, and a Baxter ``vals``
    is the ``fp2bp`` image of a floorplan whose deletions these invert.

    Per room (its label) 1..n, returns the label whose left push covered it
    and the one whose top push did (0 if none), and the room its own push
    ran to, which that push covered on the left exactly if it was a left push.
    """
    n = len(vals)
    anchor, before = [0] * (n + 1), [0] * (n + 1)  # next greater value to the right, previous greater to the left
    pending: list[int] = []
    for v in vals:
        while pending and pending[-1] < v:
            anchor[pending.pop()] = v
        before[v] = pending[-1] if pending else 0
        pending.append(v)

    left_by, top_by = [0] * (n + 1), [0] * (n + 1)
    lefts, tops = [n], [n]  # the rooms on each boundary, the corner room last
    for label in range(n - 1, 0, -1):
        v, u = anchor[label], before[label]
        if v and not left_by[v]:  # v is still on the left boundary: cover the rooms down to it
            while not left_by[v]:
                left_by[lefts.pop()] = label
        elif u and not top_by[u]:
            while not top_by[u]:
                top_by[tops.pop()] = label
            anchor[label] = u
        else:
            raise ValueError("not a Baxter permutation")
        lefts.append(label)
        tops.append(label)
    return left_by, top_by, anchor


def is_baxter(p: Permutation) -> bool:
    """No 3142 or 2413 whose outer pair differs by 1: ``_insertions``, O(n)."""
    try:
        _insertions(p.values)
    except ValueError:
        return False
    return True


def _child(vals: tuple[int, ...], start: int, stop: int, lo: int) -> Permutation:
    """The pattern of ``vals[start:stop]``, whose values are the interval
    starting at ``lo``: every block of a decomposition is one.  Built via a
    list, since a tuple grown from a generator keeps spare capacity."""
    return Permutation(tuple([v - lo + 1 for v in vals[start:stop]]))


_UP, _DOWN = (1, 2), (2, 1)


def _decomposition(vals: tuple[int, ...], k: int, baxter: bool = True) -> tuple[tuple, int] | None:
    """The recursive canonical decomposition of ``vals`` in one stack pass:
    the root block and the longest skeleton's length, or None at the first
    skeleton longer than k.  With ``baxter``, ``_insertions`` checks every
    skeleton longer than 2 and raises ValueError if it is not Baxter.

    A block ``(start, lo, hi, skeleton, kids)`` holds the values lo..hi from
    position start on, both None for one entry; a 12 (21) block's kids A1,
    A2, ... stand for 12[A1, 12[A2, ...]].  A new block merges with a top
    whose values meet its own, into the top's kids if joined the same way;
    else the nearest run of stacked blocks ending at it whose values are an
    interval is a prime node over them (Bose, Buss & Lubiw's separating-tree
    stack, extended to prime nodes).  The scan down stops once the run's
    range covers a value still to come, a scanned block's lo - 1 or hi + 1.
    """
    n = len(vals)
    at = [-1] * (n + 2)  # position of each value; 0 and n + 1 never come
    for i, v in enumerate(vals):
        at[v] = i
    stack, order = [], min(n, 2)
    for i, v in enumerate(vals):
        start, lo, hi = i, v, v
        skeleton = kids = None
        while stack:
            top = stack[-1]
            up = top[2] + 1 == lo
            if up or hi + 1 == top[1]:
                stack.pop()
                child = (start, lo, hi, skeleton, kids)
                skeleton = _UP if up else _DOWN
                kids = top[4] if top[3] is skeleton else [top]
                kids.append(child)
                start, lo, hi = top[0], top[1] if up else lo, hi if up else top[2]
                continue
            below, above = at[lo - 1], at[hi + 1]
            low, high, under, over, found = lo, hi, below > i, above > i, False
            for s, l, h, _, _, b, a, j in reversed(stack):
                if l < low:  # a value to come inside the range stops the scan
                    if under or a > i:
                        break
                    low, under = l, b > i
                elif h > high:
                    if over or b > i:
                        break
                    high, over = h, a > i
                elif a > i or b > i:
                    break
                if high - low == i - s:
                    found = True
                    break
            if not found:
                break
            node = stack[j:] + [(start, lo, hi, skeleton, kids)]
            del stack[j:]
            if len(node) > k:
                return None
            lows, ranks = [b[1] for b in node], [0] * len(node)
            for r, x in enumerate(sorted(range(len(node)), key=lows.__getitem__), 1):
                ranks[x] = r
            skeleton = tuple(ranks)
            if baxter:
                _insertions(skeleton)
            start, lo, hi, kids, order = node[0][0], low, high, node, max(order, len(node))
        else:
            below, above = at[lo - 1], at[hi + 1]
        stack.append((start, lo, hi, skeleton, kids, below, above, len(stack)))  # positions of lo - 1, hi + 1
    return stack[0], order


def is_simple(p: Permutation) -> bool:
    """True iff every block is a singleton or the whole interval.

    By this reading 1, 12 and 21 are simple.  Read off the pass: only the
    root of a simple permutation longer than 2, one child per entry, has a
    skeleton longer than n - 1.
    """
    return len(p) <= 2 or _decomposition(p.values, len(p) - 1, False) is None


def is_ihrd(p: Permutation) -> bool:
    """True iff p labels an irreducible dissection: simple, Baxter, length >= 2."""
    return len(p) >= 2 and is_baxter(p) and is_simple(p)


def decompose(p: Permutation) -> Decomposition:
    """The unique canonical decomposition with a simple non-singleton skeleton.

    Direct sums give skeleton 12 with a minimal (sum-indecomposable) first
    child, skew sums give 21 likewise; otherwise the maximal proper blocks
    partition the positions and their pattern is the skeleton.
    """
    if len(p) < 2:
        raise ValueError("cannot decompose a singleton")
    vals = p.values
    _, _, _, skeleton, kids = _decomposition(vals, len(vals), False)[0][:5]
    ranges = [(s, s + h - l + 1, l) for s, l, h, *_ in kids]
    if len(skeleton) == 2:  # a 12 (21) root splits after its first component
        ranges[1:] = [(ranges[0][1], len(vals), ranges[0][1] + 1 if skeleton is _UP else 1)]
    return Decomposition(Permutation(skeleton), tuple(_child(vals, *r) for r in ranges))


def census_simple_baxter(length: int) -> tuple[Permutation, ...]:
    """The skeletons of one length l, 2 <= l <= CENSUS_CAP, whose number is
    s_l: all simple Baxter permutations of that length, lexicographically.

    Depth-first search over prefixes, smallest value first, on an explicit
    stack.  A prefix is dropped once it holds a Baxter violation between two
    placed values v and v+1, or ends in a block of length 2..length-1.  No
    later entry can undo either: the entries between two placed positions
    are placed, and consecutive positions holding an interval of values stay
    a block in every completion.  Each condition of the two predicates is
    tested when the last entry it involves is placed, so the survivors of
    full length are exactly the simple Baxter permutations.
    """
    if length < 2:
        raise ValueError("census is defined for lengths >= 2")
    if length > CENSUS_CAP:
        raise CapExceeded(f"census length {length} exceeds the cap {CENSUS_CAP}")
    n = length
    vals: list[int] = []
    pos = [-1] * (n + 2)  # index of each placed value; -1 also for 0 and n+1
    out = []
    v = 1  # the next value to try at depth len(vals)
    while vals or v <= n:
        if v > n:  # this depth is exhausted: try the parent's next value
            v = vals.pop()
            pos[v] = -1
        elif pos[v] < 0:
            i = pos[v] = len(vals)
            vals.append(v)
            ok = (pos[v - 1] < 0 or _baxter_pair_ok(vals, v - 1, pos[v - 1], i)) and (
                pos[v + 1] < 0 or _baxter_pair_ok(vals, v, i, pos[v + 1])
            )
            lo = hi = v
            j = i - 1
            while ok and j >= (i == n - 1):  # suffix blocks of length 2..n-1
                if vals[j] < lo:
                    lo = vals[j]
                elif vals[j] > hi:
                    hi = vals[j]
                ok = hi - lo != i - j
                j -= 1
            if ok and i + 1 == n:
                out.append(Permutation(tuple(vals)))
            v = 1 if ok else n + 1  # descend, or take v back at the next step
            continue
        v += 1
    return tuple(out)


def _one_point_extensions(vals: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The distinct permutations one longer than ``vals`` that contain it, in
    lexicographic order: one set of the (n + 1)^2 insertions of a new value
    v at each site, the entries >= v bumped up by one, sorted."""
    n = len(vals)
    out = set()
    for v in range(1, n + 2):
        bumped = tuple([x + 1 if x >= v else x for x in vals])
        out.update(bumped[:i] + (v,) + bumped[i:] for i in range(n + 1))
    return sorted(out)


def _grow_label(label: Permutation) -> Permutation:
    """A simple Baxter permutation two longer that contains ``label``: the
    first hit over the one-point extensions of ``label`` and then of each of
    those, both lexicographically, that ``is_ihrd`` accepts (Baxter first,
    then simple)."""
    for q1 in _one_point_extensions(label.values):
        for q2 in _one_point_extensions(q1):
            q = Permutation(q2)
            if is_ihrd(q):
                return q
    raise RuntimeError(f"no simple Baxter extension of {label} by two elements exists")
