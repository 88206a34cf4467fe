"""Insertion families: the machinery behind the 3**(n-k) lower bound on
order-k dissections with n rooms.

Starting from an irreducible seed of length k, each step inserts the new
maximum at one of the safe sites of the current permutation: before the
first element, after the last element, or immediately next to the current
maximum on either side.  Insertion there can neither create a forbidden
quadruple nor raise the hierarchy order, so every member of the family
stays Baxter and order k while remaining outside order k-1.  Using exactly
three canonical sites per step makes the family size exactly 3**(n-k).
The default seed is grown by ``perm._grow_label``.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from . import CapExceeded
from .gentree import hierarchy_order
from .perm import Permutation, _grow_label, is_ihrd

# insertions beyond the seed in one family: 3**10 traces take 1.1 to 1.7 s
# (k = 5 and k = 11), about the census of length 11, and 3**11 about 4 s
# (one run each, Python 3.11 on a 2-vCPU VM)
_MAX_INSERTIONS = 10


def safe_sites(p: Permutation) -> list[int]:
    """Insertion slots (number of elements to the left) that keep the
    permutation Baxter and order-preserving when the new maximum goes there.

    The four candidates are before the first element, after the last one,
    and either side of the current maximum; coincident candidates collapse,
    leaving 3 or 4 distinct slots for length >= 2 (2 for the singleton,
    which sits outside the theorem's setting).
    """
    n = len(p)
    m = p.values.index(n) + 1
    return sorted({0, m - 1, m, n})


def _canonical_sites(p: Permutation) -> list[int]:
    """Exactly three sites per step for length >= 2: the first three safe
    sites, which drop "after last" when all four are distinct, so the
    branching is uniform and the family size exact."""
    return safe_sites(p)[:3]


class InsertionTrace(NamedTuple):
    """One branch of the family: the seed, the chosen slots, the result."""

    seed: Permutation
    choices: tuple[int, ...]
    current: Permutation


def insertion_traces(k: int, n: int, seed: Permutation) -> Iterator[InsertionTrace]:
    """All insertion traces from an irreducible seed of length k up to
    length n, in lexicographic order of the choice vectors."""
    if len(seed) != k:
        raise ValueError(f"seed {seed} does not have length {k}")
    if not is_ihrd(seed):
        raise ValueError(f"seed {seed} is not simple Baxter")
    if n < k:
        raise ValueError(f"target length {n} is below the seed length {k}")

    stack: list[tuple[Permutation, tuple[int, ...]]] = [(seed, ())]
    while stack:
        cur, choices = stack.pop()
        if len(cur) == n:
            yield InsertionTrace(seed, choices, cur)
            continue
        vals = cur.values
        # pushed in reverse, so the smallest site is grown first
        for site in reversed(_canonical_sites(cur)):
            stack.append((Permutation(vals[:site] + (len(vals) + 1,) + vals[site:]), choices + (site,)))


class FamilyReport(NamedTuple):
    seed: Permutation
    k: int
    n: int
    count: int
    expected: int
    all_baxter: bool
    all_hrd_k: bool
    none_hrd_below: bool


def insertion_family(k: int, n: int, seed: Permutation | None = None) -> FamilyReport:
    """Enumerate the family and verify every member by the predicates.

    The cap on n - k is checked before anything is built, so the default
    seed (``grown_seed(k)``) is grown only for a family within the cap.  The
    count is the number of traces: distinct choice vectors give distinct
    members, since deleting the maximum recovers the parent and the site.
    """
    if n - k > _MAX_INSERTIONS:
        raise CapExceeded(f"a family of 3^{n - k} traces exceeds the cap 3^{_MAX_INSERTIONS}")
    if seed is None:
        seed = grown_seed(k)
    count = 0
    all_baxter = all_hrd_k = none_below = True
    for trace in insertion_traces(k, n, seed):
        count += 1
        try:
            order = hierarchy_order(trace.current)  # one walk: Baxter and the order
        except ValueError:
            all_baxter = all_hrd_k = False
            continue
        if order > k:
            all_hrd_k = False
        if k > 2 and order < k:
            none_below = False
    return FamilyReport(seed, k, n, count, 3 ** (n - k), all_baxter, all_hrd_k, none_below)


def format_report(r: FamilyReport) -> str:
    seed = r.seed.compact() if len(r.seed) <= 9 else ",".join(str(v) for v in r.seed)
    return (
        f"seed={seed} k={r.k} n={r.n} family={r.count} expected={r.expected} "
        f"all_baxter={r.all_baxter} all_hrd_k={r.all_hrd_k} none_hrd_k-1={r.none_hrd_below}"
    )


def grown_seed(k: int) -> Permutation:
    """The default seed of ``hrd lowerbound``: a simple Baxter permutation of
    length k, 12 for k = 2, otherwise 41352 for odd k and 24853617 for even
    k, grown two elements at a time by ``_grow_label``.  None exists for
    k = 3, 4 or 6, and k = 1 is outside the theorem's setting."""
    if k < 2 or k in (3, 4, 6):
        raise ValueError(f"no irreducible seed of length {k} exists")
    p = Permutation.parse("12" if k == 2 else "41352" if k % 2 else "24853617")
    while len(p) < k:
        p = _grow_label(p)
    return p
