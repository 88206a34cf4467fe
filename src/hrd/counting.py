"""Exact counting of order-k hierarchical dissections.

Let t_m be the number of skewed generating trees of order k with m leaves
(equivalently, dissections with m rooms), T = sum t_m x^m, and
S(u) = sum s_l u^l, where s_l is the number of simple Baxter permutations of
length l (4 <= l <= k), the possible root labels besides 12 and 21.  A root
labeled 12 has any tree as its second child and anything but a 12-root as
its first, so its trees have the series (T - A) T with A = T^2/(1+T); 21 is
the mirror case.  Hence

    T = x + 2 T^2 / (1 + T) + S(T).

Multiplied by 1 + T this is the paper's form, free of division:

    T = x + x T + T^2 + (1 + T) S(T),

which for order 5 (S = 2 u^5) is t_n = t_{n-1} + sum t_i t_{n-i}
+ 2 * (5-part sums) + 2 * (6-part sums).  With P_j = T^j and L the longest
skeleton length, every t_m with m >= 2 is read off the powers P_2..P_{L+1}:

    t_m = t_{m-1} + P_2[m] + sum over l of s_l * (P_l[m] + P_{l+1}[m]).

P_j[m] sums the t-products over ordered compositions of m into j positive
parts, so it needs only t_1..t_{m-j+1}.  Everything here is exact integer
arithmetic.

The s_l come from the Baxter numbers, not from a scan of S_l: with no order
bound every Baxter permutation is an HRD, so the Baxter series B satisfies
the same equation, B = x + 2B^2/(1+B) + S(B), and reverting B gives S
(``skeleton_counts``) at any length.  So counting lists no permutation;
``perm.census_simple_baxter`` lists the skeletons themselves.

``sequence`` is the one counting route; it returns the plain list
[t_1, ..., t_n], which the memo (``save_table``, ``load_table``,
``ensure_table``) stores and returns as it is.  T is algebraic (x = G(T) with
G(u) = u - 2u^2/(1+u) - S(u)), so t_n satisfies a linear recurrence with
polynomial coefficients.  ``_recurrences`` commits one such operator per
skeleton series, certified exactly: for k = 2..9 (the series of k = 2..4
coincide, and so do those of 5 and 6) a table longer than ``_CONVOLVED``
takes t_1..t_n0 from the convolution below and each later term from the
recurrence of order r <= 10 and degree d <= 45: r + 1 products of a count
by a polynomial value, one exact division, d additions of integers that
each pack one difference order of all r + 1 polynomials, stepping every
value from n to n + 1, and one unpack of the r + 1 values.  Every other
table runs the convolution alone, which grows each power column by one
incremental convolution per term, O(k n^2) in all.  The operators are
derived and certified by ``scripts/derive_recurrences.py``, which commits
them as decimal text; ``_operator`` decodes a class the first time a
process needs it.
``tests/test_recurrences.py`` runs the certificate on every one.
"""

from __future__ import annotations

import os
import zlib
from collections.abc import Mapping
from contextlib import suppress
from functools import lru_cache
from itertools import zip_longest
from math import comb
from operator import mul
from pathlib import Path
from types import MappingProxyType

from . import unlimited_int_text

# tables this short come from the convolution alone, which never loads
# ``_recurrences`` (1.5-3 ms to compile) or decodes a class (0.03-0.06 ms
# for class 5, 0.6-1.3 ms for class 9).  Up to here the convolution beats the
# recurrence with those costs added (fresh processes): k = 5, n = 40 takes
# 0.9 ms against 3.1 ms, and k = 9, n = 80 takes 6.1 ms against 8.3 ms.
_CONVOLVED = 80

_MEMO_ENV = "HRD_MEMO_DIR"
_TABLE_VERSION = "hrd-count-table v2"


def _baxter_number(n: int) -> int:
    """B_n, the number of Baxter permutations of length n (Chung, Graham,
    Hoggatt and Kleiman, 1978)."""
    terms = sum(comb(n + 1, j - 1) * comb(n + 1, j) * comb(n + 1, j + 1) for j in range(1, n + 1))
    return terms // (comb(n + 1, 1) * comb(n + 1, 2))


@lru_cache(maxsize=None)
def skeleton_counts(k: int) -> Mapping[int, int]:
    """s_l for 4 <= l <= k, zero entries dropped, as a read-only mapping.

    G = B^<-1> satisfies G(u) = u - 2u^2/(1+u) - S(u), so s_l = -g_l - 2(-1)^l.
    Lagrange inversion gives g_n = [z^(n-1)] phi^n / n with phi = z / B(z);
    phi has integer coefficients because B(z)/z starts with 1.  O(k^3).
    """
    q = [_baxter_number(n + 1) for n in range(k)]  # B(z)/z
    phi = [1] + [0] * (k - 1)
    for n in range(1, k):
        phi[n] = -sum(q[i] * phi[n - i] for i in range(1, n + 1))
    power = [1] + [0] * (k - 1)
    out: dict[int, int] = {}
    for n in range(1, k + 1):
        power = [sum(power[i] * phi[m - i] for i in range(m + 1)) for m in range(k)]
        s = -(power[n - 1] // n) - 2 * (-1) ** n
        if n >= 4 and s:
            out[n] = s
    return MappingProxyType(out)


def _check_order_and_size(k: int, n: int) -> None:
    if k < 2:
        raise ValueError("order k must be >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")


def _convolve(s: Mapping[int, int], n_max: int) -> list[int]:
    """[0, t_1, ..., t_{n_max}] for the skeleton counts s, in O(L * n_max^2)
    arithmetic ops, L the longest skeleton length.

    P_j = T^j is grown incrementally as the convolution of P_{j-1} with t;
    every term it needs is available because a j-part composition of m only
    uses t-values at indices <= m - j + 1.
    """
    top = max(s, default=1) + 1
    t = [0, 1]
    powers: dict[int, list[int]] = {j: [0, 0] for j in range(2, top + 1)}
    for m in range(2, n_max + 1):
        for j in range(2, top + 1):
            prev = t if j == 2 else powers[j - 1]
            powers[j].append(sum(prev[m - i] * t[i] for i in range(1, m)))
        skel = sum(mult * (powers[l][m] + powers[l + 1][m]) for l, mult in s.items())
        t.append(t[m - 1] + powers[2][m] + skel)
    return t


def _recur(t: list[int], operator: tuple[tuple[int, ...], ...], n_max: int) -> None:
    """Extend t to t_{n_max} by sum_i p_i(n) t_{n+i} = 0, i = 0..r, solved for
    t_{n+r}: r + 1 products of a count by a value of some p_i per term.

    ``operator`` holds the forward differences D_i of each p_i at n = 0.
    Column j packs Delta^j p_i(n) for every i into one integer, slot i at bit
    W*i, so d column additions step every p_i from n to n + 1.  Column 0 also
    holds 2^(W-1) in every slot, and |p_i(n)| <= sum_j |D_i[j]| C(n_max, j)
    leaves W a sign bit to spare, so no slot borrows from the next and one
    ``to_bytes`` reads all r + 1 values.

    A remainder raises ArithmeticError, which catches damage that breaks
    divisibility but not damage that keeps every division exact (p_r = 1
    returns wrong counts silently); the committed operators rest on
    ``test_every_committed_operator_is_certified`` and
    ``test_the_committed_module_is_what_the_script_writes``.
    """
    r = len(operator) - 1
    bound = max(sum(abs(c) * comb(n_max, j) for j, c in enumerate(D)) for D in operator)
    size = (bound.bit_length() + 8) // 8  # bytes per slot
    half = 1 << 8 * size - 1
    columns = [sum(c << 8 * size * i for i, c in enumerate(col)) for col in zip_longest(*operator, fillvalue=0)]
    columns[0] += sum(half << 8 * size * i for i in range(r + 1))
    for n in range(n_max - r + 1):
        if n + r >= len(t):
            raw = columns[0].to_bytes(size * (r + 1), "little")
            *p, lead = [int.from_bytes(raw[a : a + size], "little") - half for a in range(0, size * (r + 1), size)]
            q, rem = divmod(-sum(map(mul, p, t[n : n + r])), lead)
            if rem:
                raise ArithmeticError(f"the committed operator leaves a remainder at t_{n + r}")
            t.append(q)
        for j in range(len(columns) - 1):
            columns[j] += columns[j + 1]


@lru_cache(maxsize=None)
def _operator(c: int) -> tuple[int, tuple[tuple[int, ...], ...]] | None:
    """The committed entry (n0, (D_0, ..., D_r)) of skeleton class c, or
    None; decoded from its text in ``_recurrences`` once per process."""
    from ._recurrences import OPERATORS

    if c not in OPERATORS:
        return None
    n0, *rows = OPERATORS[c].strip().split("\n")
    return int(n0), tuple(tuple(map(int, row.split())) for row in rows)


def sequence(k: int, n_max: int) -> list[int]:
    """[t_1, ..., t_{n_max}] for order k.

    The orders with a committed operator in ``_recurrences`` (keyed by the
    longest skeleton length, or 2 when there is none) take t_1..t_{n0} from
    ``_convolve`` and every later term from the operator's recurrence
    (``_recur``).  Any other order runs ``_convolve`` alone, O(k * n_max^2).
    Skeletons longer than n_max cannot occur, so the order only matters up
    to n_max.
    """
    _check_order_and_size(k, n_max)
    s = skeleton_counts(min(k, n_max))
    entry = _operator(max(s, default=2)) if n_max > _CONVOLVED else None
    if entry is not None and n_max > entry[0]:
        n0, operator = entry
        t = _convolve(s, n0)
        _recur(t, operator, n_max)
    else:
        t = _convolve(s, n_max)
    return t[1:]


def memo_dir() -> Path:
    return Path(os.environ.get(_MEMO_ENV) or Path.home() / ".cache" / "hrd")


def _table_path(k: int) -> Path:
    return memo_dir() / f"count-table-k{k}.txt"


def save_table(k: int, counts: list[int]) -> Path:
    """Write ``m t_m`` lines for ``counts`` = [t_1, ..., t_n] under a header
    naming k and the CRC-32 of the body."""
    path = _table_path(k)
    path.parent.mkdir(parents=True, exist_ok=True)
    with unlimited_int_text():
        body = "".join(f"{m} {t}\n" for m, t in enumerate(counts, 1))
    path.write_text(_table_header(k, body) + body)
    return path


def _table_header(k: int, body: str) -> str:
    return f"# {_TABLE_VERSION} k={k} crc32={zlib.crc32(body.encode()):08x}\n"


def load_table(k: int) -> list[int] | None:
    """[t_1, ..., t_n] from a persisted table; None for a missing, stale or
    corrupt file, which the caller then recomputes.

    The header must name this k and the CRC-32 of the body, so any edit to
    the file after ``save_table`` is caught in time linear in its size.
    """
    path = _table_path(k)
    try:
        header, _, body = path.read_text().partition("\n")
        if header + "\n" != _table_header(k, body):
            return None
        counts = []
        with unlimited_int_text():
            for m, line in enumerate(body.splitlines(), 1):
                mm, tm = (int(tok) for tok in line.split())
                if mm != m:
                    return None
                counts.append(tm)
    except (ValueError, OSError):
        return None
    if not counts or counts[0] != 1:
        return None
    return counts


def ensure_table(k: int, n: int, *, use_memo: bool = True) -> list[int]:
    """[t_1, ..., t_m] for order k with m >= n, going through the persistent
    memo: a stored table that covers n is returned, anything else is
    recomputed and stored.  A memo that cannot be written is skipped."""
    _check_order_and_size(k, n)
    if use_memo:
        counts = load_table(k)
        if counts is not None and len(counts) >= n:
            return counts
    counts = sequence(k, n)
    if use_memo:
        with suppress(OSError):
            save_table(k, counts)
    return counts
