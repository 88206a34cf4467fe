#!/usr/bin/env python3
"""Derive, certify and write the P-recursions of ``hrd._recurrences``.

For a skeleton class c (the longest skeleton length of an order, or 2 when
the order has none) the counts t_n satisfy a linear recurrence with
polynomial coefficients,

    sum_{i=0..r} p_i(n) t_{n+i} = 0    for n >= n0 + 1 - r,

because T is algebraic: x = G(T) with G(u) = u - 2u^2/(1+u) - S(u).  This
script finds one such operator per class and proves it exact:

1. Guess.  Over GF(p), starting from the order r = L + 1 (the degree of T
   over Q(x), L the longest skeleton length), find the smallest degree d
   for which the matrix with rows (n^j t_{n+i}), n = 20, 21, ..., has a
   kernel (some operators fail at small n).  If that kernel is not
   one-dimensional, try the order r + 1.
2. Lift.  Repeat modulo further primes, combine by CRT and rational
   reconstruction until the integer operator is stable, then make it
   primitive with a positive leading coefficient.
3. Certify (``certify``).  With theta = x d/dx, the recurrence from n0 on
   is the operator identity sum_i x^(r-i) p_i(theta - i) T = Q(x), where
   the polynomial Q (degree <= n0) is fixed by t_1..t_n0.  Substituting
   x = G(u), T = u and theta = (G/G') d/du turns both sides into rational
   functions of u; the identity is checked exactly as one identity of
   integer polynomials.  Together with p_r(n) != 0 for n >= n0 + 1 - r, and
   t_1..t_n0 from the convolution, it fixes every term the operator yields.

The module stores each p_i as decimal text (``module_text``) by its forward
differences at n = 0, which ``counting._recur`` packs into one integer per
difference order and steps.  On one core of a 2-vCPU VM, class 2 takes
under 0.1 s, class 5 about 0.5 s, 7 about 6 s, 8 about 25 s, 9 about two
minutes and 10 about five.

    python3 scripts/derive_recurrences.py                  # classes 2 5 7 8 9
    python3 scripts/derive_recurrences.py --classes 2 --out ops.py
"""

from __future__ import annotations

import argparse
import sys
import time
from math import factorial, gcd, isqrt, lcm
from pathlib import Path

from hrd.counting import _convolve, skeleton_counts

ROOT = Path(__file__).resolve().parent.parent
MODULE = ROOT / "src" / "hrd" / "_recurrences.py"
CLASSES = (2, 5, 7, 8, 9)

FIRST_ROW = 20  # the guessing matrix starts at n = 20
EXTRA_ROWS = 8  # rows beyond the number of unknowns
MAX_UNKNOWNS = 3000


# ------------------------------------------------------------ integer polynomials
# a polynomial is the list of its coefficients, constant term first


def _add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + a[len(b) :]


def _scale(a: list[int], s: int) -> list[int]:
    return [s * x for x in a]


def _deriv(a: list[int]) -> list[int]:
    return [i * a[i] for i in range(1, len(a))]


def _pack(a: list[int], width: int) -> int:
    """The value of a at u = 2^(8 * width), for |coefficients| < 2^(8 * width - 1)."""
    pos = b"".join(max(x, 0).to_bytes(width, "little") for x in a)
    neg = b"".join(max(-x, 0).to_bytes(width, "little") for x in a)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _mul(a: list[int], b: list[int]) -> list[int]:
    """The product, by schoolbook for a short factor and by Kronecker
    substitution (one big-integer product) otherwise."""
    if not a or not b:
        return []
    if len(a) < len(b):
        a, b = b, a
    if len(b) <= 24:
        out = [0] * (len(a) + len(b) - 1)
        for j, y in enumerate(b):
            if y:
                for i, x in enumerate(a):
                    out[i + j] += x * y
        return out
    bits = max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length() + len(b).bit_length() + 2
    width = (bits + 7) // 8
    n = len(a) + len(b) - 1
    half = 1 << (8 * width - 1)
    offset = int.from_bytes(half.to_bytes(width, "little") * n, "little")
    raw = (_pack(a, width) * _pack(b, width) + offset).to_bytes(n * width, "little")
    return [int.from_bytes(raw[i * width : (i + 1) * width], "little") - half for i in range(n)]


def _power(a: list[int], e: int) -> list[int]:
    out = [1]
    for _ in range(e):
        out = _mul(out, a)
    return out


def _value(p: list[int] | tuple[int, ...], n: int) -> int:
    v = 0
    for c in reversed(p):
        v = v * n + c
    return v


def _shift(p: list[int] | tuple[int, ...], a: int) -> list[int]:
    """Coefficients of p(n + a)."""
    c = list(p)
    for i in range(len(c)):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += a * c[j + 1]
    return c


def _differences(p: tuple[int, ...]) -> tuple[int, ...]:
    """The forward differences of p at 0: p(n) = sum_k D_k binom(n, k)."""
    column = [_value(p, h) for h in range(len(p))]
    out = []
    while column:
        out.append(column[0])
        column = [b - a for a, b in zip(column, column[1:])]
    return tuple(out)


def _monomial(diffs: tuple[int, ...], d: int) -> list[int]:
    """d! times the polynomial sum_k diffs_k binom(n, k), constant term first."""
    out = [0] * (d + 1)
    falling = [1]  # n (n - 1) ... (n - k + 1)
    scale = factorial(d)
    for k, b in enumerate(diffs):
        for j, x in enumerate(falling):
            out[j] += b * (scale // factorial(k)) * x
        falling = _add([0] + falling, _scale(falling, -k))
    return out


def no_root_from(p: tuple[int, ...], z: int) -> bool:
    """Whether p(n) != 0 for every integer n >= z.  Finds a >= z where every
    coefficient of p(n + a) has the sign of the leading one (so p has no
    root >= a), doubling a up to 2^20, and checks z..a-1 one by one."""
    lead = p[-1]
    a = max(z, 0)
    while a < 1 << 20:
        c = _shift(p, a)
        if c[0] and all(x == 0 or (x > 0) == (lead > 0) for x in c):
            return all(_value(p, n) for n in range(z, a))
        a = 2 * a + 1
    return False


# ------------------------------------------------------------ the certificate


def _g_parts(c: int) -> tuple[list[int], list[int]]:
    """A and B with G = A / B: A = u - u^2 - (1+u) S(u), B = 1 + u."""
    s = skeleton_counts(c)
    S = [0] * (max(s, default=0) + 1)
    for length, mult in s.items():
        S[length] = mult
    return _add([0, 1, -1], _scale(_mul([1, 1], S), -1)), [1, 1]


def _residuals(operator: tuple[tuple[int, ...], ...], t: list[int]) -> list[int]:
    """[x^m] of sum_i x^(r-i) p_i(theta - i) T for m = 0..len(t) - 1, that is
    sum_i p_i(m - r) t_{m-r+i} with t_j = 0 for j <= 0."""
    r = len(operator) - 1
    out = []
    for m in range(len(t)):
        n = m - r
        out.append(sum(_value(p, n) * t[n + i] for i, p in enumerate(operator) if n + i >= 1))
    return out


def certify(c: int, entry: tuple[int, tuple[tuple[int, ...], ...]]) -> bool:
    """Whether the entry (n0, (D_0, ..., D_r)), D_i the forward differences
    of p_i at 0, yields the counts of class c for every n > n0, given
    t_1..t_n0.

    Checks p_r(n) != 0 for n >= n0 + 1 - r and the operator identity of the
    module docstring, multiplied out to integer polynomials: with C the
    numerator of G' = C / B^2, theta (P / C^e) = A B (P' C - e P C') / C^(e+2),
    so theta^j u = P_j / C^(2j), and both sides times B^s C^(2d) are
    polynomials (s = max(r, n0), d the degree of the operator).
    """
    n0, diffs = entry
    r = len(diffs) - 1
    d = max(len(D) for D in diffs) - 1
    operator = tuple(tuple(_monomial(D, d)) for D in diffs)  # d! p_i, the same recurrence
    if n0 < r or not no_root_from(operator[r], n0 + 1 - r):
        return False
    A, B = _g_parts(c)
    C = _add(_mul(_deriv(A), B), _scale(A, -1))
    AB, dC, C2 = _mul(A, B), _deriv(C), _mul(C, C)
    q = [_shift(p, -i) + [0] * (d + 1 - len(p)) for i, p in enumerate(operator)]  # q_i(theta) = p_i(theta - i)
    basis = [_mul(_power(A, r - i), _power(B, i)) for i in range(r + 1)]  # B^r G^(r-i)
    # lhs = sum_j (sum_i q_ij A^(r-i) B^i) P_j C^(2(d-j)), by Horner in C^2
    lhs: list[int] = []
    P, e = [0, 1], 0
    for j in range(d + 1):
        if j:
            P = _mul(AB, _add(_mul(_deriv(P), C), _scale(_mul(P, dC), -e)))
            e += 2
        coef: list[int] = []
        for i in range(r + 1):
            if q[i][j]:
                coef = _add(coef, _scale(basis[i], q[i][j]))
        lhs = _add(_mul(lhs, C2), _mul(coef, P))
    Q = _residuals(operator, _convolve(skeleton_counts(c), n0))
    s = max(r, n0)
    lhs = _mul(lhs, _power(B, s - r))
    rhs: list[int] = []
    for m, qm in enumerate(Q):
        if qm:
            rhs = _add(rhs, _scale(_mul(_power(A, m), _power(B, s - m)), qm))
    rhs = _mul(rhs, _power(C2, d))
    return not any(_add(lhs, _scale(rhs, -1)))


# ------------------------------------------------------------ guessing over GF(p)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases, exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes():
    """Primes below 2^61, the largest first."""
    q = (1 << 61) - 1
    while True:
        if _is_prime(q):
            yield q
        q -= 2


# each matrix entry is one 160-bit slot of a row's packed integer: a slot
# starts below 2^61 and gains less than 2^122 per row operation, so it holds
# the sum of more row operations than any matrix here has columns
_SLOT = 160
_SLOT_BYTES = _SLOT // 8
_SLOT_MASK = (1 << _SLOT) - 1


def _kernel_mod(rows: list[list[int]], p: int) -> list[list[int]]:
    """A basis of the right kernel of the matrix mod p, by forward
    elimination on rows packed into integers and back substitution."""
    ncols = len(rows[0])

    def pack(row):
        return int.from_bytes(b"".join(v.to_bytes(_SLOT_BYTES, "little") for v in row), "little")

    def unpack(x):
        raw = x.to_bytes(ncols * _SLOT_BYTES, "little")
        return [int.from_bytes(raw[i * _SLOT_BYTES : (i + 1) * _SLOT_BYTES], "little") % p for i in range(ncols)]

    live = [pack(row) for row in rows]
    pivots: dict[int, list[int]] = {}
    free = []
    for col in range(ncols):
        shift = _SLOT * col
        at = next((i for i, row in enumerate(live) if ((row >> shift) & _SLOT_MASK) % p), None)
        if at is None:
            free.append(col)
            continue
        prow = unpack(live.pop(at))
        inv = pow(prow[col], -1, p)
        prow = [v * inv % p for v in prow]
        pivots[col] = prow
        packed = pack(prow)
        for i, row in enumerate(live):
            f = ((row >> shift) & _SLOT_MASK) % p
            if f:
                live[i] = row + (p - f) * packed
    basis = []
    for f in free:
        x = [0] * ncols
        x[f] = 1
        for col in sorted(pivots, reverse=True):
            row = pivots[col]
            x[col] = -sum(row[j] * x[j] for j in range(col + 1, ncols)) % p
        basis.append(x)
    return basis


def _kernel(t: list[int], r: int, d: int, p: int) -> list[list[int]]:
    """Kernel mod p of the rows (n^j t_{n+i}), columns ordered i-major."""
    unknowns = (r + 1) * (d + 1)
    tp = [v % p for v in t]
    rows = []
    for n in range(FIRST_ROW, FIRST_ROW + unknowns + EXTRA_ROWS):
        pw = [pow(n, j, p) for j in range(d + 1)]
        rows.append([pw[j] * tp[n + i] % p for i in range(r + 1) for j in range(d + 1)])
    return _kernel_mod(rows, p)


class _Terms:
    """Exact counts of one class, recomputed longer on demand."""

    def __init__(self, c: int):
        self.s = skeleton_counts(c)
        self.t = _convolve(self.s, 64)

    def upto(self, n: int) -> list[int]:
        if len(self.t) <= n:
            self.t = _convolve(self.s, max(n, 2 * len(self.t)))
        return self.t


def _shape(terms: _Terms, r: int, p: int) -> int | None:
    """The smallest degree d of an order-r operator mod p, or None below the
    unknowns cap; galloping by 3/2, then bisecting."""

    def has(d):
        terms.upto(FIRST_ROW + (r + 1) * (d + 1) + EXTRA_ROWS + r)
        return bool(_kernel(terms.t, r, d, p))

    lo, hi = -1, 1
    while not has(hi):
        lo, hi = hi, hi * 3 // 2 + 1
        if (r + 1) * (hi + 1) > MAX_UNKNOWNS:
            return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if has(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _reconstruct(x: int, m: int) -> tuple[int, int] | None:
    """a / b with a = b x (mod m), |a|, b <= sqrt(m / 2), or None."""
    bound = isqrt(m // 2)
    r0, r1, s0, s1 = m, x % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _lift(t: list[int], r: int, d: int) -> list[int]:
    """The integer kernel vector, primitive with a positive last entry."""
    acc, modulus, previous, pivot = None, 1, None, None
    for p in _primes():
        kernel = _kernel(t, r, d, p)
        if len(kernel) != 1:
            continue  # an unlucky prime
        v = kernel[0]
        if pivot is None:
            pivot = max(i for i, x in enumerate(v) if x)
        if not v[pivot]:
            continue
        inv = pow(v[pivot], -1, p)
        v = [x * inv % p for x in v]  # the same normalization modulo every prime
        if acc is None:
            acc, modulus = v, p
        else:
            inv = pow(modulus, -1, p)
            acc = [a + modulus * ((b - a) * inv % p) for a, b in zip(acc, v)]
            modulus *= p
        fractions = [_reconstruct(a, modulus) for a in acc]
        if None in fractions:
            continue
        den = lcm(*(b for _, b in fractions))
        vec = [a * (den // b) for a, b in fractions]
        g = gcd(*vec)
        vec = [x // g for x in vec]
        last = next(x for x in reversed(vec) if x)
        vec = vec if last > 0 else [-x for x in vec]
        if vec == previous:
            return vec
        previous = vec


def _trim(p: list[int]) -> tuple[int, ...]:
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return tuple(p)


def derive(c: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Guess, lift and certify the entry of class c."""
    terms = _Terms(c)
    p = next(_primes())
    r = max(terms.s, default=1) + 1  # the degree of T over Q(x)
    while True:
        d = _shape(terms, r, p)
        if d is not None and len(_kernel(terms.t, r, d, p)) == 1:
            break
        r += 1
    print(f"class {c}: order {r}, degree {d}")
    vec = _lift(terms.t, r, d)
    operator = tuple(_trim(vec[i * (d + 1) : (i + 1) * (d + 1)]) for i in range(r + 1))
    # the least n0 past the nonzero residuals and the integer roots of p_r
    n0 = max([r] + [m for m, v in enumerate(_residuals(operator, terms.t)) if v])
    while not no_root_from(operator[r], n0 + 1 - r):
        n0 += 1
    entry = (n0, tuple(_differences(p) for p in operator))
    if not certify(c, entry):
        raise ArithmeticError(f"class {c}: the guessed operator fails its certificate")
    print(f"class {c}: certified, n0 = {n0}, largest coefficient {max(abs(x) for x in vec).bit_length()} bits")
    return entry


def module_text(entries: dict[int, tuple[int, tuple[tuple[int, ...], ...]]]) -> str:
    """The source of ``hrd._recurrences`` for the entries (n0, (D_0, ..., D_r))."""
    lines = [
        '"""Certified P-recursions for ``counting.sequence``, written by',
        "``scripts/derive_recurrences.py``; do not edit.",
        "",
        "OPERATORS[c] is the text of the entry (n0, (D_0, ..., D_r)) of skeleton",
        "class c (the longest skeleton length of an order, or 2 when it has",
        "none): n0 on the first line, then D_i on line i + 2, its integers",
        "separated by spaces.  The entry means",
        "",
        "    sum_{i=0..r} p_i(n) t_{n+i} = 0    for n >= n0 + 1 - r",
        "",
        "where D_i lists the forward differences of p_i at n = 0, so that",
        "p_i(n) = sum_k D_i[k] binom(n, k).  t_1..t_n0 and the recurrence give",
        "every count.  Text compiles far faster than integer literals, and",
        "``counting._operator`` decodes only the classes a process uses, each",
        "once.  The certificate is ``certify`` in that script;",
        "``tests/test_recurrences.py`` runs it.",
        '"""',
        "",
        "OPERATORS = {",
    ]
    for c, (n0, operator) in sorted(entries.items()):
        lines += [f'    {c}: """', str(n0)]
        lines += [" ".join(map(str, p)) for p in operator]
        lines.append('""",')
    lines.append("}")
    return "\n".join(lines) + "\n"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--classes", type=int, nargs="+", default=list(CLASSES), help="skeleton classes to derive")
    ap.add_argument("--out", type=Path, default=MODULE, help="module to write (default: %(default)s)")
    args = ap.parse_args()
    entries = {}
    for c in args.classes:
        if c != max(skeleton_counts(c), default=2):
            sys.exit(f"{c} is not a skeleton class: its longest skeleton length is {max(skeleton_counts(c), default=2)}")
        t0 = time.perf_counter()
        entries[c] = derive(c)
        print(f"class {c}: {time.perf_counter() - t0:.1f} s", flush=True)
    args.out.write_text(module_text(entries))


if __name__ == "__main__":
    main()
