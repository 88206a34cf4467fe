"""Seeded inputs and the reference answers they are checked against.

Nothing here imports ``hrd``: permutations and floorplans are built from
generating trees by the benchmark's own inflation and embedding, and the
expected counts come from closed forms and a mod-p series evaluation, so
every check is made apart from the program under test.

A tree is a nested tuple: ``None`` is a leaf (a single room), and
``(skeleton, children)`` is a node whose skeleton is a simple Baxter
permutation given as a tuple of values.
"""

from __future__ import annotations

import itertools
import random
from math import comb

P12 = (1, 2)
P21 = (2, 1)
PINWHEELS = ((4, 1, 3, 5, 2), (2, 5, 3, 1, 4))

# s_l, the number of simple Baxter permutations of length l (order-l
# skeletons), for 5 <= l <= 9 as the paper gives them; s_4 = s_6 = 0.
SKELETON_COUNTS = {5: 2, 6: 0, 7: 12, 8: 24, 9: 116}

MOD = (1 << 61) - 1

# Base floorplans of the two order-5 skeletons (the pinwheels), with each
# room tagged by its top-left deletion label: rooms are (label, x1, y1, x2, y2)
# on a 3x3 grid, origin top-left, y growing downward.  Reading the labels in
# bottom-left deletion order gives the skeleton.
_PINWHEEL_ROOMS = {
    (4, 1, 3, 5, 2): ((1, 0, 0, 1, 2), (2, 1, 0, 3, 1), (3, 1, 1, 2, 2), (4, 0, 2, 2, 3), (5, 2, 1, 3, 3)),
    (2, 5, 3, 1, 4): ((1, 0, 0, 2, 1), (2, 0, 1, 1, 3), (3, 1, 1, 2, 2), (4, 2, 0, 3, 2), (5, 1, 2, 3, 3)),
}


# ---------------------------------------------------------------- predicates


def is_baxter(vals: tuple[int, ...]) -> bool:
    """No 2-41-3 or 3-14-2 occurrence whose outer values differ by one."""
    pos = {v: i for i, v in enumerate(vals)}
    for v in range(1, len(vals)):
        lo, hi = sorted((pos[v], pos[v + 1]))
        between = vals[lo + 1 : hi]
        if pos[v] < pos[v + 1]:  # v ... v+1: forbid big-then-small between
            big_at = [i for i, x in enumerate(between) if x > v + 1]
            if big_at and any(x < v for x in between[big_at[0] :]):
                return False
        else:  # v+1 ... v: forbid small-then-big between
            small_at = [i for i, x in enumerate(between) if x < v]
            if small_at and any(x > v + 1 for x in between[small_at[0] :]):
                return False
    return True


def is_simple(vals: tuple[int, ...]) -> bool:
    """No interval of 2..n-1 positions holds consecutive values."""
    n = len(vals)
    for i in range(n):
        lo = hi = vals[i]
        for j in range(i + 1, n):
            lo, hi = min(lo, vals[j]), max(hi, vals[j])
            if hi - lo == j - i and j - i + 1 < n:
                return False
    return True


def simple_baxter(length: int) -> list[tuple[int, ...]]:
    """All simple Baxter permutations of one length, by exhaustive scan."""
    out = [p for p in itertools.permutations(range(1, length + 1)) if is_baxter(p) and is_simple(p)]
    if length in SKELETON_COUNTS and len(out) != SKELETON_COUNTS[length]:
        raise AssertionError(f"own census of length {length} found {len(out)} skeletons")
    return out


# --------------------------------------------------------------------- trees


def random_tree(rng: random.Random, n: int, skeletons: list[tuple[int, ...]], forbid=None):
    """A random skewed generating tree with n leaves.

    ``forbid`` is the label the root may not carry: the first child of a
    12 (21) node is never itself rooted 12 (21), which makes the tree the
    canonical decomposition of the permutation it evaluates to.
    """
    if n == 1:
        return None
    fits = [s for s in skeletons if len(s) <= n and s != forbid]
    label = rng.choice(fits)
    cuts = sorted(rng.sample(range(1, n), len(label) - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    first_forbid = label if label in (P12, P21) else None
    kids = [random_tree(rng, sizes[0], skeletons, first_forbid)]
    kids += [random_tree(rng, m, skeletons) for m in sizes[1:]]
    return (label, tuple(kids))


def slicing_chain(rng: random.Random, depth: int, bottom: tuple[int, ...]):
    """``depth`` nested 12/21 nodes, each with a small first child and the
    rest of the chain second; a node labelled ``bottom`` ends the chain."""
    tree = (bottom, (None,) * len(bottom))
    for _ in range(depth):
        label = rng.choice((P12, P21))
        other = P21 if label == P12 else P12
        first = rng.choice((None, (other, (None, None))))
        tree = (label, (first, tree))
    return tree


def tree_order(tree) -> int:
    """Longest skeleton in the tree (1 for a leaf)."""
    best, stack = 1, [tree]
    while stack:
        node = stack.pop()
        if node is not None:
            best = max(best, len(node[0]))
            stack.extend(node[1])
    return best


def _postorder(tree):
    """Nodes children-first, without recursion (trees may be deep)."""
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        out.append(node)
        if node is not None:
            stack.extend(node[1])
    return reversed(out)


def inflate(skeleton: tuple[int, ...], children: list[tuple[int, ...]]) -> tuple[int, ...]:
    """skeleton[child_1, ..., child_m]: child i fills positions in slot i and
    the value block whose rank among the blocks is skeleton[i]."""
    offset, total = {}, 0
    for rank in range(1, len(skeleton) + 1):
        slot = skeleton.index(rank)
        offset[slot] = total
        total += len(children[slot])
    return tuple(offset[slot] + v for slot, child in enumerate(children) for v in child)


def perm_of(tree) -> tuple[int, ...]:
    done = {}
    for node in _postorder(tree):
        if node is None:
            done[id(node)] = (1,)
        else:
            done[id(node)] = inflate(node[0], [done[id(c)] for c in node[1]])
    return done[id(tree)]


def format_tree(tree) -> str:
    """The ``hrd tree`` text form: leaf ``.``, node ``(<label> <child> ...)``."""
    if tree is None:
        return "."
    label = "".join(map(str, tree[0]))
    return "(" + " ".join([label] + [format_tree(c) for c in tree[1]]) + ")"


# ---------------------------------------------------------------- floorplans


def _base_rooms(skeleton: tuple[int, ...]):
    if skeleton == P12:  # side by side
        return ((1, 0, 0, 1, 1), (2, 1, 0, 2, 1)), 2, 1
    if skeleton == P21:  # stacked
        return ((1, 0, 0, 1, 1), (2, 0, 1, 1, 2)), 1, 2
    if skeleton in _PINWHEEL_ROOMS:
        return _PINWHEEL_ROOMS[skeleton], 3, 3
    raise ValueError(f"no base floorplan for skeleton {skeleton}")


def floorplan_of(tree):
    """(width, height, rooms) realizing the tree; each room is
    (label, x1, y1, x2, y2) with label its top-left deletion label.

    The child at position i of a node is embedded into the base room
    labelled skeleton[i].  Every child's interior walls get grid lines of
    their own, so no two walls meet in a '+' junction.
    """
    done = {}
    for node in _postorder(tree):
        if node is None:
            done[id(node)] = (1, 1, [(1, 0, 0, 1, 1)])
            continue
        skeleton, children = node
        base, _, _ = _base_rooms(skeleton)
        by_label = {r[0]: r for r in base}
        kids = [done[id(c)] for c in children]
        sizes = [len(k[2]) for k in kids]
        offset, total = {}, 0
        for rank in range(1, len(skeleton) + 1):
            slot = skeleton.index(rank)
            offset[slot] = total
            total += sizes[slot]
        kx = sum(k[0] - 1 for k in kids) + 1
        ky = sum(k[1] - 1 for k in kids) + 1
        off_x = off_y = 0
        rooms = []
        for slot, (cw, ch, crooms) in enumerate(kids):
            _, bx1, by1, bx2, by2 = by_label[skeleton[slot]]

            def mx(x, bx1=bx1, bx2=bx2, cw=cw, off=off_x):
                return bx1 * kx if x == 0 else bx2 * kx if x == cw else bx1 * kx + off + x

            def my(y, by1=by1, by2=by2, ch=ch, off=off_y):
                return by1 * ky if y == 0 else by2 * ky if y == ch else by1 * ky + off + y

            for lab, x1, y1, x2, y2 in crooms:
                rooms.append((offset[slot] + lab, mx(x1), my(y1), mx(x2), my(y2)))
            off_x += cw - 1
            off_y += ch - 1
        _, w, h = _base_rooms(skeleton)
        done[id(node)] = _compress(w * kx, h * ky, rooms)
    return done[id(tree)]


def _compress(width, height, rooms):
    xs = sorted({0, width} | {r[1] for r in rooms} | {r[3] for r in rooms})
    ys = sorted({0, height} | {r[2] for r in rooms} | {r[4] for r in rooms})
    xr = {x: i for i, x in enumerate(xs)}
    yr = {y: i for i, y in enumerate(ys)}
    return len(xs) - 1, len(ys) - 1, [(l, xr[a], yr[b], xr[c], yr[d]) for l, a, b, c, d in rooms]


def floorplan_text(rng: random.Random, width, height, rooms) -> str:
    """Floorplan file text with random wall spacing, random room ids and
    rooms in random order, so the reader has to canonicalize."""
    xs, ys = [0], [0]
    for _ in range(width):
        xs.append(xs[-1] + rng.randint(1, 9))
    for _ in range(height):
        ys.append(ys[-1] + rng.randint(1, 9))
    ids = rng.sample(range(1, 10 * len(rooms) + 1), len(rooms))
    lines = [
        f"{rid} {xs[x1]} {ys[y1]} {xs[x2]} {ys[y2]}"
        for rid, (_, x1, y1, x2, y2) in zip(ids, rooms)
    ]
    rng.shuffle(lines)
    return f"{xs[-1]} {ys[-1]} {len(rooms)}\n" + "\n".join(lines) + "\n"


def tiles(width: int, height: int, rooms) -> bool:
    """True iff the rectangles (x1, y1, x2, y2) lie inside the box, do not
    overlap and cover its area."""
    area = 0
    for x1, y1, x2, y2 in rooms:
        if not (0 <= x1 < x2 <= width and 0 <= y1 < y2 <= height):
            return False
        area += (x2 - x1) * (y2 - y1)
    if area != width * height:
        return False
    by_x = sorted(rooms)
    for i, (ax1, ay1, ax2, ay2) in enumerate(by_x):
        for bx1, by1, bx2, by2 in by_x[i + 1 :]:
            if bx1 >= ax2:
                break
            if by1 < ay2 and ay1 < by2:
                return False
    return True


# ------------------------------------------------------------------- counts


def schroeder_counts(n_max: int) -> list[int]:
    """t_1..t_n for order 2: the large Schroeder numbers r_0..r_{n-1}, from
    (m+1) r_m = 3(2m-1) r_{m-1} - (m-2) r_{m-2}."""
    r = [1, 2]
    for m in range(2, n_max):
        r.append((3 * (2 * m - 1) * r[m - 1] - (m - 2) * r[m - 2]) // (m + 1))
    return r[:n_max]


def baxter_number(n: int) -> int:
    """Chung-Graham-Hoggatt-Kleiman closed form for the Baxter numbers."""
    total = sum(comb(n + 1, j - 1) * comb(n + 1, j) * comb(n + 1, j + 1) for j in range(1, n + 1))
    return total // (comb(n + 1, 1) * comb(n + 1, 2))


def counts_mod_p(k: int, n_max: int) -> list[int]:
    """t_1..t_n mod 2^61-1 from T = x + 2T^2/(1+T) + sum_{5<=l<=k} s_l T^l.

    Writing A = T^2/(1+T) gives A + A*T = T^2, so every coefficient at m
    depends only on coefficients below m.
    """
    s = {l: c for l, c in SKELETON_COUNTS.items() if l <= k and c}
    top = max(s, default=2)
    t = [0] * (n_max + 1)
    a = [0] * (n_max + 1)
    powers = {l: [0] * (n_max + 1) for l in range(2, top + 1)}
    for m in range(1, n_max + 1):
        for l in range(2, top + 1):
            prev = t if l == 2 else powers[l - 1]
            powers[l][m] = sum(prev[m - i] * t[i] for i in range(1, m)) % MOD
        a[m] = (powers[2][m] - sum(a[i] * t[m - i] for i in range(1, m))) % MOD
        t[m] = ((m == 1) + 2 * a[m] + sum(c * powers[l][m] for l, c in s.items())) % MOD
    return t[1:]
