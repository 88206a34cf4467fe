"""Independent reference implementations used only by the tests.

These deliberately share no code with the production routes they check.
The reference ``bp2fp`` inserts through ``hrd.floorplan._insert_top_left``,
which the production ``bp2fp`` does not call, and the reference
``diagnose`` rank-compresses through ``hrd.floorplan.canonical``, which the
production ``diagnose`` does not call.
"""

from dataclasses import replace
from itertools import combinations

from hrd.floorplan import MosaicFloorplan, Room, _insert_top_left, canonical


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


def _pattern_of(seq) -> tuple:
    ranks = sorted(seq)
    return tuple(ranks.index(v) + 1 for v in seq)


def contains_pattern_bruteforce(text, pattern) -> bool:
    """Check every index subset of the text."""
    k = len(pattern)
    target = _pattern_of(pattern)
    for idxs in combinations(range(len(text)), k):
        if _pattern_of([text[i] for i in idxs]) == target:
            return True
    return False


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
            r = replace(r, y1=0)
        elif not vertical and r.x1 == b.x2 and r.y2 <= b.y2:
            r = replace(r, x1=0)
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
