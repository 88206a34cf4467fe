"""Mosaic floorplans: integer-grid tilings of a bounding rectangle whose
interior junctions are all T-shaped.

The origin sits at the top-left corner and y grows downward.  Only the wall
topology of a floorplan matters: corner deletions run on the coordinates
they are given, and ``canonical``, ``reflect``, ``bp2fp`` and
``delete_corner`` return coordinates ranked to the distinct wall positions.
Two floorplans are equivalent exactly when their deletion-order label
permutations agree, which is how ``equivalent`` decides.

Corner deletion slides one edge of the corner room until it hits the
bounding rectangle, dragging the attached T-junctions along.  Labeling rooms
in top-left deletion order and reading those labels in bottom-left deletion
order (``fp2bp``) yields a Baxter permutation; ``bp2fp`` rebuilds the unique
floorplan with a given label permutation by inserting rooms at the top-left
corner in decreasing label order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Iterator, NamedTuple

from .perm import Permutation, is_baxter


class Corner(Enum):
    TOP_LEFT = "top-left"
    TOP_RIGHT = "top-right"
    BOTTOM_LEFT = "bottom-left"
    BOTTOM_RIGHT = "bottom-right"


@dataclass(frozen=True)
class Room:
    id: int
    x1: int
    y1: int
    x2: int
    y2: int


@dataclass(frozen=True)
class MosaicFloorplan:
    width: int
    height: int
    rooms: tuple[Room, ...]

    @property
    def n(self) -> int:
        return len(self.rooms)

    def room(self, room_id: int) -> Room:
        for r in self.rooms:
            if r.id == room_id:
                return r
        raise KeyError(f"no room with id {room_id}")


def single_room() -> MosaicFloorplan:
    return MosaicFloorplan(1, 1, (Room(1, 0, 0, 1, 1),))


def _canonical_from_entries(
    entries: Iterable[tuple],
    extra_x: Iterable = (),
    extra_y: Iterable = (),
) -> MosaicFloorplan:
    """Rank-compress arbitrary (id, x1, y1, x2, y2) rectangles.

    Coordinates may be any ordered numeric type; the result uses consecutive
    integer ranks.
    """
    items = list(entries)
    xs = sorted({e[1] for e in items} | {e[3] for e in items} | set(extra_x))
    ys = sorted({e[2] for e in items} | {e[4] for e in items} | set(extra_y))
    xr = {x: i for i, x in enumerate(xs)}
    yr = {y: i for i, y in enumerate(ys)}
    rooms = tuple(
        sorted(
            (Room(rid, xr[x1], yr[y1], xr[x2], yr[y2]) for rid, x1, y1, x2, y2 in items),
            key=lambda r: (r.y1, r.x1, r.id),
        )
    )
    return MosaicFloorplan(len(xs) - 1, len(ys) - 1, rooms)


def canonical(f: MosaicFloorplan) -> MosaicFloorplan:
    """Rank-canonical form; the bounding coordinates are always kept."""
    return _canonical_from_entries(
        ((r.id, r.x1, r.y1, r.x2, r.y2) for r in f.rooms),
        extra_x=(0, f.width),
        extra_y=(0, f.height),
    )


def _grid(g: MosaicFloorplan) -> list[list[int]]:
    """Cell map of a canonical floorplan: grid[y][x] = room id."""
    grid = [[None] * g.width for _ in range(g.height)]
    for r in g.rooms:
        for y in range(r.y1, r.y2):
            row = grid[y]
            for x in range(r.x1, r.x2):
                row[x] = r.id
    return grid


def diagnose(f: MosaicFloorplan) -> list[str]:
    """Human-readable reasons why ``f`` is not a valid mosaic floorplan."""
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


def validate(f: MosaicFloorplan) -> bool:
    """True iff the tiling is exact and every interior junction is a T."""
    return not diagnose(f)


def _require_valid(f: MosaicFloorplan) -> None:
    msgs = diagnose(f)
    if msgs:
        extra = f" (+{len(msgs) - 1} more)" if len(msgs) > 1 else ""
        raise ValueError(f"invalid mosaic floorplan: {msgs[0]}{extra}")


def reflect(f: MosaicFloorplan, *, flip_x: bool = False, flip_y: bool = False) -> MosaicFloorplan:
    entries = []
    for r in f.rooms:
        x1, x2 = (f.width - r.x2, f.width - r.x1) if flip_x else (r.x1, r.x2)
        y1, y2 = (f.height - r.y2, f.height - r.y1) if flip_y else (r.y1, r.y2)
        entries.append((r.id, x1, y1, x2, y2))
    return _canonical_from_entries(entries)


def _delete_top_left(g: MosaicFloorplan) -> tuple[MosaicFloorplan, int]:
    """Delete the top-left room of a valid floorplan.

    Works on the coordinates it is given; it only needs the top-left corner
    at the origin, which every valid floorplan has.  At the room's
    bottom-right corner exactly one of its walls continues past the corner.
    When the vertical wall continues downward (the room holding the cell
    just below-right of the corner starts there) the bottom edge slides up
    and the rooms underneath grow to the top boundary; otherwise the right
    edge slides left.  The bounding rectangle never changes.
    """
    b = next(r for r in g.rooms if r.x1 == 0 and r.y1 == 0)
    if g.n == 1:
        raise ValueError("cannot delete from a single-room floorplan")
    vertical = b.x2 == g.width or any(r.x1 == b.x2 and r.y1 <= b.y2 < r.y2 for r in g.rooms)
    rooms = []
    for r in g.rooms:
        if r.id == b.id:
            continue
        if vertical and r.y1 == b.y2 and r.x2 <= b.x2:
            r = replace(r, y1=0)
        elif not vertical and r.x1 == b.x2 and r.y2 <= b.y2:
            r = replace(r, x1=0)
        rooms.append(r)
    return MosaicFloorplan(g.width, g.height, tuple(rooms)), b.id


def delete_corner(f: MosaicFloorplan, corner: Corner) -> MosaicFloorplan:
    """Remove the block sitting at ``corner``; the result has n-1 rooms and
    rank-canonical coordinates."""
    _require_valid(f)
    fx = corner in (Corner.TOP_RIGHT, Corner.BOTTOM_RIGHT)
    fy = corner in (Corner.BOTTOM_LEFT, Corner.BOTTOM_RIGHT)
    out, _ = _delete_top_left(reflect(f, flip_x=fx, flip_y=fy))
    return reflect(out, flip_x=fx, flip_y=fy)


def _deletion_labels(g: MosaicFloorplan) -> dict[int, int]:
    """room id -> top-left deletion label (1..n) of a valid floorplan."""
    labels: dict[int, int] = {}
    cur = g
    for step in range(1, g.n):
        cur, rid = _delete_top_left(cur)
        labels[rid] = step
    labels[cur.rooms[0].id] = g.n
    return labels


def fp2bp(f: MosaicFloorplan) -> Permutation:
    """Label rooms in top-left deletion order, then read the labels in
    bottom-left deletion order, which is the top-left deletion order of the
    vertical mirror.  The result is a Baxter permutation."""
    _require_valid(f)
    labels = _deletion_labels(f)
    reading = _deletion_labels(reflect(f, flip_y=True))
    return Permutation(tuple(labels[rid] for rid in sorted(labels, key=reading.__getitem__)))


def _insert_top_left(g: MosaicFloorplan, side: str, j: int, new_id: int) -> MosaicFloorplan:
    """Insert a room at the top-left corner of a canonical floorplan.

    ``side="top"`` pushes the first j top-boundary rooms down onto a fresh
    horizontal line; ``side="left"`` pushes the first j left-boundary rooms
    right onto a fresh vertical line.  Doubling the coordinates first leaves
    odd ranks free for the fresh line, and canonicalization compresses them
    away again.
    """
    entries = []
    if side == "top":
        tops = sorted((r for r in g.rooms if r.y1 == 0), key=lambda r: r.x1)
        covered = {r.id for r in tops[:j]}
        x_star = tops[j - 1].x2
        for r in g.rooms:
            y1 = 1 if r.id in covered else 2 * r.y1
            entries.append((r.id, r.x1, y1, r.x2, 2 * r.y2))
        entries.append((new_id, 0, 0, x_star, 1))
    else:
        lefts = sorted((r for r in g.rooms if r.x1 == 0), key=lambda r: r.y1)
        covered = {r.id for r in lefts[:j]}
        y_star = lefts[j - 1].y2
        for r in g.rooms:
            x1 = 1 if r.id in covered else 2 * r.x1
            entries.append((r.id, x1, r.y1, 2 * r.x2, r.y2))
        entries.append((new_id, 0, 0, 1, y_star))
    return _canonical_from_entries(entries)


def bp2fp(p: Permutation) -> MosaicFloorplan:
    """The mosaic floorplan whose label permutation is ``p``.

    Rooms are inserted at the top-left corner in decreasing label order, so
    the room inserted for label i is deleted i-th in top-left order.  Each
    insertion is the inverse of a corner deletion; which one is forced by
    where label i must land in the bottom-left reading order: pushing the
    first j left-boundary rooms makes the new room read immediately before
    the earliest-read of them, pushing the first j top-boundary rooms makes
    it read immediately after the latest-read of them.  Room ids of the
    result equal the top-left deletion labels.
    """
    if not is_baxter(p):
        raise ValueError("bp2fp requires a Baxter permutation")
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


def equivalent(f1: MosaicFloorplan, f2: MosaicFloorplan) -> bool:
    """Seg-room equivalence, decided through the label permutations.

    The deletion-order bijection separates exactly the distinct floorplans,
    so comparing ``fp2bp`` images avoids an isomorphism search.
    """
    return fp2bp(f1) == fp2bp(f2)


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


class FloorplanFormatError(ValueError):
    """Parse failure carrying the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def parse_floorplan(text: str) -> MosaicFloorplan:
    """Parse the text format: ``W H n`` then n lines ``id x1 y1 x2 y2``."""
    lines = text.splitlines()
    if not lines or not lines[0].split():
        raise FloorplanFormatError(1, "missing 'W H n' header")
    head = lines[0].split()
    if len(head) != 3:
        raise FloorplanFormatError(1, "header must be three integers: W H n")
    try:
        width, height, n = (int(tok) for tok in head)
    except ValueError:
        raise FloorplanFormatError(1, "header must be three integers: W H n") from None
    if n < 1:
        raise FloorplanFormatError(1, f"room count {n} must be >= 1")
    rooms = []
    lineno = 1
    for raw in lines[1:]:
        lineno += 1
        if not raw.split():
            continue
        toks = raw.split()
        if len(toks) != 5:
            raise FloorplanFormatError(lineno, "room line must be five integers: id x1 y1 x2 y2")
        try:
            rid, x1, y1, x2, y2 = (int(tok) for tok in toks)
        except ValueError:
            raise FloorplanFormatError(lineno, "room line must be five integers: id x1 y1 x2 y2") from None
        if not (0 <= x1 < x2 <= width and 0 <= y1 < y2 <= height):
            raise FloorplanFormatError(lineno, f"room {rid}: rectangle ({x1},{y1})-({x2},{y2}) is not a proper box inside {width}x{height}")
        rooms.append(Room(rid, x1, y1, x2, y2))
    if len(rooms) != n:
        raise FloorplanFormatError(lineno, f"header announced {n} rooms, found {len(rooms)}")
    f = MosaicFloorplan(width, height, tuple(rooms))
    msgs = diagnose(f)
    if msgs:
        raise FloorplanFormatError(1, "; ".join(msgs))
    return f


def format_floorplan(f: MosaicFloorplan) -> str:
    lines = [f"{f.width} {f.height} {f.n}"]
    for r in sorted(f.rooms, key=lambda r: r.id):
        lines.append(f"{r.id} {r.x1} {r.y1} {r.x2} {r.y2}")
    return "\n".join(lines) + "\n"


def render(f: MosaicFloorplan, *, cell_width: int = 6, cell_height: int = 2) -> str:
    """ASCII drawing on the canonical grid, room ids at rectangle centers."""
    _require_valid(f)
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
