"""Mosaic floorplans: integer-grid tilings of a bounding rectangle whose
interior junctions are all T-shaped.

The origin sits at the top-left corner and y grows downward.  A room is
the tuple (id, x1, y1, x2, y2).  Only the wall topology of a floorplan
matters: corner deletions run on the coordinates they are given,
``bp2fp`` places its rooms on ranked lines, and ``render`` ranks the
coordinates to the distinct wall positions (``_ranked``).  Two floorplans
have the same wall topology exactly when their deletion-order label
permutations (``fp2bp``) agree.

Corner deletion slides one edge of the corner room until it hits the
bounding rectangle, dragging the attached T-junctions along.  Labeling rooms
in top-left deletion order and reading those labels in bottom-left deletion
order (``fp2bp``) yields a Baxter permutation; ``bp2fp`` rebuilds the unique
floorplan with a given label permutation by inserting rooms at the top-left
corner in decreasing label order.

Both directions are near-linear.  Deletions run on an index from each
room's top-left corner to the room, and find the sliding rooms by hopping
from corner to corner along the deleted room's bottom or right edge; a room
slides at most once per axis, so a whole deletion order costs O(n)
(``_delete_top_left``).  ``fp2bp`` runs the top-left order alone: each
deletion's direction and last sliding room place its label in the
bottom-left reading, which a linked list rebuilds in O(n).
Insertions run in ``perm._insertions``, O(n), which also decides Baxter,
so this module holds no Baxter logic: ``bp2fp`` only places the rooms, its
lines ranked directly by a prefix count over the labels, and sorts them
once into (y1, x1) order.
Validation is O(n) from the room areas and the parity of corner counts
(``diagnose``).  It runs once, in the function that uses the floorplan:
``fp2bp`` and ``render`` check their input, and ``grow_ihrd`` through
``fp2bp``; ``parse_floorplan`` checks only the text format.
``grow_ihrd`` grows an irreducible floorplan by two rooms through its label.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple

from . import _ascii_ints
from .perm import Permutation, _grow_label, _insertions, is_simple


class Room(NamedTuple):
    id: int
    x1: int
    y1: int
    x2: int
    y2: int


class MosaicFloorplan(NamedTuple):
    width: int
    height: int
    rooms: tuple[Room, ...]

    @property
    def n(self) -> int:
        return len(self.rooms)


def _ranked(rooms: Iterable[tuple]) -> MosaicFloorplan:
    """Rank-compress the rooms of a valid floorplan, given as rooms or as
    (id, x1, y1, x2, y2) tuples on any ordered coordinates, onto consecutive
    integers; rooms come out sorted by (y1, x1, id).

    The rooms of a valid floorplan reach all four sides, so the bounding
    rectangle is the ranks of their outermost coordinates.
    """
    rooms = list(rooms)
    xs = sorted({r[1] for r in rooms} | {r[3] for r in rooms})
    ys = sorted({r[2] for r in rooms} | {r[4] for r in rooms})
    xr = {x: i for i, x in enumerate(xs)}
    yr = {y: i for i, y in enumerate(ys)}
    ranked = sorted(
        (Room(rid, xr[x1], yr[y1], xr[x2], yr[y2]) for rid, x1, y1, x2, y2 in rooms),
        key=lambda r: (r.y1, r.x1, r.id),
    )
    return MosaicFloorplan(len(xs) - 1, len(ys) - 1, tuple(ranked))


def diagnose(f: MosaicFloorplan) -> list[str]:
    """Human-readable reasons why ``f`` is not a valid mosaic floorplan.

    O(n) on the input's own coordinates.  Mod 2, the number of rooms with a
    corner at a point is the second difference of the cells' coverage.  So
    if the points with an odd count are exactly the box corners, every cell
    is covered an odd number of times, and rooms inside the box with total
    area W*H tile it exactly; a corner of four rooms is then a '+' junction.
    """
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


def _require_valid(f: MosaicFloorplan) -> None:
    msgs = diagnose(f)
    if msgs:
        extra = f" (+{len(msgs) - 1} more)" if len(msgs) > 1 else ""
        raise ValueError(f"invalid mosaic floorplan: {msgs[0]}{extra}")


def _corner_index(rooms: Iterable[tuple]) -> dict[tuple[int, int], tuple[int, int, int]]:
    """Top-left corner (x1, y1) -> (x2, y2, id) of every room."""
    return {(x1, y1): (x2, y2, rid) for rid, x1, y1, x2, y2 in rooms}


def _delete_top_left(at: dict[tuple[int, int], tuple[int, int, int]], width: int, height: int) -> tuple[int, bool, int]:
    """Delete the top-left room of a valid floorplan held as a corner index
    (see ``_corner_index``), in place; return the deleted room's id, whether
    the deletion was vertical, and the id of the last room that slid.

    Works on the coordinates it is given and never changes the bounding
    rectangle.  At the deleted room b's bottom-right corner exactly one of
    its walls continues past the corner.  When the vertical wall continues
    downward, b's bottom edge slides up and the rooms underneath grow to the
    top boundary; otherwise b's right edge slides left and the rooms to its
    right grow to the left boundary.  Only the top-left corners of rooms
    change, and only for the rooms that slide; the last of them ends at b's
    bottom-right corner.

    The sliding rooms are found by hopping from corner to corner along b's
    bottom edge (from (0, b.y2)) or right edge (from (b.x2, 0)).  The two
    hops run in lockstep until one decides which wall continues: the bottom
    hop ends exactly at b.x2 when the vertical wall continues and overshoots
    it otherwise, and the right hop likewise at b.y2.  So a deletion costs
    O(1 + number of sliding rooms) dictionary operations.  A room that
    slides up keeps y1 = 0 and one that slides left keeps x1 = 0, so each
    room slides at most once per axis and deleting every room but one costs
    O(n) in all.
    """
    if len(at) == 1:
        raise ValueError("cannot delete from a single-room floorplan")
    x2, y2, rid = at.pop((0, 0))
    if x2 == width:
        vertical = True
    elif y2 == height:
        vertical = False
    else:
        across = down = 0
        while True:
            across = at[across, y2][0]
            if across >= x2:
                vertical = across == x2
                break
            down = at[x2, down][1]
            if down >= y2:
                vertical = down > y2
                break
    if vertical:
        x = 0
        while x < x2:
            room = at.pop((x, y2))
            at[x, 0] = room
            x = room[0]
    else:
        y = 0
        while y < y2:
            room = at.pop((x2, y))
            at[0, y] = room
            y = room[1]
    return rid, vertical, room[2]


def fp2bp(f: MosaicFloorplan) -> Permutation:
    """Label rooms in top-left deletion order, then read the labels in
    bottom-left deletion order.  The result is a Baxter permutation.

    One top-left deletion order runs on the corner index of the input's own
    coordinates (``_delete_top_left``), O(n) dictionary operations in all,
    after the validation (``diagnose``).  The reading is rebuilt from it
    without a second deletion order: restricted to labels >= i, label i
    sits right after the label of the last room its deletion slid when the
    deletion was vertical, and right before it otherwise.  This inverts
    ``perm._insertions``, where a top push runs to the previous greater
    value and a left push to the next greater value; inserting labels
    n-1, ..., 1 into a linked list costs O(n).
    """
    _require_valid(f)
    at = _corner_index(f.rooms)
    n = len(at)
    labels = {}
    vertical, last = [False] * n, [None] * n
    for i in range(1, n):
        rid, vertical[i], last[i] = _delete_top_left(at, f.width, f.height)
        labels[rid] = i
    labels[at[0, 0][2]] = n
    # the reading as a linked list of labels between the ends 0 and n + 1
    after, before = [0] * (n + 2), [0] * (n + 2)
    after[0], after[n], before[n + 1] = n, n + 1, n
    for i in range(n - 1, 0, -1):
        a = labels[last[i]]
        if not vertical[i]:
            a = before[a]
        b = after[a]
        after[a], before[i], after[i], before[b] = i, a, b, i
    reading = []
    i = after[0]
    while i <= n:
        reading.append(i)
        i = after[i]
    return Permutation(tuple(reading))


def bp2fp(p: Permutation) -> MosaicFloorplan:
    """The mosaic floorplan whose label permutation is ``p``, room ids the
    top-left deletion labels, on the insertions of ``perm._insertions``,
    which raise ValueError unless p is Baxter.  The fresh line of label i
    lies nearer the corner than every earlier one on its axis, so the
    x-lines run from 0 through the lines of the left pushes, by increasing
    label, to the right side, and a prefix count over the labels ranks
    them; the y-lines likewise with the top pushes.  A room's left (top)
    edge is the line of the push that covered it on that boundary, or 0;
    of its right and bottom edges, one is its own push's line and the other
    that of the room the push ran to.  O(n) up to one sort of the rooms
    into (y1, x1) order."""
    n = len(p)
    try:
        left_by, top_by, anchor = _insertions(p.values)
    except ValueError:
        raise ValueError("bp2fp requires a Baxter permutation") from None
    xr, yr = [0] * (n + 1), [0] * (n + 1)  # rank of each label's line; label 0 is the line 0
    width = height = 0
    for label in range(1, n):
        if left_by[anchor[label]] == label:  # a left push
            width += 1
            xr[label] = width
        else:
            height += 1
            yr[label] = height
    width += 1
    height += 1
    x2, y2 = [width] * (n + 1), [height] * (n + 1)  # room n reaches the far sides
    for label in range(n - 1, 0, -1):
        a = anchor[label]
        if left_by[a] == label:
            x2[label], y2[label] = xr[label], y2[a]
        else:
            x2[label], y2[label] = x2[a], yr[label]
    rooms = sorted((yr[top_by[r]], xr[left_by[r]], r, x2[r], y2[r]) for r in range(1, n + 1))
    return MosaicFloorplan(width, height, tuple(Room(r, x, y, xx, yy) for y, x, r, xx, yy in rooms))


def grow_ihrd(f: MosaicFloorplan) -> MosaicFloorplan:
    """Grow an irreducible dissection of order k >= 7 into one of order k+2.

    The label of ``f`` is Baxter, as every ``fp2bp`` result is, so it need
    only be simple.  The result is rebuilt from ``perm._grow_label``, which
    returns a simple Baxter permutation two longer, so the postcondition
    (k+2 rooms, label simple and Baxter) holds by construction; the input's
    label survives as a pattern of the output's.
    """
    label = fp2bp(f)
    if not is_simple(label):
        raise ValueError("floorplan is not irreducible: its label permutation is not simple Baxter")
    if len(label) < 7:
        raise ValueError("the growth construction applies from order 7 upward")
    return bp2fp(_grow_label(label))


class FloorplanFormatError(ValueError):
    """Parse failure carrying the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def parse_floorplan(text: str) -> MosaicFloorplan:
    """Parse the text format: ``W H n`` then n lines ``id x1 y1 x2 y2``.

    Only the text is checked here, each error citing its line: the header
    is three integers, each room line five, blank lines are skipped, and
    the room count is n.  The geometry is checked once, by ``diagnose``, in
    the function that uses the floorplan (``fp2bp``, ``render``).
    """
    lines = text.splitlines()
    if not lines or not lines[0].split():
        raise FloorplanFormatError(1, "missing 'W H n' header")
    try:  # a header of other than three tokens fails the unpacking
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


def format_floorplan(f: MosaicFloorplan) -> str:
    try:
        rooms = sorted(f.rooms, key=lambda r: r.id)
    except TypeError:  # ids that do not compare, say 'a' and 1, keep their order
        rooms = f.rooms
    return "".join([f"{f.width} {f.height} {f.n}\n"] + [f"{r.id} {r.x1} {r.y1} {r.x2} {r.y2}\n" for r in rooms])


def _cell_width(f: MosaicFloorplan) -> int:
    """6, or the length of the longest id plus 2 when that exceeds 5: an
    id of length L centred in a room one cell wide then starts and ends
    inside its walls."""
    longest = max(len(str(r.id)) for r in f.rooms)
    return 6 if longest <= 5 else longest + 2


def render(f: MosaicFloorplan) -> str:
    """ASCII drawing on the ranked grid, room ids at rectangle centers; a
    grid cell is 2 lines high and 6 characters wide, or the longest id plus
    2 when some id does not fit in the 5 columns between two walls.

    Each room draws its outline, '-' along the top and bottom and '|' along
    the sides, and then '+' at its corners.  A grid point that both a
    horizontal and a vertical wall touch is a T-junction or a box corner,
    and so a corner of some room.
    """
    _require_valid(f)
    cell_width, cell_height = _cell_width(f), 2
    g = _ranked(f.rooms)
    canvas = [[" "] * (g.width * cell_width + 1) for _ in range(g.height * cell_height + 1)]
    boxes = [(r.x1 * cell_width, r.y1 * cell_height, r.x2 * cell_width, r.y2 * cell_height) for r in g.rooms]
    for left, top, right, bottom in boxes:
        for col in range(left + 1, right):
            canvas[top][col] = canvas[bottom][col] = "-"
        for row in range(top + 1, bottom):
            canvas[row][left] = canvas[row][right] = "|"
    # after every edge: a T-junction lies inside an edge of the room across it
    for left, top, right, bottom in boxes:
        for row in (top, bottom):
            canvas[row][left] = canvas[row][right] = "+"
    for r, (left, top, right, bottom) in zip(g.rooms, boxes):
        text = str(r.id)
        row = canvas[(top + bottom) // 2]
        col = (left + right) // 2 - len(text) // 2
        for i, ch in enumerate(text):
            row[col + i] = ch
    return "\n".join("".join(row).rstrip() for row in canvas) + "\n"
