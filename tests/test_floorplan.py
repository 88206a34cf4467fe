import bisect
import itertools
import random
from time import perf_counter

import pytest
from hypothesis import assume, given, settings, strategies as st

import hrd.floorplan
from hrd.perm import Permutation, is_baxter
from hrd.floorplan import (
    FloorplanFormatError,
    MosaicFloorplan,
    Room,
    bp2fp,
    diagnose,
    format_floorplan,
    fp2bp,
    parse_floorplan,
    render,
)
from oracles import (
    Corner,
    baxter_pair_scan,
    blocks_bruteforce,
    bp2fp_by_reinsertion,
    canonical,
    delete_corner,
    delete_top_left_by_scan,
    deletion_labels_by_scan,
    diagnose_by_grid,
    enumerate_floorplans,
    enveloping_rectangles,
    fp2bp_by_scan,
    fp2bp_by_two_orders,
    inflate,
    reflect,
    render_by_grid,
    seg_room_relations,
    single_room,
    validate,
)

P = Permutation.parse

BAXTER = [1, 2, 6, 22, 92, 422]

SIDE_BY_SIDE = MosaicFloorplan(2, 1, (Room(1, 0, 0, 1, 1), Room(2, 1, 0, 2, 1)))
STACKED = MosaicFloorplan(1, 2, (Room(1, 0, 0, 1, 1), Room(2, 0, 1, 1, 2)))

ORDER_FIVE_SKELETONS = (P("12"), P("21"), P("41352"), P("25314"))


def random_baxter(rng: random.Random, n: int) -> Permutation:
    """A Baxter permutation of length n: a random order-5 skeleton inflated
    by random Baxter permutations of random sizes."""
    if n == 1:
        return P("1")
    skeleton = rng.choice([s for s in ORDER_FIVE_SKELETONS if len(s) <= n])
    cuts = sorted(rng.sample(range(1, n), len(skeleton) - 1))
    sizes = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, n])]
    return inflate(skeleton, [random_baxter(rng, m) for m in sizes])


def respaced(rng: random.Random, f: MosaicFloorplan) -> MosaicFloorplan:
    """The same wall topology on strictly increasing re-spaced coordinates,
    with fresh room ids and the rooms shuffled."""
    xs = [0, *sorted(rng.sample(range(1, 20 * f.width), f.width))]
    ys = [0, *sorted(rng.sample(range(1, 20 * f.height), f.height))]
    ids = rng.sample(range(1, 10 * f.n), f.n)
    rooms = [Room(i, xs[r.x1], ys[r.y1], xs[r.x2], ys[r.y2]) for i, r in zip(ids, f.rooms)]
    rng.shuffle(rooms)
    return MosaicFloorplan(xs[-1], ys[-1], tuple(rooms))


def tiles(f: MosaicFloorplan) -> bool:
    """Rooms inside the bounding box, pairwise disjoint and covering its
    area.  Disjointness is checked by a sweep over x that keeps the y-ranges
    of the rooms crossing the sweep line sorted; a new range can only
    overlap its neighbours there.  No grid, so large inputs are cheap."""
    if any(not (0 <= r.x1 < r.x2 <= f.width and 0 <= r.y1 < r.y2 <= f.height) for r in f.rooms):
        return False
    if sum((r.x2 - r.x1) * (r.y2 - r.y1) for r in f.rooms) != f.width * f.height:
        return False
    events = sorted([(r.x1, 1, r.y1, r.y2) for r in f.rooms] + [(r.x2, 0, r.y1, r.y2) for r in f.rooms])
    crossing: list[tuple[int, int]] = []
    for _, starts, y1, y2 in events:
        if not starts:
            crossing.remove((y1, y2))
            continue
        i = bisect.bisect(crossing, (y1, y2))
        if (i and crossing[i - 1][1] > y1) or (i < len(crossing) and crossing[i][0] < y2):
            return False
        crossing.insert(i, (y1, y2))
    return True


class TestValidate:
    def test_single_room(self):
        assert validate(single_room())

    def test_overlap_rejected(self):
        f = MosaicFloorplan(2, 1, (Room(1, 0, 0, 2, 1), Room(2, 1, 0, 2, 1)))
        assert not validate(f)
        assert any("overlap" in m for m in diagnose(f))

    def test_gap_rejected(self):
        f = MosaicFloorplan(2, 1, (Room(1, 0, 0, 1, 1),))
        assert not validate(f)

    def test_plus_junction_rejected(self):
        four = MosaicFloorplan(
            2, 2,
            (Room(1, 0, 0, 1, 1), Room(2, 1, 0, 2, 1), Room(3, 0, 1, 1, 2), Room(4, 1, 1, 2, 2)),
        )
        assert not validate(four)
        assert any("junction" in m for m in diagnose(four))

    def test_degenerate_room_rejected(self):
        f = MosaicFloorplan(1, 1, (Room(1, 0, 0, 0, 1),))
        assert not validate(f)

    @pytest.mark.parametrize("rid, msgs", [([1], ["room [1]: id must be hashable"]), ("a", []), ((1, 2), [])])
    def test_room_ids_need_only_be_hashable(self, rid, msgs):
        assert diagnose(MosaicFloorplan(1, 1, (Room(rid, 0, 0, 1, 1),))) == msgs

    @pytest.mark.parametrize("width, height", [(True, 1), (1.5, 1), (1, 1.0), ("2", 1), (None, 1)])
    def test_bounds_must_be_integers(self, width, height):
        f = MosaicFloorplan(width, height, (Room(1, 0, 0, 1, 1),))
        assert diagnose(f) == [f"bounding rectangle {width}x{height}: width and height must be integers"]


class TestDeleteCorner:
    def test_two_rooms_collapse_to_one(self):
        out = delete_corner(SIDE_BY_SIDE, Corner.TOP_LEFT)
        assert out.n == 1 and validate(out)

    def test_wheel_deletes_to_termination(self):
        f = bp2fp(P("41352"))
        for remaining in range(4, 0, -1):
            f = delete_corner(f, Corner.TOP_LEFT)
            assert validate(f) and f.n == remaining

    def test_singleton_rejected(self):
        with pytest.raises(ValueError):
            delete_corner(single_room(), Corner.TOP_LEFT)

    @pytest.mark.parametrize("corner", list(Corner))
    def test_deletion_safety_over_enumeration(self, corner):
        for n in (2, 3, 4, 5):
            for f in enumerate_floorplans(n):
                out = delete_corner(f, corner)
                assert validate(out) and out.n == n - 1
                assert out == canonical(out)


class TestFp2bp:
    def test_single_room(self):
        assert fp2bp(single_room()) == P("1")

    def test_two_room_cuts(self):
        assert fp2bp(SIDE_BY_SIDE) == P("12")
        assert fp2bp(STACKED) == P("21")

    def test_output_is_baxter_over_enumeration(self):
        for n in range(1, 6):
            for f in enumerate_floorplans(n):
                assert is_baxter(fp2bp(f))

    def test_stacks_are_guillotine(self):
        from hrd.gentree import is_hrd

        for n in range(1, 7):
            stack = MosaicFloorplan(1, n, tuple(Room(i + 1, 0, i, 1, i + 1) for i in range(n)))
            row = MosaicFloorplan(n, 1, tuple(Room(i + 1, i, 0, i + 1, 1) for i in range(n)))
            assert is_hrd(fp2bp(stack), 2)
            assert is_hrd(fp2bp(row), 2)

    def test_invalid_input_rejected(self):
        with pytest.raises(ValueError):
            fp2bp(MosaicFloorplan(2, 1, (Room(1, 0, 0, 1, 1),)))

    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_one_deletion_order(self, n, monkeypatch):
        """fp2bp deletes each room but the last once, in top-left order,
        and reads the bottom-left order off those deletions."""
        calls = []
        delete = hrd.floorplan._delete_top_left

        def counted(at, width, height):
            calls.append(len(at))
            return delete(at, width, height)

        monkeypatch.setattr(hrd.floorplan, "_delete_top_left", counted)
        p = random_baxter(random.Random(n), n)
        assert fp2bp(bp2fp(p)) == p
        assert calls == list(range(n, 1, -1))


class TestBp2fp:
    def test_small_floorplans(self):
        assert bp2fp(P("1")).n == 1
        f12 = bp2fp(P("12"))
        assert f12.n == 2 and fp2bp(f12) == P("12")
        wheel = bp2fp(P("41352"))
        assert wheel.n == 5 and fp2bp(wheel) == P("41352")

    def test_non_baxter_rejected(self):
        with pytest.raises(ValueError):
            bp2fp(P("2413"))

    def test_insertions_reject_exactly_the_non_baxter_permutations(self):
        """The insertions are bp2fp's only Baxter check: a label without a
        slot raises, for every permutation of length <= 8 that the pair scan
        finds not Baxter and for no other."""
        rejected = 0
        for n in range(1, 9):
            for vals in itertools.permutations(range(1, n + 1)):
                p = Permutation(vals)
                try:
                    bp2fp(p)
                except ValueError as e:
                    assert str(e) == "bp2fp requires a Baxter permutation" and not baxter_pair_scan(vals), p
                    rejected += 1
                else:
                    assert baxter_pair_scan(vals), p
        # 46233 permutations of length <= 8, 13373 of them Baxter
        assert rejected == 46233 - 13373

    def test_room_ids_are_deletion_labels(self):
        wheel = bp2fp(P("41352"))
        assert sorted(r.id for r in wheel.rooms) == [1, 2, 3, 4, 5]
        first = next(r for r in wheel.rooms if r.id == 1)
        assert first.x1 == 0 and first.y1 == 0

    @given(st.integers(2, 8).flatmap(lambda n: st.permutations(tuple(range(1, n + 1)))))
    @settings(max_examples=250, deadline=None)
    def test_roundtrip_random_baxter(self, vals):
        p = Permutation(tuple(vals))
        assume(baxter_pair_scan(p.values))
        f = bp2fp(p)
        assert validate(f)
        assert fp2bp(f) == p


class TestLargeInputs:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bp2fp_room_ids_are_deletion_labels(self, seed):
        f = bp2fp(random_baxter(random.Random(seed), 300))
        assert all(rid == label for rid, label in deletion_labels_by_scan(f).items())

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fp2bp_ignores_spacing_ids_and_room_order(self, seed):
        rng = random.Random(seed)
        p = random_baxter(rng, 300)
        assert fp2bp(respaced(rng, bp2fp(p))) == p

    def test_bp2fp_at_ten_thousand_rooms(self):
        p = random_baxter(random.Random(10), 10_000)
        start = perf_counter()
        f = bp2fp(p)
        assert perf_counter() - start < 3.0
        assert sorted(r.id for r in f.rooms) == list(range(1, 10_001))
        assert tiles(f)

    def test_validation_and_text_roundtrip_at_ten_thousand_rooms(self):
        p = random_baxter(random.Random(10), 10_000)
        start = perf_counter()
        f = bp2fp(p)
        assert validate(f)
        assert fp2bp(parse_floorplan(format_floorplan(f))) == p
        assert perf_counter() - start < 3.0

    def test_roundtrip_at_a_thousand_rooms(self):
        p = random_baxter(random.Random(1000), 1000)
        f = bp2fp(p)
        assert tiles(f) and fp2bp(f) == p


class TestAgainstReference:
    """The corner-index ``fp2bp`` and ``delete_corner`` against full scans
    per deletion, and the stack-based ``bp2fp`` against re-canonicalizing
    insertions (tests/oracles.py)."""

    def test_bp2fp_on_every_small_baxter_permutation(self):
        seen = 0
        for n in range(1, 9):
            for vals in itertools.permutations(range(1, n + 1)):
                p = Permutation(vals)
                if is_baxter(p):
                    assert bp2fp(p) == bp2fp_by_reinsertion(p), p
                    seen += 1
        assert seen == 13373

    @pytest.mark.parametrize("n", [200, 400, 1000])
    def test_bp2fp_on_large_inputs(self, n):
        p = random_baxter(random.Random(n), n)
        assert bp2fp(p) == bp2fp_by_reinsertion(p)

    def test_fp2bp_over_enumeration(self):
        for n in range(1, 8):
            for f in enumerate_floorplans(n):
                assert fp2bp(f).values == fp2bp_by_scan(f)

    def test_fp2bp_over_relabelled_shuffled_enumeration(self):
        """String ids and a shuffled room order: the one-order fp2bp, the
        two-order reference and the full scans agree."""
        rng = random.Random(7)
        for n in range(1, 8):
            for f in enumerate_floorplans(n):
                rooms = [r._replace(id=f"room-{r.id * 37 % 101}") for r in f.rooms]
                rng.shuffle(rooms)
                g = f._replace(rooms=tuple(rooms))
                assert fp2bp(g) == fp2bp_by_two_orders(g) == fp2bp(f)
                assert fp2bp(g).values == fp2bp_by_scan(g)

    @pytest.mark.parametrize("n", [300, 1000])
    def test_fp2bp_on_respaced_large_inputs(self, n):
        rng = random.Random(n)
        f = respaced(rng, bp2fp(random_baxter(rng, n)))
        assert fp2bp(f).values == fp2bp_by_scan(f)

    @pytest.mark.parametrize("corner", list(Corner))
    def test_delete_corner_over_enumeration(self, corner):
        fx = corner in (Corner.TOP_RIGHT, Corner.BOTTOM_RIGHT)
        fy = corner in (Corner.BOTTOM_LEFT, Corner.BOTTOM_RIGHT)
        for n in range(2, 7):
            for f in enumerate_floorplans(n):
                g = reflect(f, flip_x=fx, flip_y=fy)
                rest, _ = delete_top_left_by_scan(g.width, g.height, g.rooms)
                expect = reflect(MosaicFloorplan(g.width, g.height, tuple(rest)), flip_x=fx, flip_y=fy)
                assert delete_corner(f, corner) == expect


def perturbed(rng: random.Random, f: MosaicFloorplan):
    """Seeded defective copies of ``f``: a room deleted, a room duplicated
    under a new id, one edge moved by +-1, and one room shifted by one unit
    inside the box, which keeps the total area (none for a single room)."""
    rooms = list(f.rooms)
    r = rng.choice(rooms)
    yield [q for q in rooms if q is not r]
    yield rooms + [rng.choice(rooms)._replace(id=max(q.id for q in rooms) + 1)]
    r, edge = rng.choice(rooms), rng.choice(("x1", "y1", "x2", "y2"))
    moved = r._replace(**{edge: getattr(r, edge) + rng.choice((-1, 1))})
    yield [moved if q is r else q for q in rooms]
    shifts = [
        (r, dx, dy)
        for r in rooms
        for dx, dy in ((-1, 0), (1, 0), (0, -1), (0, 1))
        if 0 <= r.x1 + dx and r.x2 + dx <= f.width and 0 <= r.y1 + dy and r.y2 + dy <= f.height
    ]
    if shifts:
        r, dx, dy = rng.choice(shifts)
        moved = Room(r.id, r.x1 + dx, r.y1 + dy, r.x2 + dx, r.y2 + dy)
        yield [moved if q is r else q for q in rooms]


def defect_class(msgs: list[str]):
    """What the grid gate compares of a ``diagnose`` answer: the junction
    count, the first message's defect ("overlap" or "uncovered"), or, for the
    checks before the tiling, the messages themselves."""
    if msgs and "junction" in msgs[0]:
        return "junction", len(msgs)
    for word in ("overlap", "uncovered"):
        if msgs and word in msgs[0]:
            return word
    return tuple(msgs)


class TestDiagnoseAgainstGrid:
    """``diagnose`` (area and corner parity) against the cell grid it
    replaced (tests/oracles.py): same verdict and same defect class."""

    def test_enumeration_and_perturbations(self):
        rng = random.Random(7)
        cases = equal_area_defects = 0
        for n in range(1, 7):
            for g in enumerate_floorplans(n):
                for s in (1, 2):
                    f = MosaicFloorplan(s * g.width, s * g.height, tuple(
                        Room(r.id, s * r.x1, s * r.y1, s * r.x2, s * r.y2) for r in g.rooms))
                    for rooms in [f.rooms, *perturbed(rng, f)]:
                        h = MosaicFloorplan(f.width, f.height, tuple(rooms))
                        got = defect_class(diagnose(h))
                        assert got == defect_class(diagnose_by_grid(h)), h
                        area = sum((r.x2 - r.x1) * (r.y2 - r.y1) for r in rooms)
                        equal_area_defects += got == "overlap" and area == h.width * h.height
                        cases += 1
        # 545 plans at two spacings, each as it is and in four defective
        # copies, less the shift of the single room; every shift is an
        # equal-area defect
        assert cases == 545 * 2 * 5 - 2
        assert equal_area_defects == 545 * 2 - 2

    def test_three_by_three_has_four_plus_junctions(self):
        nine = MosaicFloorplan(3, 3, tuple(
            Room(3 * y + x + 1, x, y, x + 1, y + 1) for y in range(3) for x in range(3)))
        assert defect_class(diagnose(nine)) == defect_class(diagnose_by_grid(nine)) == ("junction", 4)


class TestEnumeration:
    def test_counts_match_baxter_numbers(self):
        for n, expect in enumerate(BAXTER, 1):
            assert sum(1 for _ in enumerate_floorplans(n)) == expect

    def test_labels_pairwise_distinct(self):
        for n in range(1, 6):
            seen = {fp2bp(f).values for f in enumerate_floorplans(n)}
            assert len(seen) == BAXTER[n - 1]


class TestSegRoomRelations:
    def test_single_room_has_four(self):
        rels = seg_room_relations(single_room())
        assert len(rels) == 4
        assert {r.side for r in rels} == {"top", "left", "right", "bottom"}

    def test_stacked_has_eight_with_shared_wall(self):
        rels = seg_room_relations(STACKED)
        assert len(rels) == 8
        shared = [r for r in rels if r.segment.orientation == "h" and r.segment.level == 1]
        assert {(r.room, r.side) for r in shared} == {(1, "bottom"), (2, "top")}

    def test_wheel_invariant_under_half_turn(self):
        wheel = bp2fp(P("41352"))
        rotated = reflect(wheel, flip_x=True, flip_y=True)
        assert seg_room_relations(wheel) == seg_room_relations(rotated)


class TestEquivalent:
    def test_room_order_is_irrelevant(self):
        shuffled = MosaicFloorplan(STACKED.width, STACKED.height, STACKED.rooms[::-1])
        assert fp2bp(STACKED) == fp2bp(shuffled)

    def test_the_two_cuts_differ(self):
        assert fp2bp(SIDE_BY_SIDE) != fp2bp(STACKED)

    def test_stretching_preserves_equivalence(self):
        stretched = MosaicFloorplan(10, 7, (Room(7, 0, 0, 10, 3), Room(9, 0, 3, 10, 7)))
        assert fp2bp(STACKED) == fp2bp(stretched)

    def test_fresh_line_position_between_walls_is_immaterial(self):
        # the same wall topology drawn with the middle line on either side
        # of the lower wall's x-position
        a = MosaicFloorplan(3, 2, (
            Room(1, 0, 0, 1, 1), Room(2, 1, 0, 3, 1),
            Room(3, 0, 1, 2, 2), Room(4, 2, 1, 3, 2)))
        b = MosaicFloorplan(3, 2, (
            Room(1, 0, 0, 2, 1), Room(2, 2, 0, 3, 1),
            Room(3, 0, 1, 1, 2), Room(4, 1, 1, 3, 2)))
        assert canonical(a) != canonical(b)
        assert fp2bp(a) == fp2bp(b)

    def test_invalid_floorplan_rejected(self):
        gap = MosaicFloorplan(2, 1, (Room(1, 0, 0, 1, 1),))
        with pytest.raises(ValueError):
            fp2bp(STACKED) == fp2bp(gap)
        with pytest.raises(ValueError):
            fp2bp(gap) == fp2bp(STACKED)


class TestEnvelopingRectangles:
    def test_single_room(self):
        assert enveloping_rectangles(single_room()) == {frozenset({1})}

    def test_three_columns_has_all_six(self):
        f = bp2fp(P("123"))
        got = enveloping_rectangles(f)
        assert got == {
            frozenset(s) for s in [{1}, {2}, {3}, {1, 2}, {2, 3}, {1, 2, 3}]
        }

    def test_matches_blocks_over_enumeration(self):
        for n in range(1, 6):
            for f in enumerate_floorplans(n):
                p = fp2bp(f)
                block_sets = {frozenset(p.values[i - 1 : j]) for i, j in blocks_bruteforce(p.values)}
                assert enveloping_rectangles(f) == block_sets


class TestTextFormat:
    def test_roundtrip(self):
        wheel = bp2fp(P("41352"))
        again = parse_floorplan(format_floorplan(wheel))
        assert fp2bp(wheel) == fp2bp(again)

    def test_header_errors_cite_line_one(self):
        with pytest.raises(FloorplanFormatError) as err:
            parse_floorplan("not a header\n")
        assert err.value.lineno == 1

    def test_room_errors_cite_their_line(self):
        with pytest.raises(FloorplanFormatError) as err:
            parse_floorplan("1 1 1\n1 0 0 1\n")
        assert err.value.lineno == 2
        # only ASCII decimals with an optional sign: int() alone reads 1_0 as 10
        with pytest.raises(FloorplanFormatError, match="room line must be five integers") as err:
            parse_floorplan("10 1 1\n1 0 0 1_0 1\n")
        assert err.value.lineno == 2
        assert parse_floorplan("1 1 1\n-1 +0 0 1 1\n").rooms == (Room(-1, 0, 0, 1, 1),)

    def test_invalid_mosaic_rejected(self):
        # the parser reads the text; the geometry is checked where it is used
        f = parse_floorplan("2 2 4\n1 0 0 1 1\n2 1 0 2 1\n3 0 1 1 2\n4 1 1 2 2\n")
        for use in (fp2bp, render):
            with pytest.raises(ValueError, match="junction"):
                use(f)

    def test_uses_reject_exactly_what_diagnose_rejects(self):
        rng = random.Random(7)
        rejected = 0
        for n in range(1, 6):
            for f in enumerate_floorplans(n):
                for rooms in [f.rooms, *perturbed(rng, f)]:
                    h = MosaicFloorplan(f.width, f.height, tuple(rooms))
                    parsed = parse_floorplan(format_floorplan(h))
                    bad = bool(diagnose(h))
                    for use in (fp2bp, render):
                        if bad:
                            with pytest.raises(ValueError, match="invalid mosaic floorplan"):
                                use(parsed)
                        else:
                            use(parsed)
                    rejected += bad
        # 123 plans, each with four defective copies, less the single room's shift
        assert rejected == 123 * 4 - 1

    def test_room_count_mismatch(self):
        with pytest.raises(FloorplanFormatError):
            parse_floorplan("1 1 2\n1 0 0 1 1\n")

    def test_rooms_are_sorted_by_id_when_the_ids_compare(self):
        left, right = Room(2, 0, 0, 1, 1), Room(1, 1, 0, 2, 1)
        assert format_floorplan(MosaicFloorplan(2, 1, (left, right))) == "2 1 2\n1 1 0 2 1\n2 0 0 1 1\n"
        # 'a' and 1 do not compare, so the rooms keep their order, as diagnose,
        # fp2bp and render accept them
        for rooms in [(left._replace(id="a"), right), (right, left._replace(id="a"))]:
            f = MosaicFloorplan(2, 1, rooms)
            assert not diagnose(f) and fp2bp(f) == P("12") and render(f)
            assert format_floorplan(f) == "2 1 2\n" + "".join(" ".join(map(str, r)) + "\n" for r in rooms)


class TestRender:
    def test_single_room(self):
        out = render(single_room())
        assert "1" in out and out.count("+") == 4

    def test_wheel_mentions_every_room(self):
        out = render(bp2fp(P("41352")))
        for rid in "12345":
            assert rid in out

    def test_walls_are_closed(self):
        for line in render(bp2fp(P("2475316"))).splitlines():
            assert line == line.rstrip()

    def test_single_room_drawing(self):
        assert render(single_room()) == "+-----+\n|  1  |\n+-----+\n"

    def test_wheel_drawing(self):
        assert render(bp2fp(P("41352"))) == (
            "+-----+-----------+\n"
            "|     |     2     |\n"
            "|  1  +-----+-----+\n"
            "|     |  3  |     |\n"
            "+-----+-----+  5  |\n"
            "|     4     |     |\n"
            "+-----------+-----+\n"
        )

    def test_outlines_match_the_grid_over_small_baxter_permutations(self, baxter_by_n):
        seen = 0
        for perms in baxter_by_n.values():
            for p in perms:
                f = bp2fp(p)
                assert render(f) == render_by_grid(f), p
                seen += 1
        assert seen == 2619

    @pytest.mark.parametrize("longest", [5, 6, 9])
    def test_long_ids_stay_inside_their_walls(self, longest):
        wheel = bp2fp(P("41352"))
        ids = {r.id: int(str(r.id) * longest) for r in wheel.rooms}
        f = MosaicFloorplan(wheel.width, wheel.height, tuple(r._replace(id=ids[r.id]) for r in wheel.rooms))
        out = render(f)
        assert out == render_by_grid(f)
        assert len(out.splitlines()[0]) == 3 * (6 if longest <= 5 else longest + 2) + 1
        assert all(out.count(str(rid)) == 1 for rid in ids.values())
        assert all(line[0] in "|+" and line[-1] in "|+" for line in out.splitlines())

    @pytest.mark.parametrize("seed", range(5))
    def test_outlines_match_the_grid_on_respaced_inputs(self, seed):
        rng = random.Random(seed)
        f = respaced(rng, bp2fp(random_baxter(rng, 40)))
        assert render(f) == render_by_grid(f)
