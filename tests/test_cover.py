import math
import random
from fractions import Fraction

import pytest

from geomatch.cover import (
    BicliqueCover,
    BoxTree,
    box_cover,
    cover_from_text,
    cover_size,
    cover_to_text,
    disk_cover,
    trivial_cover,
    validate_cover,
)
from geomatch.bottleneck import decide
from geomatch.geometry import Box, Disk, Metric, Point, contains
from geomatch.numeric import InputError

from brute import range_tree_parts
from helpers import rand_boxes, rand_congruent_disks, rand_fraction, rand_points
from oracle import brute_force_incidences


def edge_set(cover):
    out = set()
    for pts, rngs in cover.parts:
        out |= {(p, r) for p in pts for r in rngs}
    return out


def test_sigma_accounting():
    cover = BicliqueCover(
        3, 2, [([0, 1, 2], [0, 1]), ([0, 1], [0, 1]), ([0, 1, 2], [0, 1])]
    )
    assert cover_size(cover) == 14


def test_cover_rejects_bad_indices():
    with pytest.raises(InputError):
        BicliqueCover(2, 2, [([0, 2], [0])])
    with pytest.raises(InputError):
        BicliqueCover(2, 2, [([0], [-1])])


def test_trivial_cover_empty():
    assert cover_size(trivial_cover([], [])) == 0
    assert cover_size(trivial_cover(rand_points(random.Random(0), 4), [])) == 0


def test_trivial_cover_single_pair():
    cover = trivial_cover([Point((0, 0))], [Box(Point((-1, -1)), Point((1, 1)))])
    assert cover.parts == [([0], [0])]
    assert cover_size(cover) == 2


def test_trivial_cover_disks_matches_brute_force():
    rng = random.Random(5)
    for _ in range(25):
        pts = rand_points(rng, rng.randrange(0, 25))
        disks = rand_congruent_disks(rng, rng.randrange(0, 25))
        cover = trivial_cover(pts, disks)
        want = set(map(tuple, brute_force_incidences(pts, disks).edges))
        assert edge_set(cover) == want


def test_disk_grid_keeps_an_incidence_far_from_the_origin():
    # floats put the point and the centre 2**14 apart; the pair is at
    # distance exactly r
    pts = [Point((10**20 + 8191, 0))]
    centres = [Point((10**20 + 8193, 0))]
    assert trivial_cover(pts, [Disk(centres[0], 2)]).parts == [([0], [0])]
    assert decide(pts, centres, Metric.L2, 2).feasible


def test_disk_grid_takes_coordinates_past_the_float_range():
    rng = random.Random(13)
    big = 10**400
    for _ in range(10):
        pts = [
            Point((big + p.coords[0], big - p.coords[1]))
            for p in rand_points(rng, rng.randrange(1, 20))
        ]
        disks = [
            Disk(Point((big + d.center.coords[0], big - d.center.coords[1])), d.radius)
            for d in rand_congruent_disks(rng, rng.randrange(1, 20))
        ]
        cover = trivial_cover(pts, disks)
        assert edge_set(cover) == set(map(tuple, brute_force_incidences(pts, disks).edges))


@pytest.mark.parametrize("kind", ["int", "float", "fraction", "big"])
def test_disk_cover_is_exact_and_edge_disjoint(kind):
    rng = random.Random({"int": 31, "float": 32, "fraction": 33, "big": 34}[kind])
    scalar = {
        "int": lambda: rng.randrange(-40, 41),
        "float": lambda: rng.randrange(-400, 401) / 8,
        "fraction": lambda: rand_fraction(rng, -40, 40),
        "big": lambda: 10**400 + rng.randrange(-40, 41),
    }[kind]
    for _ in range(12):
        pts = [(scalar(), scalar()) for _ in range(rng.randrange(0, 20))]
        centres = [(scalar(), scalar()) for _ in range(rng.randrange(0, 20))]
        r_sq = rand_fraction(rng, 0, 300) if kind == "fraction" else rng.randrange(0, 300)
        cover = disk_cover(pts, centres, r_sq)
        report = validate_cover(
            cover, [Point(p) for p in pts], [Disk(Point(c), None, r_sq) for c in centres]
        )
        assert report.ok, (report.missing, report.extra)
        assert cover.parts == sorted(cover.parts)


def test_disk_cover_with_a_fractional_squared_radius():
    r_sq = Fraction(51, 2)  # floor 25
    centres = [(0, 0)]
    assert disk_cover([(3, 4)], centres, r_sq).parts == [([0], [0])]  # d^2 = 25
    assert disk_cover([(1, 5)], centres, r_sq).parts == []  # d^2 = 26
    assert disk_cover([(-3, -4), (1, 5), (5, 0)], centres, r_sq).parts == [
        ([0], [0]),
        ([2], [0]),
    ]
    with pytest.raises(InputError):
        disk_cover([(0, 0)], centres, -1)


def test_float_disks_decide_exactly():
    # in floats the squared distance and 7.8 ** 2 both round to the same
    # value; exactly, the point lies outside the disk
    p, c = Point((3.9, -9.8)), Point((-3.3, -6.8))
    dx, dy = Fraction(3.9) - Fraction(-3.3), Fraction(-9.8) - Fraction(-6.8)
    assert dx * dx + dy * dy > Fraction(7.8) ** 2
    disk = Disk(c, 7.8)
    assert disk.radius_sq == Fraction(7.8) ** 2
    assert not contains(disk, p)
    assert trivial_cover([p], [disk]).parts == []
    assert disk_cover([p.coords], [c.coords], Fraction(7.8) ** 2).parts == []
    assert not decide([p], [c], Metric.L2, 7.8).feasible


def test_box_cover_matches_brute_force_all_dims():
    rng = random.Random(11)
    for d in (1, 2, 3):
        for _ in range(15):
            pts = rand_points(rng, rng.randrange(0, 20), d)
            boxes = rand_boxes(rng, rng.randrange(0, 20), d)
            cover = box_cover(pts, boxes, d)
            want = set(map(tuple, brute_force_incidences(pts, boxes).edges))
            assert edge_set(cover) == want


def test_box_cover_parts_are_edge_disjoint():
    rng = random.Random(13)
    for _ in range(20):
        pts = rand_points(rng, 20)
        boxes = rand_boxes(rng, 20)
        cover = box_cover(pts, boxes)
        seen = set()
        for pts_i, rngs_i in cover.parts:
            for p in pts_i:
                for r in rngs_i:
                    assert (p, r) not in seen
                    seen.add((p, r))


def test_validate_cover_reports():
    pts = [Point((0, 0)), Point((5, 5))]
    boxes = [Box(Point((-1, -1)), Point((1, 1)))]
    good = box_cover(pts, boxes)
    rep = validate_cover(good, pts, boxes)
    assert rep.edge_set_ok and rep.edge_disjoint and rep.ok

    missing = BicliqueCover(2, 1, [])
    rep = validate_cover(missing, pts, boxes)
    assert not rep.edge_set_ok
    assert (0, 0) in rep.missing

    extra = BicliqueCover(2, 1, [([0, 1], [0])])
    rep = validate_cover(extra, pts, boxes)
    assert not rep.edge_set_ok
    assert (1, 0) in rep.extra

    doubled = BicliqueCover(2, 1, [([0], [0]), ([0], [0])])
    rep = validate_cover(doubled, pts, boxes)
    assert rep.edge_set_ok and not rep.edge_disjoint


def test_cover_text_round_trip():
    rng = random.Random(3)
    pts = rand_points(rng, 12)
    boxes = rand_boxes(rng, 9)
    cover = box_cover(pts, boxes)
    back = cover_from_text(cover_to_text(cover), 12, 9)
    assert [tuple(map(tuple, part)) for part in back.parts] == [
        tuple(map(tuple, part)) for part in cover.parts
    ]
    assert cover_size(back) == cover_size(cover)


def test_cover_text_rejects_garbage():
    with pytest.raises(InputError):
        cover_from_text("")
    with pytest.raises(InputError):
        cover_from_text("nonsense header\n")
    with pytest.raises(InputError):
        cover_from_text("sigma=2 parts=2\nP: 0 | R: 0\n")
    with pytest.raises(InputError):
        cover_from_text("sigma=99 parts=1\nP: 0 | R: 0\n")


def test_box_cover_fractional_coordinates():
    pts = [Point((Fraction(1, 3), Fraction(1, 3)))]
    boxes = [Box(Point((0, 0)), Point((Fraction(1, 3), 1)))]
    cover = box_cover(pts, boxes)
    assert edge_set(cover) == {(0, 0)}


def test_box_cover_scales_fractions_to_int_parts(monkeypatch):
    import geomatch.cover as cover_mod

    seen = []

    class RecordedTree(cover_mod.BoxTree):
        def __init__(self, coords, dim):
            seen.extend(c for t in coords for c in t)
            super().__init__(coords, dim)

        def parts(self, lows, highs):
            seen.extend(c for group in (lows, highs) for t in group for c in t)
            return super().parts(lows, highs)

    monkeypatch.setattr(cover_mod, "BoxTree", RecordedTree)
    rng = random.Random(37)
    dens = (3, 7, 10)
    for d in (1, 2, 3):
        pts = rand_points(rng, 25, d=d)
        pts = [Point(tuple(c + Fraction(1, rng.choice(dens)) for c in p.coords)) for p in pts]
        boxes = rand_boxes(rng, 20, d=d)
        cover = box_cover(pts, boxes)
        assert validate_cover(cover, pts, boxes).ok
        assert seen and all(type(c) is int for c in seen)
        corners = [c for b in boxes for c in b.lo.coords + b.hi.coords]
        scale = math.lcm(*(c.denominator for c in corners + [c for p in pts for c in p.coords]))
        as_ints = lambda p: Point(tuple(int(c * scale) for c in p.coords))
        int_pts = [as_ints(p) for p in pts]
        int_boxes = [Box(as_ints(b.lo), as_ints(b.hi)) for b in boxes]
        assert box_cover(int_pts, int_boxes).parts == cover.parts


def _int_instance(rng, d):
    """Points and box corners on a coarse int grid, so coordinates repeat and
    some boxes have zero width or miss every point; either side may be
    empty."""
    n, m = rng.randrange(0, 30), rng.randrange(0, 30)
    pts = [tuple(rng.randrange(-6, 7) for _ in range(d)) for _ in range(n)]
    lo, hi = [], []
    for _ in range(m):
        a = [rng.randrange(-8, 9) for _ in range(d)]
        w = [rng.choice((0, 0, 1, 3, 12)) for _ in range(d)]
        lo.append(tuple(a))
        hi.append(tuple(x + y for x, y in zip(a, w)))
    return pts, lo, hi


def test_box_tree_matches_recursive_reference():
    rng = random.Random(61)
    for d in (1, 2, 3, 4):
        for _ in range(60):
            pc, lo, hi = _int_instance(rng, d)
            parts = BoxTree(pc, d).parts(lo, hi)
            assert parts == range_tree_parts(pc, lo, hi, d)
            pts = [Point(t) for t in pc]
            boxes = [Box(Point(a), Point(b)) for a, b in zip(lo, hi)]
            cover = box_cover(pts, boxes, d)
            assert cover.parts == parts
            assert validate_cover(cover, pts, boxes).ok


def test_box_tree_answers_growing_boxes_as_a_fresh_tree_would():
    # a search queries one tree with the L-infinity balls of one set of
    # centres at growing radii; every answer is the reference's, so the
    # nodes kept from earlier queries carry nothing into a later one
    rng = random.Random(63)
    for d in (1, 2, 3):
        pc = [tuple(rng.randrange(-20, 21) for _ in range(d)) for _ in range(40)]
        centres = [tuple(rng.randrange(-20, 21) for _ in range(d)) for _ in range(30)]
        tree = BoxTree(pc, d)
        for lam in (0, 1, 3, 7, 15, 31, 63):
            lo = [tuple(c - lam for c in q) for q in centres]
            hi = [tuple(c + lam for c in q) for q in centres]
            assert tree.parts(lo, hi) == range_tree_parts(pc, lo, hi, d), (d, lam)


def test_box_tree_queries_share_no_state():
    rng = random.Random(62)
    d = 2
    pc, _, _ = _int_instance(rng, d)
    while not pc:
        pc, _, _ = _int_instance(rng, d)
    tree = BoxTree(pc, d)
    queries = [_int_instance(rng, d)[1:] for _ in range(50)]
    fresh = [BoxTree(pc, d).parts(lo, hi) for lo, hi in queries]
    for i in rng.sample(range(50), 50):
        parts = tree.parts(*queries[i])
        assert parts == fresh[i]
        # a consumer that writes to the parts it got changes no later query
        for pts, rngs in parts:
            pts.clear()
            rngs.clear()
    assert [tree.parts(lo, hi) for lo, hi in queries] == fresh
